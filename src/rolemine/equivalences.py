"""Exact node-equivalence oracles: structural, automorphic, regular.

These run at toy scale and serve as ground truth for property tests of the
feature pipeline. All three return canonical NodePartitions (classes numbered
by smallest member).
"""

from __future__ import annotations

from .graph import Graph, NodePartition

AUTOMORPHISM_NODE_LIMIT = 10


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _neighbor_rows(g: Graph) -> list[list[int]]:
    """The neighbors of each node, ascending."""
    ptr, idx = g.csr.indptr.tolist(), g.csr.indices.tolist()
    return [idx[a:b] for a, b in zip(ptr, ptr[1:])]


def structural_classes(g: Graph, variant: str = "strict") -> NodePartition:
    """Group nodes by neighbor sets.

    strict: u ~ v iff N(u) = N(v). weak: u ~ v iff N(u)\\{v} = N(v)\\{u}.
    """
    if variant not in ("strict", "weak"):
        raise ValueError(f"unknown variant {variant!r}")
    if g.n == 0:
        return NodePartition((), 0)
    rows = _neighbor_rows(g)
    nbrs = [tuple(row) for row in rows]
    if variant == "strict":
        return NodePartition.from_labels(nbrs)
    # Weak pairs match on N(u) when non-adjacent or on N(u)|{u} when
    # adjacent. Chains mixing the two keys would force a self-loop, so
    # merging both groupings reproduces exactly the pairwise relation.
    uf = _UnionFind(g.n)
    for key in (nbrs, [tuple(sorted(row + [u])) for u, row in enumerate(rows)]):
        first: dict[tuple, int] = {}
        for u in range(g.n):
            anchor = first.setdefault(key[u], u)
            uf.union(anchor, u)
    return NodePartition.from_labels([uf.find(u) for u in range(g.n)])


def automorphic_orbits(g: Graph) -> NodePartition:
    """Orbits of the automorphism group, by brute-force search (n <= 10).

    For each unmerged pair (u, v) a backtracking search over
    degree-compatible partial maps looks for one automorphism sending u to v;
    a found map merges all its (w, image(w)) pairs at once.
    """
    n = g.n
    if n > AUTOMORPHISM_NODE_LIMIT:
        raise ValueError(f"automorphic_orbits is oracle-scale only (n <= {AUTOMORPHISM_NODE_LIMIT})")
    if n == 0:
        return NodePartition((), 0)

    adj = [set(row) for row in _neighbor_rows(g)]
    degree = [len(a) for a in adj]

    def find_automorphism(src: int, dst: int) -> list[int] | None:
        image = [-1] * n
        used = [False] * n

        def extend(k: int) -> bool:
            if k == n:
                return True
            candidates = (dst,) if k == src else range(n)
            for v in candidates:
                if used[v] or degree[v] != degree[k]:
                    continue
                if any((k in adj[j]) != (v in adj[image[j]]) for j in range(k)):
                    continue
                image[k] = v
                used[v] = True
                if extend(k + 1):
                    return True
                image[k] = -1
                used[v] = False
            return False

        return image if extend(0) else None

    uf = _UnionFind(n)
    for u in range(n):
        for v in range(u + 1, n):
            if degree[u] != degree[v] or uf.find(u) == uf.find(v):
                continue
            image = find_automorphism(u, v)
            if image is not None:
                for w, iw in enumerate(image):
                    uf.union(w, iw)
    return NodePartition.from_labels([uf.find(u) for u in range(g.n)])


def regular_refinement(g: Graph) -> NodePartition:
    """Coarsest regular-consistent partition: starting from one class,
    repeatedly splits classes whose members see different sets of neighbor
    class labels, simultaneously over all classes, until a fixed point.
    """
    if g.n == 0:
        return NodePartition((), 0)
    labels = [0] * g.n
    rows = _neighbor_rows(g)
    while True:
        sigs = [(labels[u], frozenset(labels[v] for v in rows[u])) for u in range(g.n)]
        refined = NodePartition.from_labels(sigs)
        if list(refined.assignment) == labels:
            return refined
        labels = list(refined.assignment)
