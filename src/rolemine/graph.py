"""Immutable graph container, edge-list ingestion, and node relabeling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

Edge = tuple[int, int]


class CSR(NamedTuple):
    """Compressed sparse rows of the direction-free adjacency.

    Row u is indices[indptr[u]:indptr[u + 1]], ascending, the same nodes as
    Graph.neighbors[u]; weights[k] is edge_weight(u, indices[k]).
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class Graph:
    """Simple graph with dense node ids 0..n-1.

    Undirected edges are stored with endpoints ascending; directed edges keep
    their orientation. ``weights``, when present, maps every stored edge to a
    strictly positive real; None means unweighted.
    """

    n: int
    edges: frozenset[Edge] = frozenset()
    weights: Mapping[Edge, float] | None = None
    directed: bool = False

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("node count must be non-negative")
        canon = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) outside node range 0..{self.n - 1}")
            canon.add((u, v) if self.directed or u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(canon))
        if self.weights is not None:
            normalized: dict[Edge, float] = {}
            for (u, v), value in self.weights.items():
                key = (u, v) if self.directed or u < v else (v, u)
                if key not in self.edges:
                    raise ValueError(f"weight given for missing edge ({u}, {v})")
                if key in normalized:
                    raise ValueError(f"duplicate weight for edge {key}")
                if not value > 0:
                    raise ValueError(f"non-positive weight {value} on edge ({u}, {v})")
                normalized[key] = float(value)
            missing = self.edges - normalized.keys()
            if missing:
                raise ValueError(f"missing weight for edge {min(missing)}")
            object.__setattr__(self, "weights", normalized)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Adjacent nodes per node, sorted ascending; ignores direction."""
        ptr, idx = self.csr.indptr.tolist(), self.csr.indices.tolist()
        return tuple(tuple(idx[a:b]) for a, b in zip(ptr, ptr[1:]))

    @cached_property
    def csr(self) -> CSR:
        """The adjacency as CSR arrays, built once."""
        edges = list(self.edges)
        e = np.array(edges, dtype=np.int64).reshape(len(edges), 2)
        if self.weights is None:
            w = np.ones(len(edges))
        else:
            w = np.array([self.weights[x] for x in edges], dtype=float)
        src = np.concatenate([e[:, 0], e[:, 1]])
        dst = np.concatenate([e[:, 1], e[:, 0]])
        # a directed edge u -> v weighs nothing seen from v
        wt = np.concatenate([w, np.zeros(len(edges)) if self.directed else w])
        key = src * self.n + dst
        order = np.lexsort((wt, key))
        key, wt = key[order], wt[order]
        # reciprocal directed edges meet at one slot; keep its out-edge weight
        last = np.ones(key.size, dtype=bool)
        last[:-1] = key[1:] != key[:-1]
        key, wt = key[last], wt[last]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(key // self.n, minlength=self.n), out=indptr[1:])
        return CSR(indptr, key % self.n, wt)

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            if not self.directed:
                adj[v].add(u)
        return tuple(tuple(sorted(s)) for s in adj)

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[v].add(u)
            if not self.directed:
                adj[u].add(v)
        return tuple(tuple(sorted(s)) for s in adj)

    def edge_weight(self, u: int, v: int) -> float:
        key = (u, v) if self.directed or u < v else (v, u)
        if self.weights is None:
            return 1.0 if key in self.edges else 0.0
        return self.weights.get(key, 0.0)


@dataclass(frozen=True)
class NodePartition:
    """Partition of nodes into classes labeled 0..class_count-1 (no gaps)."""

    assignment: tuple[int, ...]
    class_count: int

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))
        seen = set(self.assignment)
        if self.assignment and seen != set(range(self.class_count)):
            raise ValueError("labels must be exactly 0..class_count-1")
        if not self.assignment and self.class_count != 0:
            raise ValueError("empty assignment requires class_count 0")

    @classmethod
    def from_labels(cls, labels: Sequence) -> "NodePartition":
        """Canonicalize arbitrary hashable labels: classes are numbered in
        order of their smallest member."""
        first_member: dict = {}
        for u, lab in enumerate(labels):
            first_member.setdefault(lab, u)
        order = sorted(first_member, key=first_member.get)
        remap = {lab: i for i, lab in enumerate(order)}
        return cls(tuple(remap[lab] for lab in labels), len(order))

    @classmethod
    def from_classes(cls, classes: Iterable[Iterable[int]], n: int) -> "NodePartition":
        labels = [-1] * n
        for i, members in enumerate(classes):
            for u in members:
                if labels[u] != -1:
                    raise ValueError(f"node {u} appears in two classes")
                labels[u] = i
        if -1 in labels:
            raise ValueError("classes do not cover all nodes")
        return cls.from_labels(labels)

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes as sorted tuples, ordered by smallest member."""
        groups: dict[int, list[int]] = {}
        for u, lab in enumerate(self.assignment):
            groups.setdefault(lab, []).append(u)
        return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))

    def refines(self, other: "NodePartition") -> bool:
        """True if every class of self is contained in a class of other."""
        if len(self.assignment) != len(other.assignment):
            raise ValueError("partitions cover different node sets")
        image: dict[int, int] = {}
        for u, lab in enumerate(self.assignment):
            target = other.assignment[u]
            if image.setdefault(lab, target) != target:
                return False
        return True

    def to_classes_dict(self) -> dict:
        return {"classes": [list(c) for c in self.classes]}


def load_edge_list(source: str | Iterable[str], directed: bool = False) -> Graph:
    """Parse whitespace-separated edge-list text into a Graph.

    Lines are "u v" or "u v w"; '#' and '%' lines are comments. Node labels
    are compacted to 0..n-1 in first-appearance order. Duplicate edges
    collapse; when any line carries a weight the graph is weighted and
    duplicates sum (weightless lines count 1.0).

    Raises ValueError naming the offending line for self-loops, non-positive
    or non-finite weights, and malformed tokens.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    ids: dict[int, int] = {}
    entries: list[tuple[int, int, float | None]] = []
    any_weighted = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v' or 'u v w', got {len(tokens)} columns")
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer node id") from None
        if a == b:
            raise ValueError(f"line {lineno}: self-loop at node {a}")
        w = None
        if len(tokens) == 3:
            try:
                w = float(tokens[2])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed weight {tokens[2]!r}") from None
            if not (w > 0 and math.isfinite(w)):
                raise ValueError(f"line {lineno}: weight must be a positive finite number")
            any_weighted = True
        u = ids.setdefault(a, len(ids))
        v = ids.setdefault(b, len(ids))
        entries.append((u, v, w))

    n = len(ids)
    if not any_weighted:
        edges = {(u, v) if directed or u < v else (v, u) for u, v, _ in entries}
        return Graph(n=n, edges=frozenset(edges), weights=None, directed=directed)
    weights: dict[Edge, float] = {}
    for u, v, w in entries:
        key = (u, v) if directed or u < v else (v, u)
        weights[key] = weights.get(key, 0.0) + (1.0 if w is None else w)
    return Graph(n=n, edges=frozenset(weights), weights=weights, directed=directed)


def write_edge_list(g: Graph) -> str:
    """Serialize to edge-list text (one edge per line, LF endings).

    Line order makes reloading assign the same node ids whenever the graph
    came from load_edge_list: a head of discovery lines introduces nodes in
    id order (for node k, prefer an edge to a smaller id; else the edge
    where k leads with the smallest partner), then the remaining edges
    follow in sorted order. Isolated nodes are not representable.
    """
    edges = sorted(g.edges)
    head: list[tuple[int, int]] = []
    used: set[tuple[int, int]] = set()
    seen: set[int] = set()
    incident: dict[int, list[tuple[int, int]]] = {}
    for e in edges:
        incident.setdefault(e[0], []).append(e)
        incident.setdefault(e[1], []).append(e)
    for k in range(g.n):
        if k in seen or k not in incident:
            continue
        candidates = []
        for e in incident[k]:
            other = e[1] if e[0] == k else e[0]
            if other < k:
                rank = 0
            elif e[0] == k:
                rank = 1
            else:
                rank = 2
            candidates.append((rank, other, e))
        e = min(candidates)[2]
        head.append(e)
        used.add(e)
        seen.update(e)
    lines = []
    for u, v in head + [e for e in edges if e not in used]:
        if g.weights is None:
            lines.append(f"{u} {v}")
        else:
            lines.append(f"{u} {v} {g.weights[(u, v)]!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def apply_permutation(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel nodes: node u becomes perm[u]. perm must be a bijection."""
    if len(perm) != g.n or sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a bijection on 0..n-1")
    edges = frozenset((perm[u], perm[v]) for u, v in g.edges)
    weights = None
    if g.weights is not None:
        weights = {(perm[u], perm[v]): w for (u, v), w in g.weights.items()}
    return Graph(n=g.n, edges=edges, weights=weights, directed=g.directed)
