"""Immutable graph container, edge-list ingestion, and node relabeling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class CSR(NamedTuple):
    """Compressed sparse rows of an adjacency.

    Row u is indices[indptr[u]:indptr[u + 1]], ascending; weights[k] is the
    weight of the arc from u to indices[k].
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray


def _rows(n: int, src: np.ndarray, dst: np.ndarray, wt: np.ndarray) -> CSR:
    """CSR of the arcs src[k] -> dst[k] weighing wt[k]. An arc given more
    than once keeps its largest weight."""
    key = src * n + dst
    order = np.lexsort((wt, key))
    key, wt = key[order], wt[order]
    last = np.ones(key.size, dtype=bool)
    last[:-1] = key[1:] != key[:-1]
    key, wt = key[last], wt[last]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    return CSR(indptr, key % n, wt)


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple graph with dense node ids 0..n-1.

    ``edges`` is an (m, 2) int64 array of distinct rows sorted ascending;
    undirected rows have u < v, directed rows keep their orientation.
    ``weights`` is None (unweighted) or a float array aligned with ``edges``.
    The constructor takes any (m, 2) integer array-like and positive finite
    weights, one per row; it orients undirected rows, sorts the rows and
    merges repeated rows, summing their weights. Both arrays are read-only.
    Graphs compare by identity.
    """

    n: int
    edges: np.ndarray = ()
    weights: np.ndarray | None = None
    directed: bool = False

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise ValueError("node count must be non-negative")
        e = np.asarray(self.edges)
        if e.size == 0:
            e = np.zeros((0, 2), dtype=np.int64)
        if e.dtype.kind not in "iu" or e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edges must be an (m, 2) integer array, got {e.dtype} {e.shape}")
        e = e.astype(np.int64, copy=False)
        outside = ((e < 0) | (e >= n)).any(axis=1)
        if outside.any():
            u, v = e[outside.argmax()]
            raise ValueError(f"edge ({u}, {v}) outside node range 0..{n - 1}")
        loops = e[:, 0] == e[:, 1]
        if loops.any():
            raise ValueError(f"self-loop at node {e[loops.argmax(), 0]}")
        w = self.weights
        if w is not None:
            w = np.asarray(w, dtype=float)
            if w.shape != (len(e),):
                raise ValueError(f"{w.size} weights given for {len(e)} edge rows")
            bad = ~(np.isfinite(w) & (w > 0))
            if bad.any():
                k = bad.argmax()
                raise ValueError(f"weight {w[k]} on edge ({e[k, 0]}, {e[k, 1]}) "
                                 "must be a positive finite number")
        if not self.directed:
            e = np.sort(e, axis=1)
        keys, inverse = np.unique(e[:, 0] * n + e[:, 1], return_inverse=True)
        edges = np.stack([keys // n, keys % n], axis=1)
        if w is not None:
            # repeated rows sum in row order, from 0.0
            w = np.bincount(inverse, weights=w, minlength=keys.size)
            w.flags.writeable = False
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", w)

    @cached_property
    def csr(self) -> CSR:
        """The direction-free adjacency, built once.

        Row u holds every node adjacent to u. On a weighted graph an edge
        weighs its weight from either end; an unweighted edge weighs 1. On a
        directed graph an arc u -> v weighs nothing seen from v, and a
        reciprocal pair keeps the out-arc's weight at each end.
        """
        src, dst = self.edges.T
        w = np.ones(src.size) if self.weights is None else self.weights
        back = np.zeros(src.size) if self.directed else w
        return _rows(self.n, np.concatenate([src, dst]), np.concatenate([dst, src]),
                     np.concatenate([w, back]))


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
    ends: list[int] = []
    weights: list[float] = []
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
        w = 1.0
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
        ends += (u, v)
        weights.append(w)
    edges = np.array(ends, dtype=np.int64).reshape(-1, 2)
    weights = weights if any_weighted else None
    return Graph(n=len(ids), edges=edges, weights=weights, directed=directed)


def write_edge_list(g: Graph) -> str:
    """Serialize to edge-list text (one edge per line, LF endings).

    Line order makes reloading assign the same node ids whenever the graph
    came from load_edge_list: a head of discovery lines introduces nodes in
    id order (for node k, prefer an edge to a smaller id; else the edge
    where k leads with the smallest partner), then the remaining edges
    follow in sorted order. Isolated nodes are not representable.
    """
    e, m = g.edges, len(g.edges)
    node, other = e.T.ravel(), e[:, ::-1].T.ravel()
    row = np.tile(np.arange(m), 2)
    # node k's introducing edge has the least (rank, partner, row): rank 0
    # to a smaller id, 1 led by k, 2 led by a larger id
    rank = np.where(other < node, 0, np.repeat([1, 2], m))
    order = np.lexsort((row, other, rank, node))
    nodes, first = np.unique(node[order], return_index=True)
    intro = np.full(g.n, -1)
    intro[nodes] = row[order[first]]
    pairs = e.tolist()
    seen = [False] * g.n
    head = []
    for k, r in enumerate(intro.tolist()):
        if r >= 0 and not seen[k]:
            head.append(r)
            u, v = pairs[r]
            seen[u] = seen[v] = True
    rest = np.ones(m, dtype=bool)
    rest[head] = False
    order = np.concatenate([np.array(head, dtype=np.int64), np.flatnonzero(rest)])
    pairs = e[order].tolist()
    if g.weights is None:
        lines = [f"{u} {v}" for u, v in pairs]
    else:
        lines = [f"{u} {v} {w!r}" for (u, v), w in zip(pairs, g.weights[order].tolist())]
    return "\n".join(lines) + ("\n" if lines else "")


def apply_permutation(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel nodes: node u becomes perm[u]. perm must be a bijection."""
    p = np.asarray(perm, dtype=np.int64)
    if p.shape != (g.n,) or not (np.sort(p) == np.arange(g.n)).all():
        raise ValueError("perm must be a bijection on 0..n-1")
    return Graph(n=g.n, edges=p[g.edges], weights=g.weights, directed=g.directed)
