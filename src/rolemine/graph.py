"""Immutable graph container, edge-list ingestion, and node relabeling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np


def _check_count(name: str, value, least: int = 0) -> None:
    """Reject a value that is not an int >= least. A bool is refused too,
    though True == 1: JSON would write it as true."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


class CSR(NamedTuple):
    """Compressed sparse rows of an adjacency.

    Row u is indices[indptr[u]:indptr[u + 1]], ascending; weights[k] is the
    weight of the arc from u to indices[k].
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple graph with dense node ids 0..n-1.

    ``edges`` is an (m, 2) int64 array of distinct undirected rows u < v,
    sorted ascending. ``weights`` is None (unweighted) or a float array
    aligned with ``edges``. The constructor takes any (m, 2) integer
    array-like and positive finite weights, one per row; it orients the rows
    u < v, sorts them and merges repeated rows, summing their weights in
    ascending order. Both arrays are read-only. Graphs compare by identity.
    """

    n: int
    edges: np.ndarray = ()
    weights: np.ndarray | None = None

    def __post_init__(self):
        n = self.n
        _check_count("node count", n)
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
        e = np.sort(e, axis=1)
        keys, inverse = np.unique(e[:, 0] * n + e[:, 1], return_inverse=True)
        edges = np.stack([keys // n, keys % n], axis=1)
        if w is not None:
            # repeated rows sum in ascending weight order, so row order never reaches the bits
            order = np.lexsort((w, inverse))
            w = np.bincount(inverse[order], weights=w[order], minlength=keys.size)
            w.flags.writeable = False
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", w)

    @cached_property
    def csr(self) -> CSR:
        """The adjacency, built once: row u holds every node adjacent to u,
        and an edge weighs its weight (1 if unweighted) from either end."""
        n = self.n
        src, dst = np.concatenate([self.edges, self.edges[:, ::-1]]).T
        w = np.ones(len(self.edges)) if self.weights is None else self.weights
        order = np.argsort(src * n + dst)  # distinct edges give distinct keys
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return CSR(indptr, dst[order], np.concatenate([w, w])[order])


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
        remap = {lab: i for i, lab in enumerate(dict.fromkeys(labels))}  # first-seen order
        return cls(tuple(remap[lab] for lab in labels), len(remap))

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


def load_edge_list(source: str) -> Graph:
    """Parse whitespace-separated edge-list text into a Graph.

    Lines are "u v" or "u v w"; '#' and '%' lines are comments. Node ids are
    the ranks of the integer labels among the distinct labels, ascending, so
    neither the order of the lines nor that of a line's two ends moves them.
    Duplicate edges collapse; when any line carries a weight the graph is
    weighted and duplicates sum (weightless lines count 1.0).

    A label is an optional '-' then ASCII digits, and a weight holds no '_'.
    Raises ValueError naming the offending line for self-loops, non-positive
    or non-finite weights, and malformed tokens.
    """
    ends: list[int] = []
    weights: list[float] = []
    any_weighted = False
    # int and float also read '+', '_' and non-ASCII digits ('1_0' is 10), so a
    # text holding one checks each token; '?' for '_' makes float refuse it
    strict = not source.isascii() or "_" in source or "+" in source
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v' or 'u v w', got {len(tokens)} columns")
        try:
            if strict and not all(t.isascii() and t.lstrip("-").isdigit() for t in tokens[:2]):
                raise ValueError
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(f"line {lineno}: a node id is an optional '-' and ASCII digits") from None
        if a == b:
            raise ValueError(f"line {lineno}: self-loop at node {a}")
        w = 1.0
        if len(tokens) == 3:
            try:
                w = float(tokens[2].replace("_", "?") if strict else tokens[2])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed weight {tokens[2]!r}") from None
            if not (w > 0 and math.isfinite(w)):
                raise ValueError(f"line {lineno}: weight must be a positive finite number")
            any_weighted = True
        ends += (a, b)
        weights.append(w)
    # labels stay Python ints, so any integer label sorts and loads
    ids = {label: i for i, label in enumerate(sorted(set(ends)))}
    edges = np.array([ids[label] for label in ends], dtype=np.int64).reshape(-1, 2)
    return Graph(n=len(ids), edges=edges, weights=weights if any_weighted else None)


def write_edge_list(g: Graph) -> str:
    """Serialize to edge-list text: the stored edges in their sorted order,
    one per line, LF endings. Loading the text gives back g whenever g has
    no isolated node, which an edge list cannot name.
    """
    weights = [""] * len(g.edges) if g.weights is None else [f" {w!r}" for w in g.weights.tolist()]
    return "".join([f"{u} {v}{w}\n" for (u, v), w in zip(g.edges.tolist(), weights)])


def apply_permutation(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel nodes: node u becomes perm[u]. perm must be a bijection."""
    p = np.asarray(perm, dtype=np.int64)
    if p.shape != (g.n,) or not (np.sort(p) == np.arange(g.n)).all():
        raise ValueError("perm must be a bijection on 0..n-1")
    return Graph(n=g.n, edges=p[g.edges], weights=g.weights)
