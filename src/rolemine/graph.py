"""Immutable graph container, edge-list ingestion, and node relabeling."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
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
    sorted ascending. ``weights`` is None or a float array aligned with
    ``edges``. ``csr`` is the adjacency, each edge weighing its weight (1 if
    ``weights`` is None) from both ends. The constructor takes any (m, 2)
    integer array-like and positive finite weights, one per row. One sort of
    both orientations of the rows gives the CSR; repeated rows merge, summing
    their weights in ascending order, and its arcs u < v are ``edges``. Edges
    and weights are read-only. Graphs compare by identity.
    """

    n: int
    edges: np.ndarray = ()
    weights: np.ndarray | None = None
    csr: CSR = field(init=False, repr=False)

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
        # both orientations of each row, sorted once: the arcs of the CSR
        arcs = np.concatenate([e, e[:, ::-1]])
        keys, inverse = np.unique(arcs[:, 0] * n + arcs[:, 1], return_inverse=True)
        src, dst = keys // n, keys % n
        edges = np.stack([src, dst], axis=1)[src < dst]
        arc_weights = np.ones(keys.size)
        if w is not None:
            # repeated rows sum in ascending weight order, so row order never reaches the bits
            w = np.concatenate([w, w])
            order = np.lexsort((w, inverse))
            arc_weights = np.bincount(inverse[order], weights=w[order], minlength=keys.size)
            w = arc_weights[src < dst]
            w.flags.writeable = False
        edges.flags.writeable = False
        indptr = np.concatenate([[0], np.bincount(src, minlength=n).cumsum()])
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "csr", CSR(indptr, dst, arc_weights))


# a plain line: two labels of at most 18 digits, so both fit int64, and one space
_PLAIN_LINE = r"-?[0-9]{1,18} -?[0-9]{1,18}(?:\n|\Z)"
_FIRST_PLAIN = re.compile(_PLAIN_LINE)
# the LF before the first line that is not plain; scanning for LF is faster than for ^
_NOT_PLAIN = re.compile(rf"\n(?!{_PLAIN_LINE}|\Z)")


def _is_plain(source: str) -> bool:
    """Whether every line of `source` is plain, so the array pass reads it."""
    return _FIRST_PLAIN.match(source) is not None and _NOT_PLAIN.search(source) is None


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

    A plain text, every line "u v" with labels of at most 18 digits, one
    space and LF endings, is parsed in one array pass; any other text, and a
    plain one holding a self-loop, goes line by line, to the same graph.
    """
    if _is_plain(source):
        # fromstring reads whitespace-separated ints without a str per token
        labels, pairs = np.unique(np.fromstring(source, dtype=np.int64, sep=" "), return_inverse=True)
        pairs = pairs.reshape(-1, 2)
        if not (pairs[:, 0] == pairs[:, 1]).any():  # else the loop names the self-loop's line
            return Graph(n=labels.size, edges=pairs)
    ends: list[int] = []
    weights: list[float] = []
    any_weighted = False
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v' or 'u v w', got {len(tokens)} columns")
        # int also reads '+', '_' and non-ASCII digits, so each label is checked first
        if not all(t.isascii() and t.removeprefix("-").isdigit() for t in tokens[:2]):
            raise ValueError(f"line {lineno}: a node id is an optional '-' and ASCII digits")
        a, b = int(tokens[0]), int(tokens[1])
        if a == b:
            raise ValueError(f"line {lineno}: self-loop at node {a}")
        w = 1.0
        if len(tokens) == 3:
            try:
                w = float(tokens[2].replace("_", "?"))  # float reads '1_0' as 10; '?' it refuses
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
    """Relabel nodes: node u becomes perm[u]. perm must be a bijection on
    0..n-1 of integers; a float or bool entry is refused, not truncated."""
    p = np.asarray(perm)
    bijection = p.shape == (g.n,) and (np.sort(p) == np.arange(g.n)).all()
    # an int array also holds bools, so the entries' own types are checked
    if not bijection or g.n and (p.dtype.kind not in "iu" or bool in map(type, perm)):
        raise ValueError("perm must be a bijection on 0..n-1 of integers")
    return Graph(n=g.n, edges=p[g.edges], weights=g.weights)
