"""Exact node-equivalence oracles: structural, automorphic, regular.

These run at toy scale and serve as ground truth for property tests of the
feature pipeline. All three return an int64 label per node, the classes
numbered 0..k-1 by their smallest member.
"""

from __future__ import annotations

import numpy as np

from .features import _byte_rows, _degree_groups, _first_rows
from .graph import Graph

AUTOMORPHISM_NODE_LIMIT = 10


def _row_classes(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """A label per node, equal iff the nodes' ascending CSR rows are equal:
    a byte-row group-by within each degree bucket. Empty rows get label 0,
    and every label is below len(indptr)."""
    labels = np.zeros(len(indptr) - 1, dtype=np.int64)
    top = 1
    for nodes, rows in _degree_groups(indptr, indices):
        labels[nodes] = top + np.unique(_byte_rows(rows), return_inverse=True)[1]
        top += len(nodes)
    return labels


def structural_classes(g: Graph, variant: str = "strict") -> np.ndarray:
    """Group nodes by neighbor sets.

    strict: u ~ v iff N(u) = N(v). weak: u ~ v iff N(u)\\{v} = N(v)\\{u},
    so v is an open twin of u (N(u) = N(v), not adjacent) or a closed twin
    (N(u)|{u} = N(v)|{v}, adjacent). No node has both: with open twin v and
    closed twin w, w is in N(u) = N(v), so v is in N(w)|{w} = N(u)|{u},
    making u and v adjacent. So a node keeps its strict class when it
    shares it, and otherwise takes its class of closed neighborhoods.
    """
    if variant not in ("strict", "weak"):
        raise ValueError(f"unknown variant {variant!r}")
    indptr, indices = g.csr[:2]
    labels = _row_classes(indptr, indices)
    if variant == "weak":
        # each row with its own node inserted in order
        nodes = np.arange(g.n)
        rows = np.concatenate([np.repeat(nodes, np.diff(indptr)), nodes])
        cols = np.concatenate([indices, nodes])
        closed = _row_classes(indptr + np.arange(g.n + 1), cols[np.lexsort((cols, rows))])
        shared = np.bincount(labels)[labels] > 1
        labels = np.where(shared, labels, g.n + 1 + closed)
    return _first_rows(labels[:, None])[1]


def automorphic_orbits(g: Graph) -> np.ndarray:
    """Orbits of the automorphism group, by brute-force search (n <= 10).

    Each node v joins the orbit of the first smaller node u, among those
    that head their orbits, for which a backtracking search over
    degree-compatible partial maps finds an automorphism sending u to v.
    """
    n = g.n
    if n > AUTOMORPHISM_NODE_LIMIT:
        raise ValueError(f"automorphic_orbits is oracle-scale only (n <= {AUTOMORPHISM_NODE_LIMIT})")
    indptr, indices = g.csr[:2]
    degree = np.diff(indptr)
    dense = np.zeros((n, n), dtype=bool)
    dense[np.repeat(np.arange(n), degree), indices] = True
    adj, degree = dense.tolist(), degree.tolist()

    def maps(src: int, dst: int) -> bool:
        image: list[int] = []  # the images of nodes 0..k-1

        def extend(k: int) -> bool:
            if k == n:
                return True
            for v in (dst,) if k == src else range(n):
                if v not in image and degree[v] == degree[k] and all(
                    adj[k][j] == adj[v][image[j]] for j in range(k)
                ):
                    image.append(v)
                    if extend(k + 1):
                        return True
                    image.pop()
            return False

        return extend(0)

    head = list(range(n))
    for v in range(n):
        head[v] = next((u for u in range(v) if head[u] == u and degree[u] == degree[v]
                        and maps(u, v)), v)
    return _first_rows(np.array(head)[:, None])[1]


def regular_refinement(g: Graph) -> np.ndarray:
    """Coarsest regular partition, the fixed point of splitting classes
    whose members see different sets of neighbor classes: isolated nodes
    and the rest. From one class, the first split separates the nodes that
    see no class from those that see it. After that, every neighbor of a
    non-isolated node is non-isolated, so each of them sees exactly that
    class and the split is final.
    """
    return _first_rows((np.diff(g.csr.indptr) > 0)[:, None])[1]
