"""Synthetic graphs for experiments and tests."""

from __future__ import annotations

import numpy as np

from .graph import Graph, apply_permutation


def erdos_renyi(n: int, p: float, seed: int = 1, directed: bool = False) -> Graph:
    """G(n, p) with a seeded generator. Self-loops are never drawn."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    # one draw per candidate pair (u, v), in row-major order of the
    # adjacency matrix; a row at a time keeps memory at O(n + m)
    heads = []
    for u in range(n):
        if directed:
            v = np.flatnonzero(rng.random(n - 1) < p)
            v += v >= u  # step over the diagonal
        else:
            v = u + 1 + np.flatnonzero(rng.random(n - 1 - u) < p)
        heads.append(v)
    tails = np.repeat(np.arange(n), [v.size for v in heads])
    return Graph(n=n, edges=np.column_stack([tails, np.concatenate(heads)]), directed=directed)


def planted_role_graph(seed: int = 1, units: int = 3) -> tuple[Graph, tuple[int, ...]]:
    """A graph with four planted structural roles, node ids shuffled by seed.

    Each unit is a 6-clique, a star center with 6 leaves, and 6 degree-2
    bridge nodes tying each clique member to the unit's center. Within a
    role every node has an identical neighborhood shape, so recursive
    structural features are constant on each role by construction. Roles:
    0 clique member, 1 star center, 2 leaf, 3 bridge.

    Returns (graph, role label per node).
    """
    if units < 1:
        raise ValueError("units must be >= 1")
    edges = []
    labels = []
    n = 0
    for _ in range(units):
        clique = list(range(n, n + 6))
        center = n + 6
        leaves = list(range(n + 7, n + 13))
        bridges = list(range(n + 13, n + 19))
        n += 19
        for i in range(6):
            for j in range(i + 1, 6):
                edges.append((clique[i], clique[j]))
        for leaf in leaves:
            edges.append((center, leaf))
        for j in range(6):
            edges.append((clique[j], bridges[j]))
            edges.append((bridges[j], center))
        labels.extend([0] * 6 + [1] + [2] * 6 + [3] * 6)
    perm = np.random.default_rng(seed).permutation(n)
    shuffled = np.empty(n, dtype=int)
    shuffled[perm] = labels
    return apply_permutation(Graph(n=n, edges=edges), perm), tuple(shuffled.tolist())
