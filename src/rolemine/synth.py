"""Synthetic graphs for experiments and tests."""

from __future__ import annotations

import numpy as np

from .graph import Graph, _check_count


def erdos_renyi(n: int, p: float, seed: int = 1) -> Graph:
    """G(n, p) with a seeded generator. Self-loops are never drawn."""
    _check_count("n", n, 1)
    _check_count("seed", seed)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    # one draw per candidate pair u < v, in row-major order of the upper
    # triangle; a row at a time keeps memory at O(n + m)
    heads = [u + 1 + np.flatnonzero(rng.random(n - 1 - u) < p) for u in range(n)]
    tails = np.repeat(np.arange(n), [v.size for v in heads])
    return Graph(n=n, edges=np.column_stack([tails, np.concatenate(heads)]))


def planted_role_graph(seed: int = 1, units: int = 3) -> tuple[Graph, np.ndarray]:
    """A graph with four planted structural roles, node ids shuffled by seed.

    Each unit is a 6-clique, a star center with 6 leaves, and 6 degree-2
    bridge nodes tying each clique member to the unit's center. Within a
    role every node has an identical neighborhood shape, so recursive
    structural features are constant on each role by construction. Roles:
    0 clique member, 1 star center, 2 leaf, 3 bridge.

    Returns (graph, role labels): an int64 array, the role of each node.
    """
    _check_count("seed", seed)
    _check_count("units", units, 1)
    # one unit: clique 0-5, center 6, leaves 7-12, bridge 13 + j to clique member j
    j = np.arange(6)
    unit = np.concatenate([
        np.column_stack(np.triu_indices(6, 1)),
        np.column_stack([np.full(6, 6), j + 7]),
        np.column_stack([j, j + 13]),
        np.column_stack([j + 13, np.full(6, 6)]),
    ])
    edges = (unit + 19 * np.arange(units)[:, None, None]).reshape(-1, 2)
    labels = np.tile(np.repeat(np.arange(4), [6, 1, 6, 6]), units)
    perm = np.random.default_rng(seed).permutation(19 * units)
    return Graph(n=19 * units, edges=perm[edges]), labels[np.argsort(perm)]
