"""Seeded graph inputs owned by the benchmark.

Everything here uses numpy's Generator directly, so a change to
``rolemine.synth`` cannot change a workload. Graphs are edge arrays of shape
(m, 2); :func:`canonical` relabels them so that node ids equal the order in
which the edge-list text introduces them, which is also the order
``load_edge_list`` compacts them into. Row ``u`` of any output then belongs
to node ``u`` of the generator.
"""

from __future__ import annotations

import numpy as np

# planted unit: a 6-clique, a hub with 6 leaves, and 6 bridges tying each
# clique member to the hub (same shape as the planted-role experiment)
CLIQUE, HUB, LEAF, BRIDGE = 0, 1, 2, 3
_UNIT_SIZE = 19


def _unit_edges() -> np.ndarray:
    clique = list(range(6))
    hub = 6
    leaves = list(range(7, 13))
    bridges = list(range(13, 19))
    edges = [(clique[i], clique[j]) for i in range(6) for j in range(i + 1, 6)]
    edges += [(hub, leaf) for leaf in leaves]
    for j in range(6):
        edges += [(clique[j], bridges[j]), (bridges[j], hub)]
    return np.array(edges, dtype=np.int64)


def canonical(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relabel nodes in first-appearance order of the edge sequence.

    Returns (relabeled edges, old-to-new id map).
    """
    flat = edges.ravel()
    labels, first = np.unique(flat, return_index=True)
    order = labels[np.argsort(first, kind="stable")]
    remap = np.full(int(labels.max()) + 1, -1, dtype=np.int64)
    remap[order] = np.arange(order.size)
    return remap[edges], remap


def planted(units: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Planted-role graph with shuffled ids and edge order.

    Returns (canonical edges, planted class per node).
    """
    unit = _unit_edges()
    offsets = np.repeat(np.arange(units) * _UNIT_SIZE, len(unit))
    edges = np.tile(unit, (units, 1)) + offsets[:, None]
    classes = np.tile([CLIQUE] * 6 + [HUB] + [LEAF] * 6 + [BRIDGE] * 6, units)
    edges, remap = canonical(_shuffle(edges, rng))
    out = np.empty_like(classes)
    out[remap] = classes
    return edges, out


def relabeled(edges: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A seeded relabeling of a canonical graph, written in shuffled order.

    Returns (canonical edges of the copy, map from node to its id in the copy).
    """
    n = int(edges.max()) + 1
    perm = rng.permutation(n)
    copy, remap = canonical(_shuffle(perm[edges], rng))
    return copy, remap[perm]


def erdos_renyi(n: int, mean_degree: float, rng: np.random.Generator) -> np.ndarray:
    """G(n, p) with p = mean_degree / (n - 1), canonical ids.

    A node the draw leaves isolated is tied to one random partner, because an
    edge list cannot name an isolated node.
    """
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < mean_degree / (n - 1)
    edges = {(int(u), int(v)) for u, v in zip(iu[keep], ju[keep])}
    edges = _tie_isolated(edges, n, rng)
    return canonical(np.array(sorted(edges), dtype=np.int64))[0]


def rewire(edges: np.ndarray, n: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Replace a fraction of edges with uniformly random non-edges.

    The rule of ``rewire`` in scripts/dynamic_roles.py: drop ``int(m *
    fraction)`` edges picked from the sorted edge list, then draw node pairs
    until the edge count is restored. Nodes left isolated are tied first, so
    every snapshot names all n nodes. Ids are kept, not canonicalized.
    """
    ordered = sorted((int(u), int(v)) for u, v in edges)
    kept = set(ordered)
    doomed = rng.choice(len(ordered), size=int(len(ordered) * fraction), replace=False)
    for idx in doomed:
        kept.discard(ordered[idx])
    kept = _tie_isolated(kept, n, rng)
    while len(kept) < len(ordered):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            kept.add((min(u, v), max(u, v)))
    return np.array(sorted(kept), dtype=np.int64)


def edge_list_text(edges: np.ndarray) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges.tolist())


def adjacency(edges: np.ndarray, n: int) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges.tolist():
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def _shuffle(edges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Shuffle edge order and endpoint order within each edge."""
    edges = edges[rng.permutation(len(edges))]
    flip = rng.random(len(edges)) < 0.5
    return np.where(flip[:, None], edges[:, ::-1], edges)


def _tie_isolated(edges: set, n: int, rng: np.random.Generator) -> set:
    touched = np.zeros(n, dtype=bool)
    for u, v in edges:
        touched[u] = touched[v] = True
    for u in np.flatnonzero(~touched).tolist():
        v = u
        while v == u:
            v = int(rng.integers(n))
        edges.add((min(u, v), max(u, v)))
    return edges
