"""Shared hypothesis strategies and graph helpers for property tests."""

import numpy as np
from hypothesis import strategies as st

from rolemine import Graph


def same_graph(a, b):
    """Graphs compare by identity; this compares their arrays."""
    return (
        a.n == b.n
        and a.directed == b.directed
        and np.array_equal(a.edges, b.edges)
        and (a.weights is None) == (b.weights is None)
        and (a.weights is None or np.array_equal(a.weights, b.weights))
    )


def neighbor_lists(g):
    """Direction-free adjacent nodes per node, ascending, one edge at a time."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    return [sorted(s) for s in adj]


@st.composite
def graphs(draw, min_n=1, max_n=8, directed=False, weighted=False):
    n = draw(st.integers(min_n, max_n))
    if directed:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        chosen = []
    weights = None
    if weighted and chosen:
        vals = draw(
            st.lists(
                st.floats(0.125, 8.0, allow_nan=False),
                min_size=len(chosen),
                max_size=len(chosen),
            )
        )
        weights = vals
    return Graph(n=n, edges=chosen, weights=weights, directed=directed)


@st.composite
def graph_with_permutation(draw, **kwargs):
    g = draw(graphs(**kwargs))
    perm = draw(st.permutations(range(g.n)))
    return g, tuple(perm)


@st.composite
def edge_list_texts(draw, max_label=9, directed=False):
    """Raw loader input: whitespace edge lines, optional weights/comments."""
    weighted = draw(st.booleans())
    raw = draw(
        st.lists(
            st.tuples(
                st.integers(0, max_label),
                st.integers(0, max_label),
                st.floats(0.125, 8.0, allow_nan=False),
            ),
            min_size=1,
            max_size=14,
        ).filter(lambda rows: any(u != v for u, v, _ in rows))
    )
    lines = []
    for u, v, w in raw:
        if u == v:
            continue
        lines.append(f"{u} {v} {w!r}" if weighted else f"{u} {v}")
    if draw(st.booleans()):
        lines.insert(0, "# comment")
    return "\n".join(lines) + "\n"
