import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rolemine import (
    Graph,
    apply_permutation,
    erdos_renyi,
    load_edge_list,
    planted_role_graph,
    write_edge_list,
)

from rolemine import graph as graph_module

from strategies import edge_list_texts, graph_with_permutation, graphs, neighbor_lists, same_graph


def naive_triangle_count(g):
    total = 0
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    for a, b, c in itertools.combinations(range(g.n), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            total += 1
    return total


class TestLoad:
    def test_path_of_length_two(self):
        g = load_edge_list("0 1\n1 2")
        assert g.n == 3
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.weights is None

    def test_duplicate_undirected_edge_collapses(self):
        g = load_edge_list("0 1\n1 0")
        assert g.n == 2
        assert g.edges.tolist() == [[0, 1]]

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="line 1"):
            load_edge_list("5 5")

    def test_comment_and_blank_lines_skipped(self):
        g = load_edge_list("# header\n\n% other comment\n0 1\n")
        assert g.edges.tolist() == [[0, 1]]

    def test_labels_compact_in_ascending_order(self):
        g = load_edge_list("7 3\n3 9")
        assert g.n == 3
        assert g.edges.tolist() == [[0, 1], [0, 2]]

    def test_labels_past_int64_load(self):
        big = 2**64
        g = load_edge_list(f"{big + 1} {-big}\n{big + 1} 5")
        assert g.n == 3
        assert g.edges.tolist() == [[0, 2], [1, 2]]

    @given(
        graphs(max_n=8, weighted=True),
        st.lists(st.tuples(st.integers(0, 99), st.floats(0.125, 8.0)), max_size=12),
        st.randoms(use_true_random=False),
    )
    def test_line_order_and_endpoint_order_do_not_matter(self, g, repeats, rnd):
        # repeated weighted lines too: each edge's weights sum in one order
        lines = write_edge_list(g).splitlines()
        if lines:
            lines += [f"{lines[k % len(lines)].rsplit(' ', 1)[0]} {w!r}" for k, w in repeats]
        want = load_edge_list("\n".join(lines))
        rnd.shuffle(lines)
        for k, line in enumerate(lines):
            u, v, *w = line.split()
            if rnd.random() < 0.5:
                lines[k] = " ".join([v, u, *w])
        assert same_graph(load_edge_list("\n".join(lines)), want)

    def test_duplicate_weighted_edges_sum(self):
        g = load_edge_list("0 1 2.0\n1 0 3.0")
        assert g.edges.tolist() == [[0, 1]]
        assert g.weights.tolist() == [5.0]
        # in ascending order: in line order the first text gave
        # 0.6000000000000001 and the second 0.6
        for text in ["0 1 0.1\n0 1 0.2\n0 1 0.3", "1 0 0.3\n0 1 0.2\n1 0 0.1"]:
            assert load_edge_list(text).weights.tolist() == [0.1 + 0.2 + 0.3]

    def test_weightless_lines_default_to_one_in_weighted_graph(self):
        g = load_edge_list("0 1 2.5\n1 2")
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.weights.tolist() == [2.5, 1.0]

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list("0 1\nx y")
        with pytest.raises(ValueError, match="line 1"):
            load_edge_list("0 1 2 3")

    @pytest.mark.parametrize("text", [
        "0 1\n1_0 2\n10 3\n", "0 1\n٣ 1\n3 2\n", "0 1\n+1 2\n", "0 1\n1 -\n", "0 1\n2 1²\n",
        "0 1\n--5 2\n", "0 1\n5- 2\n",
    ])
    def test_label_is_an_optional_minus_then_ascii_digits(self, text):
        # int() reads each of these, so '1_0' would merge with '10' and the
        # Arabic-Indic digit three with '3'
        with pytest.raises(ValueError, match="line 2: a node id is an optional"):
            load_edge_list(text)

    def test_weight_with_underscore_rejected(self):
        with pytest.raises(ValueError, match="line 2: malformed weight '1_0.5'"):
            load_edge_list("0 1 2.0\n1 2 1_0.5\n")

    def test_comments_may_hold_any_text(self):
        g = load_edge_list("# naïve_labels +\n% café\n-3 4 +2.5\n4 0007\n")
        assert (g.n, g.edges.tolist(), g.weights.tolist()) == (3, [[0, 1], [1, 2]], [2.5, 1.0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            load_edge_list("0 1 0.0")
        with pytest.raises(ValueError, match="line 1"):
            load_edge_list("0 1 -2")
        with pytest.raises(ValueError, match="line 1"):
            load_edge_list("0 1 inf")


LABEL_MAX = 10**18 - 1  # the widest label the array pass reads: 18 digits


@st.composite
def plain_texts(draw):
    """A graph from graphs() as plain text: each node a distinct label in
    ±LABEL_MAX, zero-padded to at most 18 digits, 0 sometimes written '-0',
    either end first; the last LF is optional. The graph has an edge, as
    the empty text goes through the loop."""
    g = draw(graphs(min_n=2, max_n=10).filter(lambda g: len(g.edges)))
    labels = draw(st.lists(st.integers(-LABEL_MAX, LABEL_MAX), min_size=g.n, max_size=g.n, unique=True))
    texts = [
        ("-" if label < 0 or (label == 0 and draw(st.booleans())) else "")
        + str(abs(label)).zfill(draw(st.integers(0, 18)))
        for label in labels
    ]
    lines = [
        f"{texts[u]} {texts[v]}" if draw(st.booleans()) else f"{texts[v]} {texts[u]}"
        for u, v in g.edges.tolist()
    ]
    return "\n".join(lines) + ("\n" if lines and draw(st.booleans()) else "")


class TestPlainText:
    """Plain text goes through the array pass; a comment line forces the loop."""

    @given(plain_texts())
    def test_array_pass_gives_the_loops_graph(self, text):
        assert graph_module._is_plain(text)
        assert same_graph(load_edge_list(text), load_edge_list(text.rstrip("\n") + "\n# end"))

    @pytest.mark.parametrize("text, message", [
        ("0 1\n1 2\n3 3\n4 5\n", "line 3: self-loop at node 3"),
        ("5 6\n007 7", "line 2: self-loop at node 7"),
        ("-0 0\n", "line 1: self-loop at node 0"),
    ])
    def test_self_loop_names_its_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            load_edge_list(text)

    @pytest.mark.parametrize("text", [
        "0 1\r\n1 2\r\n", "0\t1\n1 2\n", "0  1\n1 2\n", " 0 1\n1 2\n", "0 1 \n1 2\n",
        "0 1\n\n1 2\n", "0 1\n1 2\n\n", "\n0 1\n1 2",
    ])
    def test_other_layouts_take_the_loop(self, text):
        assert not graph_module._is_plain(text)
        assert same_graph(load_edge_list(text), load_edge_list("0 1\n1 2\n"))

    def test_nineteen_digit_labels_load(self):
        # 2**63 does not fit int64; the loop reads these lines
        text = "1000000000000000000 -1\n-1 0000000000000000002\n9223372036854775808 2\n"
        assert not graph_module._is_plain(text)
        g = load_edge_list(text)
        assert (g.n, g.edges.tolist()) == (4, [[0, 1], [0, 2], [1, 3]])

    @pytest.mark.parametrize("text, n, edges", [
        ("", 0, []),
        ("3 1\n1 2", 3, [[0, 1], [0, 2]]),
        ("3 1\n1 2\n", 3, [[0, 1], [0, 2]]),
    ])
    def test_empty_text_and_last_line_without_lf(self, text, n, edges):
        g = load_edge_list(text)
        assert (g.n, g.edges.tolist(), g.weights) == (n, edges, None)

    def test_array_pass_peak_memory_at_most_the_loops(self):
        rng = np.random.default_rng(1)
        u = rng.integers(10**4, size=10**5)
        v = u + 1 + rng.integers(10**4, size=u.size)
        text = "".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist()))
        assert graph_module._is_plain(text)

        def peak(source):
            tracemalloc.start()
            try:
                load_edge_list(source)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(text) <= peak(text + "# end\n")


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop at node 1"):
            Graph(n=2, edges=[(0, 1), (1, 1)])

    @pytest.mark.parametrize("n", [-1, 2.5, True])
    def test_node_count_must_be_a_non_negative_integer(self, n):
        # n = 2.5 was accepted, and learn_features failed on it deep in numpy
        with pytest.raises(ValueError, match="node count"):
            Graph(n=n, edges=[(0, 1)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match=r"edge \(0, 2\) outside"):
            Graph(n=2, edges=[(0, 2)])
        with pytest.raises(ValueError):
            Graph(n=2, edges=[(-1, 0)])

    def test_edges_must_be_integer_pairs(self):
        with pytest.raises(ValueError):
            Graph(n=3, edges=[0, 1, 2])
        with pytest.raises(ValueError, match="integer"):
            Graph(n=3, edges=[(0.5, 1.7)])

    def test_undirected_edges_canonicalized(self):
        g = Graph(n=3, edges=[(2, 0), (1, 0)])
        assert g.edges.dtype == np.int64
        assert g.edges.tolist() == [[0, 1], [0, 2]]

    def test_weights_must_cover_edges(self):
        with pytest.raises(ValueError):
            Graph(n=3, edges=[(0, 1), (1, 2)], weights=[1.0])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            Graph(n=2, edges=[(0, 1)], weights=[0.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_weights_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="positive finite"):
            Graph(n=3, edges=[(0, 1), (1, 2)], weights=[1.0, bad])

    def test_repeated_rows_merge_and_sum_weights_in_order(self):
        g = Graph(n=3, edges=[(1, 2), (1, 0), (0, 1), (0, 1)], weights=[0.5, 0.1, 0.2, 0.3])
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.weights.tolist() == [(0.1 + 0.2) + 0.3, 0.5]
        assert Graph(n=3, edges=[(1, 0), (0, 1)]).edges.tolist() == [[0, 1]]

    def test_arrays_are_read_only(self):
        g = Graph(n=3, edges=[(0, 1)], weights=[2.0])
        with pytest.raises(ValueError):
            g.edges[0, 0] = 2
        with pytest.raises(ValueError):
            g.weights[0] = 1.0

    def test_neighbor_lists_sorted(self):
        indptr, indices, _ = Graph(n=4, edges=[(2, 1), (1, 3), (0, 1)]).csr
        assert indices[indptr[1] : indptr[2]].tolist() == [0, 2, 3]


def csr_rows_oracle(g):
    """Graph.csr's rows as sorted (neighbor, weight) lists, one edge at a
    time: an edge weighs its weight (1 unweighted) from both ends."""
    rows = [{} for _ in range(g.n)]
    weights = [1.0] * len(g.edges) if g.weights is None else g.weights.tolist()
    for (u, v), w in zip(g.edges.tolist(), weights):
        rows[u][v] = rows[v][u] = w
    return [sorted(row.items()) for row in rows]


def raw_rows_oracle(n, rows, weighted):
    """Graph.csr's rows as sorted (neighbor, weight) lists from raw (u, v, w)
    rows in any orientation: each pair weighs its rows' weights summed in
    ascending order (1 unweighted), from both ends."""
    pairs = {}
    for u, v, w in rows:
        pairs.setdefault((min(u, v), max(u, v)), []).append(w)
    adj = [{} for _ in range(n)]
    for (u, v), ws in pairs.items():
        adj[u][v] = adj[v][u] = sum(sorted(ws)) if weighted else 1.0
    return [sorted(row.items()) for row in adj]


class TestCSR:
    @given(graphs(max_n=8, weighted=True))
    def test_rows_match_neighbors_and_weights(self, g):
        self.check(g)

    @given(st.data())
    def test_one_sort_of_repeated_rows_in_both_orientations(self, data):
        n = data.draw(st.integers(2, 6))
        weight = st.floats(0.125, 8.0)
        rows = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight)
                                  .filter(lambda row: row[0] != row[1]), min_size=1, max_size=10))
        # every row again, reversed and with a weight of its own, then shuffled
        again = data.draw(st.lists(weight, min_size=len(rows), max_size=len(rows)))
        rows = data.draw(st.permutations(rows + [(v, u, w) for (u, v, _), w in zip(rows, again)]))
        weighted = data.draw(st.booleans())
        g = Graph(n=n, edges=[row[:2] for row in rows],
                  weights=[row[2] for row in rows] if weighted else None)
        indptr, indices, weights = g.csr
        got = [
            list(zip(indices[a:b].tolist(), weights[a:b].tolist()))
            for a, b in zip(indptr[:-1], indptr[1:])
        ]
        assert got == raw_rows_oracle(n, rows, weighted)
        # edges and weights are the CSR's arcs u < v, in its order
        src = np.repeat(np.arange(n), np.diff(indptr))
        upper = src < indices
        assert np.array_equal(g.edges, np.stack([src[upper], indices[upper]], axis=1))
        assert np.array_equal(g.weights, weights[upper]) if weighted else g.weights is None

    @staticmethod
    def check(g):
        indptr, indices, weights = g.csr
        assert indptr[0] == 0 and indptr.size == g.n + 1
        assert indices.dtype == np.int64
        got = [
            list(zip(indices[a:b].tolist(), weights[a:b].tolist()))
            for a, b in zip(indptr[:-1], indptr[1:])
        ]
        assert got == csr_rows_oracle(g)


class TestWrite:
    def test_endpoints_ascending_and_lf(self):
        g = load_edge_list("0 2\n2 1")
        text = write_edge_list(g)
        assert text == "0 2\n1 2\n"

    def test_weights_written_with_repr(self):
        g = load_edge_list("0 1 0.1")
        assert write_edge_list(g) == "0 1 0.1\n"

    def test_empty_graph_writes_empty_text(self):
        g = Graph(n=0)
        assert write_edge_list(g) == ""

    @given(edge_list_texts())
    def test_round_trip_identity_for_loaded_graphs(self, text):
        g = load_edge_list(text)
        assert same_graph(load_edge_list(write_edge_list(g)), g)

    @pytest.mark.parametrize("units", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_round_trip_identity_for_planted_graphs(self, units, seed):
        g, _ = planted_role_graph(seed=seed, units=units)
        assert same_graph(load_edge_list(write_edge_list(g)), g)

    @given(st.integers(2, 30), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
    def test_round_trip_identity_for_er_graphs_without_isolated_nodes(self, n, p, seed):
        g = erdos_renyi(n, p, seed=seed)
        assume(np.unique(g.edges).size == n)
        assert same_graph(load_edge_list(write_edge_list(g)), g)


class TestApplyPermutation:
    def test_identity_is_noop(self):
        g = load_edge_list("0 1\n1 2")
        assert same_graph(apply_permutation(g, (0, 1, 2)), g)

    def test_path_reversal_fixes_symmetric_path(self):
        g = load_edge_list("0 1\n1 2")
        assert same_graph(apply_permutation(g, (2, 1, 0)), g)

    def test_star_center_moves(self):
        g = load_edge_list("0 1\n0 2\n0 3")
        moved = apply_permutation(g, (3, 0, 1, 2))
        assert neighbor_lists(moved) == [[3], [3], [3], [0, 1, 2]]

    def test_weights_follow_their_edges(self):
        g = load_edge_list("0 1 2.0\n1 2 3.0")
        moved = apply_permutation(g, (2, 0, 1))
        assert moved.edges.tolist() == [[0, 1], [0, 2]]
        assert moved.weights.tolist() == [3.0, 2.0]

    def test_non_bijection_rejected(self):
        g = load_edge_list("0 1")
        with pytest.raises(ValueError):
            apply_permutation(g, (0, 0))
        with pytest.raises(ValueError):
            apply_permutation(g, (0,))

    @pytest.mark.parametrize("perm", [[2.7, 0.2, 1.9], [2.0, 0.0, 1.0], [True, False, 2],
                                      np.array([True, True, False])])
    def test_non_integer_entries_rejected_not_truncated(self, perm):
        # a float was truncated and a bool read as 0 or 1
        with pytest.raises(ValueError):
            apply_permutation(load_edge_list("0 1\n1 2"), perm)

    def test_empty_perm_relabels_the_empty_graph(self):
        assert apply_permutation(Graph(n=0), ()).n == 0

    @given(graph_with_permutation(max_n=7, weighted=True))
    def test_degree_multiset_edges_triangles_preserved(self, case):
        g, perm = case
        h = apply_permutation(g, perm)
        assert sorted(map(len, neighbor_lists(g))) == sorted(map(len, neighbor_lists(h)))
        assert len(g.edges) == len(h.edges)
        assert naive_triangle_count(g) == naive_triangle_count(h)
        if g.weights is not None:
            assert sorted(g.weights.tolist()) == sorted(h.weights.tolist())
