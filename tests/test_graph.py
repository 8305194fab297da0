import itertools
import math

import numpy as np
import pytest
from hypothesis import given

from rolemine import Graph, NodePartition, apply_permutation, load_edge_list, write_edge_list

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
        assert not g.directed
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

    def test_labels_compact_by_first_appearance(self):
        g = load_edge_list("7 3\n3 9")
        assert g.n == 3
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_duplicate_weighted_edges_sum(self):
        g = load_edge_list("0 1 2.0\n1 0 3.0")
        assert g.edges.tolist() == [[0, 1]]
        assert g.weights.tolist() == [5.0]

    def test_weightless_lines_default_to_one_in_weighted_graph(self):
        g = load_edge_list("0 1 2.5\n1 2")
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.weights.tolist() == [2.5, 1.0]

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list("0 1\nx y")
        with pytest.raises(ValueError, match="line 1"):
            load_edge_list("0 1 2 3")

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            load_edge_list("0 1 0.0")
        with pytest.raises(ValueError, match="line 1"):
            load_edge_list("0 1 -2")
        with pytest.raises(ValueError, match="line 1"):
            load_edge_list("0 1 inf")

    def test_directed_keeps_both_orientations(self):
        g = load_edge_list("0 1\n1 0", directed=True)
        assert g.directed
        assert g.edges.tolist() == [[0, 1], [1, 0]]

    def test_accepts_iterable_of_lines(self):
        g = load_edge_list(["0 1", "1 2"])
        assert g.n == 3


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop at node 1"):
            Graph(n=2, edges=[(0, 1), (1, 1)])

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
        directed = Graph(n=3, edges=[(1, 0), (0, 1), (1, 0)], directed=True)
        assert directed.edges.tolist() == [[0, 1], [1, 0]]

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
    time: an edge weighs its weight (1 unweighted) from both ends; a
    directed arc weighs 0 from its head unless the reverse arc exists."""
    rows = [{} for _ in range(g.n)]
    weights = [1.0] * len(g.edges) if g.weights is None else g.weights.tolist()
    for (u, v), w in zip(g.edges.tolist(), weights):
        rows[u][v] = w
        if g.directed:
            rows[v].setdefault(u, 0.0)
        else:
            rows[v][u] = w
    return [sorted(row.items()) for row in rows]


class TestCSR:
    @given(graphs(max_n=8, weighted=True))
    def test_rows_match_neighbors_and_weights(self, g):
        self.check(g)

    @given(graphs(max_n=7, directed=True, weighted=True))
    def test_rows_match_neighbors_and_weights_directed(self, g):
        self.check(g)

    @given(graphs(max_n=7, directed=True))
    def test_rows_match_neighbors_and_weights_directed_unweighted(self, g):
        self.check(g)

    def test_unweighted_directed_in_edge_weighs_zero(self):
        g = Graph(n=3, edges=[(0, 1), (1, 0), (2, 0)], directed=True)
        assert g.csr.indptr.tolist() == [0, 2, 3, 4]
        assert g.csr.indices.tolist() == [1, 2, 0, 0]
        assert g.csr.weights.tolist() == [1.0, 0.0, 1.0, 1.0]

    def test_reciprocal_arcs_keep_their_out_weight(self):
        g = Graph(n=3, edges=[(1, 0), (0, 1), (2, 1)], weights=[3.0, 2.0, 5.0], directed=True)
        assert g.csr.indices.tolist() == [1, 0, 2, 1]
        assert g.csr.weights.tolist() == [2.0, 3.0, 0.0, 5.0]
        self.check(g)

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
        assert text == "0 1\n1 2\n"

    def test_weights_written_with_repr(self):
        g = load_edge_list("0 1 0.1")
        assert write_edge_list(g) == "0 1 0.1\n"

    def test_discovery_order_example(self):
        # sorted-by-endpoint emission would relabel this one on reload
        g = load_edge_list("0 1\n2 3\n0 3")
        assert write_edge_list(g) == "0 1\n2 3\n0 3\n"
        assert same_graph(load_edge_list(write_edge_list(g)), g)

    def test_empty_graph_writes_empty_text(self):
        g = Graph(n=0)
        assert write_edge_list(g) == ""

    @given(edge_list_texts())
    def test_round_trip_identity_for_loaded_graphs(self, text):
        g = load_edge_list(text)
        assert same_graph(load_edge_list(write_edge_list(g)), g)

    @given(edge_list_texts(directed=True))
    def test_round_trip_identity_directed(self, text):
        g = load_edge_list(text, directed=True)
        assert same_graph(load_edge_list(write_edge_list(g), directed=True), g)


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

    @given(graph_with_permutation(max_n=7, weighted=True))
    def test_degree_multiset_edges_triangles_preserved(self, case):
        g, perm = case
        h = apply_permutation(g, perm)
        assert sorted(map(len, neighbor_lists(g))) == sorted(map(len, neighbor_lists(h)))
        assert len(g.edges) == len(h.edges)
        assert naive_triangle_count(g) == naive_triangle_count(h)
        if g.weights is not None:
            assert sorted(g.weights.tolist()) == sorted(h.weights.tolist())


class TestNodePartition:
    def test_from_labels_canonicalizes_by_smallest_member(self):
        p = NodePartition.from_labels([5, 5, 2, 2, 5])
        assert p.assignment == (0, 0, 1, 1, 0)
        assert p.class_count == 2

    def test_classes_ordered_by_smallest_member(self):
        p = NodePartition.from_labels([1, 0, 1, 0])
        assert p.classes == ((0, 2), (1, 3))

    def test_refines(self):
        fine = NodePartition.from_labels([0, 1, 2, 2])
        coarse = NodePartition.from_labels([0, 0, 1, 1])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)
        assert fine.refines(fine)

    @given(graphs(max_n=6))
    def test_singleton_and_whole_partitions(self, g):
        if g.n == 0:
            return
        singles = NodePartition.from_labels(list(range(g.n)))
        whole = NodePartition.from_labels([0] * g.n)
        assert singles.refines(whole)
        assert singles.class_count == g.n
        assert whole.class_count == 1
