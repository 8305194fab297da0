import csv
import hashlib
import io
import itertools
import json
import math
import multiprocessing
import os
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolemine import (
    FeatureDescriptor,
    FeatureLearnConfig,
    FeatureMatrix,
    Graph,
    apply_permutation,
    automorphic_orbits,
    compute_primitive,
    descriptors_from_json,
    descriptors_to_json,
    erdos_renyi,
    features_from_csv,
    features_to_csv,
    learn_features,
    load_edge_list,
    planted_role_graph,
    recompute,
)

from rolemine import features as features_module
from rolemine.features import _aggregate, _agreement_roots, log_bin_rows

from forks import (
    count_forks,
    deadline,
    in_child_only,
    kill_self,
    refuse_forks,
    set_cpus,
    without_fork,
)
from oracles import (
    agreement,
    all_at_once_learn,
    earliest_per_component,
    pairwise_feature_graph,
    truncated_at_full_rank,
)
from strategies import graph_with_permutation, graphs, neighbor_lists

P3 = load_edge_list("0 1\n1 2")
K3 = load_edge_list("0 1\n1 2\n0 2")
S3 = load_edge_list("0 1\n0 2\n0 3")


def naive_primitive(g, kind):
    """Set-based per-node reference, independent of the vectorized path."""
    adj = [set() for _ in range(g.n)]
    edges = g.edges.tolist()
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if kind == "degree":
        return [len(adj[u]) for u in range(g.n)]
    if kind == "weighted-degree":
        if g.weights is None:
            return [float(len(adj[u])) for u in range(g.n)]
        out = [0.0] * g.n
        for (u, v), w in zip(edges, g.weights.tolist()):
            out[u] += w
            out[v] += w
        return out
    if kind == "wedge-count":
        return [
            sum(1 for a, b in itertools.combinations(sorted(adj[u]), 2)) for u in range(g.n)
        ]
    if kind == "triangle-count":
        return [
            sum(1 for a, b in itertools.combinations(sorted(adj[u]), 2) if b in adj[a])
            for u in range(g.n)
        ]
    if kind == "egonet-internal-edges":
        out = []
        for u in range(g.n):
            ego = adj[u] | {u}
            out.append(sum(1 for a, b in edges if a in ego and b in ego))
        return out
    if kind == "egonet-external-edges":
        out = []
        for u in range(g.n):
            ego = adj[u] | {u}
            out.append(sum(1 for a, b in edges if (a in ego) != (b in ego)))
        return out
    if kind == "core-number":
        alive = set(range(g.n))
        core = [0] * g.n
        k = 0
        while alive:
            while True:
                peel = [u for u in alive if len(adj[u] & alive) <= k]
                if not peel:
                    break
                for u in peel:
                    core[u] = k
                    alive.discard(u)
            k += 1
        return core
    raise AssertionError(kind)


def naive_aggregate(g, column, op):
    out = []
    for u, nbrs in enumerate(neighbor_lists(g)):
        vals = [column[v] for v in nbrs]
        if not vals:
            out.append(0.0)
        elif op == "sum":
            out.append(math.fsum(sorted(vals)))
        elif op == "mean":
            out.append(math.fsum(sorted(vals)) / len(vals))
        elif op == "max":
            out.append(max(vals))
        elif op == "min":
            out.append(min(vals))
        elif op == "mode":
            floored = [math.floor(v) for v in vals]
            best = min(sorted(set(floored)), key=lambda x: (-floored.count(x), x))
            out.append(float(best))
    return out


def matrix_from_columns(columns):
    descs = tuple(
        FeatureDescriptor(id=j, kind="primitive", primitive="degree") for j in range(len(columns))
    )
    return FeatureMatrix(np.array(columns, dtype=float).T, descs)


AWKWARD_FLOATS = [5e-324, 1e16, 1e-05, 0.1 + 0.2, 2.0, 1 / 3]


def reference_csv(x):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["node"] + [f"feat_{j}" for j in range(x.f)])
    for u in range(x.n):
        writer.writerow([u] + [repr(float(v)) for v in x.values[u]])
    return buf.getvalue()


def csv_text(x):
    """What features_to_csv writes, through an in-memory text file."""
    buf = io.StringIO()
    features_to_csv(x, buf)
    return buf.getvalue()


def first_difference(text, expected):
    """None if the texts are equal, else the first differing line (cut short),
    which stays cheap to report on texts of many megabytes."""
    if text == expected:
        return None
    pairs = itertools.zip_longest(text.splitlines(), expected.splitlines(), fillvalue="")
    return next(((i, a[:80], b[:80]) for i, (a, b) in enumerate(pairs) if a != b), "line breaks")


def awkward_matrix(n, f):
    return matrix_from_columns(np.resize(AWKWARD_FLOATS, (f, n)) * np.arange(1, n + 1))


class TestPrimitives:
    def test_star_degree(self):
        assert compute_primitive(S3, "degree").tolist() == [3, 1, 1, 1]

    def test_triangle_counts_on_k3(self):
        assert compute_primitive(K3, "triangle-count").tolist() == [1, 1, 1]

    def test_star_leaf_egonet_external(self):
        # ego of leaf 1 is {0, 1}; edges leaving it are (0,2) and (0,3)
        assert compute_primitive(S3, "egonet-external-edges")[1] == 2.0

    def test_wedge_is_pairs_of_neighbors(self):
        assert compute_primitive(S3, "wedge-count").tolist() == [3, 0, 0, 0]

    def test_core_numbers_on_clique_with_pendant(self):
        g = load_edge_list("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n0 4")
        assert compute_primitive(g, "core-number").tolist() == [3, 3, 3, 3, 1]

    def test_weighted_degree_uses_weights(self):
        g = load_edge_list("0 1 2.5\n1 2 0.5")
        assert compute_primitive(g, "weighted-degree").tolist() == [2.5, 3.0, 0.5]

    def test_in_out_degree_directed_only(self):
        g = Graph(n=3, edges=[(0, 1), (2, 1)], directed=True)
        assert compute_primitive(g, "in-degree").tolist() == [0, 2, 0]
        assert compute_primitive(g, "out-degree").tolist() == [1, 0, 1]
        with pytest.raises(ValueError):
            compute_primitive(P3, "in-degree")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            compute_primitive(P3, "pagerank")

    @given(graphs(max_n=7, weighted=True))
    @settings(max_examples=80)
    def test_matches_naive_reference(self, g):
        for kind in (
            "degree",
            "weighted-degree",
            "wedge-count",
            "triangle-count",
            "egonet-internal-edges",
            "egonet-external-edges",
            "core-number",
        ):
            got = compute_primitive(g, kind)
            want = naive_primitive(g, kind)
            assert np.allclose(got, want), kind

    @given(graph_with_permutation(max_n=7))
    def test_isomorphism_invariance(self, case):
        g, perm = case
        h = apply_permutation(g, perm)
        for kind in ("degree", "triangle-count", "core-number", "egonet-external-edges"):
            col_g = compute_primitive(g, kind)
            col_h = compute_primitive(h, kind)
            assert all(col_h[perm[u]] == col_g[u] for u in range(g.n)), kind


def aggregate_column(g, column, op):
    return _aggregate(g, np.array(column, dtype=float)[None], (op,), False)[0][0]


class TestOperators:
    def test_path_neighbor_degree_sum(self):
        assert aggregate_column(P3, [1.0, 2.0, 1.0], "sum").tolist() == [2, 2, 2]

    def test_star_neighbor_degree_mean(self):
        assert aggregate_column(S3, [3.0, 1.0, 1.0, 1.0], "mean").tolist() == [1, 3, 3, 3]

    def test_max_of_zero_column_is_zero(self):
        assert aggregate_column(P3, [0.0, 0.0, 0.0], "max").tolist() == [0, 0, 0]

    def test_isolated_node_aggregates_to_zero(self):
        g = Graph(n=3, edges=[(1, 2)])
        for op in ("sum", "mean", "max", "min", "mode"):
            assert aggregate_column(g, [7.0, 7.0, 7.0], op)[0] == 0.0

    def test_mode_floors_and_breaks_ties_low(self):
        # node 0 sees floored values {1, 2} once each: tie goes to 1
        g = load_edge_list("0 1\n0 2")
        assert aggregate_column(g, [0.0, 1.9, 2.4], "mode")[0] == 1.0

    def test_bad_base_or_op_rejected(self):
        with pytest.raises(ValueError):
            aggregate_column(P3, [1.0, 2.0, 1.0], "median")

    @pytest.mark.parametrize(
        "edges, column, node, want",
        [
            # the hub's 40 leaves floor to 0, 1, 2 and 3; 1 and 3 tie at 12
            (
                [(0, k) for k in range(1, 41)],
                [5.5] + [
                    v + 0.25 * (k % 4)
                    for k, v in enumerate([0] * 7 + [1] * 12 + [2] * 9 + [3] * 12)
                ],
                0,
                1.0,
            ),
            # every neighbor floors to 4
            ([(0, k) for k in range(1, 6)], [0.0, 4.9, 4.1, 4.99, 4.5, 4.25], 0, 4.0),
            # node 3 is isolated
            ([(0, 1), (0, 2)], [3.5, 2.5, 2.75, 9.0], 3, 0.0),
        ],
        ids=["star-tie", "one-floor", "isolated"],
    )
    def test_mode_matches_naive_reference(self, edges, column, node, want):
        g = Graph(n=len(column), edges=edges)
        got = aggregate_column(g, column, "mode")
        assert got[node] == want
        assert got.tolist() == naive_aggregate(g, column, "mode")

    @pytest.mark.parametrize("block", [1, 300])
    def test_mode_in_small_blocks(self, monkeypatch, block):
        # each degree group's rows go through in blocks of one row or a few;
        # a node's neighbor values always stay in one block
        monkeypatch.setattr(features_module, "_BLOCK_ELEMENTS", block)
        g = erdos_renyi(60, 0.3, seed=5)
        rng = np.random.default_rng(5)
        rows = np.floor(rng.uniform(0, 4, (6, 60)) * 3) / 3
        got = _aggregate(g, rows, ("sum", "mode", "max"), True)[1]
        assert got.tolist() == [naive_aggregate(g, row.tolist(), "mode") for row in rows]

    @given(
        graphs(max_n=7),
        st.lists(st.floats(0, 9.5, allow_nan=False), min_size=7, max_size=7),
        st.sampled_from(["sum", "mean", "max", "min", "mode"]),
    )
    @settings(max_examples=120)
    def test_matches_naive_reference(self, g, vals, op):
        column = vals[: g.n]
        if g.n == 0:
            return
        got = aggregate_column(g, column, op)
        want = naive_aggregate(g, column, op)
        assert np.allclose(got, want)


def bin_row(values, p=0.5):
    return log_bin_rows(np.array(values, dtype=float)[None, :], p)[0]


class TestVerticalLogBin:
    """Vertical log binning of one column, as a one-row log_bin_rows."""

    def test_reference_trace(self):
        col = [1, 1, 1, 1, 2, 4, 8, 16]
        assert bin_row(col).tolist() == [0, 0, 0, 0, 1, 1, 2, 3]

    def test_constant_column_single_bin(self):
        b = bin_row([5.0, 5.0, 5.0])
        assert b.tolist() == [0, 0, 0]
        assert b.max() + 1 == 1

    def test_two_values(self):
        assert bin_row([1.0, 2.0]).tolist() == [0, 1]

    def test_boundary_ties_join_lower_bin(self):
        # half of six is three, but the value at the cut repeats
        assert bin_row([1, 1, 1, 1, 2, 3]).tolist() == [0, 0, 0, 0, 1, 2]

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            bin_row([1.0], 0.0)
        with pytest.raises(ValueError):
            bin_row([1.0], 1.0)

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=40))
    def test_bins_monotone_and_ties_share(self, vals):
        bins = bin_row(vals)
        for i, j in itertools.combinations(range(len(vals)), 2):
            if vals[i] < vals[j]:
                assert bins[i] <= bins[j]
            if vals[i] == vals[j]:
                assert bins[i] == bins[j]

    @given(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=30),
        st.floats(0.1, 0.9),
    )
    def test_bin_ids_dense_from_zero(self, vals, p):
        b = bin_row(vals, p)
        assert set(b.tolist()) == set(range(b.max() + 1))

    @pytest.mark.parametrize("n, p", [(1, 0.5), (255, 0.5), (256, 0.5), (20000, 0.5),
                                      (600, 0.01), (600, 0.001), (300, 0.999)])
    def test_bin_dtype_sized_by_the_no_tie_row(self, n, p):
        # distinct values give the most bins; their top id must fit the
        # dtype, and ties only merge bins
        distinct = np.arange(n, dtype=float)
        tied = np.repeat(np.arange(n // 3 + 1, dtype=float), 3)[:n]
        bins = log_bin_rows(np.stack([distinct, tied]), p)
        top = int(bins[0].max())
        assert set(bins[0].tolist()) == set(range(top + 1))
        assert top <= np.iinfo(bins.dtype).max
        assert bins[1].max() <= top
        if p == 0.5:
            assert bins.dtype == np.uint8  # at most log2(n) + 1 bins


class TestFeatureSimilarity:
    """Agreement of two bin rows: the share of nodes in the same bin."""

    def test_identical_is_one(self):
        a = bin_row([1, 2, 3, 4])
        assert agreement(a, a) == 1.0

    def test_total_disagreement_is_zero(self):
        assert agreement(bin_row([1, 1, 2, 2]), bin_row([2, 2, 1, 1])) == 0.0

    def test_partial_agreement(self):
        assert agreement(bin_row([1, 1, 2, 3]), bin_row([1, 1, 2, 2])) == 0.75


def survivors(columns, lam):
    """Rows the prune keeps, after checking them against the oracle."""
    bins = log_bin_rows(np.array(columns, dtype=float))
    got = _agreement_roots(bins, lam)
    assert got == earliest_per_component(len(bins), pairwise_feature_graph(bins, lam))
    return got


class TestCreateFeatureGraph:
    """The >= lambda agreement graph and the prune that keeps the earliest
    member of each of its components, against the pairwise oracle."""

    def test_identical_columns_connect(self):
        bins = log_bin_rows(np.array([[1, 2, 3], [1, 2, 3]], dtype=float))
        assert pairwise_feature_graph(bins, 1.0) == {(0, 1): 1.0}
        assert survivors([[1, 2, 3], [1, 2, 3]], 1.0) == [0]

    def test_star_degree_vs_constant_no_edge(self):
        bins = log_bin_rows(np.array([[3, 1, 1, 1], [1, 1, 1, 1]], dtype=float))
        assert pairwise_feature_graph(bins, 1.0) == {}
        assert survivors([[3, 1, 1, 1], [1, 1, 1, 1]], 1.0) == [0, 1]

    def test_single_feature_no_edges(self):
        assert survivors([[1, 2, 3]], 0.2) == [0]

    def test_threshold_validated(self):
        for lam in (0.0, 1.5, -0.5):
            with pytest.raises(ValueError, match="lambda"):
                learn_features(P3, FeatureLearnConfig(threshold=lam))
        for lam in (1e-9, 1.0):
            learn_features(P3, FeatureLearnConfig(threshold=lam, maxiter=1))

    @given(
        st.lists(
            st.lists(st.integers(0, 3), min_size=5, max_size=5), min_size=2, max_size=8
        ),
        st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0]),
    )
    @settings(max_examples=80)
    def test_edges_match_pairwise_similarity(self, cols, lam):
        # survivors are the oracle's, and no two of them agree on lam
        kept = survivors(cols, lam)
        bins = log_bin_rows(np.array(cols, dtype=float))
        for i, j in itertools.combinations(kept, 2):
            assert agreement(bins[i], bins[j]) < lam


class TestPrune:
    def test_keep_earliest_per_component(self):
        assert survivors([[1, 2, 3], [9, 1, 2], [5, 5, 5], [1, 2, 3]], 1.0) == [0, 1, 2]

    def test_edgeless_graph_keeps_everything(self):
        assert survivors([[1, 2, 3], [3, 2, 1]], 1.0) == [0, 1]

    def test_three_copies_keep_first(self):
        assert survivors([[1, 2, 3]] * 3, 1.0) == [0]

    def test_survivors_separated_below_threshold(self):
        rng = np.random.default_rng(3)
        cols = rng.integers(0, 3, size=(6, 8))
        kept = survivors(cols, 0.5)
        bins = log_bin_rows(cols.astype(float))
        for i, j in itertools.combinations(kept, 2):
            assert agreement(bins[i], bins[j]) < 0.5

    def test_agreement_in_several_row_blocks(self):
        # 400 rows of 120 nodes exceed one block of 2**24 compared elements;
        # the rows are shuffled noisy copies of 40 random bin patterns, so
        # each pattern is one component, kept at its first copy
        rng = np.random.default_rng(4)
        labels = rng.permutation(np.repeat(np.arange(40), 10))
        bins = rng.integers(0, 2, size=(40, 120), dtype=np.uint8)[labels]
        bins ^= (rng.random(bins.shape) < 0.03).astype(np.uint8)
        kept = _agreement_roots(bins, 0.75)
        assert kept == earliest_per_component(len(bins), pairwise_feature_graph(bins, 0.75))
        assert kept == sorted(np.unique(labels, return_index=True)[1].tolist())

    def test_empty_graph_keeps_the_first_column(self):
        # empty columns agree vacuously, at every threshold
        for lam in (1.0, 0.5):
            x = learn_features(Graph(n=0), FeatureLearnConfig(threshold=lam))
            assert [d.id for d in x.descriptors] == [0]
            assert x.iteration_sizes == (1, 1)


class TestLearnFeatures:
    def test_vertex_transitive_triangle_collapses_to_one(self):
        config = FeatureLearnConfig(primitives=("degree", "triangle-count"), operators=("sum",))
        x = learn_features(K3, config)
        assert x.f == 1
        assert x.descriptors[0].id == 0

    def test_star_growth_monotone_and_terminates(self):
        config = FeatureLearnConfig(primitives=("degree",), operators=("sum", "mean"), maxiter=2)
        x = learn_features(S3, config)
        sizes = x.iteration_sizes
        assert len(sizes) <= 3
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_maxiter_bounds_growth_rounds(self):
        x = learn_features(P3, FeatureLearnConfig(maxiter=1))
        assert len(x.iteration_sizes) == 2
        assert all(d.iteration <= 1 for d in x.descriptors)

    def test_empty_primitive_set_rejected(self):
        with pytest.raises(ValueError):
            learn_features(P3, FeatureLearnConfig(primitives=()))

    def test_directed_degree_expands_to_in_and_out(self):
        g = Graph(n=3, edges=[(0, 1), (1, 2)], directed=True)
        x = learn_features(g, FeatureLearnConfig(primitives=("degree",), maxiter=1))
        kinds = {d.primitive for d in x.descriptors}
        assert kinds <= {"in-degree", "out-degree"}
        assert len(kinds) >= 1

    def test_duplicate_attribute_column_pruned(self):
        attrs = np.array([[1.0], [2.0], [1.0]])  # equals the degree column on P3
        x = learn_features(
            P3, FeatureLearnConfig(primitives=("degree",), maxiter=1, attributes=attrs)
        )
        assert all(d.kind != "attribute" for d in x.descriptors)

    def test_informative_attribute_survives_and_recurses(self):
        attrs = np.array([[5.0], [0.0], [5.0]])
        config = FeatureLearnConfig(primitives=("degree",), maxiter=2, attributes=attrs)
        x = learn_features(P3, config)
        kinds = {d.kind for d in x.descriptors}
        assert "attribute" in kinds

    def test_negative_attributes_rejected(self):
        attrs = np.array([[-1.0], [0.0], [1.0]])
        with pytest.raises(ValueError):
            learn_features(P3, FeatureLearnConfig(attributes=attrs))

    @given(graphs(min_n=1, max_n=6))
    @settings(max_examples=40)
    def test_orbit_members_share_rows_exactly(self, g):
        x = learn_features(g, FeatureLearnConfig(maxiter=3))
        for cls in automorphic_orbits(g).classes:
            rows = x.values[list(cls)]
            assert (rows == rows[0]).all()

    @given(graphs(min_n=1, max_n=8))
    @settings(max_examples=40)
    def test_monotone_growth_and_separation(self, g):
        x = learn_features(g, FeatureLearnConfig(maxiter=4))
        sizes = x.iteration_sizes
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        bins = log_bin_rows(x.values.T)
        assert len({b.tobytes() for b in bins}) == x.f
        for i in range(min(x.f, 40)):
            for j in range(i + 1, min(x.f, 40)):
                assert agreement(bins[i], bins[j]) < 1.0


class TestRecompute:
    def test_reproduces_learned_matrix(self):
        x = learn_features(S3, FeatureLearnConfig(maxiter=2))
        y = recompute(S3, x.descriptors)
        assert (x.values == y.values).all()

    def test_degree_on_path(self):
        d = (FeatureDescriptor(id=0, kind="primitive", primitive="degree"),)
        assert recompute(P3, d).values[:, 0].tolist() == [1, 2, 1]

    def test_attribute_descriptors_need_columns(self):
        d = (FeatureDescriptor(id=0, kind="attribute", attribute=0),)
        with pytest.raises(ValueError):
            recompute(P3, d)
        got = recompute(P3, d, attributes=np.array([[1.0], [2.0], [3.0]]))
        assert got.values[:, 0].tolist() == [1, 2, 3]

    def test_attributes_of_the_wrong_length_rejected(self, monkeypatch):
        d = (
            FeatureDescriptor(id=0, kind="attribute", attribute=0),
            FeatureDescriptor(id=1, kind="composite", operator="sum", base=0),
        )
        calls = []
        monkeypatch.setattr(features_module, "_aggregate", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="one row per node"):
            recompute(P3, d, attributes=np.array([[1.0], [2.0]]))
        assert calls == []

    def test_malformed_descriptor_order_rejected(self):
        d = (
            FeatureDescriptor(id=1, kind="primitive", primitive="degree"),
            FeatureDescriptor(id=0, kind="primitive", primitive="degree"),
        )
        with pytest.raises(ValueError):
            recompute(P3, d)

    def test_composite_with_unseen_base_rejected(self):
        d = (
            FeatureDescriptor(id=0, kind="primitive", primitive="degree"),
            FeatureDescriptor(id=5, kind="composite", operator="sum", base=3),
        )
        with pytest.raises(ValueError):
            recompute(P3, d)

    @given(graph_with_permutation(min_n=1, max_n=7))
    @settings(max_examples=40)
    def test_permutation_equivariance_exact(self, case):
        g, perm = case
        x = learn_features(g, FeatureLearnConfig(maxiter=2))
        h = apply_permutation(g, perm)
        y = recompute(h, x.descriptors)
        assert (y.values[list(perm)] == x.values).all()


class TestSerialization:
    def test_features_csv_round_trip_exact(self):
        x = learn_features(S3, FeatureLearnConfig(maxiter=2))
        text = csv_text(x)
        assert text.startswith("node,feat_0")
        back = features_from_csv(text)
        assert (back == x.values).all()

    def test_csv_preserves_non_representable_floats(self):
        x = matrix_from_columns([[0.1 + 0.2, 1 / 3, 2.0]])
        back = features_from_csv(csv_text(x))
        assert (back == x.values).all()

    def test_csv_bad_node_order_rejected(self):
        with pytest.raises(ValueError):
            features_from_csv("node,feat_0\n1,2.0\n")

    @pytest.mark.parametrize("text, bad_row", [
        ("node,feat_0,feat_1\n0,1.0\n1,2.0\n", 0),
        ("node,feat_0\n0,1.0\n1,2.0,3.0\n", 1),
    ])
    def test_csv_row_width_must_match_header(self, text, bad_row):
        with pytest.raises(ValueError, match=f"row {bad_row} has"):
            features_from_csv(text)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("trailing", [True, False])
    def test_csv_read_is_bit_exact_at_any_line_break(self, newline, trailing):
        x = awkward_matrix(7, 3)
        text = csv_text(x).replace("\n", newline)
        back = features_from_csv(text if trailing else text.removesuffix(newline))
        assert back.dtype == np.float64
        assert back.tobytes() == np.ascontiguousarray(x.values).tobytes()

    def test_csv_blank_line_between_rows_skipped(self):
        assert features_from_csv("node,feat_0\n0,1.0\n\n1,2.0\n").tolist() == [[1.0], [2.0]]

    def test_descriptor_json_round_trip(self):
        x = learn_features(
            S3, FeatureLearnConfig(maxiter=2, attributes=np.array([[9.0], [1.0], [1.0], [4.0]]))
        )
        text = descriptors_to_json(x.descriptors)
        assert descriptors_from_json(text) == x.descriptors

    def test_descriptor_json_attribute_key_only_when_relevant(self):
        rows = json.loads(
            descriptors_to_json(
                (
                    FeatureDescriptor(id=0, kind="primitive", primitive="degree"),
                    FeatureDescriptor(id=1, kind="attribute", attribute=2),
                )
            )
        )
        assert "attribute" not in rows[0]
        assert rows[1]["attribute"] == 2


# --- pins of the array-native engine -------------------------------------
#
# The digests below were recorded with the per-node engine this one replaced
# (per-column binning, a feature graph at every threshold, a Python loop per
# node for aggregation, the quadratic core peel). The array engine must
# reproduce them bit for bit.


def weighted_er(n, p, seed, directed=False):
    g = erdos_renyi(n, p, seed=seed, directed=directed)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.25, 4.0, size=len(g.edges))
    return Graph(n=n, edges=g.edges, weights=w, directed=directed)


def learned_digest(x):
    h = hashlib.sha256()
    h.update(x.values.tobytes())
    h.update(descriptors_to_json(x.descriptors).encode())
    h.update(repr(tuple(x.iteration_sizes)).encode())
    return h.hexdigest()


GOLDEN_CASES = {
    # grew to the maxiter cap of 10 rounds (801 features) before the rank
    # rule; its 206 survivors of round 5 have rank n
    "er-maxiter": (
        lambda: erdos_renyi(120, 8 / 120, seed=11),
        FeatureLearnConfig(),
        (5, 14, 32, 65, 121, 206),
        "0b5bbe4bc31b699eb50fbcc97cf862a71684a88073a7c77f63558e67443095ff",
    ),
    # stops at a fixed point
    "planted": (
        lambda: planted_role_graph(seed=5, units=6)[0],
        FeatureLearnConfig(),
        (4, 5, 5),
        "0f7c946235dcb2d205ace7caacfc1e60a2b67f3688c5ed7be272b5e246ef134c",
    ),
    "weighted": (
        lambda: weighted_er(90, 12 / 90, seed=4),
        FeatureLearnConfig(maxiter=6),
        (6, 18, 40, 77, 115),
        "923d58ea787f50797bed3a95b32041e71a2a8d7dee831f524210baf1832c60a7",
    ),
    # reciprocal edges: a neighbor reached only by an in-edge weighs 0
    "weighted-directed": (
        lambda: weighted_er(60, 0.15, seed=9, directed=True),
        FeatureLearnConfig(maxiter=4),
        (8, 24, 54, 96),
        "385afa5dc563e552c348b366659063d3f6e732939ac2284a3aa34851fec8de9d",
    ),
    # a one-column round: numpy sums a lone column pairwise, not in sequence
    "one-column": (
        lambda: weighted_er(60, 0.2, seed=2),
        FeatureLearnConfig(
            primitives=("weighted-degree",), operators=("sum", "mean", "max", "min"), maxiter=3
        ),
        (1, 5, 20, 69),
        "ce6c83f9958918788fa1740404ce92c7fc8e1fa38e6493cbd16e5f1aceb9f960",
    ),
    # mode: degrees up to 23 and fractional values, so floors tie in runs
    "mode": (
        lambda: weighted_er(90, 12 / 90, seed=4),
        FeatureLearnConfig(operators=("sum", "mean", "mode"), maxiter=4),
        (6, 23, 71, 203),
        "2ed72f41cbd456dc6c6b3e61b793cfc61f11f7756021c4128296e275ff139aa9",
    ),
    # the agreement-graph route below lambda = 1
    "lambda-0.8": (
        lambda: erdos_renyi(80, 0.1, seed=3),
        FeatureLearnConfig(threshold=0.8, bin_fraction=0.3, maxiter=5),
        (5, 15, 29, 41, 53, 65),
        "f65343d7feabc3ed72f0f22f1c8ac7b03bf419ce6675ed22ee9eca73208e5e36",
    ),
}

# Digests of the cases the rank rule cut short, as pinned before it: the
# all-at-once oracle without the rule must still give these bytes, and the
# learn must be their truncation at the first round of rank n.
UNCUT_DIGESTS = {
    "er-maxiter": "fb6763c7a2a36e44fbd87b1b1d5942e3808db4ab162dff385fc4b5d9c8e0530c",
    "weighted": "a37176fae41ffb588822d41adae242168c9095907d845f1a84f51f01fce183ba",
    "weighted-directed": "a4a2d88c4ef97e9be3e645188411219b663fa84e3f5f48eba79754eba0730b96",
    "mode": "369f575aeba5958955fb708c2b05f6388458a490f0fd4d8ac79b086bfe1efd60",
}

class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_learned_bytes_unchanged(self, name):
        make, config, sizes, digest = GOLDEN_CASES[name]
        x = learn_features(make(), config)
        assert x.iteration_sizes == sizes
        assert learned_digest(x) == digest

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_recomputed_bytes_unchanged(self, name):
        # recompute gives the learned bytes, whose digests are pinned above;
        # "er-maxiter" has nodes of degree 8 and more, where a composite
        # summed pairwise instead of in sequence differs in the last bits
        make, config, _, _ = GOLDEN_CASES[name]
        g = make()
        x = learn_features(g, config)
        assert recompute(g, x.descriptors).values.tobytes() == x.values.tobytes()

    def test_small_blocks_give_the_same_bytes(self, monkeypatch):
        # binning and aggregation walk the matrix in column blocks
        monkeypatch.setattr(features_module, "_BLOCK_ELEMENTS", 97)
        make, config, sizes, digest = GOLDEN_CASES["weighted"]
        x = learn_features(make(), config)
        assert learned_digest(x) == digest


# --- the streamed round against the all-at-once learn ---------------------


def assert_same_learn(got, want):
    assert got.values.tobytes() == want.values.tobytes()
    assert got.descriptors == want.descriptors
    assert got.iteration_sizes == want.iteration_sizes
    assert got.stopped == want.stopped


STREAM_CONFIGS = [
    FeatureLearnConfig(maxiter=4),
    FeatureLearnConfig(operators=("mean", "sum", "max", "min"), maxiter=3),
    FeatureLearnConfig(operators=("sum", "mode"), bin_fraction=0.3, maxiter=3),
    FeatureLearnConfig(threshold=0.75, maxiter=3),
]


class TestStreamedRound:
    @given(
        graphs(min_n=1, max_n=9, weighted=True),
        st.sampled_from(STREAM_CONFIGS),
        st.integers(1, 40),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_all_at_once_learn(self, g, config, block, data):
        # zero to two attribute columns join round 0's candidates; small
        # integers tie with each other and with the primitives
        k = data.draw(st.integers(0, 2))
        if k:
            values = st.integers(0, 3).map(float)
            attrs = data.draw(st.lists(values, min_size=g.n * k, max_size=g.n * k))
            config = replace(config, attributes=np.reshape(attrs, (g.n, k)))
        want = all_at_once_learn(g, config)
        with pytest.MonkeyPatch.context() as mp:
            # survivor blocks of one column up to several
            mp.setattr(features_module, "_BLOCK_ELEMENTS", block)
            assert_same_learn(learn_features(g, config), want)

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_one_survivor_blocks_match_all_at_once_learn(self, monkeypatch, name):
        make, config, sizes, digest = GOLDEN_CASES[name]
        g = make()
        want = all_at_once_learn(g, config)
        monkeypatch.setattr(features_module, "_BLOCK_ELEMENTS", g.n * len(config.operators))
        got = learn_features(g, config)
        assert_same_learn(got, want)
        assert learned_digest(got) == digest

    @pytest.mark.parametrize("make", [
        lambda: planted_role_graph(seed=1, units=30)[0],
        lambda: erdos_renyi(400, 8 / 399, seed=1),
    ], ids=["planted", "er"])
    def test_agreement_prune_sees_no_exact_duplicates(self, monkeypatch, make):
        # below lambda = 1 the group-by drops every candidate whose bin
        # vector an earlier row has before the agreement prune runs
        calls = []
        roots = features_module._agreement_roots

        def counted(bins, lam):
            calls.append((len(bins), len({b.tobytes() for b in bins})))
            return roots(bins, lam)

        monkeypatch.setattr(features_module, "_agreement_roots", counted)
        learn_features(make(), FeatureLearnConfig(threshold=0.9, maxiter=6))
        assert calls and all(rows == distinct for rows, distinct in calls), calls

    def test_peak_memory_bounded_by_the_result(self):
        # the all-at-once round peaked at 4.75x the returned matrix on
        # erdos_renyi(400, 8/399, seed=1): survivors, their contiguous copy,
        # every candidate and the kept copy were alive together. That graph
        # now stops at rank n after 850 features; two twin leaves on node 0
        # share a feature row, so rank n is out of reach and growth runs to
        # the cap, rank checks included
        er = erdos_renyi(400, 8 / 399, seed=1)
        g = Graph(n=402, edges=np.vstack([er.edges, [[0, 400], [0, 401]]]))
        g.csr
        tracemalloc.start()
        try:
            x = learn_features(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.iteration_sizes[-1] > 2000 and len(x.iteration_sizes) == 11
        assert x.stopped == "maxiter"
        assert peak <= 3.0 * x.values.nbytes, peak / x.values.nbytes


class TestRankStop:
    """Growth stops after the first round whose survivors have numerical
    rank n; the result is the run without that rule, truncated there."""

    @pytest.mark.parametrize(
        "name", sorted(k for k, case in GOLDEN_CASES.items() if case[1].threshold == 1.0)
    )
    def test_golden_cases_are_the_uncut_run_truncated(self, name):
        make, config, _, digest = GOLDEN_CASES[name]
        g = make()
        uncut = all_at_once_learn(g, config, rank_stop=False)
        assert learned_digest(uncut) == UNCUT_DIGESTS.get(name, digest)
        got = learn_features(g, config)
        assert_same_learn(got, truncated_at_full_rank(uncut))
        if name in UNCUT_DIGESTS:
            assert got.stopped == "rank" and got.f < uncut.f

    @pytest.mark.parametrize("lam", [1.0, 0.5])
    @pytest.mark.parametrize("n", [0, 5])
    def test_empty_and_edgeless_graphs_keep_their_output(self, n, lam):
        # n = 0 runs no rank check; five isolated nodes have all-zero
        # features, of rank 0
        g = Graph(n=n)
        config = FeatureLearnConfig(threshold=lam)
        got = learn_features(g, config)
        assert_same_learn(got, all_at_once_learn(g, config, rank_stop=False))
        assert got.stopped == "fixed-point"

    def test_primitives_of_rank_n_stop_after_round_0(self):
        # in- and out-degree of one directed edge already span R^2
        g = Graph(n=2, edges=[(0, 1)], directed=True)
        got = learn_features(g)
        assert got.iteration_sizes == (3,) and got.stopped == "rank"
        assert_same_learn(got, truncated_at_full_rank(all_at_once_learn(g, rank_stop=False)))

    def test_rule_applies_below_lambda_one(self):
        # below 1.0 a prune can drop old survivors, so the stopped run is
        # compared with the uncut run capped at the same round
        g = erdos_renyi(30, 8 / 29, seed=1)
        got = learn_features(g, FeatureLearnConfig(threshold=0.9, maxiter=6))
        assert got.stopped == "rank" and len(got.iteration_sizes) == 5
        want = all_at_once_learn(g, FeatureLearnConfig(threshold=0.9, maxiter=4), rank_stop=False)
        assert_same_learn(got, replace(want, stopped="rank"))
        uncut = all_at_once_learn(g, FeatureLearnConfig(threshold=0.9, maxiter=6), rank_stop=False)
        assert uncut.f > got.f


def reference_log_bin(values, p):
    """The per-column loop the matrix binner replaced, kept as an oracle."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    order = np.argsort(values, kind="stable")
    bins = [0] * n
    i, b = 0, 0
    while i < n:
        k = math.ceil(p * (n - i))
        boundary = values[order[i + k - 1]]
        j = i + k
        while j < n and values[order[j]] == boundary:
            j += 1
        for t in order[i:j]:
            bins[t] = b
        i, b = j, b + 1
    return bins


class TestMatrixBinner:
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=1, max_size=6
            )
        ),
        st.sampled_from([0.1, 0.3, 0.5, 0.9]),
    )
    @settings(max_examples=150)
    def test_matches_per_column_binning_on_ties(self, rows, p):
        rows = np.array(rows, dtype=float)
        got = log_bin_rows(rows, p)
        assert got.shape == rows.shape
        for j, row in enumerate(rows):
            want = reference_log_bin(row, p)
            assert got[j].tolist() == want
            assert bin_row(row, p).tolist() == want

    def test_empty_rows(self):
        assert log_bin_rows(np.zeros((3, 0)), 0.5).shape == (3, 0)
        assert bin_row([]).shape == (0,)


def quadratic_core_numbers(g):
    """The O(n^2) minimum-degree peel the bucket peel replaced, kept as an
    oracle."""
    adj = [set(nbrs) for nbrs in neighbor_lists(g)]
    deg = [len(nbrs) for nbrs in adj]
    removed = [False] * g.n
    core = [0] * g.n
    level = 0
    for _ in range(g.n):
        u = min((x for x in range(g.n) if not removed[x]), key=lambda x: deg[x])
        level = max(level, deg[u])
        core[u] = level
        removed[u] = True
        for v in adj[u]:
            if not removed[v]:
                deg[v] -= 1
    return core


class TestCoreNumber:
    @given(graphs(max_n=10))
    @settings(max_examples=80)
    def test_matches_quadratic_peel(self, g):
        assert compute_primitive(g, "core-number").tolist() == quadratic_core_numbers(g)

    @given(graphs(max_n=8, directed=True))
    @settings(max_examples=60)
    def test_matches_quadratic_peel_directed(self, g):
        assert compute_primitive(g, "core-number").tolist() == quadratic_core_numbers(g)

    def test_isolated_nodes(self):
        g = Graph(n=6, edges=[(0, 1), (1, 2), (0, 2), (2, 4)])
        assert compute_primitive(g, "core-number").tolist() == [2, 2, 2, 0, 1, 0]
        assert compute_primitive(Graph(n=4), "core-number").tolist() == [0, 0, 0, 0]
        assert compute_primitive(Graph(n=0), "core-number").tolist() == []

    def test_random_and_planted_graphs(self):
        rng = np.random.default_rng(12)
        cases = [planted_role_graph(seed=2, units=4)[0]]
        for seed in range(40):
            n = int(rng.integers(2, 60))
            cases.append(erdos_renyi(n, float(rng.uniform(0.02, 0.4)), seed=seed))
        for g in cases:
            assert compute_primitive(g, "core-number").tolist() == quadratic_core_numbers(g)


def per_node_aggregate(g, block, op):
    """The per-node loop the CSR kernel replaced, kept as an oracle for
    bitwise equality."""
    out = np.zeros_like(block)
    for u, nbrs in enumerate(neighbor_lists(g)):
        if not nbrs:
            continue
        vals = np.sort(block[nbrs], axis=0)
        if op == "sum":
            out[u] = vals.sum(axis=0)
        elif op == "mean":
            out[u] = vals.sum(axis=0) / len(nbrs)
        elif op == "max":
            out[u] = vals[-1]
        else:
            out[u] = vals[0]
    return out


class TestAggregationKernel:
    @pytest.mark.parametrize("columns", [1, 2, 7])
    def test_bitwise_equal_to_per_node_loop(self, columns):
        # dense enough that many nodes have 8+ neighbors, where a pairwise
        # and a sequential sum differ in the last bits; a hub of degree 40
        # sits alone in its degree bucket
        rng = np.random.default_rng(columns)
        for seed in range(6):
            g = erdos_renyi(40, 0.45, seed=seed)
            hub = [(v, 40) for v in range(40)]
            g = Graph(n=43, edges=np.vstack([g.edges, hub]))  # nodes 41 and 42 are isolated
            block = rng.random((g.n, columns)) * 10.0 ** rng.integers(-3, 4, size=columns)
            ops = ("sum", "mean", "max", "min")
            for op, got in zip(ops, _aggregate(g, block.T, ops, columns > 1)):
                assert got.T.tobytes() == per_node_aggregate(g, block, op).tobytes()


class TestFailFast:
    @pytest.mark.parametrize(
        "config, message",
        [
            (FeatureLearnConfig(bin_fraction=1.5), "bin fraction"),
            (FeatureLearnConfig(bin_fraction=0.0), "bin fraction"),
            (FeatureLearnConfig(threshold=0.0), "lambda"),
            (FeatureLearnConfig(threshold=1.5), "lambda"),
            (FeatureLearnConfig(operators=("sum", "median")), "unknown operator"),
            (FeatureLearnConfig(primitives=("degree", "pagerank")), "unknown primitive"),
            (FeatureLearnConfig(primitives=("in-degree",)), "directed"),
            (FeatureLearnConfig(maxiter=0), "maxiter"),
        ],
    )
    def test_invalid_config_rejected_before_any_primitive(self, monkeypatch, config, message):
        calls = []
        monkeypatch.setattr(features_module, "compute_primitive", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match=message):
            learn_features(P3, config)
        assert calls == []

    def test_triangles_counted_once_per_learn(self, monkeypatch):
        calls = []
        original = features_module._triangle_counts
        monkeypatch.setattr(
            features_module, "_triangle_counts", lambda g: calls.append(1) or original(g)
        )
        learn_features(K3, FeatureLearnConfig(maxiter=1))
        assert len(calls) == 1


class TestStreamedCsv:
    def test_file_bytes_match_csv_writer(self, tmp_path):
        x = learn_features(erdos_renyi(40, 0.2, seed=2), FeatureLearnConfig(maxiter=3))
        path = tmp_path / "features.csv"
        with open(path, "w") as fh:
            assert features_to_csv(x, fh) is None
        assert path.read_text() == reference_csv(x) == csv_text(x)

    def test_workers_write_the_same_bytes(self, tmp_path, monkeypatch):
        # 4099 x 256 values would make 16 parts; four CPUs cut them to four
        # uneven row parts
        x = awkward_matrix(4099, 256)
        monkeypatch.setattr(features_module, "_cpu_count", lambda: 4)
        started = count_forks(monkeypatch)
        path = tmp_path / "features.csv"
        with open(path, "w") as fh:
            features_to_csv(x, fh)
        assert len(started) == 3
        expected = reference_csv(x)
        assert first_difference(path.read_text(), expected) is None
        assert first_difference(csv_text(x), expected) is None
        assert len(started) == 6
        assert multiprocessing.active_children() == []

    def test_without_fork_one_part(self, monkeypatch):
        x = awkward_matrix(4099, 256)
        set_cpus(monkeypatch, 4)
        started = count_forks(monkeypatch)
        forked = csv_text(x)
        assert len(started) == 3
        without_fork(monkeypatch)
        refuse_forks(monkeypatch)
        assert first_difference(csv_text(x), forked) is None
        assert multiprocessing.active_children() == []

    def test_more_parts_than_rows(self, monkeypatch):
        x = awkward_matrix(5, 3)
        monkeypatch.setattr(features_module, "_cpu_count", lambda: 8)
        monkeypatch.setattr(features_module, "_VALUES_PER_WORKER", 1)
        started = count_forks(monkeypatch)
        assert csv_text(x) == reference_csv(x)
        assert len(started) == 7
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_any_cpu_count_writes_the_same_bytes(self, monkeypatch, cpus):
        x = awkward_matrix(97, 5)
        monkeypatch.setattr(features_module, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(features_module, "_VALUES_PER_WORKER", 1)
        started = count_forks(monkeypatch)
        assert csv_text(x) == reference_csv(x)
        assert len(started) == cpus - 1
        assert multiprocessing.active_children() == []

    def test_failed_worker_raises(self, monkeypatch):
        self.fail_in_child(monkeypatch, lambda: 1 / 0, "exited with code 1$")

    def test_killed_worker_raises(self, monkeypatch):
        self.fail_in_child(monkeypatch, kill_self, "exited with code -9$")

    @staticmethod
    def fail_in_child(monkeypatch, act, message):
        monkeypatch.setattr(features_module, "_cpu_count", lambda: 2)
        monkeypatch.setattr(features_module, "_VALUES_PER_WORKER", 1)
        in_child_only(monkeypatch, features_module, "csv_rows", act)
        with deadline(60), pytest.raises(RuntimeError, match=message):
            csv_text(awkward_matrix(50, 4))
        assert multiprocessing.active_children() == []

    def test_workers_are_ended_when_formatting_fails(self, monkeypatch):
        parent = os.getpid()

        def fail(*args):
            if os.getpid() == parent:
                raise ValueError("formatting failed")
            time.sleep(120)

        monkeypatch.setattr(features_module, "_cpu_count", lambda: 3)
        monkeypatch.setattr(features_module, "_VALUES_PER_WORKER", 1)
        monkeypatch.setattr(features_module, "csv_rows", fail)
        started = count_forks(monkeypatch)
        with deadline(60), pytest.raises(ValueError, match="formatting failed"):
            csv_text(awkward_matrix(50, 4))
        # each child was still formatting, so it was killed
        assert [child.exitcode for child in started] == [-9, -9]
        assert multiprocessing.active_children() == []

    def test_small_matrices_start_no_process(self, monkeypatch):
        monkeypatch.setattr(features_module, "_cpu_count", lambda: 4)
        refuse_forks(monkeypatch)
        x = learn_features(erdos_renyi(40, 0.2, seed=2), FeatureLearnConfig(maxiter=3))
        assert csv_text(x) == reference_csv(x)
        # one value short of two parts
        monkeypatch.setattr(features_module, "_VALUES_PER_WORKER", 8)
        x = awkward_matrix(5, 3)
        assert csv_text(x) == reference_csv(x)

    def test_er_deep_features_size_starts_one_child(self, monkeypatch):
        # the 400 x 850 matrix of perfbench er-deep-features (seed 1) on 2 CPUs
        x = awkward_matrix(400, 850)
        monkeypatch.setattr(features_module, "_cpu_count", lambda: 2)
        started = count_forks(monkeypatch)
        assert first_difference(csv_text(x), reference_csv(x)) is None
        assert len(started) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n, f", [(3800, 5), (150, 70)], ids=["planted-cli", "er-roles"])
    def test_small_workload_sizes_start_no_process(self, monkeypatch, n, f):
        monkeypatch.setattr(features_module, "_cpu_count", lambda: 2)
        refuse_forks(monkeypatch)
        x = awkward_matrix(n, f)
        assert csv_text(x) == reference_csv(x)

    def test_zero_columns(self, monkeypatch):
        refuse_forks(monkeypatch)
        x = FeatureMatrix(np.zeros((2, 0)), ())
        assert csv_text(x) == "node\n0\n1\n"
