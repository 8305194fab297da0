import collections
import csv
import hashlib
import io
import itertools
import math
import multiprocessing
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolemine import (
    DEFAULT_PRIMITIVES,
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
from rolemine.features import log_bin_rows

from forks import (
    count_forks,
    deadline,
    in_child_only,
    kill_self,
    refuse_forks,
    set_cpus,
    without_fork,
)
from oracles import aggregate_rows, all_at_once_learn, classes, equitable_partition
from strategies import cycle_units, graph_with_permutation, graphs, neighbor_lists, rewire

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


def path_graph(n):
    return Graph(n=n, edges=np.stack([np.arange(n - 1), np.arange(1, n)], axis=1))


def hub_graph():
    """A sparse random graph on 47 nodes with a K7 on nodes 40..46, every
    node tied to hub 47."""
    leaves = erdos_renyi(47, 0.15, seed=3)
    clique = [(u, v) for u in range(40, 47) for v in range(u + 1, 47)]
    return Graph(n=48, edges=np.vstack([leaves.edges, clique, [(v, 47) for v in range(47)]]))


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

    @pytest.mark.parametrize("block", [1, 2, 5, 64, 1 << 17])
    def test_triangle_counts_match_brute_force_in_any_block(self, monkeypatch, block):
        # blocks of 1, 2 and 5 pairs split the 21 pairs of each hub_graph
        # node with 7 forward arcs (to neighbors of higher (degree, id))
        monkeypatch.setattr(features_module, "_BLOCK_ELEMENTS", block)
        for g in (hub_graph(), erdos_renyi(60, 0.2, seed=7), K3, Graph(n=3)):
            assert compute_primitive(g, "triangle-count").tolist() == naive_primitive(
                g, "triangle-count")

    def test_unweighted_weighted_degree_is_the_degree(self):
        for g in (hub_graph(), erdos_renyi(60, 0.2, seed=7), S3, Graph(n=3), Graph(n=0)):
            degree = compute_primitive(g, "degree")
            assert compute_primitive(g, "weighted-degree").tobytes() == degree.tobytes()
            # the summing path, on the same graph with every weight 1.0
            ones = Graph(n=g.n, edges=g.edges, weights=np.ones(len(g.edges)))
            assert compute_primitive(ones, "weighted-degree").tobytes() == degree.tobytes()

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
    return aggregate_rows(g, np.array(column, dtype=float)[None], (op,))[0][0]


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
        # the kernel reads any op it does not name as mode, so its entry
        # points check ops: a descriptor here, learn_features in TestFailFast
        with pytest.raises(ValueError, match="unknown operator 'median'"):
            FeatureDescriptor(id=1, kind="composite", operator="median", base=0)
        with pytest.raises(ValueError, match="base id must precede"):
            FeatureDescriptor(id=1, kind="composite", operator="sum", base=1)

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
        got = aggregate_rows(g, rows, ("sum", "mode", "max"))[1]
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


class TestPrune:
    def test_empty_graph_keeps_the_first_column(self):
        # empty columns share one bin vector
        x = learn_features(Graph(n=0))
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

    @given(graphs(min_n=1, max_n=6))
    @settings(max_examples=40)
    def test_orbit_members_share_rows_exactly(self, g):
        x = learn_features(g, FeatureLearnConfig(maxiter=3))
        for cls in classes(automorphic_orbits(g)):
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


def weighted_gnp(seed):
    """A seeded weighted G(n, p): n in 10..59, mean degree 2..14, weights
    uniform in [0.25, 4)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 60))
    g = erdos_renyi(n, min(rng.uniform(2, 14) / (n - 1), 1.0), seed=seed)
    return Graph(n=n, edges=g.edges, weights=rng.uniform(0.25, 4.0, size=len(g.edges)))


WEIGHTED_PAIR = FeatureLearnConfig(primitives=("weighted-degree", "degree"), maxiter=4)


class TestRecompute:
    @pytest.mark.parametrize("cases", [
        pytest.param(lambda: [(S3, FeatureLearnConfig(maxiter=2))], id="star"),
        pytest.param(lambda: [(weighted_gnp(s), WEIGHTED_PAIR) for s in range(80)],
                     id="weighted-sweep"),
    ])
    def test_reproduces_learned_matrix(self, cases):
        for g, config in cases():
            x = learn_features(g, config)
            assert recompute(g, x.descriptors).values.tobytes() == x.values.tobytes(), config

    def test_degree_on_path(self):
        d = (FeatureDescriptor(id=0, kind="primitive", primitive="degree"),)
        assert recompute(P3, d).values[:, 0].tolist() == [1, 2, 1]

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

    @pytest.mark.parametrize("text, message", [
        ("node,feat_0,feat_1\n0,1.0,2.0\n1,3.0,1e400\n", "row 1, column feat_1: inf"),
        ("node,feat_0,feat_1\n0,1.0,-2.0\n", "row 0, column feat_1: -2.0"),
        ("node,feat_0\n0,nan\n", "character"),
        ("node,feat_0\n0,1.0\n01,2.0\n", "row 1 has node id '01'"),
        # each distinct value text is parsed once, yet every row is checked
        # and a refusal names the row at fault
        ("node,feat_0\n0,1.0\n0,1.0\n", "row 1 has node id '0'"),
        ("node,feat_0\n0,2.0\n1,-1.0\n2,-1.0\n", "row 1, column feat_0: -1.0"),
        ("node,feat_0\n0,1.0\n1,1.0\n2\n", "row 2 has 1 columns"),
        ("node,feat_0\n0,1.0,2.0\n1,1.0,2.0\n", "row 0 has 3 columns"),
        ("node,feat_0\n\n", "no node rows"),
        ("node\n0\n", "header"),
    ])
    def test_csv_reads_only_what_the_writer_writes(self, text, message):
        with pytest.raises(ValueError, match=message):
            features_from_csv(text)

    def test_csv_blank_line_between_rows_skipped(self):
        assert features_from_csv("node,feat_0\n0,1.0\n\n1,2.0\n").tolist() == [[1.0], [2.0]]

    def test_descriptor_json_round_trip(self):
        x = learn_features(S3, FeatureLearnConfig(maxiter=2))
        text = descriptors_to_json(x.descriptors)
        assert descriptors_from_json(text) == x.descriptors

    @pytest.mark.parametrize("fields", [
        {"kind": "composite", "operator": "sum", "base": True},
        {"kind": "composite", "operator": "sum", "base": 0.0},
        {"kind": "composite", "operator": "sum", "base": -1},
    ])
    def test_descriptor_base_and_attribute_must_be_integers(self, fields):
        # base=True was read as base 1, and base=0.0 as base 0
        with pytest.raises(ValueError, match="^descriptor base must be"):
            FeatureDescriptor(id=2, **fields)


# --- pins of the array-native engine -------------------------------------
#
# The digests below were recorded with the per-node engine this one replaced
# (per-column binning, a feature graph at every threshold, a Python loop per
# node for aggregation, the quadratic core peel). The array engine must
# reproduce them bit for bit.


def weighted_er(n, p, seed):
    g = erdos_renyi(n, p, seed=seed)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.25, 4.0, size=len(g.edges))
    return Graph(n=n, edges=g.edges, weights=w)


def learned_digest(x):
    h = hashlib.sha256()
    h.update(x.values.tobytes())
    h.update(descriptors_to_json(x.descriptors).encode())
    h.update(repr(tuple(x.iteration_sizes)).encode())
    return h.hexdigest()


GOLDEN_CASES = {
    # grew to the maxiter cap of 10 rounds (801 features) before any stop
    # rule; round 5 brings its independent survivors to n
    "er-maxiter": (
        lambda: erdos_renyi(120, 8 / 120, seed=11),
        FeatureLearnConfig(),
        (4, 10, 22, 45, 85, 120),
        "53aac12bfdbd29d2dc9290ad811c5e5765b20f3b665c7ec26c1b45dde1c47826",
    ),
    # stops at a fixed point
    "planted": (
        lambda: planted_role_graph(seed=5, units=6)[0],
        FeatureLearnConfig(),
        (3, 4, 4),
        "24b2ffa39f45089f0939c784fac34e2134c8e8fba7e27beb6997fc9c85da664b",
    ),
    "weighted": (
        lambda: weighted_er(90, 12 / 90, seed=4),
        FeatureLearnConfig(maxiter=6),
        (5, 14, 31, 62, 90),
        "daf4e45169f3c2b79b2a275748e897e5c2a2b203c21b531ad172f3dcd9fa54fe",
    ),
    # a one-column round: its lone survivor is summed as every other column
    "one-column": (
        lambda: weighted_er(60, 0.2, seed=2),
        FeatureLearnConfig(
            primitives=("weighted-degree",), operators=("sum", "mean", "max", "min"), maxiter=3
        ),
        (1, 5, 20, 60),
        "260fa798500a71fe22ccc01a35e6bedc054c6f3cd4e8557a4a4e2740eaa3aa8c",
    ),
    # mode: degrees up to 23 and fractional values, so floors tie in runs
    "mode": (
        lambda: weighted_er(90, 12 / 90, seed=4),
        FeatureLearnConfig(operators=("sum", "mean", "mode"), maxiter=4),
        (5, 18, 55, 90),
        "8be41e12682f38ce1c08bfc7216c26539cd9a9d1fdbbb635a888c5baa5465987",
    ),
}

# Digests of every case run without the span rule: the all-at-once oracle
# with span=False must still give these bytes.
UNCUT_DIGESTS = {
    "er-maxiter": "fb6763c7a2a36e44fbd87b1b1d5942e3808db4ab162dff385fc4b5d9c8e0530c",
    "weighted": "9b6a78de6a4243bd8540138a02e1049a4cbf869b7b0d2270712e036066b7bcba",
    "mode": "621e4fa455e82d21758e95ef5b22c246f1cf66fa5cecf9f6b37f857c79aa9904",
    "planted": "0f7c946235dcb2d205ace7caacfc1e60a2b67f3688c5ed7be272b5e246ef134c",
    "one-column": "5860dcf7f6636990cbfb5d532370af4fcc502dba03c5929642e5de51b2cb90a1",
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
        # "er-maxiter" has nodes of degree 8 and more, where a sum in another
        # order would differ in the last bits
        make, config, _, _ = GOLDEN_CASES[name]
        g = make()
        x = learn_features(g, config)
        assert recompute(g, x.descriptors).values.tobytes() == x.values.tobytes()

    def test_small_blocks_give_the_same_bytes(self, monkeypatch):
        # aggregation walks the matrix in column blocks, binning takes each
        # candidate block whole, and the span rule checks the candidates in
        # row blocks
        monkeypatch.setattr(features_module, "_BLOCK_ELEMENTS", 97)
        monkeypatch.setattr(features_module, "_SPAN_BLOCK", 3)
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
    FeatureLearnConfig(primitives=("weighted-degree",), maxiter=4),
]


class TestStreamedRound:
    @given(
        graphs(min_n=1, max_n=9, weighted=True),
        st.sampled_from(STREAM_CONFIGS),
        st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_all_at_once_learn(self, g, config, block):
        want = all_at_once_learn(g, config)
        with pytest.MonkeyPatch.context() as mp:
            # survivor and span blocks of one column up to several
            mp.setattr(features_module, "_BLOCK_ELEMENTS", block)
            mp.setattr(features_module, "_SPAN_BLOCK", block)
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

    @pytest.mark.parametrize("make, config", [
        pytest.param(lambda: erdos_renyi(400, 8 / 399, seed=1), FeatureLearnConfig(), id="1.0"),
        # one primitive, so round 0 keeps a lone survivor
        pytest.param(
            lambda: Graph(
                n=12,
                edges=[(0, j) for j in range(1, 10)] + [(10, 11)],
                weights=[0.1] * 5 + [0.3] * 4 + [1.7],
            ),
            FeatureLearnConfig(primitives=("weighted-degree",), maxiter=3),
            id="lone-survivor",
        ),
    ])
    def test_a_round_aggregates_only_what_it_must(self, monkeypatch, make, config):
        # a round aggregates only the survivors the previous round added, a
        # lone one included, whose sizes telescope to the last round's input
        calls = []
        aggregate = features_module._aggregate_slots

        def counted(n, groups, rows, ops):
            calls.append((len(rows), ops))
            return aggregate(n, groups, rows, ops)

        monkeypatch.setattr(features_module, "_aggregate_slots", counted)
        g = make()
        x = learn_features(g, config)
        # the weighted-degree primitive is one more call, with ("sum",) alone
        rows = sum(k for k, ops in calls if ops == config.operators)
        if g.n == 400:
            assert rows == x.iteration_sizes[-2] == 356
        else:
            # each round after round 0 adds one survivor and aggregates it alone
            assert calls == [(1, ("sum",))] + [(1, config.operators)] * 3
            assert x.iteration_sizes == (1, 2, 3, 3) and rows == x.iteration_sizes[-2]
            assert_same_learn(x, all_at_once_learn(g, config))

    @pytest.mark.parametrize("block", [None, 97])
    def test_each_binning_call_is_bounded(self, monkeypatch, block):
        # log_bin_rows bins all it is given at once, so learn_features must
        # bound each call: round 0 holds a row per primitive, a later round
        # a candidate block
        if block is not None:
            monkeypatch.setattr(features_module, "_BLOCK_ELEMENTS", block)
        sizes = []
        binner = features_module.log_bin_rows

        def recorded(rows, p):
            sizes.append(rows.size)
            return binner(rows, p)

        monkeypatch.setattr(features_module, "log_bin_rows", recorded)
        g, config = erdos_renyi(400, 8 / 399, seed=1), FeatureLearnConfig()
        learn_features(g, config)
        n, ops = g.n, len(config.operators)
        bound = max(features_module._BLOCK_ELEMENTS, ops * n, len(config.primitives) * n)
        assert len(sizes) > 1 and max(sizes) <= bound

    def test_peak_memory_bounded_by_the_result(self):
        # the all-at-once round peaked at 4.75x the returned matrix on
        # erdos_renyi(400, 8/399, seed=1): survivors, their contiguous copy,
        # every candidate and the kept copy were alive together. These runs
        # end at a fixed point below n, so a round holds the survivors, the
        # basis of their span and the candidates not yet checked, then one
        # in which every candidate lies in that span
        for n, degree in ((3000, 8), (2000, 4)):
            g = erdos_renyi(n, degree / (n - 1), seed=1)
            g.csr
            tracemalloc.start()
            try:
                x = learn_features(g)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert 0.9 * n < x.f < n and x.stopped == "fixed-point"
            assert peak <= 3.0 * x.values.nbytes, (n, peak / x.values.nbytes)


class TestRankStop:
    """A candidate is kept only outside the span of the survivors, so growth
    stops once they number n. The result is the all-at-once oracle's with
    the rule checked by least squares; the oracle without the rule, the
    uncut run, keeps its digests from before the rule."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_cases_match_the_span_oracle(self, name):
        make, config, _, digest = GOLDEN_CASES[name]
        g = make()
        uncut = all_at_once_learn(g, config, span=False)
        assert learned_digest(uncut) == UNCUT_DIGESTS[name]
        got = learn_features(g, config)
        assert_same_learn(got, all_at_once_learn(g, config))
        assert got.f < uncut.f or name == "planted" and got.f == uncut.f - 1
        assert got.stopped == ("fixed-point" if name == "planted" else "rank")

    @pytest.mark.parametrize("n", [0, 5])
    def test_empty_and_edgeless_graphs_keep_their_output(self, n):
        # n = 0 and five isolated nodes have all-zero features, of rank 0;
        # the first survivor is kept all the same, so f >= 1
        g = Graph(n=n)
        got = learn_features(g)
        assert_same_learn(got, all_at_once_learn(g, span=False))
        assert_same_learn(got, all_at_once_learn(g))
        assert got.stopped == "fixed-point" and got.f == 1

    def test_primitives_of_rank_n_stop_after_round_0(self):
        # a weighted triangle 0-1-2 with a pendant 3: the four primitives
        # that survive round 0 already span R^4
        g = Graph(n=4, edges=[(0, 1), (0, 2), (0, 3), (1, 2)], weights=[1.0, 3.0, 3.0, 3.0])
        got = learn_features(g)
        assert got.iteration_sizes == (4,) and got.stopped == "rank"
        assert_same_learn(got, all_at_once_learn(g))

    def test_no_projection_against_a_full_basis(self, monkeypatch):
        # once the survivors number n every candidate lies in their span:
        # the round drops what waits and reads no further block
        full = []
        residuals = features_module._span_residuals

        def counted(basis, rows):
            full.append(len(basis) == basis.shape[1])
            return residuals(basis, rows)

        monkeypatch.setattr(features_module, "_span_residuals", counted)
        g = erdos_renyi(400, 8 / 399, seed=1)
        got = learn_features(g)
        assert got.stopped == "rank" and full and not any(full)
        assert_same_learn(got, all_at_once_learn(g))

    @pytest.mark.parametrize("seed", [1, 3])
    def test_basis_stays_orthonormal(self, seed):
        # the survivors of a noisy planted graph are independent, so the
        # span rule keeps them all; its row steps mix some of the basis back
        # into the rows they keep (5e-12 here), which a last GEMM removes
        g, _ = planted_role_graph(seed=seed, units=30)
        x = learn_features(rewire(g, 0.01, np.random.default_rng(seed)))
        basis = np.zeros((0, g.n))
        assert features_module._extend_basis(basis, x.values.T) == list(range(x.f))
        assert np.abs(basis @ basis.T - np.eye(x.f)).max() <= 1e-13


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

    # graphs the peel takes apart in many waves of a level, a few nodes each
    DEEP_PEELS = {
        "path": lambda: path_graph(150),
        # node u hangs off node (u - 1) // 2
        "pendant-tree": lambda: Graph(n=127, edges=[((u - 1) // 2, u) for u in range(1, 127)]),
        # two paths with rungs: each wave strips one rung from both ends
        "ladder": lambda: Graph(n=120, edges=(
            [(u, u + 1) for u in range(59)] + [(u, u + 1) for u in range(60, 119)]
            + [(u, u + 60) for u in range(60)])),
        # a spine of 40 with a leaf or two at every spine node
        "caterpillar": lambda: Graph(n=40 + 60, edges=(
            [(u, u + 1) for u in range(39)] + [(u % 40, 40 + u) for u in range(60)])),
        # K6 on 0..5 with a path 5-6-...-29 hanging off it
        "clique-with-tail": lambda: Graph(n=30, edges=(
            [(u, v) for u in range(6) for v in range(u + 1, 6)]
            + [(u, u + 1) for u in range(5, 29)])),
        # a triangle, a path, and nodes with no edge between and after them
        "isolated-nodes": lambda: Graph(n=40, edges=(
            [(0, 1), (1, 2), (0, 2)] + [(u, u + 1) for u in range(10, 30)])),
    }

    @pytest.mark.parametrize("name", sorted(DEEP_PEELS))
    def test_deep_peels_match_quadratic_peel(self, name):
        g = self.DEEP_PEELS[name]()
        assert compute_primitive(g, "core-number").tolist() == quadratic_core_numbers(g)

    def test_long_path_finishes(self):
        # the worst case of the wave peel: n / 2 waves of two nodes each
        g = path_graph(10**5)
        g.csr
        t0 = time.perf_counter()
        core = compute_primitive(g, "core-number")
        dt = time.perf_counter() - t0
        assert core.tolist() == [1.0] * g.n
        assert dt < 2.0, f"{dt:.2f} s"


def per_node_aggregate(g, block, op):
    """The per-node loop the CSR kernel replaced, kept as an oracle for
    bitwise equality; each node's sorted values are added in sequence."""
    out = np.zeros_like(block)
    for u, nbrs in enumerate(neighbor_lists(g)):
        if not nbrs:
            continue
        vals = np.sort(block[nbrs], axis=0)
        total = vals[0].copy()
        for row in vals[1:]:
            total += row
        if op == "sum":
            out[u] = total
        elif op == "mean":
            out[u] = total / len(nbrs)
        elif op == "max":
            out[u] = vals[-1]
        elif op == "min":
            out[u] = vals[0]
        else:  # mode: the smallest of the most frequent floored values
            for j, col in enumerate(np.floor(vals).T.tolist()):
                counts = collections.Counter(col)
                out[u, j] = min(counts, key=lambda x: (-counts[x], x))
    return out


class TestAggregationKernel:
    @pytest.mark.parametrize("columns", [1, 2, 7])
    def test_bitwise_equal_to_per_node_loop(self, columns):
        # dense enough that many nodes have 8+ neighbors, where numpy's
        # pairwise sum would differ from the sequential one in the last
        # bits; a hub of degree 40 sits alone in its degree bucket
        rng = np.random.default_rng(columns)
        for seed in range(6):
            g = erdos_renyi(40, 0.45, seed=seed)
            hub = [(v, 40) for v in range(40)]
            g = Graph(n=43, edges=np.vstack([g.edges, hub]))  # nodes 41 and 42 are isolated
            block = rng.random((g.n, columns)) * 10.0 ** rng.integers(-3, 4, size=columns)
            ops = ("sum", "mean", "max", "min")
            for op, got in zip(ops, aggregate_rows(g, block.T, ops)):
                assert got.T.tobytes() == per_node_aggregate(g, block, op).tobytes()

    def test_hub_equal_to_per_node_loop(self):
        # a degree-301 group: few rows per block, and 300 additions in sequence
        d = 301
        leaves = erdos_renyi(d, 0.05, seed=9)
        g = Graph(n=d + 1, edges=np.vstack([leaves.edges, [(v, d) for v in range(d)]]))
        block = np.random.default_rng(9).random((g.n, 7)) * 10.0 ** np.arange(-3, 4)
        ops = ("sum", "mean", "max", "min", "mode")
        for op, got in zip(ops, aggregate_rows(g, block.T, ops)):
            assert got.T.tobytes() == per_node_aggregate(g, block, op).tobytes()


class TestFailFast:
    @pytest.mark.parametrize(
        "config, message",
        [
            (FeatureLearnConfig(bin_fraction=1.5), "bin fraction"),
            (FeatureLearnConfig(bin_fraction=0.0), "bin fraction"),
            # explicit ids keep each case's name stable as cases come and go
            pytest.param(FeatureLearnConfig(operators=("sum", "median")), "unknown operator",
                         id="config4-unknown operator"),
            pytest.param(FeatureLearnConfig(primitives=("degree", "pagerank")), "unknown primitive",
                         id="config5-unknown primitive"),
            pytest.param(
                FeatureLearnConfig(primitives=("in-degree",)), "unknown primitive",
                id="config6-directed",
            ),
            pytest.param(FeatureLearnConfig(maxiter=0), "maxiter", id="config7-maxiter"),
            pytest.param(FeatureLearnConfig(maxiter=2.5), "maxiter must be an integer, not 2.5",
                         id="config8-maxiter must be an integer, not 2.5"),
            pytest.param(FeatureLearnConfig(maxiter=True), "maxiter must be an integer, not True",
                         id="config9-maxiter must be an integer, not True"),
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
        # the 400 x 400 matrix of perfbench er-deep-features (seeds 1-3) on
        # 2 CPUs: since the rank stop, 160 000 values, 22% above the 2**17 cut
        x = awkward_matrix(400, 400)
        monkeypatch.setattr(features_module, "_cpu_count", lambda: 2)
        started = count_forks(monkeypatch)
        assert first_difference(csv_text(x), reference_csv(x)) is None
        assert len(started) == 1
        assert multiprocessing.active_children() == []

    # the largest sizes of those workloads (seeds 1-3): planted-cli keeps 4
    # features, er-roles at most 53
    @pytest.mark.parametrize("n, f", [(3800, 4), (150, 53)], ids=["planted-cli", "er-roles"])
    def test_small_workload_sizes_start_no_process(self, monkeypatch, n, f):
        monkeypatch.setattr(features_module, "_cpu_count", lambda: 2)
        refuse_forks(monkeypatch)
        x = awkward_matrix(n, f)
        assert csv_text(x) == reference_csv(x)

    def test_zero_columns(self, monkeypatch):
        refuse_forks(monkeypatch)
        x = FeatureMatrix(np.zeros((2, 0)), ())
        assert csv_text(x) == "node\n0\n1\n"


class TestCycleUnit:
    def test_five_classes_share_every_default_primitive(self):
        # recursion, not the primitives, must tell these classes apart
        g = cycle_units()
        q = equitable_partition(g)
        # the plain cycle, the centre, distances 1-5 along its cycle, the leaves
        want = np.array([0] * 10 + [1, 2, 3, 4, 5, 6, 5, 4, 3, 2] + [7] * 6)
        assert q.max() + 1 == 8
        assert classes(q) == classes(want)
        rows = np.column_stack([compute_primitive(g, kind) for kind in DEFAULT_PRIMITIVES])
        class_rows = {c: np.unique(rows[q == c], axis=0) for c in range(8)}
        assert all(len(r) == 1 for r in class_rows.values())
        shared = collections.Counter(r.tobytes() for r in class_rows.values())
        assert max(shared.values()) >= 5
        # copies keep the classes
        assert equitable_partition(cycle_units(3)).max() + 1 == 8
