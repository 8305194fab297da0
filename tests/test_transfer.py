import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolemine import (
    FeatureLearnConfig,
    Graph,
    NnlsReport,
    apply_permutation,
    erdos_renyi,
    estimate_transition_model,
    learn_features,
    load_edge_list,
    memberships_for_matrix,
    normalize_columns,
    select_rank,
    series_to_csv,
    transfer_memberships,
    transition_to_json,
)

from rolemine import transfer as transfer_module

from strategies import graph_with_permutation


def trained_model(g, maxiter=500, tol=1e-6):
    x = learn_features(g, FeatureLearnConfig(maxiter=2))
    return x, select_rank(x.values, descriptors=x.descriptors, maxiter=maxiter, tol=tol)


class TestTransferMemberships:
    def test_refit_on_training_graph_never_beats_solver_slack(self):
        # re-estimating W under the training H cannot end up worse than the
        # training W itself (NNLS refines W with H fixed)
        g = erdos_renyi(12, 0.35, seed=5)
        x, model = trained_model(g, maxiter=5000, tol=1e-13)
        xn, _ = normalize_columns(x.values)
        w2 = transfer_memberships(g, model)
        train = ((xn - model.w @ model.h) ** 2).sum()
        refit = ((xn - w2 @ model.h) ** 2).sum()
        assert refit <= train + 1e-6

    def test_isolated_node_gets_exact_zero_row(self):
        g = load_edge_list("0 1\n1 2\n0 2")
        x, model = trained_model(g)
        g2 = Graph(n=4, edges=g.edges)  # node 3 never touched
        w2 = transfer_memberships(g2, model)
        assert (w2[3] == 0.0).all()

    def test_model_without_descriptors_rejected(self):
        model = select_rank(np.array([[1.0, 2.0], [2.0, 1.0]]), rank=1)
        with pytest.raises(ValueError):
            transfer_memberships(load_edge_list("0 1"), model)

    def test_clamp_caps_normalized_features(self):
        g = load_edge_list("0 1\n1 2")
        x, model = trained_model(g)
        g2 = erdos_renyi(40, 0.5, seed=3)  # far denser: features exceed training scale
        from rolemine import recompute

        x2 = recompute(g2, model.descriptors)
        raw = x2.values / model.column_scales
        assert raw.max() > 2.0  # the clamp must actually bind
        w_clamped = transfer_memberships(g2, model, clamp=2.0)
        want = memberships_for_matrix(np.minimum(raw, 2.0), model.h)
        assert (w_clamped == want).all()
        w_open = transfer_memberships(g2, model, clamp=None)
        assert not np.allclose(w_clamped, w_open)

    def test_nonpositive_clamp_rejected(self):
        g = load_edge_list("0 1")
        _, model = trained_model(g)
        with pytest.raises(ValueError):
            transfer_memberships(g, model, clamp=0.0)

    def test_clamp_checked_before_features_are_recomputed(self, monkeypatch):
        g = load_edge_list("0 1\n1 2")
        _, model = trained_model(g)
        calls = []
        monkeypatch.setattr(transfer_module, "recompute", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="clamp"):
            transfer_memberships(g, model, clamp=-1.0)
        assert calls == []

    @given(graph_with_permutation(min_n=2, max_n=7))
    @settings(max_examples=25)
    def test_permutation_equivariance(self, case):
        # rows decouple, so only blocked-BLAS rounding separates the two runs
        g, perm = case
        x, model = trained_model(g)
        w1 = transfer_memberships(g, model)
        w2 = transfer_memberships(apply_permutation(g, perm), model)
        assert np.abs(w2[list(perm)] - w1).max() < 1e-9


class TestMembershipsForMatrix:
    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            memberships_for_matrix(np.ones((3, 4)), np.ones((2, 3)))

    @given(st.integers(0, 50))
    @settings(max_examples=30)
    def test_never_worse_than_all_ones_start(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.random((2, 5))
        x = rng.random((6, 5))
        w = memberships_for_matrix(x, h)
        ones = np.ones((6, 2))
        assert ((x - w @ h) ** 2).sum() <= ((x - ones @ h) ** 2).sum() + 1e-12

    def test_exact_when_memberships_recoverable(self):
        rng = np.random.default_rng(22)
        h = rng.random((2, 5)) + 0.5
        w_true = rng.random((8, 2))
        w = memberships_for_matrix(w_true @ h, h)
        assert np.abs(w - w_true).max() < 1e-6

    @given(st.integers(0, 40))
    @settings(max_examples=30)
    def test_matches_active_set_reference(self, seed):
        # scipy's Lawson-Hanson solver is an independent exact route to the
        # same per-row problems
        from scipy.optimize import nnls

        rng = np.random.default_rng(seed)
        h = rng.random((3, 7))
        x = rng.random((5, 7))
        w = memberships_for_matrix(x, h)
        for u in range(5):
            ref, _ = nnls(h.T, x[u])
            ours = ((x[u] - w[u] @ h) ** 2).sum()
            best = ((x[u] - ref @ h) ** 2).sum()
            assert ours <= best + 1e-9

    @given(st.integers(0, 10**6), st.sampled_from(["duplicate", "combination", "zero"]))
    @settings(max_examples=60, deadline=None)
    def test_degenerate_roles_match_active_set_reference(self, seed, kind):
        # a singular Gram matrix must not cost optimality: duplicate roles,
        # a role that is a non-negative combination of two others, and an
        # all-zero role, each against scipy's solver on every row
        from scipy.optimize import nnls

        rng = np.random.default_rng(seed)
        r, f, n = int(rng.integers(3, 9)), int(rng.integers(2, 12)), int(rng.integers(1, 8))
        h = rng.random((r, f)) * (rng.random((r, f)) < 0.7)
        i, j, k = rng.choice(r, size=3, replace=False)
        if kind == "duplicate":
            h[k] = h[i]
        elif kind == "combination":
            h[k] = rng.random() * h[i] + rng.random() * h[j]
        else:
            h[k] = 0.0
        x = rng.random((n, f)) * 10.0 ** rng.integers(-3, 4)
        w = memberships_for_matrix(x, h)
        assert w.shape == (n, r) and (w >= 0).all()
        if kind == "zero":
            assert (w[:, k] == 0.0).all()
        for u in range(n):
            _, rnorm = nnls(h.T, x[u])
            ours = ((x[u] - w[u] @ h) ** 2).sum()
            assert ours <= rnorm**2 + 1e-9 * (x[u] @ x[u])

    def test_near_duplicate_roles_stay_feasible_and_optimal(self):
        # two roles equal to 1e-9: their passive block is singular in
        # floating point, so some of these problems take the least-norm route
        from scipy.optimize import nnls

        for seed in range(200):
            rng = np.random.default_rng(seed)
            h = rng.random((9, 12))
            h[7] = h[4] * (1 + 1e-9 * rng.standard_normal(12))
            x = rng.random((5, 12))
            w = memberships_for_matrix(x, h)
            assert (w >= 0).all()
            for u in range(5):
                _, rnorm = nnls(h.T, x[u])
                assert ((x[u] - w[u] @ h) ** 2).sum() <= rnorm**2 + 1e-9 * (x[u] @ x[u])

    def test_singular_passive_block_still_solved(self):
        # two identical roles both passive: the batched solve cannot factor
        # the block, and the least-norm minimizer stands in; the role left
        # out of the passive set stays exactly 0
        h = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])
        g, c = h @ h.T, h @ np.array([[2.0, 1.0, 1.0], [0.5, 0.0, 3.0]]).T
        passive = np.array([[True, True], [True, True], [False, False]])
        s = transfer_module._passive_solve(g, c, passive)
        assert (s[2] == 0.0).all()
        assert np.allclose(g[:2, :2] @ s[:2], c[:2])

    def test_shared_passive_sets_match_per_column_solves(self):
        # columns 0, 2 and 5 share a set, 1 and 4 share another, 3 is alone
        rng = np.random.default_rng(29)
        a = rng.random((4, 6))
        g, c = a @ a.T, rng.random((4, 6))
        sets = [[1, 1, 0, 1], [0, 1, 1, 0], [1, 1, 0, 1], [1, 0, 0, 0], [0, 1, 1, 0], [1, 1, 0, 1]]
        passive = np.array(sets, dtype=bool).T
        s = transfer_module._passive_solve(g, c, passive)
        for j in range(6):
            p = passive[:, j]
            want = np.zeros(4)
            want[p] = np.linalg.solve(g[np.ix_(p, p)], c[p, j])
            assert np.abs(s[:, j] - want).max() < 1e-12

    def test_only_a_singular_set_takes_the_least_norm_solve(self, monkeypatch):
        # roles 0 and 1 are identical, so a set holding both is singular:
        # {0, 1} is shared by columns 0 and 1, and {0, 1, 2} is column 4's
        # alone; {1, 2} (columns 2 and 3) and {0, 2} (column 5) are not
        h = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])
        g, c = h @ h.T, h @ np.random.default_rng(31).random((6, 3)).T
        sets = [[1, 1, 0], [1, 1, 0], [0, 1, 1], [0, 1, 1], [1, 1, 1], [1, 0, 1]]
        passive = np.array(sets, dtype=bool).T
        blocks = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda m: blocks.append(m.shape) or pinv(m))
        s = transfer_module._passive_solve(g, c, passive)
        assert sorted(blocks) == [(2, 2), (3, 3)]
        for j in range(6):
            p = passive[:, j]
            assert (s[~p, j] == 0.0).all()
            assert np.allclose(g[np.ix_(p, p)] @ s[p, j], c[p, j])

    def test_column_blocks_give_the_same_solution(self, monkeypatch):
        # columns are solved in blocks that bound the stack of Gram systems;
        # they are independent problems, so the split changes nothing
        rng = np.random.default_rng(23)
        h, x = rng.random((4, 9)), rng.random((50, 9))
        whole = memberships_for_matrix(x, h)
        monkeypatch.setattr(transfer_module, "_BLOCK_ELEMENTS", 7 * 16)
        assert np.abs(memberships_for_matrix(x, h) - whole).max() < 1e-12


class TestNnlsReport:
    def test_memberships_report_steps_and_residual(self):
        rng = np.random.default_rng(37)
        h, x = rng.random((4, 9)), rng.random((50, 9))
        report = NnlsReport()
        w = memberships_for_matrix(x, h, report=report)
        assert report.residual == float(np.linalg.norm(x - w @ h))
        # each step admits one role into every open column, so at least as
        # many steps as the most roles any row uses
        assert report.steps >= (w > 0).sum(axis=1).max()

    def test_column_blocks_sum_their_steps(self, monkeypatch):
        rng = np.random.default_rng(41)
        h, x = rng.random((3, 8)), rng.random((12, 8))
        whole = NnlsReport()
        memberships_for_matrix(x, h, report=whole)
        monkeypatch.setattr(transfer_module, "_BLOCK_ELEMENTS", 3 * 3 + 1)  # a row per block
        split = NnlsReport()
        memberships_for_matrix(x, h, report=split)
        rows = [NnlsReport() for _ in range(12)]
        for u, rep in enumerate(rows):
            memberships_for_matrix(x[u : u + 1], h, report=rep)
        assert split.steps == sum(rep.steps for rep in rows) >= whole.steps

    def test_transition_reports_its_residual(self):
        rng = np.random.default_rng(43)
        w_a, w_b = rng.random((30, 3)), rng.random((30, 3))
        report = NnlsReport()
        t = estimate_transition_model(w_a, w_b, report=report)
        assert report.residual == float(np.linalg.norm(w_b - w_a @ t))
        assert report.steps >= 1


def _rewire(g, fraction, rng):
    """Replace a fraction of the edges of g with random node pairs."""
    m = len(g.edges)
    kept = np.delete(g.edges, rng.choice(m, size=int(m * fraction), replace=False), axis=0)
    edges = set(map(tuple, kept.tolist()))
    while len(edges) < m:
        u, v = sorted(int(a) for a in rng.integers(g.n, size=2))
        if u != v:
            edges.add((u, v))
    return Graph(n=g.n, edges=sorted(edges))


class TestDynamicAtScale:
    def test_rank_16_series_rows_are_exact(self):
        # the shape of perfbench's er-dynamic: a rank-16 model on G(150, mean
        # degree 8), scored on rewired snapshots; sampled rows against scipy
        from scipy.optimize import nnls

        from rolemine import recompute

        rng = np.random.default_rng(7)
        snaps = [erdos_renyi(150, 8 / 149, seed=7)]
        for _ in range(3):
            snaps.append(_rewire(snaps[-1], 0.05, rng))
        x = learn_features(snaps[0], FeatureLearnConfig(maxiter=3))
        model = select_rank(x.values, rank=16, descriptors=x.descriptors)
        worst = 0.0
        for g in snaps:
            w = transfer_memberships(g, model)
            xn = np.minimum(recompute(g, model.descriptors).values / model.column_scales, 10.0)
            for u in rng.choice(g.n, size=15, replace=False).tolist():
                _, rnorm = nnls(model.h.T, xn[u])
                ours = ((xn[u] - w[u] @ model.h) ** 2).sum()
                worst = max(worst, (ours - rnorm**2) / (xn[u] @ xn[u]))
        assert worst <= 1e-9


class TestMembershipSeries:
    """A series is one transfer per snapshot, written by series_to_csv."""

    def test_identical_snapshots_give_identical_memberships(self):
        g = erdos_renyi(12, 0.4, seed=5)
        _, model = trained_model(g)
        ws = [transfer_memberships(h, model) for h in (g, g, g)]
        assert (ws[0] == ws[1]).all()
        assert (ws[0] == ws[2]).all()

    def test_relabeled_snapshot_permutes_rows(self):
        g = erdos_renyi(10, 0.4, seed=6)
        _, model = trained_model(g)
        perm = tuple(np.roll(np.arange(10), 3).tolist())
        ws = [transfer_memberships(h, model) for h in (g, apply_permutation(g, perm))]
        assert np.abs(ws[1][list(perm)] - ws[0]).max() < 1e-9

    def test_single_snapshot_series(self):
        g = load_edge_list("0 1\n1 2")
        _, model = trained_model(g)
        w = transfer_memberships(g, model)
        header, *lines = series_to_csv((4,), [w]).splitlines()
        assert header.count(",") == 1 + model.r
        assert [line.split(",")[:2] for line in lines] == [["4", str(u)] for u in range(3)]

    def test_timestamp_count_must_match(self):
        w = np.ones((3, 2))
        with pytest.raises(ValueError):
            series_to_csv((0, 1), [w])
        with pytest.raises(ValueError):
            series_to_csv((0,), [w, w])


class TestTransitionModel:
    def test_static_roles_give_identity(self):
        rng = np.random.default_rng(31)
        w = rng.random((30, 4)) + 0.05
        t = estimate_transition_model(w, w)
        assert np.abs(t - np.eye(4)).max() < 1e-6

    def test_role_swap_recovered_as_permutation(self):
        rng = np.random.default_rng(32)
        w = rng.random((25, 3)) + 0.05
        p = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        t = estimate_transition_model(w, w @ p)
        assert np.abs(t - p).max() < 1e-6

    def test_duplicate_columns_still_fit(self):
        rng = np.random.default_rng(33)
        base = rng.random((20, 1))
        w = np.hstack([base, base, rng.random((20, 1))])
        t = estimate_transition_model(w, w)
        assert ((w - w @ t) ** 2).sum() < 1e-10

    def test_unused_role_gets_zero_row(self):
        rng = np.random.default_rng(34)
        w = rng.random((15, 3))
        w[:, 1] = 0.0
        t = estimate_transition_model(w, rng.random((15, 3)))
        assert (t[1] == 0.0).all()
        assert (t >= 0).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_transition_model(np.ones((4, 2)), np.ones((5, 2)))

    def test_beats_random_candidates(self):
        rng = np.random.default_rng(35)
        w_a = rng.random((6, 2))
        w_b = rng.random((6, 2))
        t = estimate_transition_model(w_a, w_b)
        best = ((w_b - w_a @ t) ** 2).sum()
        for _ in range(1000):
            cand = rng.random((2, 2)) * 2
            assert best <= ((w_b - w_a @ cand) ** 2).sum() + 1e-9


class TestSeriesSerialization:
    def test_csv_round_trip_exact(self):
        rng = np.random.default_rng(41)
        timestamps = (3, -1, 7)
        memberships = [rng.random((4, 2)) for _ in timestamps]
        header, *lines = series_to_csv(timestamps, memberships).splitlines()
        assert header == "timestamp,node,role_0,role_1"
        rows = [line.split(",") for line in lines]
        assert [(int(t), int(u)) for t, u, *_ in rows] == [
            (t, u) for t in timestamps for u in range(4)
        ]
        values = np.array([[float(v) for v in vals] for _, _, *vals in rows])
        assert (values == np.vstack(memberships)).all()

    def test_transition_json_round_trip(self):
        t = np.array([[0.25, 0.75], [1.0, 0.1 + 0.2]])
        assert (np.array(json.loads(transition_to_json(t))) == t).all()

    def test_transition_json_bytes_match_per_value_floats(self):
        t = np.resize([0.1, 1 / 3, 1e-300, 1e16, 5e-324, 7.0], (3, 3))
        old = json.dumps([[float(v) for v in row] for row in t], indent=2) + "\n"
        assert transition_to_json(t) == old

    def test_transition_must_be_square(self):
        with pytest.raises(ValueError):
            transition_to_json(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_transition_must_be_finite(self, bad):
        # json would write NaN or Infinity, which is not JSON
        with pytest.raises(ValueError, match="finite"):
            transition_to_json(np.array([[1.0, bad], [0.0, 1.0]]))
