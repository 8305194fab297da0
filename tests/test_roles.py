import hashlib
import json
import multiprocessing
import re
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rolemine import (
    FeatureDescriptor,
    FeatureLearnConfig,
    Graph,
    RankSweep,
    RoleModel,
    erdos_renyi,
    features_to_csv,
    hard_assignment,
    learn_features,
    model_cost,
    model_from_json,
    model_to_json,
    nmf_factorize,
    normalize_columns,
    planted_role_graph,
    select_rank,
    soft_memberships,
    svd_factorize,
)
from rolemine import roles as roles_module
from rolemine.cli import main
from rolemine.roles import _nmf_batch

from forks import (
    count_forks,
    deadline,
    in_child_only,
    kill_self,
    refuse_forks,
    set_cpus,
    without_fork,
)

nonneg_matrices = arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 8), st.integers(1, 6)),
    elements=st.floats(0, 10, allow_nan=False),
)


def two_pattern_matrix(n=20):
    a = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 1.0])
    return np.array([a if i % 2 == 0 else b for i in range(n)])


class TestNormalizeColumns:
    def test_divides_by_column_max(self):
        xn, scales = normalize_columns(np.array([[2.0, 0.0], [4.0, 0.0]]))
        assert scales.tolist() == [4.0, 1.0]
        assert xn.tolist() == [[0.5, 0.0], [1.0, 0.0]]

    def test_zero_column_kept_with_unit_scale(self):
        xn, scales = normalize_columns(np.zeros((3, 2)))
        assert scales.tolist() == [1.0, 1.0]
        assert (xn == 0).all()

    @given(nonneg_matrices)
    def test_scaled_maxima_are_one_or_zero(self, x):
        xn, scales = normalize_columns(x)
        assert (scales > 0).all()
        for j in range(x.shape[1]):
            top = xn[:, j].max()
            assert top == 1.0 or (x[:, j] == 0).all()

    def test_rank_sweep_ignores_the_input_layout(self):
        # learn_features returns column-major values and features.csv reads
        # back row-major; both must factorize to the same bits
        g, _ = planted_role_graph(seed=2)
        x = learn_features(g)
        assert x.values.flags.f_contiguous
        xn, _ = normalize_columns(x.values)
        assert xn.flags.c_contiguous
        a = select_rank(x.values)
        b = select_rank(np.ascontiguousarray(x.values))
        assert (a.r, a.w.tobytes(), a.h.tobytes()) == (b.r, b.w.tobytes(), b.h.tobytes())


class TestNMF:
    def test_rank_one_matrix_fits_exactly(self):
        x = np.array([[2.0, 4.0], [1.0, 2.0]])
        w, h, history = nmf_factorize(x, 1, seed=0)
        assert history[-1] < 1e-6
        assert w.shape == (2, 1) and h.shape == (1, 2)

    def test_zero_matrix_reaches_zero_objective(self):
        w, h, history = nmf_factorize(np.zeros((3, 2)), 1, seed=0)
        assert history[-1] == 0.0
        assert (w @ h == 0).all()

    def test_identity_fits_at_full_rank(self):
        _, _, history = nmf_factorize(np.eye(3), 3, seed=0)
        assert history[-1] < 1e-6

    def test_history_starts_at_initial_objective(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        w0 = np.ones((2, 2))
        h0 = np.ones((2, 2))
        _, _, history = _nmf_batch(x, [w0], [h0], 1, 1e-6)[0]
        assert history[0] == 0.5 * ((x - w0 @ h0) ** 2).sum()

    def test_bad_inputs_rejected(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            nmf_factorize(np.array([[1.0, -1.0]]), 1)
        with pytest.raises(ValueError):
            nmf_factorize(x, 0)
        with pytest.raises(ValueError):
            nmf_factorize(x, 3)
        with pytest.raises(ValueError):
            nmf_factorize(x, 1, maxiter=0)

    @given(nonneg_matrices, st.integers(0, 5))
    @settings(max_examples=60)
    def test_objective_never_increases(self, x, seed):
        r = min(x.shape)
        w, h, history = nmf_factorize(x, r, seed=seed, maxiter=40)
        for prev, cur in zip(history, history[1:]):
            assert cur <= prev + 1e-9
        assert (w >= 0).all() and (h >= 0).all()

    @given(st.integers(0, 100))
    @settings(max_examples=20)
    def test_deterministic_for_a_seed(self, seed):
        x = np.arange(12, dtype=float).reshape(4, 3) + 1
        w1, h1, hist1 = nmf_factorize(x, 2, seed=seed, maxiter=30)
        w2, h2, hist2 = nmf_factorize(x, 2, seed=seed, maxiter=30)
        assert (w1 == w2).all() and (h1 == h2).all() and hist1 == hist2


class TestSVD:
    def test_truncation_error_is_dropped_energy(self):
        x = np.diag([3.0, 2.0, 1.0])
        u, s, v = svd_factorize(x, 2)
        assert np.allclose(s, [3.0, 2.0])
        err = ((x - u @ np.diag(s) @ v.T) ** 2).sum()
        assert abs(err - 1.0) < 1e-12

    def test_rank_one_outer_product_exact(self):
        x = np.outer([1.0, 2.0], [1.0, 1.0])
        u, s, v = svd_factorize(x, 1)
        assert ((x - u @ np.diag(s) @ v.T) ** 2).sum() < 1e-9

    def test_full_rank_reconstructs(self):
        rng = np.random.default_rng(5)
        x = rng.random((4, 4))
        u, s, v = svd_factorize(x, 4)
        assert ((x - u @ np.diag(s) @ v.T) ** 2).sum() < 1e-9

    def test_factor_columns_orthonormal(self):
        rng = np.random.default_rng(6)
        x = rng.random((6, 4))
        u, s, v = svd_factorize(x, 3)
        assert np.abs(u.T @ u - np.eye(3)).max() < 1e-8
        assert np.abs(v.T @ v - np.eye(3)).max() < 1e-8
        assert s[0] >= s[1] >= s[2] >= 0

    def test_rank_range_validated(self):
        x = np.ones((3, 2))
        with pytest.raises(ValueError):
            svd_factorize(x, 0)
        with pytest.raises(ValueError):
            svd_factorize(x, 3)

    def test_beats_random_candidates(self):
        rng = np.random.default_rng(7)
        x = rng.random((4, 4))
        u, s, v = svd_factorize(x, 2)
        best = ((x - u @ np.diag(s) @ v.T) ** 2).sum()
        for _ in range(200):
            a = rng.standard_normal((4, 2))
            b = rng.standard_normal((2, 4))
            assert best <= ((x - a @ b) ** 2).sum() + 1e-12


class TestModelCost:
    def test_exact_fit_mdl_is_pure_complexity(self):
        w = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        h = np.array([[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 3.0, 1.0]])
        x = w @ h
        n, f, r = 3, 4, 2
        assert model_cost(x, w, h, criterion="mdl", b=16) == 16 * (n * r + r * f)
        assert model_cost(x, w, h, criterion="mdl", b=17) == 17 * (n * r + r * f)

    def test_aic_matches_direct_formula(self):
        rng = np.random.default_rng(9)
        x = rng.random((5, 4))
        w = rng.random((5, 2))
        h = rng.random((2, 4))
        mse = ((x - w @ h) ** 2).sum() / 20
        want = 2 * (5 * 2 + 2 * 4) + 20 * np.log(mse + 1e-12)
        assert abs(model_cost(x, w, h, criterion="aic") - want) < 1e-9

    def test_two_pattern_data_scores_rank_two_best(self):
        x = two_pattern_matrix()
        costs = {}
        for r in (1, 2, 3):
            w, h, _ = nmf_factorize(x, r, seed=3, maxiter=500)
            costs[r] = model_cost(x, w, h, criterion="aic")
        assert costs[2] < costs[1]
        assert costs[2] < costs[3]

    def test_bad_arguments_rejected(self):
        x = np.ones((3, 3))
        w = np.ones((3, 2))
        h = np.ones((2, 3))
        with pytest.raises(ValueError):
            model_cost(x, w, np.ones((2, 4)))
        with pytest.raises(ValueError):
            model_cost(x, w, h, criterion="bic")
        with pytest.raises(ValueError):
            model_cost(x, w, h, criterion="mdl", b=0)


class TestSelectRank:
    def test_two_patterns_give_rank_two(self):
        model = select_rank(two_pattern_matrix())
        assert model.r == 2

    def test_identical_rows_give_rank_one(self):
        x = np.tile([2.0, 4.0, 6.0, 8.0], (10, 1))
        model = select_rank(x)
        assert model.r == 1

    def test_reported_cost_matches_factors(self):
        x = two_pattern_matrix()
        model = select_rank(x)
        xn, scales = normalize_columns(x)
        assert (scales == model.column_scales).all()
        assert model.cost == model_cost(xn, model.w, model.h, model.criterion, model.b)

    def test_descriptors_carried_on_model(self):
        descs = (FeatureDescriptor(id=0, kind="primitive", primitive="degree"),)
        x = np.array([[1.0], [2.0], [2.0]])
        model = select_rank(x, descriptors=descs)
        assert model.descriptors == descs

    def test_sweep_parameters_validated(self):
        x = np.ones((3, 3))
        with pytest.raises(ValueError):
            select_rank(x, trials=0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(criterion="bic"), "unknown criterion 'bic'"),
        (dict(criterion="mdl", b=0), "b must be >= 1"),
    ])
    def test_criterion_checked_before_any_fit(self, monkeypatch, kwargs, message):
        x = er_features(1)
        monkeypatch.setattr(roles_module, "_cpu_count", lambda: 2)

        def refuse(*args):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(roles_module, "_nmf_batch", refuse)
        refuse_pools(monkeypatch)
        exact = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=exact):
            select_rank(x, **kwargs)
        with pytest.raises(ValueError, match=exact):
            select_rank(x, rank=3, **kwargs)
        with pytest.raises(ValueError, match=exact):
            model_cost(x, np.ones((x.shape[0], 1)), np.ones((1, x.shape[1])), **kwargs)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("maxiter", [0, -3])
    def test_maxiter_below_one_rejected(self, maxiter):
        with pytest.raises(ValueError, match="maxiter must be >= 1"):
            select_rank(two_pattern_matrix(), maxiter=maxiter)

    def test_fixed_rank_fit(self):
        x = two_pattern_matrix()
        model = select_rank(x, rank=3, seed=2)
        assert model.r == 3
        xn, _ = normalize_columns(x)
        assert model.cost == model_cost(xn, model.w, model.h, model.criterion, model.b)


class TestMembershipViews:
    def test_soft_normalizes_rows(self):
        w = np.array([[2.0, 2.0], [1.0, 3.0]])
        assert soft_memberships(w).tolist() == [[0.5, 0.5], [0.25, 0.75]]

    def test_soft_zero_row_becomes_uniform(self):
        out = soft_memberships(np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
        assert out[0].tolist() == [1 / 3, 1 / 3, 1 / 3]
        assert out[1].tolist() == [1.0, 0.0, 0.0]

    @given(
        arrays(
            dtype=float,
            shape=st.tuples(st.integers(1, 6), st.integers(1, 5)),
            elements=st.floats(0, 100, allow_nan=False),
        )
    )
    def test_soft_rows_are_distributions(self, w):
        out = soft_memberships(w)
        assert (out >= 0).all()
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_hard_takes_argmax_with_low_ties(self):
        w = np.array([[0.1, 0.9], [0.5, 0.5], [0.7, 0.2]])
        assert hard_assignment(w).tolist() == [1, 0, 0]

    def test_hard_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(13)
        w = rng.random((10, 4))
        assert (hard_assignment(w) == hard_assignment(w * 7.5)).all()

    def test_negative_memberships_rejected(self):
        with pytest.raises(ValueError):
            soft_memberships(np.array([[-1.0, 2.0]]))
        with pytest.raises(ValueError):
            hard_assignment(np.array([[-1.0, 2.0]]))


class TestModelJson:
    def test_round_trip_is_exact(self):
        x = two_pattern_matrix()
        descriptors = (
            FeatureDescriptor(id=0, kind="primitive", primitive="degree"),
            *(FeatureDescriptor(id=j, kind="composite", operator="sum", base=0, iteration=1)
              for j in range(1, x.shape[1])),
        )
        model = select_rank(x, descriptors=descriptors)
        back = model_from_json(model_to_json(model))
        assert back.r == model.r
        assert (back.w == model.w).all()
        assert (back.h == model.h).all()
        assert (back.column_scales == model.column_scales).all()
        assert back.descriptors == model.descriptors
        assert back.cost == model.cost
        assert (back.criterion, back.b, back.seed) == (model.criterion, model.b, model.seed)

    def test_round_trip_without_descriptors(self):
        model = select_rank(np.array([[1.0, 2.0], [2.0, 1.0]]), rank=1)
        back = model_from_json(model_to_json(model))
        assert back.descriptors is None
        assert (back.w == model.w).all()

    def test_bytes_match_per_value_floats(self):
        # .tolist() gives the Python floats float(v) gave, so the same text
        awkward = [0.1, 1 / 3, 1e-300, 1e16, 5e-324, 7.0]
        model = RoleModel(
            r=2, w=np.array(awkward).reshape(3, 2), h=np.array([awkward, awkward[::-1]]),
            column_scales=np.array(awkward), descriptors=None, cost=1 / 3,
            criterion="aic", b=16, seed=1,
        )
        old = {
            "r": 2, "criterion": "aic", "b": 16, "seed": 1,
            "column_scales": [float(v) for v in model.column_scales],
            "descriptors": None,
            "W": [[float(v) for v in row] for row in model.w],
            "H": [[float(v) for v in row] for row in model.h],
            "cost": float(model.cost),
        }
        text = model_to_json(model)
        assert text == json.dumps(old, indent=2) + "\n"
        assert "5e-324" in text and "1e+16" in text and "7.0" in text

    def test_model_validation(self):
        ok = dict(
            w=np.ones((3, 1)),
            h=np.ones((1, 2)),
            column_scales=np.ones(2),
            descriptors=None,
            cost=1.0,
            criterion="aic",
            b=16,
            seed=1,
        )
        RoleModel(r=1, **ok)
        with pytest.raises(ValueError):
            RoleModel(r=2, **ok)
        with pytest.raises(ValueError):
            RoleModel(r=1, **{**ok, "w": -np.ones((3, 1))})
        with pytest.raises(ValueError):
            RoleModel(r=1, **{**ok, "column_scales": np.zeros(2)})
        with pytest.raises(ValueError):
            RoleModel(r=1, **{**ok, "cost": float("nan")})
        with pytest.raises(ValueError):
            RoleModel(
                r=4,
                **{**ok, "w": np.ones((3, 4)), "h": np.ones((4, 2))},
            )
        degree = FeatureDescriptor(id=0, kind="primitive", primitive="degree")
        RoleModel(r=1, **{**ok, "descriptors": (degree, degree)})
        with pytest.raises(ValueError, match="1 descriptors for 2 feature columns"):
            RoleModel(r=1, **{**ok, "descriptors": (degree,)})


def sequential_nmf(x, w0, h0, maxiter, tol):
    """The per-rank multiplicative-update loop the batched kernel replaced,
    kept as an oracle: five n*f*r products per iteration and the objective
    from the residual."""
    w = np.array(w0, dtype=float)
    h = np.array(h0, dtype=float)
    eps = 1e-12
    history = [0.5 * float(((x - w @ h) ** 2).sum())]
    for _ in range(maxiter):
        h *= (w.T @ x) / (w.T @ w @ h + eps)
        w *= (x @ h.T) / (w @ h @ h.T + eps)
        obj = 0.5 * float(((x - w @ h) ** 2).sum())
        history.append(obj)
        prev = history[-2]
        if prev == 0.0 or (prev - obj) / prev < tol:
            break
    return w, h, history


def sequential_sweep(x, trials=5, seed=1, maxiter=500, tol=1e-6):
    """The rank sweep before batching, on the distinct rows, kept as an
    oracle: one rank at a time, stopping after `trials` non-improving ranks.
    The distinct rows, in order of first appearance, are scaled by
    sqrt(count) and start at sqrt(count) times their members' mean drawn
    row. Returns the chosen (rank, cost, W) and one (rank, iterations, cost)
    per fitted rank."""
    xn, _ = normalize_columns(x)
    n, f = xn.shape
    rng = np.random.default_rng(seed)
    scale0 = xn.max() if xn.max() > 0 else 1.0
    w_drawn = np.abs(rng.standard_normal((n, min(n, f)))) * scale0
    h_full = np.abs(rng.standard_normal((min(n, f), f))) * scale0
    members = {}
    for node, row in enumerate(xn):
        members.setdefault(row.tobytes(), []).append(node)
    groups = list(members.values())
    inverse = np.empty(n, dtype=int)
    for i, group in enumerate(groups):
        inverse[group] = i
    root = np.sqrt([[len(group)] for group in groups])
    u = xn[[group[0] for group in groups]] * root
    w_full = np.array([w_drawn[group].mean(axis=0) for group in groups]) * root
    best = None
    fits = []
    failed = 0
    for r in range(1, min(len(groups), f) + 1):
        w, h, history = sequential_nmf(u, w_full[:, :r], h_full[:r, :], maxiter, tol)
        w = (w / root)[inverse]
        cost = model_cost(xn, w, h)
        fits.append((r, len(history) - 1, cost))
        if best is None or cost < best[1]:
            best = (r, cost, w)
            failed = 0
        else:
            failed += 1
            if failed >= trials:
                break
    return best, fits


def er_features(seed, n=150, degree=8.0):
    g = erdos_renyi(n, degree / (n - 1), seed=seed)
    return learn_features(g, FeatureLearnConfig(maxiter=3)).values


def assert_same_sweep(x, **kwargs):
    (r, cost, w), want = sequential_sweep(x, **kwargs)
    sweep = RankSweep()
    model = select_rank(x, sweep=sweep, **kwargs)
    got = [(fit.rank, fit.iterations, fit.cost) for fit in sweep.fits]
    assert [g[:2] for g in got] == [o[:2] for o in want]
    for (_, _, c_got), (_, _, c_want) in zip(got, want):
        assert abs(c_got - c_want) <= 1e-12 * abs(c_want)
    assert model.r == r
    assert abs(model.cost - cost) <= 1e-12 * abs(cost)
    assert np.abs(model.w - w).max() <= 1e-9 * max(1.0, np.abs(w).max())
    return sweep


class TestBatchedSweep:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_sequential_sweep_on_er_features(self, seed):
        sweep = assert_same_sweep(er_features(seed))
        assert sweep.stopped == "trials"

    def test_matches_sequential_sweep_on_planted_roles(self):
        g, _ = planted_role_graph(seed=3, units=6)
        assert_same_sweep(learn_features(g).values)

    def test_slices_that_stop_at_different_iterations(self):
        # tall and nearly rank one: rank 1 converges long before the others
        rng = np.random.default_rng(21)
        x = np.outer(rng.random(600) + 0.5, rng.random(5) + 0.5) + 0.01 * rng.random((600, 5))
        sweep = assert_same_sweep(x, maxiter=300)
        iterations = [fit.iterations for fit in sweep.fits]
        assert iterations[0] < 300
        assert len(set(iterations)) > 1

    def test_one_trial(self):
        assert_same_sweep(er_features(4), trials=1)

    def test_reaches_full_rank(self):
        sweep = assert_same_sweep(np.random.default_rng(8).random((30, 3)))
        assert [fit.rank for fit in sweep.fits] == [1, 2, 3]
        assert sweep.stopped == "rmax"


class TestDistinctRows:
    def test_all_distinct_rows_keep_the_full_row_bits(self):
        # recorded with the full-row sweep and fixed-rank fit, before both
        # fitted the distinct rows: every row here is distinct
        x = er_features(1)
        digest = hashlib.sha256()
        for model in (select_rank(x), select_rank(x, rank=5)):
            digest.update(np.array([model.r, model.cost]).tobytes())
            digest.update(model.w.tobytes())
            digest.update(model.h.tobytes())
        assert digest.hexdigest() == "ff7d2f2ec1e04d491420ba8250e63d66601c597d45d7ba0b9d7bc8cf8c21ce43"

    def test_tied_rows_keep_their_bits(self):
        # 570 rows, 4 distinct; recorded while the fixed-rank fit had its
        # own code path. Rank 5 lies above the distinct row count
        g, _ = planted_role_graph(seed=1, units=30)
        x = learn_features(g).values
        digest = hashlib.sha256()
        fits = (lambda s: select_rank(x, sweep=s),
                lambda s: select_rank(x, rank=4, sweep=s),
                lambda s: select_rank(x, rank=5, sweep=s))
        for fit in fits:
            sweep = RankSweep()
            model = fit(sweep)
            digest.update(np.array([model.r, model.cost]).tobytes())
            digest.update(model.w.tobytes())
            digest.update(model.h.tobytes())
            digest.update(repr(sweep).encode())
        assert digest.hexdigest() == "7c0203c2d86b9bb3d73ce8f86dfc43af6239db6aac587d8bf386ec01a0564a90"

    def test_fixed_rank_above_the_distinct_row_count(self):
        x = np.tile([[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 3.0, 1.0]], (5, 1))
        sweep = RankSweep()
        model = select_rank(x, rank=4, sweep=sweep)
        assert model.r == 4 and sweep.distinct_rows == 2
        assert np.array_equal(model.w[0::2], np.repeat(model.w[:1], 5, axis=0))
        assert np.array_equal(model.w[1::2], np.repeat(model.w[1:2], 5, axis=0))
        with pytest.raises(ValueError, match="outside"):
            select_rank(x, rank=5)

    def test_sweep_stops_at_the_distinct_row_count(self):
        x = np.repeat(np.random.default_rng(8).random((3, 6)), [4, 1, 2], axis=0)
        sweep = RankSweep()
        select_rank(x, sweep=sweep)
        assert sweep.distinct_rows == 3
        assert [fit.rank for fit in sweep.fits] == [1, 2, 3]
        assert sweep.stopped == "rmax"


class TestGramObjective:
    @pytest.mark.parametrize("shape,r", [((40, 15), 4), ((150, 70), 12), ((5, 300), 5)])
    def test_history_equals_direct_objective(self, shape, r):
        rng = np.random.default_rng(shape[0] + r)
        x = rng.random(shape)
        scale = float((x**2).sum())
        w0 = rng.random((shape[0], r))
        h0 = rng.random((r, shape[1]))
        _, _, want = sequential_nmf(x, w0, h0, 60, 0.0)
        _, _, got = _nmf_batch(x, [w0], [h0], 60, 0.0)[0]
        assert got[0] == want[0]
        assert len(got) == len(want)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12 * scale

    @pytest.mark.parametrize("steps", [1, 2, 7, 30])
    def test_last_value_is_the_objective_of_the_returned_factors(self, steps):
        rng = np.random.default_rng(steps)
        x = rng.random((50, 20))
        w, h, history = nmf_factorize(x, 5, seed=steps, maxiter=steps, tol=0.0)
        assert len(history) == steps + 1
        direct = 0.5 * float(((x - w @ h) ** 2).sum())
        assert abs(history[-1] - direct) <= 1e-12 * float((x**2).sum())

    @pytest.mark.parametrize("seed", [2, 3, 8])
    def test_exact_fit_is_clamped_at_zero(self, seed):
        # on these exact integer products the identity rounds below zero
        rng = np.random.default_rng(seed)
        n, f = int(rng.integers(2, 12)), int(rng.integers(2, 8))
        r = int(rng.integers(1, min(n, f) + 1))
        x = rng.integers(0, 4, (n, r)).astype(float) @ rng.integers(0, 4, (r, f)).astype(float)
        _, _, history = nmf_factorize(x, r, seed=seed, maxiter=2000, tol=0.0)
        assert min(history) == 0.0


def count_pools(monkeypatch):
    """Record each fit worker pool the sweep creates."""
    pools = []

    class Counted(roles_module.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(roles_module, "ProcessPoolExecutor", Counted)
    return pools


def refuse_pools(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep started a process")

    monkeypatch.setattr(roles_module, "ProcessPoolExecutor", refuse)


def twice(g):
    """Two disjoint copies of g: node u and node u + n have equal feature rows."""
    return Graph(n=2 * g.n, edges=np.concatenate([g.edges, g.edges + g.n]))


class TestForkedStacks:
    # the inputs of er_features(1..3), and tied rows whose distinct rows are
    # large enough to fork
    @pytest.mark.parametrize(
        "graph,config",
        [(erdos_renyi(150, 8 / 149, seed=seed), FeatureLearnConfig(maxiter=3)) for seed in (1, 2, 3)]
        + [(twice(erdos_renyi(150, 8 / 149, seed=1)), FeatureLearnConfig(maxiter=3))],
        ids=["er1", "er2", "er3", "er1-twice"],
    )
    def test_same_bytes_on_any_cpu_count(self, graph, config, monkeypatch, tmp_path):
        learned = learn_features(graph, config)
        x = learned.values
        with open(tmp_path / "features.csv", "w") as out:
            features_to_csv(learned, out)
        pools = count_pools(monkeypatch)
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(roles_module, "_cpu_count", lambda: cpus)
            sweep = RankSweep()
            model = select_rank(x, sweep=sweep)
            assert sweep.distinct_rows * x.shape[1] >= roles_module._VALUES_PER_FIT_WORKER
            result = CliRunner().invoke(main, ["select-rank", str(tmp_path / "features.csv"),
                                               "--output-dir", str(tmp_path / "out")])
            assert result.exit_code == 0, result.output
            files = [(tmp_path / "out" / name).read_bytes() for name in ("model.json", "run.json")]
            runs.append((model, sweep, files, len(pools)))
        (model, sweep, files, _), *others = runs
        for other, other_sweep, other_files, _ in others:
            assert np.array_equal(other.w, model.w) and np.array_equal(other.h, model.h)
            assert other.cost == model.cost
            assert other_sweep == sweep
            assert other_files == files
        # one CPU forks nothing; two and three fork once per sweep
        assert [count for *_, count in runs] == [0, 2, 4]

    def test_error_in_the_worker_leaves_select_rank(self, monkeypatch):
        def fail():
            raise ValueError("second stack failed")

        monkeypatch.setattr(roles_module, "_cpu_count", lambda: 2)
        in_child_only(monkeypatch, roles_module, "_nmf_batch", fail)
        with deadline(60), pytest.raises(ValueError, match="second stack failed"):
            select_rank(er_features(1))
        assert multiprocessing.active_children() == []

    def test_killed_worker_raises(self, monkeypatch):
        monkeypatch.setattr(roles_module, "_cpu_count", lambda: 2)
        in_child_only(monkeypatch, roles_module, "_nmf_batch", kill_self)
        with deadline(60), pytest.raises(BrokenProcessPool):
            select_rank(er_features(1))
        assert multiprocessing.active_children() == []

    def test_small_inputs_and_single_ranks_start_no_process(self, monkeypatch):
        monkeypatch.setattr(roles_module, "_cpu_count", lambda: 2)
        refuse_pools(monkeypatch)
        assert select_rank(np.random.default_rng(8).random((30, 3))).r >= 1
        x = er_features(1)
        select_rank(x, rank=5)
        # one trial: every batch is one rank
        sweep = RankSweep()
        select_rank(x, trials=1, sweep=sweep)
        assert len(sweep.fits) > 1

    def test_without_fork_the_sweep_runs_in_process(self, monkeypatch):
        x = er_features(1)
        set_cpus(monkeypatch, 2)
        started = count_forks(monkeypatch)
        sweep = RankSweep()
        model = select_rank(x, sweep=sweep)
        assert len(started) == 1
        without_fork(monkeypatch)
        refuse_forks(monkeypatch)
        other_sweep = RankSweep()
        other = select_rank(x, sweep=other_sweep)
        assert np.array_equal(other.w, model.w) and np.array_equal(other.h, model.h)
        assert other.cost == model.cost and other_sweep == sweep
        assert multiprocessing.active_children() == []

    def test_er_features_take_the_worker(self, monkeypatch):
        # the sweep forks on its distinct rows: all 150 rows of these are
        monkeypatch.setattr(roles_module, "_cpu_count", lambda: 2)
        pools = count_pools(monkeypatch)
        select_rank(er_features(1))
        assert len(pools) == 1

    def test_planted_features_fork_nothing(self, monkeypatch):
        # 3800 x 5 features, as the planted-cli benchmark's, of 4 distinct rows
        g, _ = planted_role_graph(seed=1, units=200)
        x = learn_features(g).values
        monkeypatch.setattr(roles_module, "_cpu_count", lambda: 2)
        pools = count_pools(monkeypatch)
        sweep = RankSweep()
        select_rank(x, sweep=sweep)
        assert x.shape == (3800, 5) and sweep.distinct_rows == 4
        assert pools == []
