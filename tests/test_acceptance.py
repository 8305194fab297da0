"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line with its measured margin.

Run order matters only for speed (criterion 4 reuses criterion 3's learned
matrices via a module cache); every test recomputes its own evidence.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import rolemine
from rolemine import (
    FeatureLearnConfig,
    NodePartition,
    apply_permutation,
    automorphic_orbits,
    erdos_renyi,
    estimate_transition_model,
    hard_assignment,
    learn_features,
    memberships_for_matrix,
    planted_role_graph,
    regular_refinement,
    select_rank,
    structural_classes,
    transfer_memberships,
    write_edge_list,
)
from rolemine.features import _SPAN_TOL, log_bin_rows
from rolemine.roles import _floors, _nmf_batch, _start

from oracles import all_at_once_learn, equitable_partition
from strategies import rewire


def _report(capsys, num, name, ok, details):
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({details})")
    assert ok, f"criterion {num:02d} {name}: {details}"


def _small_graph_corpus():
    # 200 sparse-to-dense graphs, n = 2..8
    return [
        erdos_renyi(2 + i % 7, 0.1 + 0.8 * (i % 9) / 8, seed=1000 + i) for i in range(200)
    ]


def brute_force_orbits(g):
    """Automorphism orbits by checking every node permutation directly."""
    n = g.n
    a = np.zeros((n, n), dtype=bool)
    a[g.edges[:, 0], g.edges[:, 1]] = True
    a |= a.T
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    mapped = a[perms[:, :, None], perms[:, None, :]]
    valid = perms[(mapped == a).all(axis=(1, 2))]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in valid:
        for u in range(n):
            ru, rv = find(u), find(int(p[u]))
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
    classes: dict[int, list[int]] = {}
    for u in range(n):
        classes.setdefault(find(u), []).append(u)
    return list(classes.values())


def test_criterion_01_orbit_constancy(capsys):
    t0 = time.perf_counter()
    violations = 0
    for g in _small_graph_corpus():
        x = learn_features(g)
        for cls in brute_force_orbits(g):
            rows = x.values[cls]
            if not (rows == rows[0]).all():
                violations += 1
    dt = time.perf_counter() - t0
    _report(
        capsys, 1, "orbit members share exact feature rows",
        violations == 0 and dt <= 60,
        f"{violations} violations over 200 graphs, {dt:.1f}s of 60s",
    )


def test_criterion_02_equivalence_hierarchy(capsys):
    t0 = time.perf_counter()
    violations = 0
    for g in _small_graph_corpus():
        strict = structural_classes(g, variant="strict")
        orbits = automorphic_orbits(g)
        regular = regular_refinement(g)
        if not (strict.refines(orbits) and orbits.refines(regular)):
            violations += 1
    dt = time.perf_counter() - t0
    _report(
        capsys, 2, "structural refines automorphic refines regular",
        violations == 0 and dt <= 60,
        f"{violations} violations over 200 graphs, {dt:.1f}s of 60s",
    )


_LEARNED_CACHE: list = []


def _learned_corpus():
    """50 learned feature matrices over graphs of 20..200 nodes at mean
    degrees cycling through 2, 4, 8, 16."""
    if not _LEARNED_CACHE:
        for i in range(50):
            n = 20 + (180 * i) // 49
            d = (2, 4, 8, 16)[i % 4]
            g = erdos_renyi(n, min(d / (n - 1), 1.0), seed=2000 + i)
            _LEARNED_CACHE.append(learn_features(g))
    return _LEARNED_CACHE


def test_criterion_03_growth_monotone_and_halts(capsys):
    t0 = time.perf_counter()
    violations = 0
    for x in _learned_corpus():
        sizes = x.iteration_sizes
        if len(sizes) > 11 or any(a > b for a, b in zip(sizes, sizes[1:])):
            violations += 1
    dt = time.perf_counter() - t0
    _report(
        capsys, 3, "feature growth is monotone and terminates",
        violations == 0 and dt <= 120,
        f"{violations} violations over 50 graphs, {dt:.1f}s of 120s",
    )


def test_criterion_04_surviving_features_separated(capsys):
    t0 = time.perf_counter()
    violations = 0
    checked_pairs = 0
    for x in _learned_corpus():
        # route 1: the bin vectors of all survivors, as bytes, are distinct
        if len({row.tobytes() for row in log_bin_rows(x.values.T)}) != x.f:
            violations += 1
        # route 2: each pair of bin rows compared node by node, on a bounded
        # prefix
        head = min(x.f, 60)
        binned = log_bin_rows(x.values[:, :head].T)
        for i in range(head):
            for j in range(i + 1, head):
                checked_pairs += 1
                if (binned[i] == binned[j]).all():
                    violations += 1
    dt = time.perf_counter() - t0
    _report(
        capsys, 4, "no two surviving features share a bin vector",
        violations == 0,
        f"{violations} violations, {checked_pairs} pairs checked directly, {dt:.1f}s",
    )


def test_criterion_05_factorization_objective_monotone(capsys):
    t0 = time.perf_counter()
    violations = 0
    for i in range(100):
        rng = np.random.default_rng(3000 + i)
        x = rng.random((50, 20))
        # the multiplicative-update kernel select_rank runs, from its start
        w0, h0 = _start(x, 5, i)
        w, h, history = _nmf_batch(x, [w0], [h0], 500, 1e-6)[0]
        bad_step = any(cur > prev + 1e-9 for prev, cur in zip(history, history[1:]))
        if bad_step or (w < 0).any() or (h < 0).any():
            violations += 1
    dt = time.perf_counter() - t0
    _report(
        capsys, 5, "factorization objective never increases",
        violations == 0 and dt <= 60,
        f"{violations} violations over 100 runs, {dt:.1f}s of 60s",
    )


def test_criterion_06_truncated_svd_optimality(capsys):
    t0 = time.perf_counter()
    violations = 0
    for i in range(100):
        rng = np.random.default_rng(4000 + i)
        x = rng.random((4, 4))
        # the Eckart-Young floor select_rank skips ranks by
        best = _floors(x)[2]
        a = rng.standard_normal((1000, 4, 2))
        b = rng.standard_normal((1000, 2, 4))
        errs = ((x[None] - a @ b) ** 2).sum(axis=(1, 2))
        if (errs + 1e-12 < best).any():
            violations += 1
    dt = time.perf_counter() - t0
    _report(
        capsys, 6, "rank-2 Eckart-Young floor beats random candidates",
        violations == 0,
        f"{violations} violations over 100 matrices x 1000 candidates, {dt:.1f}s",
    )


def test_criterion_07_rank_selection_on_synthetic_patterns(capsys):
    t0 = time.perf_counter()
    a = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 1.0])
    two = np.array([a if i % 2 == 0 else b for i in range(20)])
    flat = np.tile([2.0, 4.0, 6.0, 8.0], (10, 1))
    r_two = select_rank(two).r
    r_flat = select_rank(flat).r
    dt = time.perf_counter() - t0
    _report(
        capsys, 7, "rank sweep recovers pattern counts",
        (r_two, r_flat) == (2, 1),
        f"two-pattern r={r_two} (want 2), identical-rows r={r_flat} (want 1), {dt:.1f}s",
    )


def test_criterion_08_planted_role_recovery(capsys):
    t0 = time.perf_counter()
    rank_ok = 0
    label_ok = 0
    for seed in range(1, 21):
        g, labels = planted_role_graph(seed=seed)
        x = learn_features(g)
        model = select_rank(x.values, descriptors=x.descriptors)
        hard = hard_assignment(model.w)
        if 2 <= model.r <= 15:
            rank_ok += 1
        centers = {int(hard[u]) for u, lab in enumerate(labels) if lab == 1}
        members = {int(hard[u]) for u, lab in enumerate(labels) if lab == 0}
        if len(centers) == 1 and len(members) == 1 and centers != members:
            label_ok += 1
    dt = time.perf_counter() - t0
    _report(
        capsys, 8, "planted hub and clique roles recovered",
        rank_ok == 20 and label_ok >= 16 and dt <= 180,
        f"rank in [2,15]: {rank_ok}/20, exact labels: {label_ok}/20 (need 16), {dt:.1f}s of 180s",
    )


def test_criterion_09_transfer_equivariance(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        g = erdos_renyi(12, 0.35, seed=5000 + i)
        x = learn_features(g)
        model = select_rank(x.values, descriptors=x.descriptors)
        w1 = transfer_memberships(g, model)
        perm = tuple(int(v) for v in np.random.default_rng(6000 + i).permutation(12))
        w2 = transfer_memberships(apply_permutation(g, perm), model)
        worst = max(worst, float(np.abs(w2[list(perm)] - w1).max()))
    dt = time.perf_counter() - t0
    _report(
        capsys, 9, "relabeled transfer permutes memberships",
        worst <= 1e-6,
        f"worst row difference {worst:.2e} of 1e-6 over 20 graphs, {dt:.1f}s",
    )


def test_criterion_10_transition_identity(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    hits = 0
    for i in range(20):
        rng = np.random.default_rng(7000 + i)
        w = rng.random((30, 4)) + 0.05
        t = estimate_transition_model(w, w)
        err = float(np.abs(t - np.eye(4)).max())
        worst = max(worst, err)
        hits += err <= 1e-4
    dt = time.perf_counter() - t0
    _report(
        capsys, 10, "static snapshots give the identity transition",
        hits == 20,
        f"{hits}/20 within 1e-4, worst {worst:.2e}, {dt:.1f}s",
    )


_CLI_CHAIN = [
    ["learn", "graph.txt", "--output-dir", "learn"],
    ["select-rank", "learn/features.csv", "learn/descriptors.json", "--output-dir", "rank"],
    ["assign", "rank/model.json", "--hard", "--output-dir", "assign"],
    ["transfer", "rank/model.json", "graph.txt", "--output-dir", "transfer"],
    ["dynamic", "rank/model.json", "snapshots.txt", "--output-dir", "dynamic"],
    ["oracle", "graph.txt", "--kind", "automorphic", "--output-dir", "oracle"],
]


def _run_cli_chain(root: Path) -> dict[str, bytes]:
    root.mkdir()
    # The children run in `root`, where an inherited relative PYTHONPATH
    # resolves to nothing; put the absolute `src` of the rolemine this suite
    # imported first, so they run the same code from any working directory.
    src = str(Path(rolemine.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    g = erdos_renyi(10, 0.4, seed=3)
    (root / "graph.txt").write_text(write_edge_list(g))
    (root / "snapshots.txt").write_text("graph.txt\ngraph.txt\n")
    outputs: dict[str, bytes] = {}
    for k, cmd in enumerate(_CLI_CHAIN):
        proc = subprocess.run(
            [sys.executable, "-m", "rolemine.cli", *cmd],
            cwd=root,
            env=env,
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs[f"stdout:{k}"] = proc.stdout
    for sub in ("learn", "rank", "assign", "transfer", "dynamic", "oracle"):
        for f in sorted((root / sub).iterdir()):
            outputs[f"{sub}/{f.name}"] = f.read_bytes()
    return outputs


def test_criterion_11_cli_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    runs = [_run_cli_chain(tmp_path / f"run{k}") for k in range(3)]
    same_keys = runs[0].keys() == runs[1].keys() == runs[2].keys()
    diffs = []
    if same_keys:
        diffs = [key for key in runs[0] if not (runs[0][key] == runs[1][key] == runs[2][key])]
    dt = time.perf_counter() - t0
    _report(
        capsys, 11, "repeated runs are byte-identical",
        same_keys and not diffs,
        f"6 subcommands x 3 runs, {len(runs[0])} outputs compared, "
        f"differing: {diffs or 'none'}, {dt:.1f}s",
    )


def test_criterion_12_exact_transfer_memberships(capsys):
    from scipy.optimize import nnls

    x = learn_features(erdos_renyi(1000, 8 / 999, seed=1), FeatureLearnConfig(maxiter=3))
    model = select_rank(x.values, rank=20, descriptors=x.descriptors)
    xn = x.values / model.column_scales
    t0 = time.perf_counter()
    w = memberships_for_matrix(xn, model.h)
    dt = time.perf_counter() - t0
    worst = 0.0
    for u in range(len(xn)):
        _, rnorm = nnls(model.h.T, xn[u])
        ours = float(((xn[u] - w[u] @ model.h) ** 2).sum())
        worst = max(worst, (ours - rnorm**2) / max(rnorm**2, np.finfo(float).tiny))
    _report(
        capsys, 12, "transfer memberships match the exact NNLS optimum",
        worst <= 1e-9 and (w >= 0).all(),
        f"worst relative objective gap {worst:.2e} of 1e-9 over {len(xn)} rows "
        f"at rank {model.r}, solved in {dt:.2f}s",
    )


def test_criterion_13_growth_stops_at_full_row_rank(capsys):
    # the all-at-once learn checks the span rule by least squares: a
    # candidate is kept iff its residual against the kept columns, each
    # scaled to maximum 1, exceeds _SPAN_TOL of its norm. The learn must
    # equal it bit for bit and stop once n columns are kept. Margins: the
    # tolerance over the largest residual ratio it dropped, and the
    # smallest ratio it kept over the tolerance
    t0 = time.perf_counter()
    ok, details = True, []
    for n in (120, 400):
        g = erdos_renyi(n, 8 / (n - 1), seed=1)
        got = learn_features(g)
        ratios = []
        want = all_at_once_learn(g, ratios=ratios)
        same = (
            got.values.tobytes() == want.values.tobytes()
            and got.descriptors == want.descriptors
            and got.iteration_sizes == want.iteration_sizes
            and got.stopped == want.stopped == "rank"
            and got.f == n
        )
        dropped = [r for kept, r in ratios if not kept]
        kept = [r for kept, r in ratios if kept]
        below = _SPAN_TOL / max(max(dropped), np.finfo(float).tiny)
        above = min(kept) / _SPAN_TOL
        ok = ok and same and above >= 100 and below >= 100
        details.append(
            f"n={n}: {got.f} kept, {len(dropped)} dropped as in the span, "
            f"{'same' if same else 'DIFFERENT'} as the least-squares oracle, "
            f"tol {below:.1e}x the largest dropped ratio, smallest kept {above:.1e}x tol"
        )
    dt = time.perf_counter() - t0
    _report(
        capsys, 13, "feature growth keeps only columns outside the span and stops at n",
        ok, "; ".join(details) + f"; margins need 1e2, {dt:.1f}s",
    )


def _tied_row_violations(x, w, hard):
    """(tied classes, classes whose nodes differ in W bytes or hard role):
    the classes are the byte-identical feature rows of more than one node."""
    members: dict[bytes, list[int]] = {}
    for node, row in enumerate(x):
        members.setdefault(row.tobytes(), []).append(node)
    tied = [nodes for nodes in members.values() if len(nodes) > 1]
    bad = sum(
        len({w[u].tobytes() for u in nodes}) > 1 or len({int(hard[u]) for u in nodes}) > 1
        for nodes in tied
    )
    return len(tied), bad


def _planted_classes_recovered(hard, labels):
    """Each planted class in one hard role, and the four roles distinct."""
    labels = np.asarray(labels)
    roles = [set(hard[labels == c].tolist()) for c in range(4)]
    return all(len(r) == 1 for r in roles) and len(set.union(*roles)) == 4


def test_criterion_14_equal_rows_share_a_role(capsys):
    t0 = time.perf_counter()
    tied = violations = 0
    recovered = {3: 0, 30: 0, 300: 0}
    for units in recovered:
        for seed in range(1, 11):
            g, labels = planted_role_graph(seed=seed, units=units)
            x = learn_features(g).values
            model = select_rank(x)
            hard = hard_assignment(model.w)
            t, bad = _tied_row_violations(x, model.w, hard)
            tied, violations = tied + t, violations + bad
            recovered[units] += _planted_classes_recovered(hard, labels)
    for g in _small_graph_corpus():
        x = learn_features(g).values
        model = select_rank(x)
        t, bad = _tied_row_violations(x, model.w, hard_assignment(model.w))
        tied, violations = tied + t, violations + bad
    dt = time.perf_counter() - t0
    # units 3 is reported, not gated: rank selection there is still an
    # artefact of the iteration cap
    _report(
        capsys, 14, "equal feature rows share W rows and hard roles",
        violations == 0 and recovered[30] == 10 and recovered[300] == 10,
        f"{violations} of {tied} tied-row classes split over 30 planted and 200 small graphs; "
        f"4 planted classes recovered at units 30: {recovered[30]}/10, "
        f"300: {recovered[300]}/10 (need 10 each), 3: {recovered[3]}/10 (not gated), {dt:.1f}s",
    )


def test_criterion_15_line_order_keeps_node_identity(capsys, tmp_path):
    # one planted graph written twice, the second time with its lines
    # shuffled and each line's ends flipped at random: the same graph, so
    # `rolemine dynamic` over the pair must find no role changing
    from rolemine.cli import RunConfig, execute

    t0 = time.perf_counter()
    errs = []
    for seed in range(1, 6):
        root = tmp_path / f"seed{seed}"
        root.mkdir()
        g, _ = planted_role_graph(seed=seed, units=10)
        rng = np.random.default_rng(seed)
        edges = g.edges[rng.permutation(len(g.edges))]
        edges = np.where((rng.random(len(edges)) < 0.5)[:, None], edges[:, ::-1], edges)
        (root / "ordered.txt").write_text(write_edge_list(g))
        (root / "shuffled.txt").write_text("".join(f"{u} {v}\n" for u, v in edges.tolist()))
        (root / "snapshots.txt").write_text("ordered.txt\nshuffled.txt\n")
        for name, *inputs in (
            ("learn", "ordered.txt"),
            ("select-rank", "features.csv", "descriptors.json"),
            ("dynamic", "model.json", "snapshots.txt"),
        ):
            execute(RunConfig(name, tuple(str(root / p) for p in inputs), str(root)))
        t = np.array(json.loads((root / "transition.json").read_text()))
        errs.append(float(np.abs(t - np.eye(len(t))).max()))
    dt = time.perf_counter() - t0
    _report(
        capsys, 15, "shuffled edge lines give the identity transition",
        max(errs) <= 1e-4,
        f"max|T-I| per seed 1-5: {', '.join(f'{e:.2e}' for e in errs)} (need <= 1e-4), {dt:.1f}s",
    )


def test_criterion_16_learned_rows_constant_on_the_equitable_partition(capsys):
    # Q is grown by colour refinement from the default primitives' rows;
    # every learned feature is a primitive or an aggregate over neighbors,
    # so each is constant on Q's classes, bit for bit
    t0 = time.perf_counter()
    cases = [("planted units 200", planted_role_graph(seed=1, units=200)[0], FeatureLearnConfig())]
    for fraction in (0.01, 0.05):
        for seed in range(1, 11):
            g, _ = planted_role_graph(seed=seed, units=30)
            cases.append((f"units 30 {fraction:.0%} seed {seed}",
                          rewire(g, fraction, np.random.default_rng(seed)),
                          FeatureLearnConfig(maxiter=6)))
    for n in (400, 1000):
        cases.append((f"ER({n})", erdos_renyi(n, 8 / (n - 1), seed=1), FeatureLearnConfig()))
    split, counts = [], []
    for name, g, config in cases:
        q = equitable_partition(g)
        x = learn_features(g, config).values
        distinct = len({row.tobytes() for row in x})
        if len({(c, row.tobytes()) for c, row in zip(q.tolist(), x)}) != q.max() + 1:
            split.append(name)
        counts.append(f"{name} {q.max() + 1}/{distinct}")
    coarse = sum(
        not automorphic_orbits(g).refines(NodePartition.from_labels(equitable_partition(g).tolist()))
        for g in _small_graph_corpus()
    )
    dt = time.perf_counter() - t0
    _report(
        capsys, 16, "learned rows are constant on the equitable partition Q",
        not split and coarse == 0,
        f"classes of Q split by learned rows on {len(split)} of {len(cases)} graphs {split}; "
        f"orbits refine Q on {200 - coarse}/200 criterion-02 graphs; "
        f"q/distinct learned rows: {'; '.join(counts)}; {dt:.1f}s",
    )


def _scaled_columns(x):
    top = x.max(axis=0)
    return x / np.where(top > 0, top, 1.0)


def test_criterion_17_span_rule_loses_no_rank_under_sum_and_mean(capsys):
    # sum and mean are linear, so every descendant of a column in the span
    # of earlier ones lies in the span of theirs, which the run makes; only
    # the bin group-by could drop one of those. So adding the uncut run's
    # columns of the same rounds should add no rank. Margins, with the
    # np.linalg.matrix_rank tolerance of each matrix: the pruned set's
    # smallest singular value over its tolerance, and the tolerance of
    # [pruned | uncut] over its singular value r + 1. On the noisy planted
    # graphs, where rounding in the aggregated values leaves the residuals
    # of dependent columns far above eps, the learn must also equal the
    # least-squares oracle bit for bit, and _SPAN_TOL's margins are gated
    # as in criterion 13: 1e2 over the smallest kept ratio, and 3 over the
    # largest dropped one, about the room that rounding leaves (a tolerance
    # further up would come within 1e1 of ratios kept on larger ER graphs)
    t0 = time.perf_counter()
    cases = [(f"ER({n})", erdos_renyi(n, 8 / (n - 1), seed=1)) for n in (120, 400)]
    for share in (0.01, 0.05):
        for seed in range(1, 11):
            g, _ = planted_role_graph(seed=seed, units=30)
            cases.append((f"units 30 {share:.0%} seed {seed}", rewire(g, share, np.random.default_rng(seed))))
    lost, capped, differ, above, below, counts = [], [], [], np.inf, np.inf, []
    dropped, kept = 0.0, np.inf
    for name, g in cases:
        x = learn_features(g)
        rounds = len(x.iteration_sizes) - 1
        uncut = all_at_once_learn(g, FeatureLearnConfig(maxiter=rounds), span=False)
        pruned = _scaled_columns(x.values)
        both = np.hstack([pruned, _scaled_columns(uncut.values)])
        s = np.linalg.svd(pruned, compute_uv=False)
        s_both = np.linalg.svd(both, compute_uv=False)
        eps = np.finfo(float).eps
        tol, tol_both = s[0] * max(pruned.shape) * eps, s_both[0] * max(both.shape) * eps
        r = int((s > tol).sum())
        if int((s_both > tol_both).sum()) != r:
            lost.append(name)
        above = min(above, s[r - 1] / tol)
        if s_both.size > r:
            below = min(below, tol_both / s_both[r])
        if name.startswith("units"):
            capped += [name] if x.stopped == "maxiter" else []
            ratios = []
            want = all_at_once_learn(g, ratios=ratios)
            if x.values.tobytes() != want.values.tobytes() or x.descriptors != want.descriptors:
                differ.append(name)
            dropped = max([dropped] + [ratio for admitted, ratio in ratios if not admitted])
            kept = min([kept] + [ratio for admitted, ratio in ratios if admitted])
        distinct = len({row.tobytes() for row in x.values})
        counts.append(f"{name} {x.f}/{distinct} ({x.stopped}, uncut {uncut.f})")
    dt = time.perf_counter() - t0
    tol_over_dropped, kept_over_tol = _SPAN_TOL / dropped, kept / _SPAN_TOL
    _report(
        capsys, 17, "the span rule loses no rank under sum and mean",
        not lost and not capped and not differ and above >= 100 and below >= 100
        and tol_over_dropped >= 3 and kept_over_tol >= 100,
        f"rank lost on {len(lost)} of {len(cases)} graphs {lost}; noisy planted learns at the "
        f"cap: {len(capped)} {capped}, unlike the least-squares oracle: {len(differ)} {differ}; "
        f"sigma_r {above:.1e}x tol, tol {below:.1e}x sigma_r+1 (need 1e2); noisy planted: tol "
        f"{tol_over_dropped:.1f}x the largest dropped ratio {dropped:.1e} (need 3), smallest kept "
        f"{kept:.1e} {kept_over_tol:.1e}x tol (need 1e2); f/distinct learned rows: "
        f"{'; '.join(counts)}; {dt:.1f}s",
    )