"""The four workloads: seeded inputs, the CLI chain each pass runs, and the
checks made on the outputs of the first pass.

Every RunConfig field is passed explicitly from the PINNED table, so a change
to a CLI default cannot resize a workload.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import linear_sum_assignment, nnls

import inputs
import rolemine
from rolemine.cli import RunConfig, execute

PINNED = dict(
    primitives=(
        "degree",
        "weighted-degree",
        "wedge-count",
        "triangle-count",
        "egonet-internal-edges",
        "egonet-external-edges",
        "core-number",
    ),
    operators=("sum", "mean"),
    bin_fraction=0.5,
    lam=1.0,
    criterion="aic",
    bits=16,
    trials=5,
    rank=None,
    hard=False,
    kind="structural",
    maxiter=10,  # learn's recursion cap; select-rank steps override it with NMF_MAXITER
)
NMF_MAXITER = 500
CLAMP = 10.0  # transfer clamp: not a CLI flag; the library default is recorded

# workload sizes; see README.md for how they were chosen
PLANTED_UNITS = 200
ER_DEGREE = 8.0
DEEP_NODES = 400
ROLES_NODES = 150
ROLES_GRAPHS = 20
ROLES_MAXITER = 3
DYNAMIC_RANK = 16
DYNAMIC_SNAPSHOTS = 6
REWIRE_FRACTION = 0.05


@dataclass
class Step:
    label: str  # unique within the workload, names the output directory
    kind: str  # learn | select_rank | assign | transfer | dynamic
    config: RunConfig
    graphs: int = 1  # graphs scored by the step


@dataclass
class Checked:
    failures: dict[str, list[str]] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, step: Step, message: str) -> None:
        if not ok:
            self.failures.setdefault(step.label, []).append(message)


@dataclass
class Prepared:
    steps: list[Step]
    params: dict
    check: Callable[[dict], Checked]  # captured learn results -> outcome


def config(subcommand: str, inputs_: tuple[str, ...], out: Path, seed: int, **overrides) -> RunConfig:
    settings = dict(PINNED, seed=seed, **overrides)
    return RunConfig(subcommand=subcommand, inputs=inputs_, output_dir=str(out), **settings)


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file():
            h.update(f.relative_to(path).as_posix().encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def library_defaults() -> dict:
    """Defaults the CLI does not expose, read from the library."""
    out = {}
    for name, params in (
        ("rolemine.roles.select_rank", ("tol", "restarts")),
        ("rolemine.transfer.transfer_memberships", ("clamp", "init")),
        ("rolemine.transfer.role_time_series", ("clamp",)),
        ("rolemine.features.FeatureLearnConfig", ("similarity", "tiebreak")),
    ):
        module, attr = name.rsplit(".", 1)
        try:
            sig = inspect.signature(getattr(__import__(module, fromlist=[attr]), attr))
            out[name] = {p: sig.parameters[p].default for p in params}
        except (AttributeError, KeyError, ValueError):
            out[name] = "absent"
    return out


def _write(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


def _features(path: Path) -> np.ndarray:
    """Parse features.csv independently of the library; repr floats are exact."""
    rows = path.read_text().splitlines()[1:]
    return np.array([row.split(",")[1:] for row in rows], dtype=float)


def _model(step: Step):
    return rolemine.model_from_json((Path(step.config.output_dir) / "model.json").read_text())


def _recon_rel_err(x: np.ndarray, model) -> float:
    xn = x / model.column_scales
    return float(np.linalg.norm(xn - model.w @ model.h) / np.linalg.norm(xn))


def _check_factors(c: Checked, step: Step, x: np.ndarray) -> None:
    model = _model(step)
    c.expect(np.isfinite(model.w).all() and np.isfinite(model.h).all(), step, "W or H not finite")
    c.expect((model.w >= 0).all() and (model.h >= 0).all(), step, "W or H negative")
    cost = rolemine.model_cost(x / model.column_scales, model.w, model.h,
                               criterion=model.criterion, b=model.b)
    c.expect(cost == model.cost, step, f"model.cost {model.cost!r} != recomputed {cost!r}")


def _chain(root: Path, seed: int, graph: str, tag: str, learn_maxiter: int) -> list[Step]:
    """learn -> select-rank -> assign on one edge list."""
    out = root / "out"
    learn = config("learn", (graph,), out / f"learn{tag}", seed, maxiter=learn_maxiter)
    feats = str(out / f"learn{tag}" / "features.csv")
    descs = str(out / f"learn{tag}" / "descriptors.json")
    select = config("select-rank", (feats, descs), out / f"select{tag}", seed,
                    maxiter=NMF_MAXITER)
    model = str(out / f"select{tag}" / "model.json")
    return [
        Step(f"learn{tag}", "learn", learn),
        Step(f"select{tag}", "select_rank", select),
        Step(f"assign{tag}", "assign", config("assign", (model,), out / f"assign{tag}", seed,
                                              hard=True)),
    ]


def planted_cli(seed: int, root: Path) -> Prepared:
    rng = np.random.default_rng(seed)
    edges, classes = inputs.planted(PLANTED_UNITS, rng)
    copy, to_copy = inputs.relabeled(edges, rng)
    graph = _write(root / "in" / "graph.txt", inputs.edge_list_text(edges))
    other = _write(root / "in" / "relabeled.txt", inputs.edge_list_text(copy))
    steps = _chain(root, seed, graph, "", PINNED["maxiter"])
    learn, select, assign = steps
    transfer = Step("transfer", "transfer",
                    config("transfer", (str(Path(select.config.output_dir) / "model.json"), other),
                           root / "out" / "transfer", seed))
    steps.append(transfer)

    def check(captured: dict) -> Checked:
        c = Checked()
        x = _features(Path(learn.config.output_dir) / "features.csv")
        model = _model(select)
        c.quality["recon_rel_err"] = _recon_rel_err(x, model)
        text = (Path(assign.config.output_dir) / "assignments.csv").read_text()
        hard = np.array([int(line.split(",")[1]) for line in text.splitlines()[1:]])
        c.expect(np.array_equal(hard, np.argmax(model.w, axis=1)), assign,
                 "hard roles are not the argmax of the model's W")
        if hard.shape == classes.shape:
            table = np.zeros((4, int(hard.max()) + 1))
            np.add.at(table, (classes, hard), 1)
            rows, cols = linear_sum_assignment(-table)
            c.quality["role_recovery"] = float(table[rows, cols].sum() / hard.size)
            # criterion 08 asks this of 16 graphs in 20, not of every graph
            hubs = set(hard[classes == inputs.HUB].tolist())
            members = set(hard[classes == inputs.CLIQUE].tolist())
            held = len(hubs) == 1 and len(members) == 1 and hubs != members
            c.notes.append(f"hub rule {'held' if held else 'not held'}: hub roles "
                           f"{sorted(hubs)}, clique roles {sorted(members)}")
        # reference: the same model scored in process on the original graph
        g = rolemine.load_edge_list(Path(graph).read_text())
        ref = rolemine.transfer_memberships(g, model, clamp=CLAMP, seed=seed)
        text = (Path(transfer.config.output_dir) / "memberships.csv").read_text()
        w = np.array([line.split(",")[1:] for line in text.splitlines()[1:]], dtype=float)
        err = float(np.abs(w[to_copy] - ref).max()) if w.shape == ref.shape else np.inf
        c.expect(err <= 1e-6, transfer, f"relabeled transfer differs by {err:.3g}")
        return c

    params = dict(units=PLANTED_UNITS, nodes=int(edges.max()) + 1, edges=len(edges))
    return Prepared(steps, params, check)


def er_deep_features(seed: int, root: Path) -> Prepared:
    rng = np.random.default_rng(seed)
    edges = inputs.erdos_renyi(DEEP_NODES, ER_DEGREE, rng)
    graph = _write(root / "in" / "graph.txt", inputs.edge_list_text(edges))
    learn = Step("learn", "learn", config("learn", (graph,), root / "out" / "learn", seed))
    n = int(edges.max()) + 1
    sample_rng = np.random.default_rng([seed, 1])

    def check(captured: dict) -> Checked:
        c = Checked()
        learned = captured.get("learn_features")
        c.expect(learned is not None, learn, "learn_features result not captured")
        if learned is None:
            return c
        sizes = learned["iteration_sizes"]
        c.expect(all(a <= b for a, b in zip(sizes, sizes[1:])), learn,
                 f"iteration_sizes decrease: {sizes}")
        out = Path(learn.config.output_dir)
        x = _features(out / "features.csv")
        c.expect(x.shape == learned["shape"]
                 and hashlib.sha256(x.tobytes()).hexdigest() == learned["sha256"],
                 learn, "features.csv does not round-trip bitwise")
        descs = rolemine.descriptors_from_json((out / "descriptors.json").read_text())
        column = {d.id: j for j, d in enumerate(descs)}
        composites = [d for d in descs if d.kind == "composite"]
        nbrs = inputs.adjacency(edges, n)
        picks = sample_rng.choice(len(composites), size=min(16, len(composites)), replace=False)
        for i in sorted(picks.tolist()):
            d = composites[i]
            base = x[:, column[d.base]]
            expected = np.zeros(n)
            for u in range(n):
                total = 0.0
                for v in sorted(base[nbrs[u]].tolist()):
                    total += v
                expected[u] = total if d.operator == "sum" else total / len(nbrs[u])
            got = x[:, column[d.id]]
            c.expect(np.array_equal(expected.view(np.uint64), got.view(np.uint64)), learn,
                     f"composite {d.id} ({d.operator} of {d.base}) is not bitwise equal")
        return c

    params = dict(nodes=n, edges=len(edges), mean_degree=ER_DEGREE, maxiter=PINNED["maxiter"])
    return Prepared([learn], params, check)


def er_roles(seed: int, root: Path) -> Prepared:
    rng = np.random.default_rng(seed)
    steps = []
    for k in range(ROLES_GRAPHS):
        edges = inputs.erdos_renyi(ROLES_NODES, ER_DEGREE, rng)
        graph = _write(root / "in" / f"graph{k}.txt", inputs.edge_list_text(edges))
        steps += _chain(root, seed, graph, str(k), ROLES_MAXITER)

    def check(captured: dict) -> Checked:
        c = Checked()
        errs = []
        for learn, select, _ in zip(steps[0::3], steps[1::3], steps[2::3]):
            x = _features(Path(learn.config.output_dir) / "features.csv")
            _check_factors(c, select, x)
            errs.append(_recon_rel_err(x, _model(select)))
        c.quality["recon_rel_err"] = float(np.mean(errs))
        return c

    params = dict(nodes=ROLES_NODES, graphs=ROLES_GRAPHS, mean_degree=ER_DEGREE,
                  learn_maxiter=ROLES_MAXITER, nmf_maxiter=NMF_MAXITER)
    return Prepared(steps, params, check)


def er_dynamic(seed: int, root: Path) -> Prepared:
    """Snapshot 0 is the first er-roles graph of the same seed; the model is
    fit on it at a pinned rank during set-up."""
    rng = np.random.default_rng(seed)
    edges = inputs.erdos_renyi(ROLES_NODES, ER_DEGREE, rng)
    n = int(edges.max()) + 1
    snaps = [edges]
    for _ in range(DYNAMIC_SNAPSHOTS - 1):
        snaps.append(inputs.rewire(snaps[-1], n, REWIRE_FRACTION, rng))
    names = [_write(root / "in" / f"snap{t}.txt", inputs.edge_list_text(e))
             for t, e in enumerate(snaps)]
    manifest = _write(root / "in" / "manifest.txt",
                      "".join(f"{t} {Path(p).name}\n" for t, p in enumerate(names)))
    learn, select = _chain(root, seed, names[0], "", ROLES_MAXITER)[:2]
    select.config = replace(select.config, rank=DYNAMIC_RANK)
    execute(learn.config)
    execute(select.config)
    model_path = str(Path(select.config.output_dir) / "model.json")
    dynamic = Step("dynamic", "dynamic",
                   config("dynamic", (model_path, manifest), root / "out" / "dynamic", seed),
                   graphs=DYNAMIC_SNAPSHOTS)
    sample_rng = np.random.default_rng([seed, 2])

    def check(captured: dict) -> Checked:
        c = Checked()
        model = _model(select)
        x0 = _features(Path(learn.config.output_dir) / "features.csv")
        c.quality["recon_rel_err"] = _recon_rel_err(x0, model)
        out = Path(dynamic.config.output_dir)
        t = np.array(json.loads((out / "transition.json").read_text()), dtype=float)
        c.expect(t.shape == (model.r, model.r) and np.isfinite(t).all() and (t >= 0).all(),
                 dynamic, "transition is not a finite non-negative r x r matrix")
        rows: dict[int, list[list[float]]] = {}
        for line in (out / "series.csv").read_text().splitlines()[1:]:
            parts = line.split(",")
            rows.setdefault(int(parts[0]), []).append([float(v) for v in parts[2:]])
        for ts, e in enumerate(snaps):
            got = len(rows.get(ts, []))
            c.expect(got == np.unique(e).size, dynamic, f"snapshot {ts}: {got} rows")
        for ts in sorted(sample_rng.choice(len(snaps), size=2, replace=False).tolist()):
            g = rolemine.load_edge_list(Path(names[ts]).read_text())
            x = rolemine.recompute(g, model.descriptors).values / model.column_scales
            x = np.minimum(x, CLAMP)
            w = np.array(rows[ts])
            for i in sample_rng.choice(g.n, size=10, replace=False).tolist():
                _, rnorm = nnls(model.h.T, x[i])
                got = float(((x[i] - w[i] @ model.h) ** 2).sum())
                c.expect(got <= rnorm**2 * (1 + 1e-6) + 1e-12, dynamic,
                         f"snapshot {ts} row {i}: NNLS objective {got:.9g} vs {rnorm**2:.9g}")
        return c

    params = dict(nodes=n, edges=len(edges), mean_degree=ER_DEGREE, snapshots=DYNAMIC_SNAPSHOTS,
                  rewire_fraction=REWIRE_FRACTION, learn_maxiter=ROLES_MAXITER,
                  rank=DYNAMIC_RANK, nmf_maxiter=NMF_MAXITER,
                  fit=[asdict(learn.config), asdict(select.config)])
    return Prepared([dynamic], params, check)


WORKLOADS = {
    "planted-cli": planted_cli,
    "er-deep-features": er_deep_features,
    "er-roles": er_roles,
    "er-dynamic": er_dynamic,
}
