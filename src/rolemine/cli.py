"""Command-line surface: file-in, file-out subcommands over the pipeline.

Every run writes a run.json provenance file (the resolved config plus the
runner's deterministic counters, no timestamps) beside its outputs, so
identical inputs + flags + seed give byte-identical output trees.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import click
import numpy as np

from . import __version__
from .equivalences import automorphic_orbits, regular_refinement, structural_classes
from .features import (
    DEFAULT_OPERATORS,
    DEFAULT_PRIMITIVES,
    FeatureLearnConfig,
    csv_rows,
    descriptors_from_json,
    descriptors_to_json,
    features_from_csv,
    features_to_csv,
    learn_features,
)
from .graph import Graph, load_edge_list
from .roles import (
    RankSweep,
    factorize_at_rank,
    hard_assignment,
    model_from_json,
    model_to_json,
    select_rank,
    soft_memberships,
)
from .transfer import (
    NnlsReport,
    estimate_transition_model,
    role_time_series,
    series_to_csv,
    transfer_memberships,
    transition_to_json,
)

ORACLE_KINDS = ("structural", "structural-weak", "automorphic", "regular")


@dataclass(frozen=True)
class RunConfig:
    """Resolved flags for one CLI run; run.json echoes the ones the
    subcommand has a flag for."""

    subcommand: str
    inputs: tuple[str, ...]
    output_dir: str = "."
    primitives: tuple[str, ...] = DEFAULT_PRIMITIVES
    operators: tuple[str, ...] = DEFAULT_OPERATORS
    bin_fraction: float = 0.5
    lam: float = 1.0
    maxiter: int = 10
    criterion: str = "aic"
    bits: int = 16
    trials: int = 5
    seed: int = 1
    rank: int | None = None
    hard: bool = False
    kind: str = "structural"


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"input file not found: {path}")
    return p.read_text()


def _load_graph(path: str) -> Graph:
    return load_edge_list(_read(path))


def _load(path: str, parse, what: str):
    """parse(text of path); any failure to parse is reported as a malformed
    `what` file."""
    text = _read(path)
    try:
        return parse(text)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {what} file {path}: {exc}") from exc


def _write_run_json(config: RunConfig, outdir: Path, counters: dict) -> None:
    doc = {"subcommand": config.subcommand, "inputs": list(config.inputs),
           "output_dir": config.output_dir}
    for name in _RUNNERS[config.subcommand][2]:
        value = getattr(config, name)
        doc[name] = list(value) if isinstance(value, tuple) else value
    doc["version"] = __version__
    doc.update(counters)
    (outdir / "run.json").write_text(json.dumps(doc, indent=2) + "\n")


def _memberships_csv(w: np.ndarray) -> str:
    return "node," + ",".join(f"role_{k}" for k in range(w.shape[1])) + "\n" + csv_rows(w.tolist())


def _run_learn(config: RunConfig, outdir: Path) -> dict:
    g = _load_graph(config.inputs[0])
    fl = FeatureLearnConfig(
        primitives=config.primitives,
        operators=config.operators,
        bin_fraction=config.bin_fraction,
        threshold=config.lam,
        maxiter=config.maxiter,
    )
    x = learn_features(g, fl)
    with open(outdir / "features.csv", "w") as out:
        features_to_csv(x, out)
    (outdir / "descriptors.json").write_text(descriptors_to_json(x.descriptors))
    sizes = list(x.iteration_sizes)
    return {
        "iteration_sizes": sizes,
        "candidates": [size * len(config.operators) for size in sizes[:-1]],
        "stopped": x.stopped,
    }


def _run_select_rank(config: RunConfig, outdir: Path) -> dict:
    x = features_from_csv(_read(config.inputs[0]))
    descriptors = None
    if len(config.inputs) > 1:
        descriptors = _load(config.inputs[1], descriptors_from_json, "descriptors")
        if len(descriptors) != x.shape[1]:
            raise ValueError("descriptor count does not match feature columns")
    sweep = RankSweep()
    common = dict(criterion=config.criterion, b=config.bits, seed=config.seed,
                  descriptors=descriptors, maxiter=config.maxiter, sweep=sweep)
    if config.rank is not None:
        model = factorize_at_rank(x, config.rank, **common)
    else:
        model = select_rank(x, trials=config.trials, **common)
    (outdir / "model.json").write_text(model_to_json(model))
    return {"sweep": [asdict(fit) for fit in sweep.fits], "stopped": sweep.stopped,
            "distinct_rows": sweep.distinct_rows}


def _run_assign(config: RunConfig, outdir: Path) -> None:
    model = _load(config.inputs[0], model_from_json, "model")
    if config.hard:
        labels = hard_assignment(model.w)
        lines = ["node,role"] + [f"{node},{int(r)}" for node, r in enumerate(labels)]
        (outdir / "assignments.csv").write_text("\n".join(lines) + "\n")
    else:
        (outdir / "assignments.csv").write_text(_memberships_csv(soft_memberships(model.w)))


def _run_transfer(config: RunConfig, outdir: Path) -> dict:
    model = _load(config.inputs[0], model_from_json, "model")
    g2 = _load_graph(config.inputs[1])
    report = NnlsReport()
    w = transfer_memberships(g2, model, report=report)
    (outdir / "memberships.csv").write_text(_memberships_csv(w))
    return {"nnls": asdict(report)}


def _parse_manifest(path: str) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Snapshot manifest: one edge-list path per line, optionally preceded by
    an integer timestamp. Relative paths resolve against the manifest."""
    base = Path(path).parent
    timestamps: list[int] = []
    paths: list[str] = []
    next_t = 0
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(maxsplit=1)
        if len(parts) == 2 and parts[0].lstrip("-").isdigit():
            t, target = int(parts[0]), parts[1]
        else:
            t, target = next_t, line
        next_t = t + 1
        timestamps.append(t)
        paths.append(str(base / target))
    if len(paths) < 2:
        raise ValueError(f"manifest {path} must list at least 2 snapshots")
    if len(set(timestamps)) != len(timestamps):
        raise ValueError(f"manifest {path} has duplicate timestamps")
    return tuple(timestamps), tuple(paths)


def _run_dynamic(config: RunConfig, outdir: Path) -> dict:
    model = _load(config.inputs[0], model_from_json, "model")
    timestamps, paths = _parse_manifest(config.inputs[1])
    graphs = [_load_graph(p) for p in paths]
    series = role_time_series(graphs, model, timestamps=timestamps)
    (outdir / "series.csv").write_text(series_to_csv(series))
    # one global transition: stack all consecutive snapshot pairs with a
    # shared node count and solve them jointly
    pairs = [i for i in range(len(graphs) - 1) if graphs[i].n == graphs[i + 1].n]
    if not pairs:
        raise ValueError("no consecutive snapshots share a node count")
    w_a = np.vstack([series.memberships[i] for i in pairs])
    w_b = np.vstack([series.memberships[i + 1] for i in pairs])
    report = NnlsReport()
    t = estimate_transition_model(w_a, w_b, report=report)
    (outdir / "transition.json").write_text(transition_to_json(t))
    used = [{"from": timestamps[i], "to": timestamps[i + 1], "nodes": graphs[i].n} for i in pairs]
    return {"pairs": used, "nnls": asdict(report)}


def _run_oracle(config: RunConfig, outdir: Path) -> None:
    g = _load_graph(config.inputs[0])
    if config.kind == "structural":
        partition = structural_classes(g, variant="strict")
    elif config.kind == "structural-weak":
        partition = structural_classes(g, variant="weak")
    elif config.kind == "automorphic":
        partition = automorphic_orbits(g)
    elif config.kind == "regular":
        partition = regular_refinement(g)
    else:
        raise ValueError(f"unknown oracle kind {config.kind!r}")
    text = json.dumps(partition.to_classes_dict(), indent=2) + "\n"
    (outdir / "classes.json").write_text(text)
    print(text, end="")


# runner, input count (None: one or two), and the RunConfig fields the
# subcommand has flags for, which run.json echoes
_RUNNERS = {
    "learn": (_run_learn, 1, ("primitives", "operators", "bin_fraction", "lam", "maxiter")),
    "select-rank": (
        _run_select_rank, None, ("maxiter", "criterion", "bits", "trials", "seed", "rank")
    ),
    "assign": (_run_assign, 1, ("hard",)),
    "transfer": (_run_transfer, 2, ()),
    "dynamic": (_run_dynamic, 2, ()),
    "oracle": (_run_oracle, 1, ("kind",)),
}


def execute(config: RunConfig) -> int:
    """Run one subcommand; returns the process exit status."""
    if config.subcommand not in _RUNNERS:
        raise ValueError(f"unknown subcommand {config.subcommand!r}")
    runner, arity, _ = _RUNNERS[config.subcommand]
    if arity is not None and len(config.inputs) != arity:
        raise ValueError(f"{config.subcommand} takes exactly {arity} input path(s)")
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    counters = runner(config, outdir) or {}
    _write_run_json(config, outdir, counters)
    return 0


def _split_names(_ctx, _param, value: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in value.split(",") if s.strip())
    if not names:
        raise click.BadParameter("expected a comma-separated list of names")
    return names


def _dispatch(config: RunConfig) -> None:
    try:
        status = execute(config)
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1) from exc
    raise SystemExit(status)


_output_dir = click.option(
    "--output-dir", default=".", show_default=True, help="Directory for output files."
)


@click.group()
@click.version_option(__version__)
def main():
    """Structural role discovery in graphs."""


@main.command()
@click.argument("graph_path", metavar="EDGELIST")
@click.option(
    "--primitives",
    default=",".join(DEFAULT_PRIMITIVES),
    show_default=True,
    callback=_split_names,
    help="Comma-separated primitive feature names.",
)
@click.option(
    "--operators",
    default=",".join(DEFAULT_OPERATORS),
    show_default=True,
    callback=_split_names,
    help="Comma-separated neighbor aggregation operators.",
)
@click.option("--bin-fraction", default=0.5, show_default=True, help="Log-binning fraction p.")
@click.option(
    "--lambda",
    "lam",
    default=1.0,
    show_default=True,
    help="Bin-agreement threshold for merging features.",
)
@click.option("--maxiter", default=10, show_default=True, help="Feature recursion depth cap.")
@_output_dir
def learn(graph_path, primitives, operators, bin_fraction, lam, maxiter, output_dir):
    """Learn recursive features: EDGELIST -> features.csv + descriptors.json."""
    _dispatch(
        RunConfig(
            subcommand="learn",
            inputs=(graph_path,),
            output_dir=output_dir,
            primitives=primitives,
            operators=operators,
            bin_fraction=bin_fraction,
            lam=lam,
            maxiter=maxiter,
        )
    )


@main.command("select-rank")
@click.argument("features_path", metavar="FEATURES_CSV")
@click.argument("descriptors_path", metavar="[DESCRIPTORS_JSON]", required=False)
@click.option(
    "--criterion",
    type=click.Choice(["mdl", "aic"]),
    default="aic",
    show_default=True,
    help="Model selection criterion.",
)
@click.option("--bits", default=16, show_default=True, help="Bits per parameter (mdl).")
@click.option(
    "--trials",
    default=5,
    show_default=True,
    help="Consecutive non-improving ranks before the sweep stops.",
)
@click.option("--maxiter", default=500, show_default=True, help="NMF iteration cap.")
@click.option("--rank", default=None, type=int, help="Skip the sweep and fit this rank.")
@click.option("--seed", default=1, show_default=True, help="Random seed of the NMF starts.")
@_output_dir
def select_rank_cmd(
    features_path, descriptors_path, criterion, bits, trials, maxiter, rank, seed, output_dir
):
    """Pick a role count by cost sweep: FEATURES_CSV -> model.json."""
    inputs = (features_path,) if descriptors_path is None else (features_path, descriptors_path)
    _dispatch(
        RunConfig(
            subcommand="select-rank",
            inputs=inputs,
            output_dir=output_dir,
            criterion=criterion,
            bits=bits,
            trials=trials,
            maxiter=maxiter,
            rank=rank,
            seed=seed,
        )
    )


@main.command()
@click.argument("model_path", metavar="MODEL_JSON")
@click.option("--hard/--soft", default=False, help="Argmax labels vs row-normalized memberships.")
@_output_dir
def assign(model_path, hard, output_dir):
    """Emit role assignments: MODEL_JSON -> assignments.csv."""
    _dispatch(
        RunConfig(
            subcommand="assign",
            inputs=(model_path,),
            output_dir=output_dir,
            hard=hard,
        )
    )


@main.command()
@click.argument("model_path", metavar="MODEL_JSON")
@click.argument("graph_path", metavar="EDGELIST")
@_output_dir
def transfer(model_path, graph_path, output_dir):
    """Score a new graph under a fitted model: -> memberships.csv."""
    _dispatch(
        RunConfig(
            subcommand="transfer",
            inputs=(model_path, graph_path),
            output_dir=output_dir,
        )
    )


@main.command()
@click.argument("model_path", metavar="MODEL_JSON")
@click.argument("manifest_path", metavar="MANIFEST")
@_output_dir
def dynamic(model_path, manifest_path, output_dir):
    """Track roles over snapshots: -> series.csv + transition.json.

    MANIFEST lists one edge-list path per line (optional leading integer
    timestamp); relative paths resolve against the manifest file.
    """
    _dispatch(
        RunConfig(
            subcommand="dynamic",
            inputs=(model_path, manifest_path),
            output_dir=output_dir,
        )
    )


@main.command()
@click.argument("graph_path", metavar="EDGELIST")
@click.option(
    "--kind",
    type=click.Choice(list(ORACLE_KINDS)),
    default="structural",
    show_default=True,
    help="Equivalence relation to compute.",
)
@_output_dir
def oracle(graph_path, kind, output_dir):
    """Exact node-equivalence classes: EDGELIST -> classes.json (+ stdout)."""
    _dispatch(
        RunConfig(
            subcommand="oracle",
            inputs=(graph_path,),
            output_dir=output_dir,
            kind=kind,
        )
    )


if __name__ == "__main__":
    main()
