"""Command-line surface: file-in, file-out subcommands over the pipeline.

`_COMMANDS` is the one place where a subcommand's arguments, flags, defaults
and echoed fields are declared: the click commands, the input-count check in
`execute` and the run.json echo are all built from it. Every run writes a
run.json provenance file (the resolved config plus the runner's deterministic
counters, no timestamps) beside its outputs, so identical inputs + flags +
seed give byte-identical output trees.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import click
import numpy as np

from . import __version__
from .equivalences import automorphic_orbits, regular_refinement, structural_classes
from .features import (
    DEFAULT_OPERATORS,
    DEFAULT_PRIMITIVES,
    FeatureLearnConfig,
    _check_config,
    csv_rows,
    descriptors_from_json,
    descriptors_to_json,
    features_from_csv,
    features_to_csv,
    learn_features,
)
from .graph import load_edge_list
from .roles import (
    RankSweep,
    hard_assignment,
    model_from_json,
    model_to_json,
    select_rank,
    soft_memberships,
)
from .transfer import (
    NnlsReport,
    estimate_transition_model,
    series_to_csv,
    transfer_memberships,
    transition_to_json,
)


@dataclass(frozen=True)
class RunConfig:
    """Resolved flags for one CLI run; run.json echoes the ones the
    subcommand has a flag for. lam has no flag and learn refuses any value
    but 1.0: the bin-agreement threshold is fixed at 1."""

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


def _load(path: str, parse, what: str):
    """parse(text of path); any failure to parse is reported as a malformed
    `what` file."""
    text = _read(path)
    try:
        return parse(text)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {what} file {path}: {exc}") from exc


def _memberships_csv(w: np.ndarray) -> str:
    return "node," + ",".join(f"role_{k}" for k in range(w.shape[1])) + "\n" + csv_rows(w)


def _run_learn(config: RunConfig, outdir: Path) -> dict:
    """The config is checked before the edge list is read. Round 1
    aggregates every survivor of round 0 and each later round only those
    the round before added, so "candidates" counts those times the
    operators."""
    if config.lam != 1.0:
        raise ValueError(f"the bin-agreement threshold lambda is fixed at 1.0, not {config.lam}")
    fl = FeatureLearnConfig(
        primitives=config.primitives,
        operators=config.operators,
        bin_fraction=config.bin_fraction,
        maxiter=config.maxiter,
    )
    _check_config(fl)
    x = learn_features(load_edge_list(_read(config.inputs[0])), fl)
    with open(outdir / "features.csv", "w") as out:
        features_to_csv(x, out)
    (outdir / "descriptors.json").write_text(descriptors_to_json(x.descriptors))
    sizes = list(x.iteration_sizes)
    return {
        "iteration_sizes": sizes,
        "candidates": [len(config.operators) * (b - a) for a, b in zip([0] + sizes, sizes[:-1])],
        "stopped": x.stopped,
    }


def _run_select_rank(config: RunConfig, outdir: Path) -> dict:
    x = _load(config.inputs[0], features_from_csv, "features")
    descriptors = None
    if len(config.inputs) > 1:
        descriptors = _load(config.inputs[1], descriptors_from_json, "descriptors")
        if len(descriptors) != x.shape[1]:
            raise ValueError("descriptor count does not match feature columns")
    sweep = RankSweep()
    model = select_rank(x, criterion=config.criterion, b=config.bits, trials=config.trials,
                        seed=config.seed, descriptors=descriptors, maxiter=config.maxiter,
                        sweep=sweep, rank=config.rank)
    (outdir / "model.json").write_text(model_to_json(model))
    return {"sweep": [asdict(fit) for fit in sweep.fits], "skipped": sweep.skipped,
            "stopped": sweep.stopped, "distinct_rows": sweep.distinct_rows}


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
    g2 = load_edge_list(_read(config.inputs[1]))
    report = NnlsReport()
    w = transfer_memberships(g2, model, report=report)
    (outdir / "memberships.csv").write_text(_memberships_csv(w))
    return {"nnls": asdict(report)}


def _parse_manifest(path: str) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Snapshot manifest: one edge-list path per line, optionally preceded by
    an integer timestamp, a first token of ASCII digits after an optional
    minus sign; any other line is a path. Timestamps must increase; a line
    without one takes the previous one plus 1 (the first takes 0). Relative
    paths resolve against the manifest."""
    base = Path(path).parent
    timestamps: list[int] = []
    paths: list[str] = []
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(maxsplit=1)
        if len(parts) == 2 and parts[0].isascii() and parts[0].removeprefix("-").isdigit():
            t, target = int(parts[0]), parts[1]
        else:
            t, target = (timestamps[-1] + 1 if timestamps else 0), line
        if timestamps and t <= timestamps[-1]:
            raise ValueError(f"manifest {path} line {lineno}: timestamp {t} is not "
                             f"greater than {timestamps[-1]}")
        timestamps.append(t)
        paths.append(str(base / target))
    if len(paths) < 2:
        raise ValueError(f"manifest {path} must list at least 2 snapshots")
    return tuple(timestamps), tuple(paths)


def _run_dynamic(config: RunConfig, outdir: Path) -> dict:
    model = _load(config.inputs[0], model_from_json, "model")
    timestamps, paths = _parse_manifest(config.inputs[1])
    graphs = [load_edge_list(_read(p)) for p in paths]
    # one global transition: stack all consecutive snapshot pairs with a
    # shared node count and solve them jointly
    pairs = [i for i in range(len(graphs) - 1) if graphs[i].n == graphs[i + 1].n]
    if not pairs:
        raise ValueError("no consecutive snapshots share a node count")
    memberships = [transfer_memberships(g, model) for g in graphs]
    (outdir / "series.csv").write_text(series_to_csv(timestamps, memberships))
    w_a = np.vstack([memberships[i] for i in pairs])
    w_b = np.vstack([memberships[i + 1] for i in pairs])
    report = NnlsReport()
    t = estimate_transition_model(w_a, w_b, report=report)
    (outdir / "transition.json").write_text(transition_to_json(t))
    used = [{"from": timestamps[i], "to": timestamps[i + 1], "nodes": graphs[i].n} for i in pairs]
    return {"pairs": used, "nnls": asdict(report)}


# each --kind and its partition, in --help order, looked up at call time
_ORACLES = {
    "structural": lambda g: structural_classes(g, variant="strict"),
    "structural-weak": lambda g: structural_classes(g, variant="weak"),
    "automorphic": lambda g: automorphic_orbits(g),
    "regular": lambda g: regular_refinement(g),
}


def _run_oracle(config: RunConfig, outdir: Path) -> None:
    if config.kind not in _ORACLES:
        raise ValueError(f"unknown oracle kind {config.kind!r}")
    partition = _ORACLES[config.kind](load_edge_list(_read(config.inputs[0])))
    text = json.dumps({"classes": partition.classes}, indent=2) + "\n"
    (outdir / "classes.json").write_text(text)
    print(text, end="")


def _split_names(_ctx, _param, value: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in value.split(",") if s.strip())
    if not names:
        raise click.BadParameter("expected a comma-separated list of names")
    return names


def _option(*decls, **attrs) -> click.Option:
    attrs.setdefault("show_default", True)
    return click.Option(decls, **attrs)


# subcommand -> (runner, help, input metavars with an optional one in
# brackets, flags). run.json echoes the flags' RunConfig fields; runners look
# the library functions up at call time, so they can be wrapped in place.
_COMMANDS = {
    "learn": (
        _run_learn, "Learn recursive features: EDGELIST -> features.csv + descriptors.json.",
        ("EDGELIST",),
        (
            _option("--primitives", default=",".join(DEFAULT_PRIMITIVES), callback=_split_names,
                    help="Comma-separated primitive feature names."),
            _option("--operators", default=",".join(DEFAULT_OPERATORS), callback=_split_names,
                    help="Comma-separated neighbor aggregation operators."),
            _option("--bin-fraction", default=0.5, help="Log-binning fraction p."),
            _option("--maxiter", default=10, help="Feature recursion depth cap."),
        ),
    ),
    "select-rank": (
        _run_select_rank, "Pick a role count by cost sweep: FEATURES_CSV -> model.json.",
        ("FEATURES_CSV", "[DESCRIPTORS_JSON]"),
        (
            _option("--criterion", type=click.Choice(["mdl", "aic"]), default="aic",
                    help="Model selection criterion."),
            _option("--bits", default=16, help="Bits per parameter (mdl)."),
            _option("--trials", default=5,
                    help="Consecutive non-improving ranks before the sweep stops."),
            _option("--maxiter", default=500, help="NMF iteration cap."),
            _option("--rank", default=None, type=int, help="Skip the sweep and fit this rank."),
            _option("--seed", default=1, help="Random seed of the NMF starts."),
        ),
    ),
    "assign": (
        _run_assign, "Emit role assignments: MODEL_JSON -> assignments.csv.", ("MODEL_JSON",),
        (_option("--hard/--soft", default=False, show_default=False,
                 help="Argmax labels vs row-normalized memberships."),),
    ),
    "transfer": (
        _run_transfer, "Score a new graph under a fitted model: -> memberships.csv.",
        ("MODEL_JSON", "EDGELIST"), (),
    ),
    "dynamic": (
        _run_dynamic,
        "Track roles over snapshots: -> series.csv + transition.json.\n\n"
        "MANIFEST lists one edge-list path per line (optional leading integer\n"
        "timestamp); relative paths resolve against the manifest file.",
        ("MODEL_JSON", "MANIFEST"), (),
    ),
    "oracle": (
        _run_oracle, "Exact node-equivalence classes: EDGELIST -> classes.json (+ stdout).",
        ("EDGELIST",),
        (_option("--kind", type=click.Choice(list(_ORACLES)), default="structural",
                 help="Equivalence relation to compute; regular splits isolated nodes "
                 "from the rest, so it is one class for any edge list."),),
    ),
}


def execute(config: RunConfig) -> int:
    """Run one subcommand; returns the process exit status."""
    if config.subcommand not in _COMMANDS:
        raise ValueError(f"unknown subcommand {config.subcommand!r}")
    runner, _, metavars, options = _COMMANDS[config.subcommand]
    least = sum(not m.startswith("[") for m in metavars)
    if not least <= len(config.inputs) <= len(metavars):
        count = least if least == len(metavars) else f"{least} to {len(metavars)}"
        raise ValueError(f"{config.subcommand} takes {count} input path(s)")
    outdir = Path(config.output_dir)
    created = not outdir.exists()
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        counters = runner(config, outdir) or {}
    except Exception:
        if created:  # a failed run leaves no empty directory it made; rmdir deletes no file
            with suppress(OSError):
                outdir.rmdir()
        raise
    echoed = {"subcommand", "inputs", "output_dir", *(opt.name for opt in options)}
    values = ((f.name, getattr(config, f.name)) for f in fields(config) if f.name in echoed)
    doc = {k: list(v) if isinstance(v, tuple) else v for k, v in values}
    doc.update(version=__version__, **counters)
    (outdir / "run.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


@click.group()
@click.version_option(__version__)
def main():
    """Structural role discovery in graphs."""


def _run_command(output_dir: str, **values) -> None:
    """Callback of every subcommand: its arguments input0, input1, ... and
    its flags become one RunConfig; errors go to stderr with exit status 1."""
    name = click.get_current_context().command.name
    inputs = [values.pop(f"input{i}") for i in range(len(_COMMANDS[name][2]))]
    config = RunConfig(name, tuple(p for p in inputs if p is not None), output_dir, **values)
    try:
        status = execute(config)
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1) from exc
    raise SystemExit(status)


for _name, (_, _help, _metavars, _options) in _COMMANDS.items():
    _inputs = [click.Argument([f"input{i}"], metavar=m, required=not m.startswith("["))
               for i, m in enumerate(_metavars)]
    _output = _option("--output-dir", default=".", help="Directory for output files.")
    main.add_command(click.Command(_name, callback=_run_command,
                                   params=[*_inputs, *_options, _output], help=_help))


if __name__ == "__main__":
    main()
