"""Seeded benchmark of the rolemine CLI chain (learn -> select-rank -> assign ->
transfer / dynamic), driven in process through ``rolemine.cli.execute``.

Usage, from the repository root:

    python3 perfbench/run.py --workload planted-cli --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8 --trace 1

One client runs the chain in a closed loop: each step starts when the
previous one ends. Every pass must produce byte-identical outputs; they are
checked once the timed passes are over. With ``--trace 1`` passes alternate
between untraced and traced, and the traced ones give the per-layer metrics.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads: the thread count changes W bitwise
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_WARMUP = 2  # untimed: the first set-ups of a process run slower
SETUP_REPEATS = 31

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_failed_frac": "fraction",
    "learn_s": "s",
    "select_rank_s": "s",
    "transfer_s": "s",
    "role_recovery": "fraction",
    "recon_rel_err": "fraction",
}
# the metrics of the final JSON line: the others are missing on some
# workloads or read 0 when nothing fails, so they cannot carry a relative bound
REPORTED = ("wall_s", "setup_s", "peak_rss_mb")
STEP_METRICS = {"learn": "learn_s", "select_rank": "select_rank_s",
                "transfer": "transfer_s", "dynamic": "transfer_s"}


def _run_pass(steps) -> tuple[dict[str, float], set[str]]:
    """One pass of the chain: seconds per step label, and the labels of the
    steps that raised."""
    from rolemine.cli import execute

    seconds: dict[str, float] = {}
    raised = set()
    for step in steps:
        shutil.rmtree(step.config.output_dir, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            execute(step.config)
        except Exception:  # a step that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            raised.add(step.label)
        seconds[step.label] = time.perf_counter() - t0
    return seconds, raised


class _Capture:
    """Records what rolemine.cli.learn_features returned: the round sizes and
    a hash of the values, which the checks compare with features.csv."""

    def __init__(self):
        self.results: dict = {}
        self._restore = None

    def __enter__(self):
        import rolemine.cli as cli

        original = getattr(cli, "learn_features", None)
        if original is not None:
            def learn_features(*args, **kwargs):
                x = original(*args, **kwargs)
                self.results["learn_features"] = {
                    "iteration_sizes": tuple(x.iteration_sizes),
                    "shape": x.values.shape,
                    "sha256": hashlib.sha256(x.values.tobytes()).hexdigest(),
                }
                return x

            cli.learn_features = learn_features
            self._restore = (cli, original)
        return self

    def __exit__(self, *exc):
        if self._restore is not None:
            cli, original = self._restore
            cli.learn_features = original
        return False


def _step_metrics(steps, passes) -> dict[str, list[float]]:
    """Per pass: wall seconds, and seconds per graph for each step metric."""
    out: dict[str, list[float]] = {"wall_s": [sum(p.values()) for p in passes]}
    for kind, metric in STEP_METRICS.items():
        chosen = [s for s in steps if s.kind == kind]
        if chosen:
            graphs = sum(s.graphs for s in chosen)
            out[metric] = [sum(p[s.label] for s in chosen) / graphs for p in passes]
    return out


def _layer_unit(name: str) -> str:
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "rolemine").is_dir():
        print(f"error: no rolemine sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import rolemine

    import workloads
    from spans import Tracer, layer_metrics

    if name not in workloads.WORKLOADS:
        print(f"error: unknown workload {name!r}", file=sys.stderr)
        return 2
    root = Path.cwd() / ".perfbench" / name

    setup_times = []
    for _ in range(SETUP_WARMUP + SETUP_REPEATS):
        shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        prepared = workloads.WORKLOADS[name](seed, root)
        setup_times.append(time.perf_counter() - t0)
    del setup_times[:SETUP_WARMUP]
    steps = prepared.steps

    capture, tracer = _Capture(), Tracer()
    plain: list[dict[str, float]] = []
    traced: list[tuple[float, dict]] = []
    absent: list[str] = []
    digests: dict[str, str] = {}
    bad_passes: list[set[str]] = []
    failures: dict[str, list[str]] = {}
    elapsed = 0.0
    while not plain or elapsed < seconds or (trace and not traced):
        if trace and len(plain) > len(traced):
            start = len(tracer.spans)
            with tracer:
                times, bad = _run_pass(steps)
            values, absent = layer_metrics(tracer.spans[start:], workloads.PINNED["primitives"],
                                           tracer.absent)
            values["cli.bytes_written"] = sum(
                f.stat().st_size for s in steps
                for f in Path(s.config.output_dir).rglob("*") if f.is_file())
            traced.append((sum(times.values()), values))
        else:
            with capture if not plain else contextlib.nullcontext():
                times, bad = _run_pass(steps)
            plain.append(times)
        elapsed += sum(times.values())
        for label in bad:
            failures.setdefault(label, []).append("raised")
        for step in steps:
            digest = workloads.tree_digest(Path(step.config.output_dir))
            if digests.setdefault(step.label, digest) != digest:
                bad.add(step.label)
                failures.setdefault(step.label, []).append("output differs from the first pass")
        bad_passes.append(bad)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # every pass wrote the same bytes, so checking the last one checks them all
    checked = workloads.Checked()
    try:
        checked = prepared.check(capture.results)
    except Exception as exc:  # a check that cannot run fails every step
        traceback.print_exc(file=sys.stderr)
        checked.failures = {s.label: [f"check raised {exc!r}"] for s in steps}
    for label, messages in checked.failures.items():
        failures.setdefault(label, []).extend(messages)
    attempted = len(steps) * len(bad_passes)
    failed = sum(len(bad | checked.failures.keys()) for bad in bad_passes)

    # the first pass warms up; it is timed only when it is the only one
    samples = _step_metrics(steps, plain[1:] or plain)
    metrics = {
        "wall_s": statistics.median(samples["wall_s"]),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "ops_failed_frac": failed / attempted,
    }
    metrics.update({k: statistics.median(v) for k, v in samples.items() if k != "wall_s"})
    metrics.update(checked.quality)

    settings = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "params": prepared.params,
        "steps": [dict(asdict(s.config), graphs=s.graphs) for s in steps],
        "library_defaults": workloads.library_defaults(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rolemine": getattr(rolemine, "__version__", None),
        "loop": "closed, 1 client; time waited: not applicable (no queues)",
    }
    print("settings " + json.dumps(settings, default=str))
    for metric, value in metrics.items():
        line = f"{metric:<16} {value:<12.6g} {END_TO_END[metric]}"
        if metric == "setup_s":
            line += f"  median of {len(setup_times)}"
        elif metric in samples:
            line += (f"  median of {len(samples[metric])} passes, "
                     f"range {min(samples[metric]):.6g}..{max(samples[metric]):.6g}")
        print(line)
    for note in checked.notes:
        print(f"note {note}")
    for label, messages in failures.items():
        print(f"failed {label}: {'; '.join(dict.fromkeys(messages))}")

    if trace:
        layer = {k: statistics.median(v[k] for _, v in traced) for k in traced[0][1]}
        layer["trace.overhead_s"] = statistics.median(t for t, _ in traced) - metrics["wall_s"]
        for metric in absent:
            print(f"absent {metric}: its trace target no longer exists")
        for metric, value in layer.items():
            print(f"{metric:<44} {value:<12.6g} {_layer_unit(metric)}")
        with open(root / "spans.jsonl", "w") as fh:
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")
        reported = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layer.items()}
    else:
        reported = {k: {"value": metrics[k], "unit": END_TO_END[k]} for k in REPORTED}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    # each workload in a fresh process, so peak_rss_mb and caches stay per workload
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
