"""Smoke tests: each experiment script runs to completion on small inputs,
and the benchmark's quick workloads pass once."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rolemine

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def run_script(script, args, cwd):
    # the scripts import rolemine; give the child the absolute `src` this
    # suite imported, as criterion 11 does for the CLI
    src = str(Path(rolemine.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize(
    "script,args",
    [
        ("planted_roles.py", ["--units", "3"]),
        ("dynamic_roles.py", ["--nodes", "30", "--snapshots", "3"]),
        ("feature_growth.py", ["--sizes", "30", "--degrees", "4", "--maxiter", "3"]),
    ],
)
def test_script_exits_cleanly(script, args, tmp_path):
    proc = run_script(script, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_feature_growth_reports_peak_memory(tmp_path):
    args = ["--sizes", "30", "--degrees", "4", "--maxiter", "3", "--csv", "growth.csv"]
    proc = run_script("feature_growth.py", args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "growth.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["peak_mb"]) > 0
    assert float(row["csv_s"]) >= 0
    assert row["stopped"] in ("fixed-point", "rank", "maxiter")
    # every kept feature lies outside the earlier ones' span: at most n
    assert 1 <= int(row["final_features"]) <= 30


# er-dynamic is the one workload that runs select-rank --rank and dynamic.
# A traced pass wraps library functions by name, and reports one it no
# longer finds as absent
@pytest.mark.parametrize(
    "workload, flags",
    [("planted-cli", ()), ("er-deep-features", ()), ("er-dynamic", ()),
     ("planted-cli", ("--trace", "1"))],
    ids=["planted-cli", "er-deep-features", "er-dynamic", "planted-cli-traced"],
)
def test_benchmark_workload_passes_once(workload, flags, tmp_path):
    # one pass (--seconds 0) over the sources beside the runner: a library
    # change that breaks a call the benchmark makes fails here. The runner
    # writes .perfbench/ under its working directory
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH), "--workload", workload, "--seed", "1", "--seconds", "0",
         *flags],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
