"""Smoke tests: each experiment script runs to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rolemine

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script,args",
    [
        ("planted_roles.py", ["--units", "3"]),
        ("dynamic_roles.py", ["--nodes", "30", "--snapshots", "3"]),
        ("feature_growth.py", ["--sizes", "30", "--degrees", "4", "--maxiter", "3"]),
    ],
)
def test_script_exits_cleanly(script, args, tmp_path):
    # the scripts import rolemine; give the child the absolute `src` this
    # suite imported, as criterion 11 does for the CLI
    src = str(Path(rolemine.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
