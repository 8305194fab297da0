import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import rolemine
from rolemine import (
    FeatureLearnConfig,
    FeatureDescriptor,
    NnlsReport,
    OPERATOR_KINDS,
    PRIMITIVE_KINDS,
    RoleModel,
    descriptors_from_json,
    descriptors_to_json,
    erdos_renyi,
    learn_features,
    load_edge_list,
    model_from_json,
    model_to_json,
    planted_role_graph,
    recompute,
    series_to_csv,
    transfer_memberships,
    write_edge_list,
)
from rolemine.cli import _ORACLES, RunConfig, _memberships_csv, execute, main
from rolemine.features import csv_rows

from strategies import rewire

P4_TEXT = "0 1\n1 2\n2 3\n"


def two_pattern_csv(n=20):
    a = [1.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    b = [0.0, 1.0, 0.0, 0.0, 1.0, 1.0]
    lines = ["node," + ",".join(f"feat_{j}" for j in range(6))]
    for i in range(n):
        row = a if i % 2 == 0 else b
        lines.append(f"{i}," + ",".join(repr(v) for v in row))
    return "\n".join(lines) + "\n"


@pytest.fixture
def runner():
    return CliRunner()


def invoke_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


# every run.json has these keys; then the flags of its subcommand and its
# counters, and nothing else
RUN_JSON_COMMON = {"subcommand", "inputs", "output_dir", "version"}
RUN_JSON_KEYS = {
    "learn": {"primitives", "operators", "bin_fraction", "maxiter",
              "iteration_sizes", "candidates", "stopped"},
    "select-rank": {"maxiter", "criterion", "bits", "trials", "seed", "rank", "sweep", "skipped",
                    "stopped", "distinct_rows"},
    "assign": {"hard"},
    "transfer": {"nnls"},
    "dynamic": {"pairs", "nnls"},
    "oracle": {"kind"},
}


class TestLearn:
    def test_writes_features_descriptors_and_provenance(self, runner, tmp_path):
        graph = tmp_path / "graph.txt"
        graph.write_text("0 1\n1 2\n")
        invoke_ok(runner, ["learn", str(graph), "--output-dir", str(tmp_path / "out")])
        features = (tmp_path / "out" / "features.csv").read_text()
        rows = [ln for ln in features.splitlines() if ln]
        assert rows[0].startswith("node,feat_0")
        assert len(rows) == 4  # header + one row per node
        descs = descriptors_from_json((tmp_path / "out" / "descriptors.json").read_text())
        assert len(descs) >= 1

    def test_run_json_echoes_flags_without_timestamps(self, runner, tmp_path):
        graph = tmp_path / "graph.txt"
        graph.write_text("0 1\n")
        invoke_ok(
            runner,
            ["learn", str(graph), "--maxiter", "3", "--output-dir", str(tmp_path / "out")],
        )
        doc = json.loads((tmp_path / "out" / "run.json").read_text())
        # exactly the learn flags, the version and the counters: no
        # timestamp, and none of the other subcommands' flags
        assert set(doc) == RUN_JSON_COMMON | RUN_JSON_KEYS["learn"]
        assert doc["subcommand"] == "learn"
        assert doc["maxiter"] == 3
        assert doc["inputs"] == [str(graph)]
        invoke_ok(
            runner,
            ["select-rank", str(tmp_path / "out" / "features.csv"), "--seed", "9",
             "--output-dir", str(tmp_path / "rank")],
        )
        doc = json.loads((tmp_path / "rank" / "run.json").read_text())
        assert set(doc) == RUN_JSON_COMMON | RUN_JSON_KEYS["select-rank"]
        assert doc["subcommand"] == "select-rank"
        assert doc["seed"] == 9

    def test_run_json_records_iteration_sizes(self, runner, tmp_path):
        g = erdos_renyi(40, 0.15, seed=7)
        graph = tmp_path / "graph.txt"
        graph.write_text(write_edge_list(g))
        invoke_ok(runner, ["learn", str(graph), "--maxiter", "2", "--output-dir", str(tmp_path)])
        run = json.loads((tmp_path / "run.json").read_text())
        want = learn_features(load_edge_list(graph.read_text()), FeatureLearnConfig(maxiter=2))
        assert run["iteration_sizes"] == list(want.iteration_sizes)
        descs = descriptors_from_json((tmp_path / "descriptors.json").read_text())
        assert len(descs) == run["iteration_sizes"][-1]

    @pytest.mark.parametrize(
        "flags, candidates, stopped",
        [
            # ER(40) still grows at round 2: the cap stops it
            (["--maxiter", "2"], [8, 10], "maxiter"),
            (["--maxiter", "2", "--operators", "sum,mean,max"], [12, 21], "maxiter"),
            # a path reaches its fixed point in round 2, before the cap
            (["--maxiter", "5", "--primitives", "degree"], None, "fixed-point"),
            # round 4 brings ER(40)'s independent survivors to 40: nothing
            # later could add to their span
            (["--maxiter", "10"], [8, 10, 20, 38], "rank"),
        ],
    )
    def test_run_json_records_candidates_and_stop(
        self, runner, tmp_path, flags, candidates, stopped
    ):
        graph = tmp_path / "graph.txt"
        text = P4_TEXT if "degree" in flags else write_edge_list(erdos_renyi(40, 0.15, seed=7))
        graph.write_text(text)
        invoke_ok(runner, ["learn", str(graph), *flags, "--output-dir", str(tmp_path)])
        run = json.loads((tmp_path / "run.json").read_text())
        # round 1 aggregates round 0's survivors, each later round those the
        # round before added
        sizes = run["iteration_sizes"]
        added = [b - a for a, b in zip([0, *sizes], sizes[:-1])]
        assert run["candidates"] == [k * len(run["operators"]) for k in added]
        if candidates is not None:
            assert run["candidates"] == candidates
        assert run["stopped"] == stopped

    def test_fixed_point_on_the_last_allowed_round(self, runner, tmp_path):
        # P4 keeps one new feature in round 1 and none in round 2, so with
        # a cap of 2 the loop ends at the cap and at its fixed point at once
        graph = tmp_path / "graph.txt"
        graph.write_text(P4_TEXT)
        invoke_ok(runner, ["learn", str(graph), "--primitives", "degree", "--maxiter", "2",
                           "--output-dir", str(tmp_path)])
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["iteration_sizes"] == [1, 2, 2]
        assert run["stopped"] == "fixed-point"

    def test_blas_threads_leave_the_bytes_alone(self, tmp_path):
        # the span rule projects candidates with GEMMs, whose rounding may
        # follow the BLAS thread count; its decisions, so the files, must
        # not. The noisy planted graph, as loaded without its isolated
        # nodes, drops columns with residual ratios up to 2.6e-13, closest
        # to the tolerance of the graphs measured
        noisy, _ = planted_role_graph(seed=10, units=30)
        graphs = {
            "er": (erdos_renyi(400, 8 / 399, seed=1), 400),
            "noisy": (load_edge_list(write_edge_list(rewire(noisy, 0.05, np.random.default_rng(10)))), 303),
        }
        src = str(Path(rolemine.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for name, (g, f) in graphs.items():
            graph = tmp_path / f"{name}.txt"
            graph.write_text(write_edge_list(g))
            files = []
            for threads in ("1", "2"):
                out = tmp_path / f"{name}{threads}"
                proc = subprocess.run(
                    [sys.executable, "-m", "rolemine.cli", "learn", str(graph), "--output-dir", str(out)],
                    env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                    capture_output=True,
                )
                assert proc.returncode == 0, proc.stderr.decode()
                files.append([(out / file).read_bytes() for file in ("features.csv", "descriptors.json")])
            assert files[0] == files[1], name
            assert files[0][0].count(b"\n") == g.n + 1 and files[0][0].count(b"feat_") == f

    def test_custom_primitive_and_operator_lists(self, runner, tmp_path):
        graph = tmp_path / "graph.txt"
        graph.write_text("0 1\n0 2\n0 3\n")
        invoke_ok(
            runner,
            ["learn", str(graph), "--primitives", "degree,triangle-count",
             "--operators", "sum", "--output-dir", str(tmp_path / "out")],
        )
        descs = descriptors_from_json((tmp_path / "out" / "descriptors.json").read_text())
        assert {d.primitive for d in descs if d.kind == "primitive"} <= {"degree", "triangle-count"}

    def test_missing_input_fails_cleanly(self, runner, tmp_path):
        result = runner.invoke(main, ["learn", str(tmp_path / "absent.txt")])
        assert result.exit_code == 1
        assert result.stderr.startswith("error:")

    @pytest.mark.parametrize("flag", ["--primitives", "--operators"])
    def test_empty_name_list_rejected_by_parser(self, runner, tmp_path, flag):
        graph = tmp_path / "graph.txt"
        graph.write_text("0 1\n")
        result = runner.invoke(main, ["learn", str(graph), flag, ",",
                                      "--output-dir", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "expected a comma-separated list of names" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_bad_bin_fraction_fails_cleanly(self, runner, tmp_path):
        graph = tmp_path / "graph.txt"
        graph.write_text("0 1\n")
        result = runner.invoke(main, ["learn", str(graph), "--bin-fraction", "1.5"])
        assert result.exit_code == 1
        assert "bin fraction" in result.stderr

    def test_config_checked_before_the_edge_list_is_read(self, runner, tmp_path):
        graph = tmp_path / "graph.txt"
        graph.write_text("0 1\nnot an edge\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["learn", str(graph), "--operators", "sum,median",
                                      "--output-dir", str(out)])
        assert result.exit_code == 1
        assert result.stderr == "error: unknown operator 'median'\n"
        assert not out.exists()

    def test_lambda_flag_is_gone(self, runner, tmp_path):
        graph = tmp_path / "graph.txt"
        graph.write_text("0 1\n")
        result = runner.invoke(main, ["learn", str(graph), "--lambda", "0.9"])
        assert result.exit_code == 2
        assert re.search(r"No such option:? '?--lambda", result.stderr), result.stderr

    def test_lam_other_than_one_refused_before_any_input(self, tmp_path, monkeypatch):
        import rolemine.cli as cli

        reads = []
        monkeypatch.setattr(cli, "_read", lambda path: reads.append(path) or "0 1\n")
        out = tmp_path / "out"
        config = RunConfig("learn", (str(tmp_path / "graph.txt"),), str(out), lam=0.9)
        with pytest.raises(ValueError, match="lambda is fixed at 1.0, not 0.9"):
            execute(config)
        assert reads == [] and not out.exists()


class TestSelectRankAndAssign:
    def test_two_pattern_pipeline_finds_two_roles(self, runner, tmp_path):
        (tmp_path / "features.csv").write_text(two_pattern_csv())
        invoke_ok(
            runner,
            ["select-rank", str(tmp_path / "features.csv"), "--output-dir", str(tmp_path)],
        )
        model = model_from_json((tmp_path / "model.json").read_text())
        assert model.r == 2

        invoke_ok(
            runner,
            ["assign", str(tmp_path / "model.json"), "--hard", "--output-dir", str(tmp_path)],
        )
        lines = (tmp_path / "assignments.csv").read_text().splitlines()
        assert lines[0] == "node,role"
        labels = [int(ln.split(",")[1]) for ln in lines[1:]]
        assert len(labels) == 20
        assert len(set(labels)) == 2
        assert labels == [labels[i % 2] for i in range(20)]

    def test_soft_assignments_are_distributions(self, runner, tmp_path):
        (tmp_path / "features.csv").write_text(two_pattern_csv())
        invoke_ok(
            runner,
            ["select-rank", str(tmp_path / "features.csv"), "--output-dir", str(tmp_path)],
        )
        invoke_ok(
            runner, ["assign", str(tmp_path / "model.json"), "--output-dir", str(tmp_path)]
        )
        lines = (tmp_path / "assignments.csv").read_text().splitlines()
        assert lines[0] == "node,role_0,role_1"
        for ln in lines[1:]:
            vals = [float(v) for v in ln.split(",")[1:]]
            assert abs(sum(vals) - 1.0) < 1e-12

    def test_rank_override_skips_the_sweep(self, runner, tmp_path):
        (tmp_path / "features.csv").write_text(two_pattern_csv())
        invoke_ok(
            runner,
            ["select-rank", str(tmp_path / "features.csv"), "--rank", "3",
             "--output-dir", str(tmp_path)],
        )
        assert model_from_json((tmp_path / "model.json").read_text()).r == 3

    @pytest.mark.parametrize("maxiter", ["0", "-3"])
    @pytest.mark.parametrize("rank", [[], ["--rank", "2"]], ids=["sweep", "rank"])
    def test_maxiter_below_one_rejected(self, runner, tmp_path, maxiter, rank):
        (tmp_path / "features.csv").write_text(two_pattern_csv())
        result = runner.invoke(
            main,
            ["select-rank", str(tmp_path / "features.csv"), "--maxiter", maxiter, *rank,
             "--output-dir", str(tmp_path / "out")],
        )
        assert result.exit_code == 1
        assert result.stderr == "error: maxiter must be >= 1\n"

    def test_descriptor_count_mismatch_rejected(self, runner, tmp_path):
        (tmp_path / "features.csv").write_text(two_pattern_csv())
        (tmp_path / "descriptors.json").write_text(
            '[{"id": 0, "kind": "primitive", "primitive": "degree"}]\n'
        )
        result = runner.invoke(
            main,
            ["select-rank", str(tmp_path / "features.csv"), str(tmp_path / "descriptors.json")],
        )
        assert result.exit_code == 1
        assert "descriptor count" in result.stderr

    def test_malformed_model_file_rejected(self, runner, tmp_path):
        (tmp_path / "model.json").write_text('{"r": 2}\n')
        result = runner.invoke(main, ["assign", str(tmp_path / "model.json")])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: malformed model file")

    @pytest.mark.parametrize("key, value", [
        ("r", True), ("b", 2.5), ("cost", float("inf")), ("criterion", "bogus"),
        ("W", [[float("nan")], [1.0]]), ("column_scales", [1.0, float("inf")]),
        # W_index names a row of W for each node; anything else is refused
        # as a malformed file, not left to fail as an IndexError
        ("W_index", None), ("W_index", [0, 2]), ("W_index", [-1, 0]), ("W_index", [0, True]),
        ("W_index", [0, 1.0]), ("W_index", []), ("W_index", 0), ("W", [1.0, 2.0]),
    ])
    def test_model_file_json_cannot_hold_rejected(self, runner, tmp_path, key, value):
        doc = {"r": 1, "criterion": "aic", "b": 16, "column_scales": [1.0],
               "descriptors": [{"id": 0, "kind": "primitive", "primitive": "degree"}],
               "W": [[1.0], [2.0]], "W_index": [0, 1, 1], "H": [[1.0]], "cost": 1.0}
        model_from_json(json.dumps(doc))
        # json.dumps writes nan and inf as NaN and Infinity, which json.loads
        # reads; a None value drops the key
        doc = {k: v for k, v in {**doc, key: value}.items() if v is not None}
        (tmp_path / "model.json").write_text(json.dumps(doc))
        (tmp_path / "g.txt").write_text("0 1\n1 2\n")
        (tmp_path / "snapshots.txt").write_text("g.txt\ng.txt\n")
        for command, *second in (["assign"], ["transfer", "g.txt"], ["dynamic", "snapshots.txt"]):
            result = runner.invoke(
                main, [command, str(tmp_path / "model.json"), *(str(tmp_path / p) for p in second),
                       "--output-dir", str(tmp_path / "out")]
            )
            assert isinstance(result.exception, SystemExit) and result.exit_code == 1
            assert result.stderr.startswith("error: malformed model file"), (command, result.stderr)

    def test_model_file_that_is_not_an_object_rejected(self, runner, tmp_path):
        (tmp_path / "model.json").write_text("[1]\n")
        result = runner.invoke(main, ["assign", str(tmp_path / "model.json")])
        assert isinstance(result.exception, SystemExit) and result.exit_code == 1
        assert result.stderr.startswith("error: malformed model file")

    @pytest.mark.parametrize("text", ['[{"kind": "primitive"}]', '{"a": 1}', "[1]"])
    def test_malformed_descriptors_file_rejected(self, runner, tmp_path, text):
        (tmp_path / "features.csv").write_text(two_pattern_csv())
        (tmp_path / "descriptors.json").write_text(text + "\n")
        result = runner.invoke(
            main,
            ["select-rank", str(tmp_path / "features.csv"), str(tmp_path / "descriptors.json"),
             "--output-dir", str(tmp_path / "out")],
        )
        # an uncaught exception would also end in exit code 1 under CliRunner
        assert isinstance(result.exception, SystemExit) and result.exit_code == 1
        assert result.stderr.startswith("error: malformed descriptors file")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("text", [
        "node,feat_0\nx,1.0\n", "node,feat_0\n0,abc\n", "node,feat_0\n0,1.0,2.0\n",
        "feat_0\n1.0\n",
        # Python's int and float read these, features_to_csv never writes them
        "node,feat_0\n0,1_0\n", "node,feat_0\n-0,1.0\n", "node,feat_0\n 0,1.0\n",
        # select_rank refuses these too, but without the path
        "node,feat_0\n0,1e400\n", "node,feat_0\n0,-1.0\n", "node,feat_0\n", "node\n0\n",
    ])
    def test_malformed_features_file_rejected(self, runner, tmp_path, text):
        # the path says which of the chain's inputs is bad
        path = tmp_path / "features.csv"
        path.write_text(text)
        result = runner.invoke(main, ["select-rank", str(path), "--output-dir", str(tmp_path / "out")])
        assert isinstance(result.exception, SystemExit) and result.exit_code == 1
        assert result.stderr.startswith(f"error: malformed features file {path}: "), result.stderr
        assert "Traceback" not in result.stderr


class TestSweepCounters:
    def select(self, runner, tmp_path, *flags):
        graph = tmp_path / "graph.txt"
        graph.write_text(write_edge_list(erdos_renyi(40, 0.15, seed=7)))
        invoke_ok(runner, ["learn", str(graph), "--maxiter", "2",
                           "--output-dir", str(tmp_path / "learn")])
        invoke_ok(runner, ["select-rank", str(tmp_path / "learn" / "features.csv"), *flags,
                           "--output-dir", str(tmp_path / "rank")])
        run = json.loads((tmp_path / "rank" / "run.json").read_text())
        model = json.loads((tmp_path / "rank" / "model.json").read_text())
        return run, model

    def test_one_entry_per_tried_rank(self, runner, tmp_path):
        run, model = self.select(runner, tmp_path, "--maxiter", "60")
        sweep = run["sweep"]
        assert [e["rank"] for e in sweep] == list(range(1, len(sweep) + 1))
        assert all(set(e) == {"rank", "iterations", "capped", "cost"} for e in sweep)
        assert all(1 <= e["iterations"] <= 60 for e in sweep)
        assert all(e["capped"] == (e["iterations"] == 60) for e in sweep)
        assert any(e["capped"] for e in sweep)
        (chosen,) = [e for e in sweep if e["rank"] == model["r"]]
        assert chosen["cost"] == model["cost"]
        assert chosen["cost"] == min(e["cost"] for e in sweep)
        # the last improvement is followed by exactly `trials` failures
        assert run["stopped"] == "trials"
        assert model["r"] == len(sweep) - run["trials"]
        assert "sweep" not in model and "stopped" not in model

    def test_rank_override_has_one_entry(self, runner, tmp_path):
        run, model = self.select(runner, tmp_path, "--rank", "3", "--maxiter", "40")
        (entry,) = run["sweep"]
        assert entry["rank"] == 3 and entry["cost"] == model["cost"]
        assert entry["capped"] == (entry["iterations"] == 40)
        assert run["stopped"] == "rank"

    @pytest.mark.parametrize("rank", [[], ["--rank", "2"]], ids=["sweep", "rank"])
    def test_distinct_rows_counts_the_fitted_rows(self, runner, tmp_path, rank):
        # twenty rows, two distinct
        (tmp_path / "features.csv").write_text(two_pattern_csv())
        invoke_ok(runner, ["select-rank", str(tmp_path / "features.csv"), *rank,
                           "--output-dir", str(tmp_path / "rank")])
        run = json.loads((tmp_path / "rank" / "run.json").read_text())
        assert run["distinct_rows"] == 2

    @pytest.mark.parametrize("rank", [[], ["--rank", "2"]], ids=["sweep", "rank"])
    def test_exact_rank_and_skipped_ranks(self, runner, tmp_path, rank):
        # two distinct rows: rank 2 is the exact fit, run for no iteration,
        # and rank 1's bound lies above its cost, so the sweep skips it
        (tmp_path / "features.csv").write_text(two_pattern_csv())
        invoke_ok(runner, ["select-rank", str(tmp_path / "features.csv"), *rank,
                           "--output-dir", str(tmp_path / "rank")])
        run = json.loads((tmp_path / "rank" / "run.json").read_text())
        model = json.loads((tmp_path / "rank" / "model.json").read_text())
        assert run["sweep"] == [{"rank": 2, "iterations": 0, "capped": False, "cost": model["cost"]}]
        assert run["skipped"] == ([] if rank else [1])
        assert model["r"] == 2 and sorted(map(sorted, model["W"])) == [[0.0, 1.0], [0.0, 1.0]]


class TestOracle:
    def test_path_orbits_to_stdout_and_file(self, runner, tmp_path):
        graph = tmp_path / "p4.txt"
        graph.write_text(P4_TEXT)
        result = invoke_ok(
            runner,
            ["oracle", str(graph), "--kind", "automorphic", "--output-dir", str(tmp_path)],
        )
        text = (tmp_path / "classes.json").read_text()
        assert result.output == text
        assert json.loads(text) == {"classes": [[0, 3], [1, 2]]}

    def test_default_kind_is_exact_neighborhood_match(self, runner, tmp_path):
        graph = tmp_path / "s3.txt"
        graph.write_text("0 1\n0 2\n0 3\n")
        invoke_ok(runner, ["oracle", str(graph), "--output-dir", str(tmp_path)])
        doc = json.loads((tmp_path / "classes.json").read_text())
        assert doc == {"classes": [[0], [1, 2, 3]]}

    def test_unknown_kind_rejected_by_parser(self, runner, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n")
        result = runner.invoke(main, ["oracle", str(graph), "--kind", "exotic"])
        assert result.exit_code == 2

    # sha256 of classes.json per graph and --kind, recorded before the
    # oracles were rewritten over the CSR arrays. "twins" has open twins
    # (1, 2), closed twins (4, 5) and the path 6-7-8-9, whose orbits
    # (6, 9) and (7, 8) are no twin class
    TWINS_TEXT = "0 1\n0 2\n0 3\n3 4\n3 5\n4 5\n6 7\n7 8\n8 9\n"
    PINNED = {
        ("planted", "structural"): "eba857229cf7d130b5f27e3690b3d7ba26a7730505024e2f9557f7eeab3991b0",
        ("planted", "structural-weak"): "eba857229cf7d130b5f27e3690b3d7ba26a7730505024e2f9557f7eeab3991b0",
        ("planted", "regular"): "5c1f45f033a8dee18078f36acaf74298c64a20d2a7a2cc337916b3cc86d388b6",
        ("twins", "structural"): "8e5d9c15eadd3346bad34f52ce1dbe7818c5fdbd3ec8808b5ce0fed7055943ec",
        ("twins", "structural-weak"): "b89f2b7068e185a310dd6cd0a5b22a8bae47cd02e43146abffa06bdbf6ac8388",
        ("twins", "automorphic"): "7bef6829d643756d64d837f83c3a0e38ca4f19e190e0823dc20e6d0be36082b4",
        ("twins", "regular"): "24da35409614436946d87393a19124e50ac82ecde2e6f9671cb1de3a58350924",
    }

    def test_classes_bytes_are_pinned(self, runner, tmp_path):
        g, _ = planted_role_graph(seed=1, units=4)
        (tmp_path / "planted.txt").write_text(write_edge_list(g))
        (tmp_path / "twins.txt").write_text(self.TWINS_TEXT)
        for (graph, kind), digest in self.PINNED.items():
            out = tmp_path / f"{graph}-{kind}"
            invoke_ok(runner, ["oracle", str(tmp_path / f"{graph}.txt"), "--kind", kind,
                               "--output-dir", str(out)])
            assert hashlib.sha256((out / "classes.json").read_bytes()).hexdigest() == digest, (
                graph, kind)

    def test_classes_match_one_scan_per_class(self, tmp_path):
        # classes.json cuts the nodes sorted by label; the reference scans
        # the labels once per class. The empty graph has no class, not one
        # empty class
        rng = np.random.default_rng(44)
        for n in range(11):
            for seed in range(3):
                p = float(rng.uniform(0.1, 0.6))
                text = write_edge_list(erdos_renyi(n, p, seed=seed)) if n else ""
                (tmp_path / "g.txt").write_text(text)
                for kind, oracle in _ORACLES.items():
                    labels = oracle(load_edge_list(text))
                    want = [np.flatnonzero(labels == c).tolist() for c in np.unique(labels)]
                    execute(RunConfig(subcommand="oracle", inputs=(str(tmp_path / "g.txt"),),
                                      output_dir=str(tmp_path / "out"), kind=kind))
                    got = (tmp_path / "out" / "classes.json").read_text()
                    assert got == json.dumps({"classes": want}, indent=2) + "\n", (n, seed, kind)
                    assert n or json.loads(got) == {"classes": []}


class TestTransferAndDynamic:
    def fit_chain(self, runner, tmp_path):
        g = erdos_renyi(12, 0.35, seed=2)
        graph = tmp_path / "graph.txt"
        graph.write_text(write_edge_list(g))
        invoke_ok(runner, ["learn", str(graph), "--output-dir", str(tmp_path)])
        invoke_ok(
            runner,
            ["select-rank", str(tmp_path / "features.csv"), str(tmp_path / "descriptors.json"),
             "--output-dir", str(tmp_path)],
        )
        return graph

    def test_transfer_writes_memberships(self, runner, tmp_path):
        graph = self.fit_chain(runner, tmp_path)
        invoke_ok(
            runner,
            ["transfer", str(tmp_path / "model.json"), str(graph),
             "--output-dir", str(tmp_path / "t")],
        )
        lines = (tmp_path / "t" / "memberships.csv").read_text().splitlines()
        model = model_from_json((tmp_path / "model.json").read_text())
        assert lines[0] == "node," + ",".join(f"role_{k}" for k in range(model.r))
        assert len(lines) == 13
        # run.json records the solve: the same steps and residual in process
        report = NnlsReport()
        transfer_memberships(load_edge_list(graph.read_text()), model, report=report)
        run = json.loads((tmp_path / "t" / "run.json").read_text())
        assert run["nnls"] == {"steps": report.steps, "residual": report.residual}
        assert report.steps >= 1 and report.residual > 0

    def test_indented_model_json_still_loads(self, runner, tmp_path):
        # model.json in the json.dumps(..., indent=2) layout that earlier
        # versions wrote reads back to the same W and H bits, and assign
        # and transfer write the same files from it
        graph = self.fit_chain(runner, tmp_path)
        text = (tmp_path / "model.json").read_text()
        (tmp_path / "indented.json").write_text(json.dumps(json.loads(text), indent=2) + "\n")
        assert "\n  " in (tmp_path / "indented.json").read_text()
        models = [model_from_json((tmp_path / n).read_text()) for n in ("model.json", "indented.json")]
        assert models[0].w.tobytes() == models[1].w.tobytes()
        assert models[0].h.tobytes() == models[1].h.tobytes()
        outputs = []
        for name in ("model.json", "indented.json"):
            out = tmp_path / name.removesuffix(".json")
            invoke_ok(runner, ["assign", str(tmp_path / name), "--output-dir", str(out / "assign")])
            invoke_ok(runner, ["transfer", str(tmp_path / name), str(graph),
                               "--output-dir", str(out / "transfer")])
            outputs.append({f"{sub}/{f}": (out / sub / f).read_bytes()
                            for sub, f in (("assign", "assignments.csv"), ("transfer", "memberships.csv"))})
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("field, value", [
        ("iteration", None), ("iteration", -1), ("iteration", 1.5), ("iteration", True),
        ("id", "0"), ("id", None), ("id", -1), ("id", 0.5),
    ])
    def test_malformed_descriptor_id_or_iteration_rejected(self, runner, tmp_path, field, value):
        # select-rank used to copy such a descriptor into model.json, where
        # transfer then failed with a traceback
        graph = self.fit_chain(runner, tmp_path)
        descriptors = json.loads((tmp_path / "descriptors.json").read_text())
        descriptors[0][field] = value
        self.assert_descriptors_rejected(runner, tmp_path, graph, descriptors)

    @pytest.mark.parametrize("value", [True, 0.0, 1.0])
    def test_malformed_descriptor_base_rejected(self, runner, tmp_path, value):
        # "base": true was read as base 1
        graph = self.fit_chain(runner, tmp_path)
        descriptors = json.loads((tmp_path / "descriptors.json").read_text())
        next(d for d in descriptors if d["kind"] == "composite")["base"] = value
        self.assert_descriptors_rejected(runner, tmp_path, graph, descriptors)

    @pytest.mark.parametrize("was, kind", [("composite", "composite"), ("primitive", "attribute")])
    def test_descriptor_with_an_attribute_key_rejected(self, runner, tmp_path, was, kind):
        # a key that is not a descriptor field was ignored; an attribute row
        # named an input column that no CLI run can supply
        graph = self.fit_chain(runner, tmp_path)
        descriptors = json.loads((tmp_path / "descriptors.json").read_text())
        next(d for d in descriptors if d["kind"] == was).update(kind=kind, primitive=None, attribute=0)
        self.assert_descriptors_rejected(runner, tmp_path, graph, descriptors)

    @pytest.mark.parametrize("kind, extra", [
        ("primitive", {"operator": "max", "base": 7}), ("primitive", {"base": 0}),
        ("primitive", {"iteration": 5}), ("composite", {"primitive": "core-number"}),
    ])
    def test_descriptor_with_a_field_of_the_other_kind_rejected(
        self, runner, tmp_path, kind, extra
    ):
        # recompute reads every iteration to order a composite's sums, and a
        # field of the other kind would pass into model.json unread
        graph = self.fit_chain(runner, tmp_path)
        descriptors = json.loads((tmp_path / "descriptors.json").read_text())
        next(d for d in descriptors if d["kind"] == kind).update(extra)
        self.assert_descriptors_rejected(runner, tmp_path, graph, descriptors)

    @staticmethod
    def assert_descriptors_rejected(runner, tmp_path, graph, descriptors):
        (tmp_path / "bad.json").write_text(json.dumps(descriptors))
        model = json.loads((tmp_path / "model.json").read_text())
        model["descriptors"] = descriptors
        (tmp_path / "bad_model.json").write_text(json.dumps(model))
        for args, what in (
            (["select-rank", str(tmp_path / "features.csv"), str(tmp_path / "bad.json")],
             "descriptors"),
            (["transfer", str(tmp_path / "bad_model.json"), str(graph)], "model"),
        ):
            result = runner.invoke(main, [*args, "--output-dir", str(tmp_path / "out")])
            assert isinstance(result.exception, SystemExit) and result.exit_code == 1
            assert result.stderr.startswith(f"error: malformed {what} file"), result.stderr
            assert "Traceback" not in result.stderr

    def test_equal_feature_rows_get_equal_memberships(self, runner, tmp_path):
        # each distinct feature row is solved once, so nodes whose
        # normalized features are equal bytes get the same membership text;
        # a 1%-rewired planted graph ties most rows, not all
        g = rewire(planted_role_graph(seed=1, units=10)[0], 0.01, np.random.default_rng(1))
        graph = tmp_path / "graph.txt"
        graph.write_text(write_edge_list(g))
        (tmp_path / "snapshots.txt").write_text("graph.txt\ngraph.txt\n")
        invoke_ok(runner, ["learn", str(graph), "--output-dir", str(tmp_path)])
        invoke_ok(runner, ["select-rank", str(tmp_path / "features.csv"),
                           str(tmp_path / "descriptors.json"), "--output-dir", str(tmp_path)])
        model = str(tmp_path / "model.json")
        invoke_ok(runner, ["transfer", model, str(graph), "--output-dir", str(tmp_path / "t")])
        invoke_ok(runner, ["dynamic", model, str(tmp_path / "snapshots.txt"),
                           "--output-dir", str(tmp_path / "d")])
        m = model_from_json((tmp_path / "model.json").read_text())
        g = load_edge_list(graph.read_text())
        x = np.minimum(recompute(g, m.descriptors).values / m.column_scales, 10.0)
        rows = [row.tobytes() for row in x]
        assert 1 < len(set(rows)) < g.n / 4
        series = (tmp_path / "d" / "series.csv").read_text().splitlines()[1:]
        for lines, skip in (
            ((tmp_path / "t" / "memberships.csv").read_text().splitlines()[1:], 1),
            (series[: g.n], 2), (series[g.n :], 2),
        ):
            text = {}
            for row, line in zip(rows, lines, strict=True):
                values = line.split(",", skip)[-1]
                assert text.setdefault(row, values) == values

    def test_dynamic_series_and_transition(self, runner, tmp_path):
        graph = self.fit_chain(runner, tmp_path)
        (tmp_path / "snapshots.txt").write_text("graph.txt\ngraph.txt\n")
        invoke_ok(
            runner,
            ["dynamic", str(tmp_path / "model.json"), str(tmp_path / "snapshots.txt"),
             "--output-dir", str(tmp_path / "d")],
        )
        series = (tmp_path / "d" / "series.csv").read_text().splitlines()
        model = model_from_json((tmp_path / "model.json").read_text())
        assert series[0] == "timestamp,node," + ",".join(f"role_{k}" for k in range(model.r))
        assert len(series) == 1 + 2 * 12
        t = np.array(json.loads((tmp_path / "d" / "transition.json").read_text()))
        assert t.shape == (model.r, model.r)
        # identical snapshots: roles carry over unchanged
        assert np.abs(t - np.eye(model.r)).max() < 1e-4
        nnls = json.loads((tmp_path / "d" / "run.json").read_text())["nnls"]
        assert set(nnls) == {"steps", "residual"}
        assert nnls["steps"] >= 1 and 0 <= nnls["residual"] < 1e-6

    def test_dynamic_manifest_with_explicit_timestamps(self, runner, tmp_path):
        graph = self.fit_chain(runner, tmp_path)
        (tmp_path / "snapshots.txt").write_text("-3 graph.txt\n7 graph.txt\n")
        invoke_ok(
            runner,
            ["dynamic", str(tmp_path / "model.json"), str(tmp_path / "snapshots.txt"),
             "--output-dir", str(tmp_path / "d")],
        )
        stamps = {ln.split(",")[0] for ln in
                  (tmp_path / "d" / "series.csv").read_text().splitlines()[1:]}
        assert stamps == {"-3", "7"}

    def test_dynamic_records_the_pairs_it_stacked(self, runner, tmp_path):
        self.fit_chain(runner, tmp_path)
        (tmp_path / "other.txt").write_text(write_edge_list(erdos_renyi(15, 0.3, seed=4)))
        # the pairs 0 -> 5 and 5 -> 9 differ in node count and are left out
        (tmp_path / "snapshots.txt").write_text(
            "0 graph.txt\n5 other.txt\n9 graph.txt\n10 graph.txt\n"
        )
        invoke_ok(
            runner,
            ["dynamic", str(tmp_path / "model.json"), str(tmp_path / "snapshots.txt"),
             "--output-dir", str(tmp_path / "d")],
        )
        run = json.loads((tmp_path / "d" / "run.json").read_text())
        assert run["pairs"] == [{"from": 9, "to": 10, "nodes": 12}]

    @pytest.mark.parametrize(
        "text, lineno, t, prev",
        [
            ("5 graph.txt\n3 graph.txt\n", 2, 3, 5),
            ("# snapshots\n4 graph.txt\n\n4 graph.txt\n", 4, 4, 4),
            # the line without a timestamp takes 6
            ("5 graph.txt\ngraph.txt\n6 graph.txt\n", 3, 6, 6),
        ],
        ids=["decreasing", "duplicate", "after-implicit"],
    )
    def test_dynamic_manifest_timestamps_must_increase(
        self, runner, tmp_path, text, lineno, t, prev
    ):
        self.fit_chain(runner, tmp_path)
        manifest = tmp_path / "snapshots.txt"
        manifest.write_text(text)
        result = runner.invoke(
            main, ["dynamic", str(tmp_path / "model.json"), str(manifest),
                   "--output-dir", str(tmp_path / "d")]
        )
        assert result.exit_code == 1
        assert result.stderr == (
            f"error: manifest {manifest} line {lineno}: timestamp {t} is not greater than {prev}\n"
        )
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("token", ["--5", "²"], ids=["two-minus-signs", "superscript-two"])
    def test_dynamic_manifest_token_that_only_looks_like_an_integer(self, runner, tmp_path, token):
        # not a timestamp, so the whole line names the snapshot
        self.fit_chain(runner, tmp_path)
        manifest = tmp_path / "snapshots.txt"
        manifest.write_text(f"{token} graph.txt\ngraph.txt\n", encoding="utf-8")
        result = runner.invoke(
            main, ["dynamic", str(tmp_path / "model.json"), str(manifest),
                   "--output-dir", str(tmp_path / "d")]
        )
        assert result.exit_code == 1
        assert result.stderr == f"error: input file not found: {tmp_path / (token + ' graph.txt')}\n"
        assert not (tmp_path / "d").exists()

    def test_dynamic_without_a_shared_node_count_writes_nothing(self, runner, tmp_path):
        self.fit_chain(runner, tmp_path)
        (tmp_path / "other.txt").write_text(write_edge_list(erdos_renyi(15, 0.3, seed=4)))
        (tmp_path / "snapshots.txt").write_text("graph.txt\nother.txt\n")
        args = ["dynamic", str(tmp_path / "model.json"), str(tmp_path / "snapshots.txt")]
        result = runner.invoke(main, [*args, "--output-dir", str(tmp_path / "d")])
        assert result.exit_code == 1
        assert result.stderr == "error: no consecutive snapshots share a node count\n"
        assert not (tmp_path / "d").exists()
        # an output directory that was already there gains no file
        (tmp_path / "e").mkdir()
        result = runner.invoke(main, [*args, "--output-dir", str(tmp_path / "e")])
        assert result.exit_code == 1
        assert list((tmp_path / "e").iterdir()) == []

    def test_dynamic_requires_two_snapshots(self, runner, tmp_path):
        graph = self.fit_chain(runner, tmp_path)
        (tmp_path / "snapshots.txt").write_text("graph.txt\n")
        result = runner.invoke(
            main, ["dynamic", str(tmp_path / "model.json"), str(tmp_path / "snapshots.txt")]
        )
        assert result.exit_code == 1
        assert "at least 2 snapshots" in result.stderr

    def test_descriptor_count_must_match_h(self, runner, tmp_path):
        graph = self.fit_chain(runner, tmp_path)
        doc = json.loads((tmp_path / "model.json").read_text())
        doc["descriptors"] = doc["descriptors"][:-1]
        (tmp_path / "model.json").write_text(json.dumps(doc))
        result = runner.invoke(main, ["transfer", str(tmp_path / "model.json"), str(graph)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: malformed model file")
        assert "descriptors for" in result.stderr

    def test_transfer_needs_model_descriptors(self, runner, tmp_path):
        (tmp_path / "features.csv").write_text(two_pattern_csv())
        invoke_ok(
            runner,
            ["select-rank", str(tmp_path / "features.csv"), "--output-dir", str(tmp_path)],
        )
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n")
        result = runner.invoke(main, ["transfer", str(tmp_path / "model.json"), str(graph)])
        assert result.exit_code == 1
        assert "descriptors" in result.stderr


SUBCOMMANDS = ("learn", "select-rank", "assign", "transfer", "dynamic", "oracle")


class TestRunJson:
    # inputs, then flags, per subcommand
    ARGS = {
        "learn": (["graph.txt"], ["--maxiter", "2", "--operators", "sum"]),
        "select-rank": (["learn/features.csv"], ["--trials", "2", "--seed", "4"]),
        "assign": (["model/model.json"], ["--hard"]),
        "transfer": (["model/model.json", "graph.txt"], []),
        "dynamic": (["model/model.json", "snapshots.txt"], []),
        "oracle": (["graph.txt"], ["--kind", "regular"]),
    }
    ECHOED = {
        "learn": {"maxiter": 2, "operators": ["sum"]},
        "select-rank": {"trials": 2, "seed": 4, "rank": None, "maxiter": 500},
        "assign": {"hard": True},
        "transfer": {},
        "dynamic": {},
        "oracle": {"kind": "regular"},
    }

    # every echoed flag of a run with none given
    DEFAULTS = {
        "learn": {
            "primitives": ["degree", "weighted-degree", "wedge-count", "triangle-count",
                           "egonet-internal-edges", "egonet-external-edges", "core-number"],
            "operators": ["sum", "mean"],
            "bin_fraction": 0.5,
            "maxiter": 10,
        },
        "select-rank": {"maxiter": 500, "criterion": "aic", "bits": 16, "trials": 5, "seed": 1,
                        "rank": None},
        "assign": {"hard": False},
        "transfer": {},
        "dynamic": {},
        "oracle": {"kind": "structural"},
    }

    def run(self, runner, tmp_path, monkeypatch, sub, flags):
        monkeypatch.chdir(tmp_path)
        Path("graph.txt").write_text(write_edge_list(erdos_renyi(12, 0.35, seed=2)))
        Path("snapshots.txt").write_text("graph.txt\ngraph.txt\n")
        if sub in ("assign", "transfer", "dynamic"):
            invoke_ok(runner, ["learn", "graph.txt", "--output-dir", "model"])
            invoke_ok(runner, ["select-rank", "model/features.csv", "model/descriptors.json",
                               "--output-dir", "model"])
        if sub == "select-rank":
            invoke_ok(runner, ["learn", "graph.txt", "--output-dir", "learn"])
        inputs = self.ARGS[sub][0]
        invoke_ok(runner, [sub, *inputs, *flags, "--output-dir", "out"])
        doc = json.loads(Path("out/run.json").read_text())
        assert set(doc) == RUN_JSON_COMMON | RUN_JSON_KEYS[sub]
        assert doc["subcommand"] == sub
        assert doc["inputs"] == inputs
        assert doc["output_dir"] == "out"
        return doc

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_echoes_only_its_own_flags(self, runner, tmp_path, monkeypatch, sub):
        doc = self.run(runner, tmp_path, monkeypatch, sub, self.ARGS[sub][1])
        for key, value in self.ECHOED[sub].items():
            assert doc[key] == value, key

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_echoes_every_default_without_flags(self, runner, tmp_path, monkeypatch, sub):
        doc = self.run(runner, tmp_path, monkeypatch, sub, [])
        flags = set(doc) - RUN_JSON_COMMON - {"iteration_sizes", "candidates", "stopped",
                                              "sweep", "skipped", "distinct_rows", "nnls", "pairs"}
        assert flags == set(self.DEFAULTS[sub])
        for key, value in self.DEFAULTS[sub].items():
            assert doc[key] == value, key


class TestExecute:
    @pytest.mark.parametrize(
        "sub, count, allowed", [("select-rank", 0, "1 to 2"), ("select-rank", 3, "1 to 2"),
                                ("transfer", 1, "2")]
    )
    def test_input_count_checked_before_output(self, tmp_path, sub, count, allowed):
        (tmp_path / "features.csv").write_text(two_pattern_csv())
        out = tmp_path / "out"
        config = RunConfig(sub, (str(tmp_path / "features.csv"),) * count, str(out))
        with pytest.raises(ValueError, match=rf"^{sub} takes {allowed} input path\(s\)$"):
            execute(config)
        assert not out.exists()

    def test_failed_run_removes_the_output_dir_it_made(self, runner, tmp_path):
        out = tmp_path / "bad"
        result = runner.invoke(main, ["learn", str(tmp_path / "missing.txt"),
                                      "--output-dir", str(out)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: input file not found")
        assert not out.exists()

    def test_failed_run_keeps_an_existing_output_dir(self, runner, tmp_path):
        out = tmp_path / "kept"
        out.mkdir()
        result = runner.invoke(main, ["learn", str(tmp_path / "missing.txt"),
                                      "--output-dir", str(out)])
        assert result.exit_code == 1
        assert out.is_dir() and list(out.iterdir()) == []

    def test_unknown_oracle_kind_rejected(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n")
        config = RunConfig("oracle", (str(graph),), str(tmp_path / "out"), kind="exotic")
        with pytest.raises(ValueError, match="unknown oracle kind 'exotic'"):
            execute(config)


class TestTooling:
    def test_every_public_name_resolves(self):
        assert len(set(rolemine.__all__)) == len(rolemine.__all__)
        for name in rolemine.__all__:
            assert getattr(rolemine, name, None) is not None, name

    def test_every_public_name_has_a_caller(self):
        # reached from the package itself, a script, the benchmark or an
        # acceptance criterion, not only from its own tests
        root = Path(__file__).resolve().parent.parent
        files = [p for p in Path(rolemine.__file__).parent.glob("*.py") if p.name != "__init__.py"]
        files += [*(root / "scripts").glob("*.py"), *(root / "perfbench").glob("*.py"),
                  root / "tests" / "test_acceptance.py"]
        lines = [line for path in files for line in path.read_text().splitlines()]
        unreached = []
        for name in rolemine.__all__:
            own = re.compile(rf"\s*((def|class)\s+{name}\b|{name}\s*[:=])")
            word = re.compile(rf"\b{name}\b")
            if not any(word.search(line) and not own.match(line) for line in lines):
                unreached.append(name)
        assert unreached == []

    def test_src_within_line_budget(self):
        # the round-start budget: from here on an addition to src/ is paid
        # for by a deletion; counted as `wc -l src/rolemine/*.py` counts
        files = Path(rolemine.__file__).parent.glob("*.py")
        assert sum(p.read_bytes().count(b"\n") for p in files) <= 2235

    def test_learn_sets_every_feature_config_field(self, runner, tmp_path, monkeypatch):
        # a field that no learn flag sets is a library parameter that no CLI
        # run reaches; every flag below differs from its default
        import rolemine.cli as cli

        configs = []
        monkeypatch.setattr(cli, "learn_features",
                            lambda g, config: configs.append(config) or learn_features(g, config))
        graph = tmp_path / "graph.txt"
        graph.write_text(write_edge_list(erdos_renyi(12, 0.35, seed=2)))
        invoke_ok(runner, ["learn", str(graph), "--primitives", "degree", "--operators", "max",
                           "--bin-fraction", "0.25", "--maxiter", "2",
                           "--output-dir", str(tmp_path)])
        [config] = configs
        assert [f.name for f in fields(config) if getattr(config, f.name) == f.default] == []

    @pytest.mark.parametrize("flag, kind", [
        *(("--primitives", k) for k in PRIMITIVE_KINDS), *(("--operators", k) for k in OPERATOR_KINDS)
    ])
    def test_every_kind_runs_from_learn(self, runner, tmp_path, flag, kind):
        # a kind that no learn run can use is library-only code
        graph = tmp_path / "graph.txt"
        graph.write_text(write_edge_list(erdos_renyi(12, 0.35, seed=2)))
        invoke_ok(runner, ["learn", str(graph), flag, kind, "--output-dir", str(tmp_path)])

    def test_six_subcommands(self):
        assert sorted(main.commands) == sorted(SUBCOMMANDS)

    def test_library_functions_are_looked_up_at_call_time(self, runner, tmp_path, monkeypatch):
        # the benchmark times and captures these calls by replacing the
        # rolemine.cli globals, so the runners must not hold their own copies
        import rolemine.cli as cli

        calls = []
        for name in ("learn_features", "select_rank"):
            def wrapper(*args, _name=name, _original=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)
        graph = tmp_path / "graph.txt"
        graph.write_text(write_edge_list(erdos_renyi(12, 0.35, seed=2)))
        invoke_ok(runner, ["learn", str(graph), "--output-dir", str(tmp_path)])
        invoke_ok(runner, ["select-rank", str(tmp_path / "features.csv"),
                           "--output-dir", str(tmp_path)])
        assert calls == ["learn_features", "select_rank"]

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_help_exits_cleanly_and_seed_only_where_random(self, runner, sub):
        result = runner.invoke(main, [sub, "--help"])
        assert result.exit_code == 0, result.output
        assert ("--seed" in result.output) == (sub == "select-rank")


class TestDependencies:
    def test_runtime_imports_stay_in_the_contract(self):
        # the package may import the standard library, numpy, click and itself
        allowed = set(sys.stdlib_module_names) | {"numpy", "click", "rolemine"}
        found = set()
        for path in sorted((Path(rolemine.__file__).parent).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    found.update((path.name, a.name.split(".")[0]) for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    found.add((path.name, node.module.split(".")[0]))
        assert {name for _, name in found} >= {"numpy", "click"}
        assert sorted(f for f in found if f[1] not in allowed) == []

    def test_chain_runs_without_the_test_dependencies(self, tmp_path):
        # a None entry in sys.modules makes any import of that name fail
        script = "\n".join([
            "import sys",
            "for name in ('scipy', 'hypothesis', 'pytest'):",
            "    sys.modules[name] = None",
            "from rolemine.cli import RunConfig, execute",
            "root = sys.argv[1]",
            "execute(RunConfig('learn', (f'{root}/graph.txt',), f'{root}/learn'))",
            "execute(RunConfig('select-rank', (f'{root}/learn/features.csv',"
            " f'{root}/learn/descriptors.json'), f'{root}/rank'))",
            "execute(RunConfig('assign', (f'{root}/rank/model.json',), f'{root}/assign', hard=True))",
        ])
        g, _ = planted_role_graph(seed=1, units=3)
        (tmp_path / "graph.txt").write_text(write_edge_list(g))
        src = str(Path(rolemine.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env={**os.environ, "PYTHONPATH": path}, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        lines = (tmp_path / "assign" / "assignments.csv").read_text().splitlines()
        assert lines[0] == "node,role" and len(lines) == g.n + 1


class TestDeterminism:
    def run_chain(self, runner, root: Path):
        root.mkdir()
        g = erdos_renyi(10, 0.4, seed=3)
        (root / "graph.txt").write_text(write_edge_list(g))
        invoke_ok(runner, ["learn", str(root / "graph.txt"), "--output-dir", str(root / "learn")])
        invoke_ok(
            runner,
            ["select-rank", str(root / "learn" / "features.csv"),
             str(root / "learn" / "descriptors.json"), "--output-dir", str(root / "rank")],
        )
        invoke_ok(
            runner,
            ["assign", str(root / "rank" / "model.json"), "--hard",
             "--output-dir", str(root / "assign")],
        )
        invoke_ok(
            runner,
            ["transfer", str(root / "rank" / "model.json"), str(root / "graph.txt"),
             "--output-dir", str(root / "transfer")],
        )
        out = {}
        for sub in ("learn", "rank", "assign", "transfer"):
            for f in sorted((root / sub).iterdir()):
                if f.name == "run.json":
                    continue  # echoes absolute input paths, which differ per root
                out[f"{sub}/{f.name}"] = f.read_bytes()
        return out

    def test_repeated_runs_are_byte_identical(self, runner, tmp_path):
        a = self.run_chain(runner, tmp_path / "a")
        b = self.run_chain(runner, tmp_path / "b")
        assert a.keys() == b.keys()
        for key in a:
            assert a[key] == b[key], key

    # sha256 of each file of the planted chain below, recorded when the
    # sweep's rank 4, the distinct-row count, became the exact fit (W one-hot
    # per distinct row, H those rows); model.json's again when it stopped
    # writing the seed, and again when it became json.dumps's one line (the
    # same document). They equal the digests of the same chain with each
    # graph passed in memory, not parsed from its file: loading the written
    # graphs renumbers no node
    PINNED = {
        "model.json": "edeac9b00185d4e53009fdbfd0bd2e16a8d293135cda89a635c8ad81663f7be1",
        "soft/assignments.csv": "81a78abd1f9961a4f718d2fb89f2ba6c43a39c5bcadad83d3545a1ace993f5b6",
        "hard/assignments.csv": "04f6c2b7ff019b8e7b8bddc0bc1b03c43dc7643481a49dc413723c37d9e408d2",
        "memberships.csv": "7a00bde30c2db9c4f424c5d27b147b9b0506a63f1fe7e57552e43b0586e01f62",
        "series.csv": "43a9ba09085a0cbb96967e5e36feccd5c0d513b02bfbaecd352ba6a5f5072322",
        "transition.json": "c8ee6ee2ca3933cd7ab3c660b96f3f503740b8d95d3e9438f6ab805db6bb0097",
    }

    def test_planted_chain_bytes_are_pinned(self, runner, tmp_path):
        # W of the 76-node planted graph has 4 distinct rows, each written
        # many times
        for seed in (1, 2):
            g, _ = planted_role_graph(seed=seed, units=4)
            (tmp_path / f"g{seed}.txt").write_text(write_edge_list(g))
        (tmp_path / "snapshots.txt").write_text("g1.txt\ng2.txt\n")
        model, out = str(tmp_path / "model.json"), str(tmp_path)
        for args in (
            ["learn", str(tmp_path / "g1.txt"), "--output-dir", out],
            ["select-rank", str(tmp_path / "features.csv"), str(tmp_path / "descriptors.json"),
             "--output-dir", out],
            ["assign", model, "--output-dir", str(tmp_path / "soft")],
            ["assign", model, "--hard", "--output-dir", str(tmp_path / "hard")],
            ["transfer", model, str(tmp_path / "g2.txt"), "--output-dir", out],
            ["dynamic", model, str(tmp_path / "snapshots.txt"), "--output-dir", out],
        ):
            invoke_ok(runner, args)
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.PINNED}
        assert got == self.PINNED


# every float the writers must spell as repr: the smallest subnormal, a
# value repr writes with an exponent either way, and -0.0, which passes the
# non-negativity checks and must not share a row's text with 0.0
AWKWARD_FLOATS = (0.0, -0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, 1 / 3)


@st.composite
def tied_matrices(draw, rows=(0, 12), cols=(0, 4), non_negative=False):
    """Float matrices whose rows are drawn from a pool of at most four, so
    rows repeat; the pool may hold rows that differ only in the sign of a
    zero."""
    k = draw(st.integers(*cols))
    values = st.floats(allow_nan=False, allow_infinity=False)
    values = st.sampled_from(AWKWARD_FLOATS) | (values.map(abs) if non_negative else values)
    pool = draw(st.lists(st.lists(values, min_size=k, max_size=k), min_size=1, max_size=4))
    pool += [[-v if v == 0 else v for v in row] for row in pool]
    picks = draw(st.lists(st.sampled_from(range(len(pool))), min_size=rows[0], max_size=rows[1]))
    return np.array([pool[i] for i in picks], dtype=float).reshape(len(picks), k)


def reference_rows(x, node=0, prefix=""):
    """The per-row CSV lines the writers used to build, value by value."""
    return "".join(
        ",".join([f"{prefix}{u}", *map(repr, row)]) + "\n" for u, row in enumerate(x.tolist(), node)
    )


class TestRowWriters:
    """Each writer formats every distinct row once; the bytes must equal the
    per-row stdlib form."""

    SHAPES = [np.zeros((1, 1)), np.full((5, 1), 1e16), np.zeros((3, 0)),
              np.array([[0.0, 5e-324], [-0.0, 5e-324], [0.0, 5e-324], [1e-05, -0.0]])]

    @pytest.mark.parametrize("x", SHAPES, ids=["1x1", "nx1", "nx0", "signed-zeros"])
    def test_csv_rows_fixed_shapes(self, x):
        assert csv_rows(x, 7, "3,") == reference_rows(x, 7, "3,")

    @given(tied_matrices(), st.integers(0, 5), st.sampled_from(["", "-2,"]))
    @settings(max_examples=150, deadline=None)
    def test_csv_rows(self, x, node, prefix):
        assert csv_rows(x, node, prefix) == reference_rows(x, node, prefix)

    @given(tied_matrices(rows=(1, 12), cols=(1, 4), non_negative=True))
    @settings(max_examples=60, deadline=None)
    def test_memberships_and_series(self, w):
        header = ",".join(f"role_{k}" for k in range(w.shape[1])) + "\n"
        assert _memberships_csv(w) == "node," + header + reference_rows(w)
        assert series_to_csv((-1, 4), [w, w[::-1]]) == (
            "timestamp,node," + header + reference_rows(w, prefix="-1,")
            + reference_rows(w[::-1], prefix="4,")
        )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_model_json(self, data):
        r = data.draw(st.integers(1, 3))
        w = data.draw(tied_matrices(rows=(r, 12), cols=(r, r), non_negative=True))
        h = data.draw(tied_matrices(rows=(r, r), cols=(r, 5), non_negative=True))
        scales = [1.0, 1e16, 5e-324, 1e-05, 0.1 + 0.2][: h.shape[1]]
        descriptors = data.draw(st.sampled_from([None, tuple(
            FeatureDescriptor(id=j, kind="primitive", primitive="degree") for j in range(h.shape[1])
        )]))
        model = RoleModel(r=r, w=w, h=h, column_scales=scales, descriptors=descriptors,
                          cost=data.draw(st.sampled_from([-1e16, 1 / 3, 0.0])),
                          criterion="mdl", b=3)
        # W's distinct rows by bytes, first seen first, and each node's row
        rows = list(dict.fromkeys(row.tobytes() for row in w))
        doc = {
            "r": r, "criterion": "mdl", "b": 3, "column_scales": scales,
            "descriptors": None if descriptors is None else json.loads(descriptors_to_json(descriptors)),
            "W": [np.frombuffer(row).tolist() for row in rows],
            "W_index": [rows.index(row.tobytes()) for row in w],
            "H": h.tolist(), "cost": model.cost,
        }
        text = model_to_json(model)
        assert text == json.dumps(doc) + "\n"
        assert model_from_json(text).w.tobytes() == w.tobytes()
