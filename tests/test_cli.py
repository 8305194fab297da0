import ast
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import rolemine
from rolemine import (
    FeatureLearnConfig,
    NnlsReport,
    descriptors_from_json,
    erdos_renyi,
    learn_features,
    load_edge_list,
    model_from_json,
    transfer_memberships,
    write_edge_list,
)
from rolemine.cli import RunConfig, execute, main

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
    "learn": {"primitives", "operators", "bin_fraction", "lam", "maxiter",
              "iteration_sizes", "candidates", "stopped"},
    "select-rank": {"maxiter", "criterion", "bits", "trials", "seed", "rank", "sweep", "stopped",
                    "distinct_rows"},
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
            (["--maxiter", "2"], [10, 26], "maxiter"),
            (["--maxiter", "2", "--operators", "sum,mean,max"], [15, 48], "maxiter"),
            # a path reaches its fixed point in round 2, before the cap
            (["--maxiter", "5", "--primitives", "degree"], None, "fixed-point"),
            # ER(40)'s 79 survivors of round 4 have rank 40: nothing later
            # could add to their span
            (["--maxiter", "10"], [10, 26, 56, 102], "rank"),
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
        sizes = run["iteration_sizes"]
        ops = len(run["operators"])
        assert run["candidates"] == [size * ops for size in sizes[:-1]]
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
        "learn": {"maxiter": 2, "operators": ["sum"], "lam": 1.0},
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
            "lam": 1.0,
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
                                              "sweep", "distinct_rows", "nnls", "pairs"}
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
