"""The scripts under tools/: the run comparison of two source trees."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "compare_runs", ROOT / "tools" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


def test_tree_compared_with_itself_is_byte_identical(tmp_path):
    config = tmp_path / "light.json"
    config.write_text(json.dumps({"evolve": {"t1": 0.05}, "output": {"snapshots": True}}))
    run = compare_runs.extra_run(1, f"solve:{config}")
    assert run == ("1_solve", ["solve", "--config", str(config)])
    src = ROOT / "src"
    assert compare_runs.compare_trees(src, src, [run]) == []


def test_workload_runs_follow_the_benchmark(tmp_path):
    workloads = compare_runs.benchmark_workloads()
    quad = workloads["expansion_quad"]
    runs = compare_runs.extra_runs(3, "workload:expansion_quad:7", tmp_path)
    config = tmp_path / "3_expansion_quad_seed7.json"
    # one run for each pass of a round: the sequential and --parallel calls
    assert runs == [(f"3_expansion_quad_{name}",
                     [quad.experiment, "--config", str(config), *flags])
                    for name, flags in quad.passes]
    assert json.loads(config.read_text()) == quad.config(7)
    # the seed defaults to 1, as in the byte-identity checks
    (label, argv), = compare_runs.extra_runs(4, "workload:exchange_1d", tmp_path)
    assert label == "4_exchange_1d_main" and argv[0] == "thm1"
    assert json.loads(Path(argv[2]).read_text()) == workloads["exchange_1d"].config(1)


@pytest.mark.parametrize("spec", ["workload:no_such", "workload:gauge_1d:x",
                                  "workload:gauge_1d:1:2", "workload:"])
def test_malformed_workload_run_rejected(spec, tmp_path):
    with pytest.raises(SystemExit, match="workload:NAME"):
        compare_runs.extra_runs(1, spec, tmp_path)


def _report(value, wall_clock_s):
    return json.dumps({"residuals": [{"name": "mass", "value": value}],
                       "ladders": {"decay": [[1.0, 0.5], [2.0, value]]},
                       "verdict": "pass", "wall_clock_s": wall_clock_s})


def test_moved_fields_are_named(tmp_path):
    for tree, value, clock in (("a", 0.25, 1.0), ("b", 0.25 + 1e-3, 2.0)):
        (tmp_path / tree / "run").mkdir(parents=True)
        (tmp_path / tree / "run" / "x_report.json").write_text(_report(value, clock))
    (tmp_path / "a" / "run" / "x_table.csv").write_text("t,v\n1.0,0.5\n")
    (tmp_path / "b" / "run" / "x_table.csv").write_text("t,v\n1.0,0.5\n")
    (tmp_path / "b" / "run" / "x_extra.csv").write_text("t,v\n")
    lines = compare_runs.compare(tmp_path / "a", tmp_path / "b", {"run": 0}, {"run": 1})
    assert lines == [
        "run: exit 0 against 1",
        "run/x_extra.csv: written by one tree only",
        "run/x_report.json ladders.decay[][]: largest move 0.001 absolute, "
        "0.00398 relative",
        "run/x_report.json residuals.mass.value: largest move 0.001 absolute, "
        "0.00398 relative",
    ]


def test_timing_fields_alone_are_no_move(tmp_path):
    for tree, clock in (("a", 1.0), ("b", 2.0)):
        (tmp_path / tree / "run").mkdir(parents=True)
        (tmp_path / tree / "run" / "x_report.json").write_text(_report(0.25, clock))
    assert compare_runs.compare(tmp_path / "a", tmp_path / "b", {"run": 0}, {"run": 0}) == []
