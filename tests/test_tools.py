"""The scripts under tools/: the run comparison of two source trees, and
the paired benchmark runs of two checkouts."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "compare_runs", ROOT / "tools" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


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


def _bench_result(verdict_s, correct=True, failed=0):
    """A perfbench result object with the three end-to-end metrics."""
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {"verdict_s": {"value": verdict_s, "unit": "s"},
                        "setup_s": {"value": 0.2, "unit": "s"},
                        "peak_rss_mib": {"value": 48.0, "unit": "MiB"}}}


def test_pairs_alternate_the_side_that_runs_first(tmp_path):
    roots = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    calls = []

    def run(root, workload, seed):
        calls.append((root.name, workload, seed))
        return _bench_result(1.0)

    pairs = bench_pairs.run_pairs(roots, "exchange_1d", 3, 5, run)
    assert calls == [("parent", "exchange_1d", 5), ("change", "exchange_1d", 5),
                     ("change", "exchange_1d", 6), ("parent", "exchange_1d", 6),
                     ("parent", "exchange_1d", 7), ("change", "exchange_1d", 7)]
    assert [pair["first"] for pair in pairs] == ["parent", "change", "parent"]
    assert all(pair["refused"] is None for pair in pairs)


def test_pair_with_a_failed_side_is_refused(tmp_path):
    roots = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    results = iter([_bench_result(1.0), _bench_result(0.9),
                    _bench_result(0.8, failed=1), _bench_result(1.1),
                    _bench_result(1.2), _bench_result(1.3, correct=False),
                    _bench_result(1.0), None,
                    _bench_result(1.1), _bench_result(1.0)])
    pairs = bench_pairs.run_pairs(roots, "gauge_1d", 5, 1, lambda *args: next(results))
    assert [pair["refused"] for pair in pairs] == [
        None, "change: 1 of 4 calls failed or incorrect",
        "change: 0 of 4 calls failed or incorrect", "parent: no result", None]
    # the two accepted pairs alone make the statistics
    stats = bench_pairs.summary(pairs)
    assert stats["verdict_s"]["parent"] == [1.0, 1.1]
    assert stats["verdict_s"]["change"] == [0.9, 1.0]
    lines = bench_pairs.report_lines("gauge_1d", pairs, stats)
    assert lines[0] == "gauge_1d: 2 of 5 pairs accepted, seeds 1-5"
    assert lines[1] == "  pair 1 (seed 2) refused: change: 1 of 4 calls failed or incorrect"
    assert bench_pairs.summary(pairs[1:4]) is None


def test_statistics_on_fixed_numbers():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    s = bench_pairs.compare(parent, [0.5, 2.5, 3.0, 2.0, 4.0])
    assert s["parent_median"] == 3.0 and s["change_median"] == 2.5
    assert s["parent_quartiles"] == [2.0, 4.0] and s["change_quartiles"] == [2.0, 3.0]
    assert s["parent_iqr"] == 2.0
    assert s["ratio_of_medians"] == pytest.approx(2.5 / 3.0)
    # pair 1 (2.5 against 2.0) is higher and pair 2 a tie
    assert s["change_lower_in"] == "3/5"
    # a move of 0.5 within the parent's IQR of 2
    assert s["move"] == "unresolved"
    s = bench_pairs.compare(parent, [v - 2.5 for v in parent])
    assert s["change_lower_in"] == "5/5" and s["move"] == "lower"
    s = bench_pairs.compare(parent, [v + 2.5 for v in parent])
    assert s["change_lower_in"] == "0/5" and s["move"] == "higher"
