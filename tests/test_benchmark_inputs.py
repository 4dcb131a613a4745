"""The benchmark's inputs stay valid: every workload's config, CLI calls and
datum build are accepted by the program as it stands, and a gauge_1d round
passes the workload's property checks.

The benchmark runs the program only through these inputs, so a renamed
config key or CLI flag would otherwise surface as a failed benchmark run
rather than as a failed test.  Only ``perfbench/`` is read."""

import io
import json
import sys
from pathlib import Path

import pytest

from nlslab import cli, harness

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import worker  # builds a workload's grid and datum as a benchmark run does
    from workloads import WORKLOADS
finally:
    sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_accepted(name, tmp_path):
    workload = WORKLOADS[name]
    config = workload.config(1)
    merged = harness._merge_config(workload.experiment, config)
    for pass_name, flags in workload.passes:
        argv = workload.argv(tmp_path / "config.json", tmp_path / pass_name, flags)
        args = cli.build_parser().parse_args(argv)
        assert args.experiment == workload.experiment
        assert args.parallel == ("--parallel" in flags)
    datum = worker.build_datum(workload, config)
    assert datum.grid.counts == tuple(merged["grid"]["counts"])


# seed 1 and the four corners of gauge_1d's datum ranges (width, center)
@pytest.mark.parametrize("datum", [None, (0.85, -0.5), (0.85, 0.5), (1.15, -0.5), (1.15, 0.5)],
                         ids=["seed_1", "narrow_left", "narrow_right", "wide_left", "wide_right"])
def test_gauge_round_passes_its_checks(datum, tmp_path):
    # a step that broke the agreement of the two gauge directions would fail
    # here rather than as an incorrect benchmark verdict
    workload = WORKLOADS["gauge_1d"]
    config = workload.config(1)
    if datum is not None:
        config["datum"].update(width=datum[0], center=datum[1])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    calls = worker.run_round(workload, config_path, tmp_path, io.StringIO())
    assert [(c["exit"], c["problems"]) for c in calls] == [(0, [])] * len(workload.passes)
