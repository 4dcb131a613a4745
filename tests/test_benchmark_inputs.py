"""The benchmark's inputs stay valid: every workload's config, CLI calls and
datum build are accepted by the program as it stands.

The benchmark runs the program only through these inputs, so a renamed
config key or CLI flag would otherwise surface as a failed benchmark run
rather than as a failed test.  Only ``perfbench/`` is read."""

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
