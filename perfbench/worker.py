"""One benchmark process: ``setup`` times start-up alone, ``run`` runs a
workload's rounds through ``nlslab.cli.main``.

Started by ``run.py`` from the root of a checkout; it imports the nlslab in
the checkout's ``src`` and nothing else.  ``run`` writes one line ``ready``
to stdout once nlslab is imported and the workload's grid and datum are
built, then writes its result as JSON to ``<out>/result.json``.  The CLI's
own stdout goes to ``<out>/cli.log``.
"""

import argparse
import contextlib
import copy
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import nlslab  # noqa: E402
from nlslab import cli, harness  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_report  # noqa: E402

if not Path(nlslab.__file__).resolve().is_relative_to(HERE.parent / "src"):
    sys.exit(f"nlslab was imported from {nlslab.__file__}, not from this checkout")


def build_datum(workload, config):
    """Build the workload's grid and datum once, as the program does."""
    merged = copy.deepcopy(harness.DEFAULTS[workload.experiment])
    for section, values in config.items():
        merged[section].update(values)
    grid = nlslab.GridDescriptor.centered(merged["grid"]["counts"],
                                          merged["grid"]["spacings"])
    return nlslab.make_datum(nlslab.InitialDatumSpec(**merged["datum"]), grid)


def run_round(workload, config_path, out, log):
    """One round: every call of the workload, then its property checks."""
    calls, reports = [], {}
    for name, flags in workload.passes:
        pass_out = out / name
        argv = workload.argv(config_path, pass_out, flags)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log):
                code = cli.main(argv)
        except Exception:  # a traceback is a failed call, not a dead benchmark
            traceback.print_exc()
            code = "exception"
        seconds = time.perf_counter() - start
        problems = []
        if code == 0:
            report = json.loads(workload.report_path(pass_out).read_text())
            problems = check_report(report)
            reports[name] = report
        calls.append({"name": name, "exit": code, "seconds": seconds,
                      "problems": problems})
    if len(reports) == len(workload.passes) and workload.check is not None:
        round_problems = workload.check(reports)
        for call in calls:
            call["problems"] += round_problems
    return calls


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    config = json.loads(args.config.read_text())

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    build_datum(workload, config)
    print("ready", flush=True)
    if args.mode == "setup":
        return

    setup = (len(tracer.spans), tracer.fft_calls) if tracer else None
    rounds = []
    with open(args.out / "cli.log", "w") as log:
        start = time.perf_counter()
        while True:
            rounds.append(run_round(workload, args.config, args.out, log))
            if time.perf_counter() - start >= args.seconds:
                break
    result = {
        "rounds": rounds,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        verdict = statistics.median(sum(c["seconds"] for c in r) for r in rounds)
        metrics, shapes, spans = layer_metrics(tracer, *setup, verdict)
        result.update(layers=metrics, free_propagate_shapes=shapes, spans=spans)
        tracer.write(args.out / "spans.csv")
    (args.out / "result.json").write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
