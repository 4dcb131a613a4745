"""nlslab benchmark: time to verdict of the CLI experiments.

    python3 perfbench/run.py --workload exchange_1d --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  Each workload runs in a fresh process
(``worker.py``) that imports the checkout's ``src/nlslab``; the seed draws
the datum, and only the generated config reaches the program.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` gives the end-to-end metrics; ``--trace 1`` runs
one untraced and one traced round and gives the per-layer metrics.  Scratch
output goes to ``.perfbench_out/`` under the checkout.  See README.md.
"""

import argparse
import json
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Start-up-only processes per run, besides the workload's own; half run
# before the workload and half after, so the median spans the whole run
# rather than one stretch of host load.
SETUP_SAMPLES = 8
DEADLINE_S = 170.0  # one workload's whole run, set-up samples included


class BenchError(Exception):
    pass


def spawn(args, out, deadline):
    """Run one worker; return (seconds from spawn to its ``ready`` line,
    its result dict or None).  The worker is killed if it outlives the
    deadline, and always waited for."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            proc.kill()
            raise BenchError(f"worker {args[0]} did not get ready (exit {proc.wait()})")
        code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} overran the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker {args[0]} exited with {code}")
    result = None
    if out is not None:
        result = json.loads((out / "result.json").read_text())
    return setup_s, result


def tally(results):
    """attempted/failed over every call; ``correct`` is false when a call
    that exited 0 gave a verdict that fails a property check."""
    calls = [c for r in results for rnd in r["rounds"] for c in rnd]
    failed = [c for c in calls if c["exit"] != 0 or c["problems"]]
    for c in failed:
        print(f"failed call {c['name']}: exit {c['exit']}; "
              + "; ".join(c["problems"]), file=sys.stderr)
    correct = not any(c["exit"] == 0 and c["problems"] for c in calls)
    return correct, len(calls), len(failed)


def verdict_s(result):
    """Median over the rounds whose calls all succeeded of the round's
    summed CLI wall-clock; None when no round succeeded."""
    ok = [sum(c["seconds"] for c in rnd) for rnd in result["rounds"]
          if all(c["exit"] == 0 and not c["problems"] for c in rnd)]
    return statistics.median(ok) if ok else None


def run_workload(name, seed, seconds, trace, overrides):
    workload = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    out = ROOT / ".perfbench_out" / (name + ("-trace" if trace else ""))
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = workload.config(seed)
    for item in overrides:
        key, _, value = item.partition("=")
        section, _, field = key.partition(".")
        config.setdefault(section, {})[field] = json.loads(value)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config, indent=1, sort_keys=True))
    common = ["--workload", name, "--config", str(config_path)]

    if not trace:
        def setup_samples(n):
            return [spawn(["setup", *common], None, deadline)[0] for _ in range(n)]

        samples = setup_samples(SETUP_SAMPLES // 2)
        setup_s, result = spawn(["run", *common, "--out", str(out),
                                 "--seconds", str(seconds)], out, deadline)
        samples += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        correct, attempted, failed = tally([result])
        metrics = {
            "verdict_s": (verdict_s(result), "s"),
            "setup_s": (statistics.median(samples + [setup_s]), "s"),
            "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
        }
        results = [result]
    else:
        plain_out, traced_out = out / "untraced", out / "traced"
        plain_out.mkdir()
        traced_out.mkdir()
        _, plain = spawn(["run", *common, "--out", str(plain_out)], plain_out, deadline)
        _, traced = spawn(["run", *common, "--out", str(traced_out), "--trace"],
                          traced_out, deadline)
        correct, attempted, failed = tally([plain, traced])
        metrics = dict(traced["layers"])
        untraced = verdict_s(plain)
        metrics["trace.overhead_s"] = (
            None if untraced is None else metrics["trace.verdict_s"][0] - untraced, "s")
        print_breakdown(traced)
        if metrics["trace.self_share"][0] < 0.9:
            print("traced spans cover less than nine tenths of the traced "
                  "wall-clock", file=sys.stderr)
            correct = False
        results = [plain, traced]
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def print_breakdown(traced):
    """Human-readable trace summary: the heaviest spans by self time, and
    the free-flow cost per grid shape against a raw FFT pair."""
    rows = sorted(traced["spans"].items(), key=lambda kv: -kv[1][1])
    print(f"{'span':44s} {'calls':>8s} {'self_s':>9s} {'total_s':>9s}")
    for name, (calls, self_s, total_s) in rows[:16]:
        print(f"{name:44s} {calls:8d} {self_s:9.3f} {total_s:9.3f}")
    for row in traced["free_propagate_shapes"]:
        shape = "x".join(map(str, row["shape"]))
        print(f"free_propagate on {shape}: {row['calls']} calls, "
              f"{row['self_us_per_call']:.1f} us self/call, raw fft pair "
              f"{row['raw_fft_pair_us']:.1f} us, gap {row['gap_us']:.1f} us")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10,
                        help="measure whole rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--override", action="append", default=[],
                        metavar="SECTION.KEY=JSON",
                        help="change one config value after the seed's draw")
    args = parser.parse_args()
    if not (ROOT / "src" / "nlslab" / "__init__.py").is_file():
        print(f"no nlslab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), args.override)
            res = results[name]
            print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
                  f"correct {res['correct']}")
            for metric, m in res["metrics"].items():
                print(f"  {metric} = {m['value']} {m['unit']}")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final), flush=True)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
