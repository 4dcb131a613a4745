"""Compare the end-to-end benchmark metrics of two checkouts of nlslab, run in
alternating pairs.

    python tools/bench_pairs.py PARENT CHANGE [WORKLOAD ...] --pairs N --seeds S

PARENT and CHANGE are the roots of two checkouts, such as ``git archive``
copies of two commits, each with its own ``perfbench/run.py``.  For each
WORKLOAD (default: every workload of PARENT's benchmark), pair i runs both
checkouts' ``perfbench/run.py --workload WORKLOAD --seed S+i --trace 0``,
each from its own root with PYTHONDONTWRITEBYTECODE=1, at the benchmark's
own run length; the parent runs first in even pairs and the change first in
odd ones, so that a drift in host load falls on both sides alike.  A pair in
which either side failed a call, gave an incorrect verdict or printed no
result is refused: it is named and left out of the statistics.

For each of ``verdict_s``, ``setup_s`` and ``peak_rss_mib`` the script
prints both sides' medians and quartiles over the accepted pairs, the
parent's interquartile range (IQR), the ratio of the medians (change over
parent), in how many pairs the change read lower (ties count for neither),
and the move: "lower" or "higher" when the medians differ by more than the
parent's IQR, and "unresolved" otherwise.  The last line is one JSON object
with every value and statistic.  The exit status is 0 when every pair was
accepted, and 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("verdict_s", "setup_s", "peak_rss_mib")


def first_sides(pairs):
    """The order of the two sides in each pair: the parent first in even
    pairs, the change first in odd ones."""
    return [("parent", "change") if i % 2 == 0 else ("change", "parent")
            for i in range(pairs)]


def run_side(root, workload, seed):
    """One run of ``root``'s benchmark on ``workload`` for ``seed``: its
    result object, or None when it printed none."""
    proc = subprocess.run(
        [sys.executable, str(Path(root) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=root, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


def refusal(result):
    """Why a side's result cannot count, or None when it can."""
    if result is None:
        return "no result"
    if not result["correct"] or result["failed"]:
        return f"{result['failed']} of {result['attempted']} calls failed or incorrect"
    return None


def run_pairs(roots, workload, pairs, first_seed, run=run_side):
    """The pairs of one workload: per pair its seed, the side that ran
    first, each side's result and the reason it was refused (or None).
    ``roots`` maps "parent" and "change" to their checkouts."""
    out = []
    for i, sides in enumerate(first_sides(pairs)):
        seed = first_seed + i
        results = {side: run(roots[side], workload, seed) for side in sides}
        why = [f"{side}: {reason}" for side in sides
               if (reason := refusal(results[side])) is not None]
        out.append({"seed": seed, "first": sides[0], "results": results,
                    "refused": "; ".join(why) or None})
    return out


def quartiles(values):
    """(first quartile, median, third quartile), by linear interpolation
    between the order statistics."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(parent, change):
    """The statistics of one metric over pairs: ``parent[i]`` and
    ``change[i]`` were read in pair i."""
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    iqr = p3 - p1
    if abs(cmed - pmed) <= iqr:
        move = "unresolved"
    else:
        move = "lower" if cmed < pmed else "higher"
    return {"parent": parent, "change": change,
            "parent_median": pmed, "change_median": cmed,
            "parent_quartiles": [p1, p3], "change_quartiles": [c1, c3],
            "parent_iqr": iqr, "ratio_of_medians": cmed / pmed,
            "change_lower_in": f"{sum(c < p for p, c in zip(parent, change))}/{len(parent)}",
            "move": move}


def summary(pairs):
    """Per metric, ``compare`` over the accepted pairs; None when fewer
    than two were accepted."""
    kept = [pair["results"] for pair in pairs if pair["refused"] is None]
    if len(kept) < 2:
        return None
    return {metric: compare(*([r[side]["metrics"][metric]["value"] for r in kept]
                              for side in ("parent", "change")))
            for metric in METRICS}


def report_lines(workload, pairs, stats):
    """The printed summary of one workload."""
    kept = sum(pair["refused"] is None for pair in pairs)
    lines = [f"{workload}: {kept} of {len(pairs)} pairs accepted, seeds "
             f"{pairs[0]['seed']}-{pairs[-1]['seed']}"]
    lines += [f"  pair {i} (seed {pair['seed']}) refused: {pair['refused']}"
              for i, pair in enumerate(pairs) if pair["refused"] is not None]
    if stats is None:
        return lines + ["  fewer than two accepted pairs: no statistics"]
    for metric, s in stats.items():
        lines.append(
            f"  {metric:13s} parent {s['parent_median']:.4g} "
            f"[{s['parent_quartiles'][0]:.4g}, {s['parent_quartiles'][1]:.4g}]  "
            f"change {s['change_median']:.4g} "
            f"[{s['change_quartiles'][0]:.4g}, {s['change_quartiles'][1]:.4g}]  "
            f"parent IQR {s['parent_iqr']:.3g}  ratio {s['ratio_of_medians']:.3f}  "
            f"lower in {s['change_lower_in']}  {s['move']}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent's checkout")
    parser.add_argument("change", type=Path, help="root of the change's checkout")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help="benchmark workloads (default: all of the parent's)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--seeds", type=int, default=1, metavar="S",
                        help="the seed of the first pair; pair i runs seed S+i")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{root} holds no perfbench/run.py")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    workloads = args.workloads
    if not workloads:
        benchmark = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in benchmark["workloads"]]
    everything, accepted = {}, True
    for workload in workloads:
        pairs = run_pairs(roots, workload, args.pairs, args.seeds)
        stats = summary(pairs)
        print("\n".join(report_lines(workload, pairs, stats)), flush=True)
        accepted &= all(pair["refused"] is None for pair in pairs)
        everything[workload] = {
            "pairs": [{key: pair[key] for key in ("seed", "first", "refused")}
                      for pair in pairs],
            "metrics": stats}
    print(json.dumps(everything))
    return 0 if accepted else 1


if __name__ == "__main__":
    sys.exit(main())
