"""Run two source trees of nlslab on the same experiments and compare every
file they write.

    python tools/compare_runs.py PARENT_SRC [CHANGE_SRC] [RUN ...]

PARENT_SRC and CHANGE_SRC are ``src`` directories that hold an ``nlslab``
package; CHANGE_SRC defaults to the ``src`` of this checkout.  Both trees run
the nine experiments at their defaults (``solve`` with snapshots), then each
extra RUN.  A RUN is either ``EXPERIMENT:CONFIG[:FLAG]``, an experiment, a
JSON config of overrides and, optionally, one more command-line flag such
as ``--parallel``; or ``workload:NAME[:SEED]``, every call of one round of
the benchmark workload NAME of ``perfbench/workloads.py`` on its config for
SEED (default 1).  Each tree runs in one fresh Python process that imports
that tree alone and writes no bytecode.

Reports are compared with their timing fields stripped
(``reports.strip_timing``), CSV tables and snapshots as bytes, and the exit
status of each run as well.  When all of it agrees the script prints
"byte-identical" and exits 0.  Otherwise it prints, for each field that
moved, the largest absolute and relative move (a relative move is
|a - b| / max(|a|, |b|), taken over whole arrays for snapshot samples), and
exits 1.  A field is a report's JSON path with list positions dropped and
named entries keyed by name (``residuals.sign_plus.value``), a CSV column,
or a snapshot's samples.
"""

import argparse
import csv
import importlib.util
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nlslab.harness import EXPERIMENTS  # noqa: E402
from nlslab.io import read_snapshot  # noqa: E402
from nlslab.reports import strip_timing  # noqa: E402

# Runs every run of argv[2] (a JSON list of [label, CLI argv]) through the
# CLI of the nlslab under argv[1], each into its own output folder under
# argv[3], and prints the exit codes as one JSON object.
_RUNNER = """
import contextlib, io, json, sys
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import nlslab
from nlslab import cli
if not Path(nlslab.__file__).resolve().is_relative_to(src):
    sys.exit(f"nlslab was imported from {nlslab.__file__}, not from {src}")
exits = {}
for label, argv in json.loads(sys.argv[2]):
    out = str(Path(sys.argv[3]) / label)
    with contextlib.redirect_stdout(io.StringIO()):
        exits[label] = cli.main([*argv, "--out", out])
print(json.dumps(exits))
"""


def default_runs(folder):
    """(label, CLI argv) of the nine experiments at their defaults; ``solve``
    writes its snapshots, through a config written into ``folder``."""
    snapshots = Path(folder) / "solve_snapshots.json"
    snapshots.write_text(json.dumps({"output": {"snapshots": True}}))
    return [(name, [name, "--config", str(snapshots)] if name == "solve" else [name])
            for name in EXPERIMENTS]


def extra_run(index, spec):
    """(label, CLI argv) of one ``EXPERIMENT:CONFIG[:FLAG]`` argument."""
    parts = spec.split(":", 2)
    if len(parts) < 2 or parts[0] not in EXPERIMENTS:
        raise SystemExit(f"{spec!r} is not EXPERIMENT:CONFIG[:FLAG] with an "
                         f"experiment of {', '.join(EXPERIMENTS)}")
    config = Path(parts[1]).resolve()
    if not config.is_file():
        raise SystemExit(f"no config file {config}")
    return f"{index}_{parts[0]}", [parts[0], "--config", str(config), *parts[2:]]


def benchmark_workloads():
    """The ``WORKLOADS`` table of ``perfbench/workloads.py``, imported
    without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.WORKLOADS


def workload_runs(index, spec, folder):
    """(label, CLI argv) of each call of one round of a ``workload:NAME[:SEED]``
    argument: the workload's config for SEED (default 1), written into
    ``folder``, under each of its passes' flags."""
    workloads = benchmark_workloads()
    parts = spec.split(":")
    if not (2 <= len(parts) <= 3 and parts[1] in workloads
            and (len(parts) == 2 or re.fullmatch(r"-?\d+", parts[2]))):
        raise SystemExit(f"{spec!r} is not workload:NAME[:SEED] with a NAME of "
                         f"{', '.join(workloads)} and an integer SEED")
    name, seed = parts[1], int(parts[2]) if len(parts) == 3 else 1
    workload = workloads[name]
    config = Path(folder) / f"{index}_{name}_seed{seed}.json"
    config.write_text(json.dumps(workload.config(seed)))
    return [(f"{index}_{name}_{pass_name}",
             [workload.experiment, "--config", str(config), *flags])
            for pass_name, flags in workload.passes]


def extra_runs(index, spec, folder):
    """(label, CLI argv) of each call one extra RUN argument makes."""
    if spec.startswith("workload:"):
        return workload_runs(index, spec, folder)
    return [extra_run(index, spec)]


def run_tree(src, runs, out):
    """Run ``runs`` on the nlslab under ``src`` in a fresh process; return
    the exit code of each run by label."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _RUNNER, str(src), json.dumps(runs), str(out)],
        cwd=out, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"the runs on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _report_leaves(value, path, out):
    """The leaves of a JSON value by path; entries of a list that carry a
    ``name`` are keyed by it, and other list positions are dropped."""
    if isinstance(value, dict):
        for key, item in value.items():
            _report_leaves(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            name = item.get("name") if isinstance(item, dict) else None
            _report_leaves(item, f"{path}.{name}" if name else f"{path}[{i}]", out)
    else:
        out.setdefault(re.sub(r"\[\d+\]", "[]", path), []).append(value)


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def leaves(path):
    """A written file as field -> list of values."""
    if path.suffix == ".json":
        out = {}
        _report_leaves(json.loads(strip_timing(path.read_text())), "", out)
        return out
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        return {name: [_number(row[i]) for row in rows] for i, name in enumerate(header)}
    field = read_snapshot(path)
    return {"grid": [field.grid.counts, field.grid.spacings], "values": [field.values]}


def moves(a, b):
    """The largest absolute and relative move between two lists of values,
    or None when a value that is not a number differs or the lists do not
    pair up."""
    if len(a) != len(b):
        return None
    worst_abs = worst_rel = 0.0
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray) and isinstance(y, np.ndarray):
            if x.shape != y.shape:
                return None
            step = float(np.max(np.abs(x - y), initial=0.0))
            scale = max(float(np.max(np.abs(x), initial=0.0)),
                        float(np.max(np.abs(y), initial=0.0)))
        elif (isinstance(x, (int, float)) and isinstance(y, (int, float))
              and not isinstance(x, bool) and not isinstance(y, bool)):
            if x == y:
                continue
            step, scale = abs(x - y), max(abs(x), abs(y))
        elif x == y:
            continue
        else:
            return None
        worst_abs = max(worst_abs, step)
        worst_rel = max(worst_rel, step / scale if scale else 0.0)
    return worst_abs, worst_rel


def same_file(a, b):
    if a.suffix == ".json":
        return strip_timing(a.read_text()) == strip_timing(b.read_text())
    return a.read_bytes() == b.read_bytes()


def compare(out_a, out_b, exits_a, exits_b):
    """Lines that name every difference between the two trees' runs."""
    lines = []
    for label in exits_a:
        if exits_a[label] != exits_b[label]:
            lines.append(f"{label}: exit {exits_a[label]} against {exits_b[label]}")
        dir_a, dir_b = out_a / label, out_b / label
        names = sorted({p.name for d in (dir_a, dir_b) if d.is_dir() for p in d.iterdir()})
        for name in names:
            a, b = dir_a / name, dir_b / name
            if not (a.is_file() and b.is_file()):
                lines.append(f"{label}/{name}: written by one tree only")
                continue
            if same_file(a, b):
                continue
            fields_a, fields_b = leaves(a), leaves(b)
            moved = []
            for field in sorted(fields_a.keys() | fields_b.keys()):
                move = moves(fields_a.get(field, []), fields_b.get(field, []))
                if move is None:
                    moved.append(f"{label}/{name} {field}: changed")
                elif move != (0.0, 0.0):
                    moved.append(f"{label}/{name} {field}: largest move "
                                 f"{move[0]:.3g} absolute, {move[1]:.3g} relative")
            # equal values can still be written differently
            lines += moved or [f"{label}/{name}: bytes differ"]
    return lines


def compare_trees(src_a, src_b, runs):
    """Run ``runs`` (label, CLI argv) on both trees and return the lines
    that name every difference; no line means byte-identical."""
    with tempfile.TemporaryDirectory() as tmp:
        out_a, out_b = Path(tmp) / "a", Path(tmp) / "b"
        out_a.mkdir()
        out_b.mkdir()
        exits_a = run_tree(src_a, runs, out_a)
        exits_b = run_tree(src_b, runs, out_b)
        return compare(out_a, out_b, exits_a, exits_b)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="compare the files two nlslab source trees write")
    parser.add_argument("parent", type=Path, help="src directory of the parent tree")
    parser.add_argument("rest", nargs="*", metavar="[CHANGE_SRC] RUN",
                        help="src directory of the changed tree (default: this "
                             "checkout's), then the extra runs, each "
                             "EXPERIMENT:CONFIG[:FLAG] or workload:NAME[:SEED]")
    args = parser.parse_args(argv)
    rest = list(args.rest)
    change = Path(rest.pop(0)) if rest and Path(rest[0]).is_dir() else ROOT / "src"
    with tempfile.TemporaryDirectory() as tmp:
        runs = default_runs(tmp)
        for i, spec in enumerate(rest, 1):
            runs += extra_runs(i, spec, tmp)
        lines = compare_trees(args.parent.resolve(), change.resolve(), runs)
    print("\n".join(lines) if lines else "byte-identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
