"""The benchmark's workloads: how a seed becomes a config, which CLI calls
make up one round, and the properties every verdict must have.

Each workload is a set of overrides of ``nlslab.harness.DEFAULTS`` plus a
datum drawn from the seed.  The seed only moves the datum's width and center
inside ranges on which every workload stays resolved (health checks pass and
every check below holds); grids, horizons, steps and tolerances are fixed, so
every seed does the same amount of work.  The checks are properties the
method must have, not stored copies of earlier output.
"""

import copy
import math
import random
from dataclasses import dataclass
from pathlib import Path

TIMING_FIELDS = ("wall_clock_s", "timestamp")


@dataclass(frozen=True)
class Workload:
    experiment: str
    overrides: dict
    width: tuple   # bounded range of the datum width
    center: tuple  # bounded range of the datum center
    passes: tuple = (("main", ()),)  # (name, extra CLI flags) per call of a round
    check: object = None  # extra property check over the round's reports

    def config(self, seed):
        """The overrides the program receives for this seed."""
        rng = random.Random(seed)
        cfg = copy.deepcopy(self.overrides)
        datum = cfg.setdefault("datum", {})
        datum["width"] = rng.uniform(*self.width)
        datum["center"] = rng.uniform(*self.center)
        return cfg

    def argv(self, config_path, out_dir, flags):
        return [self.experiment, "--config", str(config_path),
                "--out", str(out_dir), *flags]

    def report_path(self, out_dir):
        return Path(out_dir) / f"{self.experiment}_report.json"


def residuals(report):
    return {r["name"]: r["value"] for r in report["residuals"]}


def check_report(report):
    """Problems with one report: a failed verdict or a residual over its
    tolerance.  The tolerance comparison is redone here rather than read
    from the report's own pass flags."""
    problems = []
    if report.get("verdict") != "pass":
        problems.append(f"verdict is {report.get('verdict')!r}")
    for r in report["residuals"]:
        value, tol = r["value"], r["tolerance"]
        if not (math.isfinite(value) and value <= tol):
            problems.append(f"residual {r['name']} = {value!r} exceeds {tol!r}")
    if not report["residuals"]:
        problems.append("report holds no residuals")
    return problems


def _agree(problems, what, a, b, rtol):
    if not abs(a - b) <= rtol * max(abs(a), abs(b)):
        problems.append(f"{what}: {a!r} and {b!r} differ by more than {rtol:g} (relative)")


def _check_sign_symmetry(res, problems):
    # the datum is real, so conjugation maps the + identity onto the - one;
    # the two residuals were measured to agree to 1e-8 (1D) and 4e-6 (2D)
    _agree(problems, "sign_plus vs sign_minus", res["sign_plus"], res["sign_minus"], 1e-4)


def check_exchange_1d(reports):
    res = residuals(reports["main"])
    problems = []
    _check_sign_symmetry(res, problems)
    for label in ("plus", "minus"):
        # the horizon ladder's truncation error is O(1/T) in the 1D critical
        # case, so doubling T halves the residual
        ratio = res[f"sign_{label}_doubled_horizon"] / res[f"sign_{label}"]
        if not 0.35 <= ratio <= 0.65:
            problems.append(f"doubled-horizon ratio {label} = {ratio!r}, expected about 1/2")
    return problems


def check_exchange_2d(reports):
    problems = []
    _check_sign_symmetry(residuals(reports["main"]), problems)
    return problems


def _without_timing(report):
    out = {k: v for k, v in report.items() if k not in TIMING_FIELDS}
    out["params"] = {k: v for k, v in report["params"].items() if k != "parallel"}
    return out


def check_expansion_quad(reports):
    problems = []
    seq, par = reports["sequential"], reports["parallel"]
    if _without_timing(seq) != _without_timing(par):
        problems.append("--parallel report differs from the sequential one "
                        "beyond the timing fields and params.parallel")
    if seq["params"].get("parallel") is not False or par["params"].get("parallel") is not True:
        problems.append("params.parallel does not record the mode of each call")
    res = residuals(seq)
    # the datum is real, so the + and - half-line integrals are conjugate
    _agree(problems, "sides_difference plus vs minus",
           res["sides_difference_plus"], res["sides_difference_minus"], 1e-6)
    return problems


def check_gauge_1d(reports):
    report = reports["main"]
    res = residuals(report)
    problems = []
    # |e(dt)/e(dt/2) - 16|: fourth order puts the ratio near 16
    if not res["rk4_order_ratio_deviation"] <= 1.0:
        problems.append(f"RK4 error ratio is {16 + res['rk4_order_ratio_deviation']!r} "
                        "or less, not fourth order")
    # the gauge map is a pointwise phase, so both directions see the same error
    _agree(problems, "quintic_to_derivative vs derivative_to_quintic",
           res["quintic_to_derivative"], res["derivative_to_quintic"], 0.05)
    for t, fwd, bwd in report["ladders"]["checkpoint_residuals"]:
        _agree(problems, f"gauge directions at t={t}", fwd, bwd, 0.05)
    return problems


WORKLOADS = {
    "exchange_1d": Workload(
        experiment="thm1",
        overrides={"scattering": {"horizon": 25.0},
                   "verify": {"double_horizon": True, "doubled_counts": [4096]}},
        width=(0.9, 1.15), center=(-0.5, 0.5),
        check=check_exchange_1d,
    ),
    "exchange_2d": Workload(
        experiment="thm1",
        overrides={"grid": {"dim": 2, "counts": [256, 256], "spacings": [0.64, 0.64]},
                   "equation": {"sigma": 1.0},
                   "scattering": {"horizon": 6.0},
                   "verify": {"tolerance": 1e-2, "double_horizon": False}},
        width=(1.0, 1.2), center=(-0.3, 0.3),
        check=check_exchange_2d,
    ),
    "expansion_quad": Workload(
        experiment="corollary2",
        overrides={},
        width=(0.85, 1.15), center=(-0.5, 0.5),
        passes=(("sequential", ()), ("parallel", ("--parallel",))),
        check=check_expansion_quad,
    ),
    "gauge_1d": Workload(
        experiment="dnls_gauge",
        overrides={"evolve": {"t1": 0.25, "checkpoints": [0.125, 0.25]},
                   "verify": {"order_check": True}},
        width=(0.85, 1.15), center=(-0.5, 0.5),
        check=check_gauge_1d,
    ),
}
