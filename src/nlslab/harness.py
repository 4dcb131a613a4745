"""Experiment configuration, the initial-datum library, and the dispatch
driver behind the command-line interface.

Configs are JSON with one section per concern; every field has a default
(the table below) and the fully resolved config is echoed into the report,
so a report is always reproducible from its own params block.
"""

from __future__ import annotations

import copy
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import io as snapshot_io
from .born import (
    QuadratureSpec,
    _check_subcritical_window,
    corollary2_sides,
    subcritical_sides,
)
from .core import (
    ComplexField,
    GridDescriptor,
    diagnostics,
    field_from_function,
    free_propagate,
    l2_difference,
    l2_norm,
)
from .errors import ConfigError, NlslabError, SnapshotFormatError
from .reports import VerificationReport, write_csv_table
from .scattering import (
    inverse_wave_operators,
    verify_conjugation,
    verify_lemma23,
    verify_proposition,
    verify_theorem1,
    wave_operator,
)
from .solvers import (
    BOUNDARY_TOL,
    TAIL_TOL,
    DNLSParams,
    NLSParams,
    dnls_evolve,
    nls_evolve,
)
from .transforms import (
    GaugeParams,
    SnapshotAtTime,
    gauge,
    pseudo_conformal,
    reflect,
    spectral_profile_decay_ladder,
)
from .util import fit_loglog_slope

EXPERIMENTS = (
    "solve",
    "wave_op",
    "thm1",
    "conjugation",
    "corollary2",
    "proposition",
    "dnls_gauge",
    "subcritical",
    "lemmas",
)

# Physics defaults, one entry per experiment.  Grids are (dim, counts, h);
# horizons, steps and tolerances follow the sizing worked out in the tests.
DEFAULTS = {
    "solve": {
        "grid": {"dim": 1, "counts": [1024], "spacings": [0.04]},
        "equation": {"sigma": 2.0, "mu": 1.0},
        "datum": {"kind": "gaussian", "amplitude": 0.5, "width": 1.0,
                  "center": 0.0, "wavenumber": 0.0, "normalize": None,
                  "path": None},
        "evolve": {"t0": 0.0, "t1": 1.0, "dt": 1e-3},
        "verify": {"mass_drift_tol": 1e-11, "reversibility_tol": 1e-9,
                   "spectral_checks": True, "order_check": True},
        "output": {"snapshots": False, "snapshot_stride": 0},
    },
    "wave_op": {
        "grid": {"dim": 1, "counts": [1024], "spacings": [0.25]},
        "equation": {"sigma": 2.0, "mu": 1.0},
        "datum": {"kind": "gaussian", "amplitude": 0.15, "width": 1.0,
                  "center": 0.0, "wavenumber": 0.0, "normalize": None,
                  "path": None},
        "scattering": {"horizon": 6.0, "dt": 0.04},
        "verify": {"tolerance": 2e-4},
    },
    "thm1": {
        "grid": {"dim": 1, "counts": [4096], "spacings": [0.55]},
        "equation": {"sigma": 2.0, "mu": 1.0},
        "datum": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0,
                  "center": 0.0, "wavenumber": 0.0, "normalize": 0.3,
                  "path": None},
        "scattering": {"horizon": 200.0, "dt": 0.025},
        "verify": {"tolerance": 1e-3, "double_horizon": True,
                   "doubled_counts": [8192]},
    },
    "conjugation": {
        "grid": {"dim": 1, "counts": [4096], "spacings": [0.55]},
        "equation": {"sigma": 2.0, "mu": 1.0},
        "datum": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0,
                  "center": 0.0, "wavenumber": 0.0, "normalize": 0.3,
                  "path": None},
        "scattering": {"horizon": 200.0, "dt": 0.025},
        "verify": {"tolerance": 1e-3},
    },
    "corollary2": {
        "grid": {"dim": 1, "counts": [1024], "spacings": [0.039]},
        "datum": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0,
                  "center": 0.0, "wavenumber": 0.0, "normalize": None,
                  "path": None},
        "quadrature": {"t_max": 25600.0, "panels": 80},
        "verify": {"tolerance": 1e-4, "refinement_tol": 1e-6},
    },
    "proposition": {
        "grid": {"dim": 1, "counts": [4096], "spacings": [0.34]},
        "datum": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0,
                  "center": 0.0, "wavenumber": 0.0, "normalize": 1.0,
                  "path": None},
        "scattering": {"dt": 0.01},
        "quadrature": {"t_max": 20000.0, "panels": 64},
        "verify": {"deltas": [0.4, 0.2, 0.1], "slope_margin": 0.5},
    },
    "dnls_gauge": {
        "grid": {"dim": 1, "counts": [2048], "spacings": [0.0195]},
        "equation": {"lambda": 1.0},
        "datum": {"kind": "sech", "amplitude": 0.3, "width": 1.0,
                  "center": 0.0, "wavenumber": 0.0, "normalize": None,
                  "path": None},
        "evolve": {"t0": 0.0, "t1": 1.0, "dt": 2e-4,
                   "checkpoints": [0.25, 0.5, 0.75, 1.0]},
        "verify": {"tolerance": 1e-5, "inverse_tol": 1e-12,
                   "order_check": True, "mass_drift_tol": 1e-8},
    },
    "subcritical": {
        "grid": {"dim": 1, "counts": [1024], "spacings": [0.039]},
        "equation": {"sigma": 1.5},
        "datum": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0,
                  "center": 0.0, "wavenumber": 0.0, "normalize": None,
                  "path": None},
        "quadrature": {"t_max": 1e9, "panels": 144},
        "verify": {"tolerance": 1e-4, "refinement_tol": 1e-6},
    },
    "lemmas": {
        "grid": {"dim": 1, "counts": [4096], "spacings": [0.004]},
        "equation": {"sigma": 2.0, "mu": 1.0},
        "datum": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0,
                  "center": 0.0, "wavenumber": 0.0, "normalize": 0.3,
                  "path": None},
        "scattering": {"horizon": 80.0, "dt": 0.02},
        "lemma1_grid": {"dim": 1, "counts": [4096], "spacings": [0.2]},
        "scattering_grid": {"dim": 1, "counts": [4096], "spacings": [0.55]},
        "verify": {"ladder_times": [10.0, 20.0, 40.0, 80.0],
                   "slope_bound": -0.4, "match_tol": 1e-2,
                   "involution_tol": 1e-6},
    },
}


@dataclass(frozen=True)
class InitialDatumSpec:
    kind: str
    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0
    wavenumber: float = 0.0
    normalize: float | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "modulated_gaussian", "sech", "file"):
            raise ConfigError(f"unknown datum kind {self.kind!r}")
        if self.kind == "file" and not self.path:
            raise ConfigError("file datum needs a path")


def make_datum(spec: InitialDatumSpec, grid: GridDescriptor) -> ComplexField:
    """Sample the requested datum and require it to be resolved."""
    if spec.kind == "file":
        try:
            f = snapshot_io.read_snapshot(spec.path)
        except (OSError, SnapshotFormatError) as exc:
            raise ConfigError(f"cannot read datum file {spec.path}: {exc}") from exc
        if f.grid.counts != grid.counts:
            _fail_datum("snapshot grid does not match the configured grid")
        field = f
    else:
        a, w, c, k = spec.amplitude, spec.width, spec.center, spec.wavenumber

        if spec.kind in ("gaussian", "modulated_gaussian"):
            def fn(*coords):
                r2 = sum((x - c) ** 2 for x in coords)
                phase = np.exp(1j * k * coords[0]) if k else 1.0
                return a * np.exp(-r2 / (2.0 * w * w)) * phase
        else:  # sech
            if grid.dim != 1:
                raise ConfigError("sech datum is one-dimensional")

            def fn(x):
                return a / np.cosh((x - c) / w) * np.exp(1j * k * x)

        field = field_from_function(grid, fn)
    if spec.normalize is not None:
        nrm = l2_norm(field)
        if nrm == 0:
            _fail_datum("cannot normalize a zero datum")
        field = field.with_values(field.values * (spec.normalize / nrm))
    d = diagnostics(field)
    if d.spectral_tail_fraction > 1e-8 or d.boundary_mass_fraction > 1e-8:
        _fail_datum(
            f"datum unresolved on the grid: tail {d.spectral_tail_fraction:.2e}, "
            f"boundary {d.boundary_mass_fraction:.2e}"
        )
    return field


def _fail_datum(msg):
    raise NlslabError(f"make_datum: {msg}")


def _merge_config(experiment, overrides):
    if experiment not in DEFAULTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    resolved = copy.deepcopy(DEFAULTS[experiment])
    overrides = dict(overrides or {})
    overrides.pop("experiment", None)
    for section, value in overrides.items():
        if section not in resolved:
            raise ConfigError(
                f"unknown config section {section!r} for experiment {experiment!r}"
            )
        if not isinstance(value, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, v in value.items():
            if key not in resolved[section]:
                raise ConfigError(
                    f"unknown key {section}.{key} for experiment {experiment!r}"
                )
            resolved[section][key] = v
    return resolved


def load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


@contextmanager
def _config_values(section):
    """Report a value that a conversion or a constructor rejects as a
    ConfigError."""
    try:
        yield
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad {section} section: {exc}") from exc


def _numbers(values, convert=float):
    """A non-empty list of numbers, each passed through ``convert``."""
    if not isinstance(values, (list, tuple)) or not values:
        raise TypeError(f"expected a non-empty list of numbers, got {values!r}")
    return [convert(v) for v in values]


def _optional_float(value):
    return None if value is None else float(value)


def _section_floats(config, section, *keys):
    """The named numbers of one section, read before any work starts."""
    with _config_values(section):
        return [float(config[section][k]) for k in keys]


def _grid_from(section, name="grid"):
    with _config_values(name):
        grid = GridDescriptor.centered(
            tuple(section["counts"]), tuple(section["spacings"])
        )
        if int(section["dim"]) != grid.dim:
            raise ValueError(f"dim {section['dim']!r} does not match counts "
                             f"{list(grid.counts)}")
        return grid


def _nls_params_from(section, dim):
    with _config_values("equation"):
        return NLSParams(dim=dim, sigma=float(section["sigma"]), mu=float(section["mu"]))


def _datum_from(section):
    with _config_values("datum"):
        return InitialDatumSpec(
            kind=section["kind"],
            amplitude=float(section["amplitude"]),
            width=float(section["width"]),
            center=float(section["center"]),
            wavenumber=float(section["wavenumber"]),
            normalize=_optional_float(section["normalize"]),
            path=section["path"],
        )


def _positive(section, key):
    """One positive finite number of a section, read inside ``_config_values``."""
    value = float(section[key])
    if not (0 < value < np.inf):
        raise ValueError(f"{key} must be positive and finite")
    return value


def _scattering_from(section):
    """The horizon and time step of a ``scattering`` section."""
    with _config_values("scattering"):
        return _positive(section, "horizon"), _positive(section, "dt")


def _quadrature_from(section):
    with _config_values("quadrature"):
        return QuadratureSpec(
            t_max=float(section["t_max"]), panels=int(section["panels"])
        )


def run(experiment, overrides=None, out_dir=None, parallel=False):
    """Execute one experiment; write report and tables; return the report.

    Every experiment goes through here: the resolved config, the one timer,
    and the grid and datum of the ``grid``/``datum`` sections are set up
    once, and the runner adds only its identity's residuals.  ``parallel``
    is echoed into the params; it selects no different computation.
    """
    config = _merge_config(experiment, overrides)
    started = time.monotonic()
    grid = _grid_from(config["grid"])
    datum = make_datum(_datum_from(config["datum"]), grid)
    report = _RUNNERS[experiment](config, grid, datum)
    report.grid = {"counts": list(grid.counts), "spacings": list(grid.spacings)}
    report.params.update(experiment=experiment, config=config, parallel=bool(parallel))
    report.stamp(started)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{experiment}_report.json").write_text(report.to_json())
        for name, rows in report.ladders.items():
            if rows and isinstance(rows[0], (list, tuple)):
                width = len(rows[0])
                header = {
                    2: ["abscissa", "value"],
                    3: ["delta", "coefficient_error", "remainder"],
                }.get(width, [f"col{i}" for i in range(width)])
                write_csv_table(out / f"{experiment}_{name}.csv", header, rows)
        for name, fld in getattr(report, "_snapshots", {}).items():
            snapshot_io.write_snapshot(out / f"{experiment}_{name}.nlsf", fld)
    return report


# --- individual experiment runners -------------------------------------


def _spectral_soundness_residuals(report, grid):
    """Transform round-trip, Plancherel, closed-form free flow, group law,
    and the free-group factorization, on a reference Gaussian."""
    from .core import POSITION, dilate, forward_fourier, inverse_fourier, \
        quadratic_phase, resample

    ref_grid = GridDescriptor.centered((2048,), (0.08,))
    f = field_from_function(ref_grid, lambda x: np.exp(-0.5 * x**2))
    rng = np.random.default_rng(12345)
    spec_vals = np.zeros(ref_grid.size, dtype=np.complex128)
    dual = ref_grid.dual()
    xi = dual.axis_coords(0)
    band = np.abs(xi) <= 0.25 * np.abs(xi).max()
    spec_vals[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(
        band.sum()
    )
    rand = inverse_fourier(ComplexField(dual, spec_vals, "frequency"))
    fhat = forward_fourier(rand)
    report.add_residual(
        "transform_round_trip",
        l2_difference(inverse_fourier(fhat), rand) / l2_norm(rand),
        1e-12,
    )
    report.add_residual(
        "plancherel", abs(l2_norm(fhat) - l2_norm(rand)) / l2_norm(rand), 1e-12
    )
    worst = 0.0
    x = ref_grid.axis_coords(0)
    for t in (1.0, 5.0, 10.0):
        out = free_propagate(f, t)
        exact = (1.0 + 1j * t) ** -0.5 * np.exp(-(x**2) / (2.0 * (1.0 + 1j * t)))
        worst = max(
            worst,
            float(np.sqrt(ref_grid.cell_volume * np.sum(np.abs(out.values - exact) ** 2))),
        )
    report.add_residual("free_gaussian_closed_form", worst, 1e-8)
    a = free_propagate(free_propagate(rand, 0.3), 0.7)
    b = free_propagate(rand, 1.0)
    report.add_residual("group_law", l2_difference(a, b) / l2_norm(rand), 1e-13)
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 5.0):
        direct = free_propagate(f, t)
        factored = quadratic_phase(
            dilate(forward_fourier(quadratic_phase(f, t)).retagged(POSITION), t), t
        )
        worst = max(worst, l2_difference(resample(factored, ref_grid), direct))
    report.add_residual("free_group_factorization", worst, 1e-8)


def _run_solve(config, grid, datum):
    p = _nls_params_from(config["equation"], grid.dim)
    ev = config["evolve"]
    with _config_values("evolve"):
        t0, t1, dt = float(ev["t0"]), float(ev["t1"]), _positive(ev, "dt")
    drift_tol, reversibility_tol = _section_floats(
        config, "verify", "mass_drift_tol", "reversibility_tol"
    )
    with _config_values("output"):
        stride = int(config["output"]["snapshot_stride"])
    report = VerificationReport(identity="cauchy_evolution_health")
    strided = {}
    observer = None
    if stride > 0:
        step_counter = iter(range(10**9))

        def observer(t, fld):
            k = next(step_counter)
            if k % stride == 0:
                strided[f"step{k:06d}"] = fld

    u1 = nls_evolve(datum, t0, t1, p, dt, observer=observer)
    drift = abs(l2_norm(u1) ** 2 - l2_norm(datum) ** 2) / l2_norm(datum) ** 2
    report.add_residual("mass_drift", drift, drift_tol)
    back = nls_evolve(u1, t1, t0, p, dt)
    report.add_residual(
        "reversibility",
        l2_difference(back, datum) / l2_norm(datum),
        reversibility_tol,
    )
    if p.mu == 0.0:
        exact = free_propagate(datum, t1 - t0)
        report.add_residual(
            "free_propagation_exact",
            l2_difference(u1, exact) / l2_norm(datum),
            1e-12,
        )
    d = diagnostics(u1)
    report.add_residual("final_spectral_tail", d.spectral_tail_fraction, TAIL_TOL)
    report.add_residual("final_boundary_mass", d.boundary_mass_fraction, BOUNDARY_TOL)
    if config["verify"].get("spectral_checks"):
        _spectral_soundness_residuals(report, grid)
    if config["verify"].get("order_check"):
        # fixed defocusing probe: the splitting is exact when mu = 0, so the
        # configured equation cannot always measure its own order
        probe_grid = GridDescriptor.centered((512,), (0.05,))
        probe = field_from_function(probe_grid, lambda x: 0.5 * np.exp(-0.5 * x**2))
        probe_p = NLSParams(dim=1, sigma=2.0, mu=1.0)
        ref = nls_evolve(probe, 0.0, 1.0, probe_p, 0.005)
        errs = [
            l2_difference(nls_evolve(probe, 0.0, 1.0, probe_p, h), ref)
            for h in (0.04, 0.02)
        ]
        report.add_residual(
            "split_step_order_ratio_deviation", abs(errs[0] / errs[1] - 4.0), 0.5
        )
    if config["output"]["snapshots"] or strided:
        report._snapshots = dict(strided)
        if config["output"]["snapshots"]:
            report._snapshots.update({"initial": datum, "final": u1})
    report.provenance["datum"] = config["datum"]
    return report


def _run_wave_op(config, grid, datum):
    p = _nls_params_from(config["equation"], grid.dim)
    horizon, dt = _scattering_from(config["scattering"])
    [tol] = _section_floats(config, "verify", "tolerance")
    report = VerificationReport(identity="wave_operator_round_trip")
    horizons = [horizon, 2.0 * horizon]
    for sign, label in ((+1, "plus"), (-1, "minus")):
        # each operator runs at T and 2T; the 2T results go on, gated by how
        # far doubling the horizon moved them
        forward = [wave_operator(datum, sign, p, h, dt) for h in horizons]
        inverse = inverse_wave_operators(forward[1], sign, p, horizons, dt)
        for name, (short, long) in (("forward", forward), ("inverse", inverse)):
            change = l2_difference(long, short)
            report.add_residual(f"{name}_horizon_change_{label}", change, tol)
            report.ladders[f"{name}_{label}"] = [(2.0 * horizon, change)]
        rel = l2_difference(inverse[1], datum) / l2_norm(datum)
        report.add_residual(f"round_trip_{label}", rel, 2.0 * tol)
    return report


def _run_thm1(config, grid, datum):
    p = _nls_params_from(config["equation"], grid.dim)
    horizon, dt = _scattering_from(config["scattering"])
    [tol] = _section_floats(config, "verify", "tolerance")
    datum2 = None
    if config["verify"].get("double_horizon"):
        with _config_values("verify"):
            big = GridDescriptor.centered(
                _numbers(config["verify"]["doubled_counts"], int), grid.spacings
            )
        datum2 = make_datum(_datum_from(config["datum"]), big)
    report = verify_theorem1(datum, p, horizon, dt, tolerance=tol)
    if datum2 is not None:
        rep2 = verify_theorem1(datum2, p, 2.0 * horizon, dt, tolerance=tol)
        for r, r2 in zip(list(report.residuals), rep2.residuals):
            report.add_residual(f"{r2.name}_doubled_horizon", r2.value, tol)
            report.add_residual(
                f"{r.name}_decreases_with_horizon",
                r2.value / r.value if r.value > 0 else 0.0,
                1.0,
            )
    return report


def _run_conjugation(config, grid, datum):
    p = _nls_params_from(config["equation"], grid.dim)
    horizon, dt = _scattering_from(config["scattering"])
    [tol] = _section_floats(config, "verify", "tolerance")
    return verify_conjugation(datum, p, horizon, dt, tolerance=tol)


def _compare_sides(report, lhs, rhs, tolerances, names, prefix, label):
    """Add the two residuals ``names`` of one pair of quadrature sides: their
    difference and the larger refinement change, both relative to the left
    side's norm.  Their tail estimates and decay exponents go into the
    ladder ``tail_bounds_<prefix><label>``, their evaluation counts into
    ``params["evaluations"]``."""
    scale = l2_norm(lhs.field)
    difference = l2_difference(lhs.field, rhs.field) / scale
    refinement = max(lhs.refinement_delta, rhs.refinement_delta) / scale
    for name, value, tol in zip(names, (difference, refinement), tolerances):
        report.add_residual(name, value, tol)
    report.ladders[f"tail_bounds_{prefix}{label}"] = [
        ("lhs", lhs.tail_bound), ("rhs", rhs.tail_bound),
        ("lhs_decay_exponent", lhs.decay_exponent),
        ("rhs_decay_exponent", rhs.decay_exponent),
    ]
    report.params["evaluations"].update({f"{prefix}lhs_{label}": lhs.evaluations,
                                         f"{prefix}rhs_{label}": rhs.evaluations})


def _run_corollary2(config, grid, datum):
    q = _quadrature_from(config["quadrature"])
    tol, rtol = _section_floats(config, "verify", "tolerance", "refinement_tol")
    report = VerificationReport(
        identity="critical_expansion_identity",
        params={"t_max": q.t_max, "panels": q.panels, "evaluations": {}},
    )
    for sign, label in ((+1, "plus"), (-1, "minus")):
        lhs, rhs = corollary2_sides(datum, sign, q)
        names = (f"sides_difference_{label}", f"refinement_delta_{label}")
        _compare_sides(report, lhs, rhs, (tol, rtol), names, "", label)
    return report


def _run_proposition(config, grid, datum):
    q = _quadrature_from(config["quadrature"])
    with _config_values("scattering"):
        dt = _positive(config["scattering"], "dt")
    with _config_values("verify"):
        deltas = _numbers(config["verify"]["deltas"])
        margin = float(config["verify"]["slope_margin"])
        if len(deltas) < 3:
            raise ValueError("the remainder slope fit needs at least 3 deltas")
    merged = None
    for sign, label in ((+1, "plus"), (-1, "minus")):
        rep = verify_proposition(
            datum, sign, grid.dim, deltas, dt, q=q,
            tolerance_slope_margin=margin,
        )
        # each sign has its own corrector integral
        corrector = {f"{key}_{label}": rep.params.pop(key)
                     for key in list(rep.params) if key.startswith("corrector_")}
        if merged is None:
            # the +1 branch's other params and notes describe the merged
            # report, which covers both signs
            params = {k: v for k, v in rep.params.items() if k != "sign"}
            merged = replace(rep, identity="small_data_expansion_both_signs",
                             params=params, residuals=[], fitted_rates=[], ladders={})
        merged.params.update(corrector)
        merged.merge(rep, label)
    return merged


def _run_dnls_gauge(config, grid, datum):
    with _config_values("equation"):
        lam = float(config["equation"]["lambda"])
        p_nls = NLSParams(dim=1, sigma=2.0, mu=0.5 * lam * lam)
        p_dnls = DNLSParams(lam)
    ev = config["evolve"]
    with _config_values("evolve"):
        t_now, t1, dt = float(ev["t0"]), float(ev["t1"]), _positive(ev, "dt")
        checkpoints = _numbers(ev["checkpoints"])
        if checkpoints[-1] != t1:
            raise ValueError(f"the last checkpoint {checkpoints[-1]} is not t1 = {t1}")
    tol, inv_tol, drift_tol = _section_floats(
        config, "verify", "tolerance", "inverse_tol", "mass_drift_tol"
    )
    report = VerificationReport(
        identity="gauge_equivalence",
        params={"lambda": lam, "mu": 0.5 * lam * lam, "dt": dt},
    )
    # gauge pair inverse identity
    twisted = gauge(gauge(datum, GaugeParams(lam, +1)), GaugeParams(lam, -1))
    report.add_residual(
        "gauge_pair_identity",
        float(np.max(np.abs(twisted.values - datum.values))),
        inv_tol,
    )
    u, psi = datum, gauge(datum, GaugeParams(lam, +1))
    worst_fwd, worst_bwd = 0.0, 0.0
    rows = []
    for t in checkpoints:
        u = nls_evolve(u, t_now, t, p_nls, dt)
        psi = dnls_evolve(psi, t_now, t, p_dnls, dt)
        t_now = t
        fwd = l2_difference(gauge(u, GaugeParams(lam, +1)), psi) / l2_norm(psi)
        bwd = l2_difference(gauge(psi, GaugeParams(lam, -1)), u) / l2_norm(u)
        worst_fwd, worst_bwd = max(worst_fwd, fwd), max(worst_bwd, bwd)
        rows.append((t, fwd, bwd))
    report.ladders["checkpoint_residuals"] = rows
    report.add_residual("quintic_to_derivative", worst_fwd, tol)
    report.add_residual("derivative_to_quintic", worst_bwd, tol)
    drift = abs(l2_norm(psi) ** 2 - l2_norm(datum) ** 2) / l2_norm(datum) ** 2
    report.add_residual("derivative_solver_mass_drift", drift, drift_tol)
    if config["verify"].get("order_check"):
        # fixed probe well above roundoff, independent of the configured datum
        probe_grid = GridDescriptor.centered((512,), (0.08,))
        probe = field_from_function(probe_grid, lambda x: 0.5 / np.cosh(x))
        ref = dnls_evolve(probe, 0.0, 0.5, p_dnls, 0.0025 / 8)
        errs = [
            l2_difference(dnls_evolve(probe, 0.0, 0.5, p_dnls, h), ref)
            for h in (0.005, 0.0025)
        ]
        report.add_residual(
            "rk4_order_ratio_deviation", abs(errs[0] / errs[1] - 16.0), 4.0
        )
    return report


def _run_subcritical(config, grid, datum):
    with _config_values("equation"):
        sigma = float(config["equation"]["sigma"])
        _check_subcritical_window(grid.dim, sigma)
    q = _quadrature_from(config["quadrature"])
    tol, rtol = _section_floats(config, "verify", "tolerance", "refinement_tol")
    report = VerificationReport(
        identity="subcritical_weighted_identities",
        params={"sigma": sigma, "t_max": q.t_max, "panels": q.panels,
                "weight_exponent": grid.dim * sigma - 2.0, "evaluations": {}},
    )
    for sign, label in ((+1, "plus"), (-1, "minus")):
        identities = subcritical_sides(datum, sign, grid.dim, sigma, q)
        for idx, (lhs, rhs) in zip("12", identities):
            prefix = f"identity{idx}_"
            names = (f"{prefix}difference_{label}", f"{prefix}refinement_{label}")
            _compare_sides(report, lhs, rhs, (tol, rtol), names, prefix, label)
    return report


def _run_lemmas(config, grid, datum):
    p = _nls_params_from(config["equation"], grid.dim)
    horizon, dt = _scattering_from(config["scattering"])
    scat_grid = _grid_from(config["scattering_grid"], "scattering_grid")
    lemma1_grid = _grid_from(config["lemma1_grid"], "lemma1_grid")
    with _config_values("verify"):
        times = _numbers(config["verify"]["ladder_times"])
    slope_bound, match_tol, involution_tol = _section_floats(
        config, "verify", "slope_bound", "match_tol", "involution_tol"
    )
    report = verify_lemma23(
        datum, p, horizon, dt, ladder_times=times, scattering_grid=scat_grid,
        tolerance=match_tol,
    )
    # decay ladder of the static-profile route (smooth-data rate ~ t^{-1})
    profile_freq = ComplexField(
        lemma1_grid.dual(),
        make_datum(_datum_from(config["datum"]), lemma1_grid.dual()).values,
        "frequency",
    )
    ladder = spectral_profile_decay_ladder(profile_freq, times)
    report.ladders["static_profile_decay"] = ladder
    slope, _ = fit_loglog_slope(times, [e for _, e in ladder])
    report.add_rate("static_profile_decay_slope", slope)
    report.add_residual("static_profile_slope_bound", slope, slope_bound)
    # double application of the conformal map reflects the snapshot
    probe = make_datum(
        InitialDatumSpec("gaussian", amplitude=1.0, width=0.9, center=1.2),
        lemma1_grid,
    )
    worst = 0.0
    for tau in (2.3, -2.3):
        twice = pseudo_conformal(pseudo_conformal(SnapshotAtTime(probe, tau)))
        worst = max(
            worst, float(np.max(np.abs(twice.field.values - reflect(probe).values)))
        )
    report.add_residual("double_conformal_is_reflection", worst, involution_tol)
    return report


_RUNNERS = {
    "solve": _run_solve,
    "wave_op": _run_wave_op,
    "thm1": _run_thm1,
    "conjugation": _run_conjugation,
    "corollary2": _run_corollary2,
    "proposition": _run_proposition,
    "dnls_gauge": _run_dnls_gauge,
    "subcritical": _run_subcritical,
    "lemmas": _run_lemmas,
}


def default_output_dir():
    return os.environ.get("NLSLAB_OUT", "nlslab_out")
