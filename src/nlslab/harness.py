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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import io as snapshot_io
from .born import (
    QuadratureSpec,
    _check_subcritical_window,
    born_integral,
    corollary2_sides,
    subcritical_sides,
)
from .core import (
    ComplexField,
    GridDescriptor,
    diagnostics,
    dilate,
    field_from_function,
    forward_fourier,
    free_propagate,
    grids_close,
    inverse_fourier,
    l2_difference,
    l2_norm,
    quadratic_phase,
    resample,
)
from .errors import ConfigError, NlslabError, SnapshotFormatError
from .reports import VerificationReport, write_csv_table
from .scattering import (
    SIGNS,
    asymptotic_state_sides,
    conjugation_sides,
    free_return_ladder,
    inverse_wave_operator,
    is_critical,
    small_data_sweep,
    theorem1_sides,
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

# Most samples a grid may hold (16x the largest in use, 256^2 in 2D; in 1D,
# thm1's doubled 8,192); a larger grid is a config error before any array
# is allocated.
MAX_GRID_SAMPLES = 2**20


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
        if self.kind not in ("gaussian", "sech", "file"):
            raise ConfigError(f"unknown datum kind {self.kind!r}")
        if self.kind == "file" and not self.path:
            raise ConfigError("file datum needs a path")


def _grid_section(counts, spacings):
    """A grid section: its ``dim`` is the number of its counts."""
    return {"dim": len(counts), "counts": list(counts), "spacings": list(spacings)}


def _datum_section(kind="gaussian", **changes):
    """A datum section: the fields of ``InitialDatumSpec`` with ``changes``."""
    return asdict(InitialDatumSpec(kind, **changes))


# Physics defaults, one entry per experiment.  Horizons, steps and
# tolerances follow the sizing worked out in the tests.
DEFAULTS = {
    "solve": {
        "grid": _grid_section([1024], [0.04]),
        "equation": {"sigma": 2.0, "mu": 1.0},
        "datum": _datum_section(amplitude=0.5),
        "evolve": {"t1": 1.0, "dt": 1e-3},
        "output": {"snapshots": False, "snapshot_stride": 0},
    },
    "wave_op": {
        "grid": _grid_section([1024], [0.25]),
        "equation": {"sigma": 2.0, "mu": 1.0},
        "datum": _datum_section(amplitude=0.15),
        "scattering": {"horizon": 6.0, "dt": 0.04},
        "verify": {"tolerance": 2e-4},
    },
    "thm1": {
        "grid": _grid_section([4096], [0.55]),
        "equation": {"sigma": 2.0, "mu": 1.0},
        "datum": _datum_section(normalize=0.3),
        "scattering": {"horizon": 200.0, "dt": 0.025},
        "verify": {"tolerance": 1e-3, "double_horizon": True,
                   "doubled_counts": [8192]},
    },
    "conjugation": {
        "grid": _grid_section([4096], [0.55]),
        "equation": {"sigma": 2.0, "mu": 1.0},
        "datum": _datum_section(normalize=0.3),
        "scattering": {"horizon": 200.0, "dt": 0.025},
        "verify": {"tolerance": 1e-3},
    },
    "corollary2": {
        "grid": _grid_section([1024], [0.039]),
        "datum": _datum_section(),
        "quadrature": {"t_max": 25600.0, "panels": 16},
        "verify": {"tolerance": 1e-4},
    },
    "proposition": {
        "grid": _grid_section([4096], [0.34]),
        "datum": _datum_section(normalize=1.0),
        "scattering": {"dt": 0.01},
        "quadrature": {"t_max": 20000.0, "panels": 16},
        "verify": {"deltas": [0.4, 0.2, 0.1]},
    },
    "dnls_gauge": {
        "grid": _grid_section([2048], [0.0195]),
        "equation": {"lambda": 1.0},
        "datum": _datum_section("sech", amplitude=0.3),
        "evolve": {"t1": 1.0, "dt": 1e-3, "checkpoints": [0.25, 0.5, 0.75, 1.0]},
        "verify": {"tolerance": 1e-5, "order_check": True},
    },
    "subcritical": {
        "grid": _grid_section([1024], [0.039]),
        "equation": {"sigma": 1.5},
        "datum": _datum_section(),
        "quadrature": {"t_max": 1e9, "panels": 16},
        "verify": {"tolerance": 1e-4},
    },
    "lemmas": {
        "grid": _grid_section([4096], [0.004]),
        "equation": {"sigma": 2.0, "mu": 1.0},
        "datum": _datum_section(normalize=0.3),
        "scattering": {"horizon": 80.0, "dt": 0.02},
        "lemma1_grid": _grid_section([4096], [0.2]),
        "scattering_grid": _grid_section([4096], [0.55]),
        "verify": {"ladder_times": [10.0, 20.0, 40.0, 80.0]},
    },
}
EXPERIMENTS = tuple(DEFAULTS)


def make_datum(spec: InitialDatumSpec, grid: GridDescriptor) -> ComplexField:
    """Sample the requested datum and require it to be resolved.  A file
    datum must lie on ``grid``: equal counts and spacings."""
    if spec.kind == "file":
        try:
            field = snapshot_io.read_snapshot(spec.path)
        except (OSError, SnapshotFormatError) as exc:
            raise ConfigError(f"cannot read datum file {spec.path}: {exc}") from exc
        if not grids_close(field.grid, grid):
            raise ConfigError(
                f"datum file {spec.path} holds counts {list(field.grid.counts)}, "
                f"spacings {list(field.grid.spacings)}; the grid section asks for "
                f"counts {list(grid.counts)}, spacings {list(grid.spacings)}"
            )
    else:
        a, w, c, k = spec.amplitude, spec.width, spec.center, spec.wavenumber

        if spec.kind == "gaussian":
            def fn(*coords):
                r2 = sum((x - c) ** 2 for x in coords)
                phase = np.exp(1j * k * coords[0]) if k else 1.0
                return a * np.exp(-r2 / (2.0 * w * w)) * phase
        else:  # sech
            if grid.dim != 1:
                raise ConfigError("sech datum is one-dimensional")

            def fn(x):
                return a / np.cosh((x - c) / w) * np.exp(1j * k * x)

        # samples that overflow are a config error, with no warnings
        with _config_values("datum"), np.errstate(all="ignore"):
            field = field_from_function(grid, fn)
    # so is a rescale that overflows; an overflowing mass is rejected below
    with _config_values("datum"), np.errstate(all="ignore"):
        nrm = l2_norm(field)
        if spec.normalize is not None and nrm > 0:
            field = field.with_values(field.values * (spec.normalize / nrm))
            nrm = l2_norm(field)
    # every experiment divides by the datum's norm or by its mass
    if not 0 < nrm ** 2 < np.inf:
        raise ConfigError(f"make_datum: the datum's mass is zero or not finite "
                          f"(L2 norm {nrm:.3g})")
    d = diagnostics(field)
    if d.spectral_tail_fraction > 1e-8 or d.boundary_mass_fraction > 1e-8:
        raise NlslabError(
            f"make_datum: datum unresolved on the grid: tail "
            f"{d.spectral_tail_fraction:.2e}, boundary {d.boundary_mass_fraction:.2e}"
        )
    return field


# Keys whose number, or each number of whose list, must be positive.
_POSITIVE = {"dt", "horizon", "width", "spacings", "t_max", "deltas",
             "ladder_times", "normalize", "tolerance"}
# Keys that take null, and otherwise a value of the type of this one.
_NULLABLE = {"normalize": 0.0, "path": ""}
_KINDS = {bool: "true or false", str: "a string", int: "an integer",
          float: "a finite number"}


def _scalar(value, kind, positive):
    """``value`` as ``kind``, or None when ``kind`` does not take it: a bool
    takes only a bool, a string only a string, an int only an integral
    number and a float only a finite number.  A bool is not a number."""
    if kind in (bool, str):
        return value if type(value) is kind else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    if (not np.isfinite(number) or (positive and number <= 0)
            or (kind is int and not number.is_integer())):
        return None
    return kind(value)


def _typed(section, key, value, default):
    """``value`` of ``section.key`` converted by the type of ``default``; a
    list takes a non-empty list of the type of its first element.  A value
    of another type is a ConfigError."""
    if key in _NULLABLE and value is None:
        return None
    default = _NULLABLE.get(key, default)
    each = isinstance(default, list)
    kind = type(default[0] if each else default)
    positive = key in _POSITIVE
    items = value if each else [value]
    converted = ([_scalar(v, kind, positive) for v in items]
                 if isinstance(items, list) else [])
    if not converted or None in converted:
        what = "a positive finite number" if positive else _KINDS[kind]
        if each:
            what = f"a non-empty list, each element {what}"
        if key in _NULLABLE:
            what = f"null or {what}"
        raise ConfigError(f"{section}.{key} must be {what}, got {value!r}")
    return converted if each else converted[0]


def _merge_config(experiment, overrides):
    """The defaults of ``experiment`` with ``overrides`` applied, each value
    converted by the type of its default in ``DEFAULTS``."""
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
            resolved[section][key] = _typed(section, key, v, resolved[section][key])
    return resolved


def load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # bad JSON, bytes that are not UTF-8, an int too long, arrays too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


@contextmanager
def _config_values(section):
    """Report a value that a constructor rejects as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"bad {section} section: {exc}") from exc


def _grid_from(section, name="grid"):
    with _config_values(name):
        grid = GridDescriptor.centered(section["counts"], section["spacings"])
    if grid.size > MAX_GRID_SAMPLES:
        raise ConfigError(f"{name}: counts {list(grid.counts)} hold {grid.size} "
                          f"samples, more than MAX_GRID_SAMPLES = {MAX_GRID_SAMPLES}")
    if section["dim"] != grid.dim:
        raise ConfigError(f"{name}.dim {section['dim']} does not match counts "
                          f"{list(grid.counts)}")
    return grid


def _nls_params_from(section):
    with _config_values("equation"):
        return NLSParams(sigma=section["sigma"], mu=section["mu"])


def _critical_params_from(section, datum, experiment):
    """``_nls_params_from`` for a statement of Theorem 1: sigma must be 2/n."""
    p = _nls_params_from(section)
    if not is_critical(datum, p):
        raise ConfigError(f"{experiment} needs the critical power: equation.sigma "
                          f"must be 2/n = {2.0 / datum.grid.dim:g}, not {p.sigma:g}")
    return p


def _quadrature_from(section):
    with _config_values("quadrature"):
        return QuadratureSpec(t_max=section["t_max"], panels=section["panels"])


def _output_dir(path):
    """The output directory, created before the runner starts; a path that
    cannot be a directory is a ConfigError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def run(experiment, overrides=None, out_dir=None, parallel=False):
    """Execute one experiment; write report and tables; return the report.

    Every experiment goes through here: the resolved config, the one timer,
    the grid and datum of the ``grid``/``datum`` sections, the output
    directory and the one report, named by the runner table's identity, are
    set up once; the runner adds only its identity's params, residuals,
    ladders, rates and notes.  ``parallel`` is echoed into the params; it
    selects no different computation.
    """
    config = _merge_config(experiment, overrides)
    started = time.monotonic()
    grid = _grid_from(config["grid"])
    datum = make_datum(InitialDatumSpec(**config["datum"]), grid)
    out = None if out_dir is None else _output_dir(out_dir)
    identity, runner = _RUNNERS[experiment]
    report = VerificationReport(
        identity=identity,
        grid={"counts": list(grid.counts), "spacings": list(grid.spacings)},
    )
    runner(config, grid, datum, report)
    report.params.update(experiment=experiment, config=config, parallel=bool(parallel))
    report.stamp(started)
    if out is not None:
        (out / f"{experiment}_report.json").write_text(report.to_json())
        for name, header in report.csv_headers.items():
            write_csv_table(out / f"{experiment}_{name}.csv", header,
                            report.ladders[name])
        for name, fld in report.snapshots.items():
            snapshot_io.write_snapshot(out / f"{experiment}_{name}.nlsf", fld)
    return report


# --- individual experiment runners -------------------------------------


# CSV header of a ladder of (abscissa, value) pairs
_PAIR = ("abscissa", "value")
# CSV header of a ladder of named values
_NAMED = ("quantity", "value")


def _add_sides(report, sides, scale, tolerance):
    """Add ||lhs - rhs|| / ``scale`` of each (name, lhs, rhs) of ``sides``,
    in order, against ``tolerance``; return the values by name.  The pairs
    are taken one at a time and let go of once measured, so a generator's
    next pair is made while no earlier pair is held."""
    values = {}
    for name, lhs, rhs in sides:
        values[name] = l2_difference(lhs, rhs) / scale
        report.add_residual(name, values[name], tolerance)
        del lhs, rhs
    return values


def _add_ladder(report, name, header, rows):
    """Add the ladder ``rows`` under ``name``; it is also written as a CSV
    table with the column names ``header``."""
    report.ladders[name] = rows
    report.csv_headers[name] = header


def _add_decay_ladder(report, name, header, rows, monotone, rate):
    """Add the ladder ``rows`` under ``name`` with the CSV ``header``; the
    residual ``monotone``, 0 when the rows' second column strictly decreases
    and 1 otherwise (tolerance 0.5); and the rate ``rate``, the log-log slope
    of the last column against the first, which is returned."""
    _add_ladder(report, name, header, rows)
    errs = [row[1] for row in rows]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    report.add_residual(monotone, 0.0 if decreasing else 1.0, 0.5)
    slope, _ = fit_loglog_slope([row[0] for row in rows], [row[-1] for row in rows])
    report.add_rate(rate, slope)
    return slope


def _scattering_params(report, p, grid, horizon, dt):
    report.params.update(sigma=p.sigma, mu=p.mu, dim=grid.dim, horizon=horizon, dt=dt)


def _spectral_soundness_residuals(report):
    """Transform round-trip, Plancherel, closed-form free flow, group law,
    and the free-group factorization, on a reference Gaussian."""
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
    rand = inverse_fourier(ComplexField(dual, spec_vals))
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
        exact = (1.0 + 1j * t) ** -0.5 * np.exp(-(x**2) / (2.0 * (1.0 + 1j * t)))
        worst = max(worst, l2_difference(free_propagate(f, t), f.with_values(exact)))
    report.add_residual("free_gaussian_closed_form", worst, 1e-8)
    a = free_propagate(free_propagate(rand, 0.3), 0.7)
    b = free_propagate(rand, 1.0)
    report.add_residual("group_law", l2_difference(a, b) / l2_norm(rand), 1e-13)
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 5.0):
        direct = free_propagate(f, t)
        factored = quadratic_phase(dilate(forward_fourier(quadratic_phase(f, t)), t), t)
        worst = max(worst, l2_difference(resample(factored, ref_grid), direct))
    report.add_residual("free_group_factorization", worst, 1e-8)


def _run_solve(config, grid, datum, report):
    p = _nls_params_from(config["equation"])
    t1, dt = config["evolve"]["t1"], config["evolve"]["dt"]
    stride = config["output"]["snapshot_stride"]
    if stride < 0:
        raise ConfigError(f"output.snapshot_stride must be a non-negative integer, "
                          f"got {stride}")
    strided = {}
    observer = None
    if stride > 0:
        step_counter = iter(range(10**9))

        def observer(t, fld):
            k = next(step_counter)
            if k % stride == 0:
                strided[f"step{k:06d}"] = fld

    u1 = nls_evolve(datum, 0.0, t1, p, dt, observer=observer)
    drift = abs(l2_norm(u1) ** 2 - l2_norm(datum) ** 2) / l2_norm(datum) ** 2
    report.add_residual("mass_drift", drift, 1e-11)
    back = nls_evolve(u1, t1, 0.0, p, dt)
    report.add_residual(
        "reversibility", l2_difference(back, datum) / l2_norm(datum), 1e-9
    )
    if p.mu == 0.0:
        exact = free_propagate(datum, t1)
        report.add_residual(
            "free_propagation_exact",
            l2_difference(u1, exact) / l2_norm(datum),
            1e-12,
        )
    d = diagnostics(u1)
    report.add_residual("final_spectral_tail", d.spectral_tail_fraction, TAIL_TOL)
    report.add_residual("final_boundary_mass", d.boundary_mass_fraction, BOUNDARY_TOL)
    _spectral_soundness_residuals(report)
    report.add_residual(
        "split_step_order_ratio_deviation",
        abs(_order_ratio(nls_evolve, NLSParams(sigma=2.0, mu=1.0)) - 4.0), 0.5
    )
    report.snapshots.update(strided)
    if config["output"]["snapshots"]:
        report.snapshots.update(initial=datum, final=u1)


def _run_wave_op(config, grid, datum, report):
    p = _nls_params_from(config["equation"])
    horizon, dt = config["scattering"]["horizon"], config["scattering"]["dt"]
    tol = config["verify"]["tolerance"]
    horizons = [horizon, 2.0 * horizon]
    for sign, label in SIGNS:
        # each operator runs at T and 2T; the 2T results go on, gated by how
        # far doubling the horizon moved them
        forward = [wave_operator(datum, sign, p, h, dt) for h in horizons]
        inverse = [inverse_wave_operator(forward[1], sign, p, h, dt) for h in horizons]
        for name, (short, long) in (("forward", forward), ("inverse", inverse)):
            change = l2_difference(long, short)
            report.add_residual(f"{name}_horizon_change_{label}", change, tol)
            _add_ladder(report, f"{name}_{label}", _PAIR, [(2.0 * horizon, change)])
        rel = l2_difference(inverse[1], datum) / l2_norm(datum)
        report.add_residual(f"round_trip_{label}", rel, 2.0 * tol)


def _run_thm1(config, grid, datum, report):
    p = _critical_params_from(config["equation"], datum, "thm1")
    horizon, dt = config["scattering"]["horizon"], config["scattering"]["dt"]
    verify = config["verify"]
    tol = verify["tolerance"]
    datum2 = None
    if verify["double_horizon"]:
        big = _grid_from(_grid_section(verify["doubled_counts"], grid.spacings),
                         "verify")
        datum2 = make_datum(InitialDatumSpec(**config["datum"]), big)
    _scattering_params(report, p, grid, horizon, dt)
    residuals = _add_sides(report, theorem1_sides(datum, p, horizon, dt),
                           l2_norm(datum), tol)
    if datum2 is not None:
        for name, lhs, rhs in theorem1_sides(datum2, p, 2.0 * horizon, dt):
            (doubled,) = _add_sides(report, [(f"{name}_doubled_horizon", lhs, rhs)],
                                    l2_norm(datum2), tol).values()
            value = residuals[name]
            report.add_residual(f"{name}_decreases_with_horizon",
                                doubled / value if value > 0 else 0.0, 1.0)
            del lhs, rhs


def _run_conjugation(config, grid, datum, report):
    p = _critical_params_from(config["equation"], datum, "conjugation")
    horizon, dt = config["scattering"]["horizon"], config["scattering"]["dt"]
    tol = config["verify"]["tolerance"]
    _scattering_params(report, p, grid, horizon, dt)
    _add_sides(report, conjugation_sides(datum, p, horizon, dt), l2_norm(datum), tol)
    report.notes.append(
        "conjugation_sandwich residuals check a symmetry of the discrete scheme "
        "that any real-coefficient integrator satisfies (Yoshida steps at 1.1e-13): "
        "the sign and conjugation plumbing, not the continuum identity")


def _compare_sides(report, lhs, rhs, tolerance, names, prefix, label):
    """Add the two residuals ``names`` of one pair of quadrature sides: their
    difference, against ``tolerance``, and the larger refinement change,
    against 1e-6, both relative to the left side's norm.  Their tail
    estimates and decay exponents go into the ladder
    ``tail_bounds_<prefix><label>``, their evaluation counts into
    ``params["evaluations"]``."""
    scale = l2_norm(lhs.field)
    difference, refinement = names
    _add_sides(report, [(difference, lhs.field, rhs.field)], scale, tolerance)
    report.add_residual(
        refinement, max(lhs.refinement_delta, rhs.refinement_delta) / scale, 1e-6)
    _add_ladder(report, f"tail_bounds_{prefix}{label}", _NAMED, [
        ("lhs", lhs.tail_bound), ("rhs", rhs.tail_bound),
        ("lhs_decay_exponent", lhs.decay_exponent),
        ("rhs_decay_exponent", rhs.decay_exponent),
    ])
    report.params["evaluations"].update({f"{prefix}lhs_{label}": lhs.evaluations,
                                         f"{prefix}rhs_{label}": rhs.evaluations})


def _run_corollary2(config, grid, datum, report):
    q = _quadrature_from(config["quadrature"])
    tol = config["verify"]["tolerance"]
    report.params.update(t_max=q.t_max, panels=q.panels, evaluations={})
    pairs = corollary2_sides(datum, q)
    # the negative control takes the other sign's right side:
    # -K_{+s}(F phi) in place of -K_{-s}(F phi), which must miss F K_s(phi)
    for (_, label), (lhs, rhs), (_, wrong) in zip(SIGNS, pairs, pairs[::-1]):
        names = (f"sides_difference_{label}", f"refinement_delta_{label}")
        _compare_sides(report, lhs, rhs, tol, names, "", label)
        report.add_residual(f"orientation_control_{label}",
                            l2_difference(lhs.field, rhs.field)
                            / l2_difference(lhs.field, wrong.field), 0.1)


def _run_proposition(config, grid, datum, report):
    """Both signs of the small-data expansion: the coefficient-convergence
    error must decrease in delta, and the fitted remainder slope is asserted
    only against the weaker candidate rate 1 + 4/n (plus a margin); both
    claimed remainder rates are recorded since they disagree away from
    n = 4."""
    q = _quadrature_from(config["quadrature"])
    dt = config["scattering"]["dt"]
    deltas = sorted(config["verify"]["deltas"], reverse=True)
    if len(set(deltas)) < len(deltas) or len(deltas) < 3:
        raise ConfigError("verify.deltas must hold at least 3 distinct deltas "
                          "for the remainder slope fit")
    p = NLSParams(sigma=2.0 / grid.dim)
    power = 1.0 + 4.0 / grid.dim
    report.params.update(dim=grid.dim, mu=p.mu, deltas=deltas, dt=dt,
                         first_order_sign={"forward": "+i", "inverse": "-i"})
    # each sign has its own corrector integral; both come from one pair
    for (sign, label), corrector in zip(SIGNS, born_integral(datum, p.sigma, q)):
        rows = small_data_sweep(datum, sign, p, deltas, dt, corrector.field)
        report.params.update(
            {f"corrector_{key}_{label}": getattr(corrector, key)
             for key in ("tail_bound", "refinement_delta", "decay_exponent",
                         "evaluations")})
        for name, table in rows.items():
            slope = _add_decay_ladder(
                report, f"{name}_sweep_{label}",
                ("delta", "coefficient_error", "remainder"), table,
                f"{name}_coefficient_convergence_monotone_{label}",
                f"{name}_remainder_slope_{label}",
            )
            report.add_residual(
                f"{name}_remainder_slope_exceeds_first_order_{label}",
                power + 0.5 - slope,
                0.0,
            )
    report.notes.append(
        "candidate remainder rates in delta: "
        f"{4.0 / grid.dim * (2.0 + 4.0 / grid.dim):.6g} (claimed) vs "
        f"{4.0 / grid.dim * (2.0 + grid.dim / 4.0):.6g} (proof bound); "
        "only slope > first-order + margin is asserted"
    )


def _gauge_residuals(lam, u, psi):
    """||N_+ u - psi|| / ||psi|| and ||N_- psi - u|| / ||u||: how far the
    quintic field ``u`` and the derivative field ``psi`` are from being each
    other's gauge image, in each direction."""
    fwd = l2_difference(gauge(u, GaugeParams(lam, +1)), psi) / l2_norm(psi)
    bwd = l2_difference(gauge(psi, GaugeParams(lam, -1)), u) / l2_norm(u)
    return fwd, bwd


def _run_dnls_gauge(config, grid, datum, report):
    if grid.dim != 1:
        raise ConfigError(f"dnls_gauge is one-dimensional; grid.dim is {grid.dim}")
    lam = config["equation"]["lambda"]
    p_nls = NLSParams(sigma=2.0, mu=0.5 * lam * lam)
    p_dnls = DNLSParams(lam)
    t1, dt, checkpoints = (config["evolve"][k] for k in ("t1", "dt", "checkpoints"))
    if checkpoints[-1] != t1:
        raise ConfigError(f"evolve.checkpoints must end at evolve.t1 = {t1}, "
                          f"not at {checkpoints[-1]}")
    if checkpoints[0] <= 0 or any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ConfigError(f"evolve.checkpoints must increase strictly within "
                          f"(0, evolve.t1], got {checkpoints}")
    tol = config["verify"]["tolerance"]
    report.params.update({"lambda": lam, "mu": 0.5 * lam * lam, "dt": dt})
    # gauge pair inverse identity
    twisted = gauge(gauge(datum, GaugeParams(lam, +1)), GaugeParams(lam, -1))
    report.add_residual(
        "gauge_pair_identity",
        float(np.max(np.abs(twisted.values - datum.values))),
        1e-12,
    )
    t_now, u, psi = 0.0, datum, gauge(datum, GaugeParams(lam, +1))
    worst_fwd, worst_bwd, control = 0.0, 0.0, 0.0
    rows = []
    for t in checkpoints:
        u = nls_evolve(u, t_now, t, p_nls, dt)
        psi = dnls_evolve(psi, t_now, t, p_dnls, dt)
        t_now = t
        fwd, bwd = _gauge_residuals(lam, u, psi)
        worst_fwd, worst_bwd = max(worst_fwd, fwd), max(worst_bwd, bwd)
        rows.append((t, fwd, bwd))
        # the size of the effect: the same comparison with the free flow
        # U0(t) u0 in place of the quintic solution
        control = max(control, *_gauge_residuals(lam, free_propagate(datum, t), psi))
    _add_ladder(report, "checkpoint_residuals",
                ("t", "quintic_to_derivative", "derivative_to_quintic"), rows)
    report.add_residual("quintic_to_derivative", worst_fwd, tol)
    report.add_residual("derivative_to_quintic", worst_bwd, tol)
    report.params["free_flow_control"] = control
    drift = abs(l2_norm(psi) ** 2 - l2_norm(datum) ** 2) / l2_norm(datum) ** 2
    report.add_residual("derivative_solver_mass_drift", drift, 1e-8)
    if config["verify"]["order_check"]:
        report.add_residual(
            "rk4_order_ratio_deviation",
            abs(_order_ratio(dnls_evolve, DNLSParams(1.0)) - 16.0), 4.0
        )


def _order_ratio(evolve, p):
    """The three-level ratio |u(h) - u(h/2)| / |u(h/2) - u(h/4)| at
    h = 0.005, where u(h) = evolve(probe, 0, 0.5, p, h) and the probe is a
    fixed sech on 512 x 0.08, well above roundoff and independent of the
    configured datum: about 2^q for a solver of order q, with no reference
    run.

    Both callers pass fixed parameters, mu = 1 to the split step and
    lambda = 1 to the RK4, whatever the config holds: at a small coupling
    the error of either solver sits at roundoff, so the probe would measure
    nothing."""
    probe_grid = GridDescriptor.centered((512,), (0.08,))
    probe = field_from_function(probe_grid, lambda x: 0.5 / np.cosh(x))
    u = [evolve(probe, 0.0, 0.5, p, h) for h in (0.005, 0.0025, 0.00125)]
    return l2_difference(u[0], u[1]) / l2_difference(u[1], u[2])


def _run_subcritical(config, grid, datum, report):
    sigma = config["equation"]["sigma"]
    with _config_values("equation"):
        _check_subcritical_window(grid.dim, sigma)
    q = _quadrature_from(config["quadrature"])
    tol = config["verify"]["tolerance"]
    report.params.update(sigma=sigma, t_max=q.t_max, panels=q.panels,
                         weight_exponent=grid.dim * sigma - 2.0, evaluations={})
    for (_, label), identities in zip(SIGNS, subcritical_sides(datum, sigma, q)):
        for idx, (lhs, rhs) in zip("12", identities):
            prefix = f"identity{idx}_"
            names = (f"{prefix}difference_{label}", f"{prefix}refinement_{label}")
            _compare_sides(report, lhs, rhs, tol, names, prefix, label)


def _run_lemmas(config, grid, datum, report):
    p = _nls_params_from(config["equation"])
    horizon, dt = config["scattering"]["horizon"], config["scattering"]["dt"]
    scat_grid = _grid_from(config["scattering_grid"], "scattering_grid")
    if scat_grid.dim != grid.dim:
        raise ConfigError(f"scattering_grid is {scat_grid.dim}-dimensional and "
                          f"grid {grid.dim}-dimensional; the asymptotic states "
                          "are resampled from one onto the other")
    lemma1_grid = _grid_from(config["lemma1_grid"], "lemma1_grid")
    times = sorted(config["verify"]["ladder_times"])
    if len(set(times)) < len(times) or len(times) < 2:
        raise ConfigError("verify.ladder_times must hold at least 2 distinct "
                          "times for the decay slope fits")
    _scattering_params(report, p, grid, horizon, dt)
    report.params["ladder_times"] = times
    # the two boundary-matching lemmas: the conformal image's free return
    # decays along the t-ladder, and the asymptotic states match
    _add_decay_ladder(report, "free_return_to_transform", _PAIR,
                      free_return_ladder(datum, p, dt, times),
                      "ladder_monotone_decrease", "free_return_decay_slope")
    datum_s = resample(datum, scat_grid)
    _add_sides(report, asymptotic_state_sides(datum_s, p, horizon, dt),
               l2_norm(datum_s), 1e-2)
    # decay ladder of the static-profile route (smooth-data rate ~ t^{-1})
    profile = make_datum(InitialDatumSpec(**config["datum"]), lemma1_grid.dual())
    ladder = spectral_profile_decay_ladder(profile, times)
    _add_ladder(report, "static_profile_decay", _PAIR, ladder)
    slope, _ = fit_loglog_slope(times, [e for _, e in ladder])
    report.add_rate("static_profile_decay_slope", slope)
    report.add_residual("static_profile_slope_bound", slope, -0.4)
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
    report.add_residual("double_conformal_is_reflection", worst, 1e-6)


# experiment -> (report identity, runner)
_RUNNERS = {
    "solve": ("cauchy_evolution_health", _run_solve),
    "wave_op": ("wave_operator_round_trip", _run_wave_op),
    "thm1": ("fourier_exchanges_wave_operators", _run_thm1),
    "conjugation": ("conjugation_identities", _run_conjugation),
    "corollary2": ("critical_expansion_identity", _run_corollary2),
    "proposition": ("small_data_expansion_both_signs", _run_proposition),
    "dnls_gauge": ("gauge_equivalence", _run_dnls_gauge),
    "subcritical": ("subcritical_weighted_identities", _run_subcritical),
    "lemmas": ("conformal_boundary_matching", _run_lemmas),
}


def default_output_dir():
    return os.environ.get("NLSLAB_OUT", "nlslab_out")
