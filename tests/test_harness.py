"""Config handling, datum library, experiment driver, CLI, determinism."""

import contextlib
import copy
import functools
import io
import json
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlslab import cli
from nlslab.born import QuadratureSpec, born_integral
from nlslab.core import GridDescriptor, l2_norm
from nlslab.errors import ConfigError, NlslabError, SnapshotFormatError
from nlslab.harness import (
    DEFAULTS,
    InitialDatumSpec,
    _merge_config,
    _order_ratio,
    load_config,
    make_datum,
    run,
)
from nlslab.io import read_snapshot, write_snapshot
from nlslab.reports import strip_timing
from nlslab.solvers import YOSHIDA, DNLSParams, NLSParams, dnls_evolve, nls_evolve
from test_solvers import evolve_composed


@pytest.fixture
def grid():
    return GridDescriptor.centered((1024,), (0.04,))


class TestMakeDatum:
    def test_gaussian_samples(self, grid):
        f = make_datum(InitialDatumSpec("gaussian", amplitude=1.0, width=1.0), grid)
        x = grid.axis_coords(0)
        assert np.max(np.abs(f.values - np.exp(-0.5 * x**2))) < 1e-14

    def test_sech_norm(self, grid):
        f = make_datum(InitialDatumSpec("sech", amplitude=0.5), grid)
        assert abs(l2_norm(f) ** 2 - 0.5) < 1e-6

    def test_normalize(self, grid):
        f = make_datum(
            InitialDatumSpec("gaussian", amplitude=3.0, normalize=0.25), grid
        )
        assert abs(l2_norm(f) - 0.25) < 1e-12

    def test_modulated(self, grid):
        f = make_datum(
            InitialDatumSpec("gaussian", amplitude=1.0, wavenumber=3.0),
            grid,
        )
        x = grid.axis_coords(0)
        expected = np.exp(-0.5 * x**2) * np.exp(3j * x)
        assert np.max(np.abs(f.values - expected)) < 1e-14

    def test_unresolved_rejected(self, grid):
        k_nyq = np.pi / grid.spacings[0]
        with pytest.raises(NlslabError):
            make_datum(InitialDatumSpec("gaussian", wavenumber=0.98 * k_nyq), grid)

    def test_file_round_trip(self, grid, tmp_path):
        f = make_datum(InitialDatumSpec("gaussian", amplitude=0.7), grid)
        p = tmp_path / "datum.nlsf"
        write_snapshot(p, f)
        back = make_datum(InitialDatumSpec("file", path=str(p)), grid)
        assert np.array_equal(back.values, f.values)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            InitialDatumSpec("vortex")


class TestSnapshotFormat:
    """A malformed NLSF file is a format error, and as a datum a config
    error (exit 2), never a traceback."""

    @staticmethod
    def _header(count=64, space=b"\x00", x0=None):
        x0 = -0.25 * count if x0 is None else x0
        return (struct.pack("<4sII", b"NLSF", 1, 1)
                + struct.pack("<Qdd", count, 0.5, x0) + space)

    @pytest.mark.parametrize(
        "kind", ["random", "header_only", "short_payload", "space_byte_one",
                 "off_centre_x0", "dimension_0", "dimension_3"])
    def test_malformed_file(self, kind, tmp_path, capsys):
        if kind == "random":
            data = np.random.default_rng(3).bytes(40)
        elif kind == "header_only":
            data = struct.pack("<4sII", b"NLSF", 1, 1)
        elif kind == "dimension_0":
            # no axes: the header, the space byte and an empty payload
            data = struct.pack("<4sII", b"NLSF", 1, 0) + b"\x00"
        elif kind == "dimension_3":
            # a well-formed centred 4 x 4 x 4 grid, which no field may have
            data = (struct.pack("<4sII", b"NLSF", 1, 3)
                    + struct.pack("<Qdd", 4, 0.5, -1.0) * 3 + b"\x00" + b"\x00" * (16 * 64))
        elif kind == "short_payload":
            data = self._header() + b"\x00" * (16 * 63)
        elif kind == "off_centre_x0":
            # a grid starting at 0 instead of -N*h/2 = -16
            data = self._header(x0=0.0) + b"\x00" * (16 * 64)
        else:
            # the byte that once marked a frequency-space field
            data = self._header(space=b"\x01") + b"\x00" * (16 * 64)
        path = tmp_path / "bad.nlsf"
        path.write_bytes(data)
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"grid": {"counts": [64], "spacings": [0.5]},
             "datum": {"kind": "file", "path": str(path)}}
        ))
        code = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error:" in err and "Traceback" not in err

    def test_well_formed_header_round_trip(self, tmp_path):
        path = tmp_path / "ok.nlsf"
        path.write_bytes(self._header() + b"\x00" * (16 * 64))
        f = read_snapshot(path)
        assert f.grid.counts == (64,) and not f.values.any()

    @pytest.mark.parametrize("counts, spacings", [([64], [0.5]), ([1024], [0.08])])
    def test_off_grid_datum_file_exit_two(self, counts, spacings, tmp_path, capsys):
        # the default solve grid is 1024 x 0.04: a file datum with other
        # counts or another spacing is a config error, not a run on its own grid
        grid = GridDescriptor.centered(counts, spacings)
        path = tmp_path / "datum.nlsf"
        write_snapshot(path, make_datum(InitialDatumSpec("gaussian", amplitude=0.3), grid))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"datum": {"kind": "file", "path": str(path)},
                                   "evolve": {"t1": 0.01}}))
        code = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "Traceback" not in err


class TestConfigHandling:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            run("warp_drive")

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            run("solve", {"cooling": {}})

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            run("solve", {"evolve": {"dz": 0.1}})

    def test_defaults_echoed(self, tmp_path):
        rep = run(
            "solve",
            {"evolve": {"t1": 0.05}, "equation": {"mu": 0.0}},
            out_dir=tmp_path,
        )
        assert rep.params["config"]["evolve"]["t1"] == 0.05
        assert rep.params["config"]["evolve"]["dt"] == DEFAULTS["solve"]["evolve"]["dt"]
        data = json.loads((tmp_path / "solve_report.json").read_text())
        assert data["params"]["config"]["equation"]["mu"] == 0.0

    def test_bad_json_config(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(p)

    @pytest.mark.parametrize("content", [
        b'{"evolve": {"t1": ' + b"1" * 5000 + b"}}",  # past the int digit limit
        b'{"datum": {"kind": "\xff"}}',  # not UTF-8
        b'{"a": ' + b"[" * 100000 + b"]" * 100000 + b"}",  # nested past the stack
    ], ids=["int_past_digit_limit", "not_utf8", "nested_past_recursion_limit"])
    def test_undecodable_config(self, content, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_bytes(content)
        with pytest.raises(ConfigError):
            load_config(p)

    @pytest.mark.parametrize("experiment", sorted(DEFAULTS))
    def test_defaults_follow_their_own_schema(self, experiment):
        # every default is a value its key takes, positive keys included
        assert _merge_config(experiment, DEFAULTS[experiment]) == DEFAULTS[experiment]

    def test_values_converted_by_default_type(self):
        config = _merge_config("solve", {"grid": {"counts": [1024.0]},
                                         "evolve": {"t1": 1}})
        assert config["grid"]["counts"] == [1024]
        assert type(config["grid"]["counts"][0]) is int
        assert type(config["evolve"]["t1"]) is float


class TestSolveExperiment:
    def test_free_solve_passes(self, tmp_path):
        rep = run(
            "solve",
            {"equation": {"mu": 0.0}, "evolve": {"t1": 0.2}},
            out_dir=tmp_path,
        )
        assert rep.verdict == "pass"
        values = {r.name: r.value for r in rep.residuals}
        assert "free_propagation_exact" in values
        # the order probe is fixed, whatever the config: the three-level
        # probe reads Strang's ratio 4 to about 1e-4
        assert values["split_step_order_ratio_deviation"] < 1e-3

    def test_snapshots_written(self, tmp_path):
        run(
            "solve",
            {"evolve": {"t1": 0.05}, "output": {"snapshots": True}},
            out_dir=tmp_path,
        )
        f = read_snapshot(tmp_path / "solve_final.nlsf")
        assert f.grid.counts == (1024,)


class TestDeterminism:
    def test_reports_byte_identical_modulo_timing(self, tmp_path):
        cfg = {"evolve": {"t1": 0.1}}
        a = run("solve", cfg, out_dir=tmp_path / "a").to_json()
        b = run("solve", cfg, out_dir=tmp_path / "b").to_json()
        assert strip_timing(a) == strip_timing(b)
        ja = (tmp_path / "a" / "solve_report.json").read_text()
        jb = (tmp_path / "b" / "solve_report.json").read_text()
        assert strip_timing(ja) == strip_timing(jb)


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "nlslab.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_pass_run_exit_zero(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"evolve": {"t1": 0.05}}))
        proc = self._run("solve", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        assert "verdict: pass" in proc.stdout
        assert (tmp_path / "o" / "solve_report.json").exists()

    def test_config_error_exit_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_section": {}}))
        proc = self._run("solve", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_numerical_failure_exit_one(self, tmp_path):
        # an unresolvable datum trips the health guard -> exit 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"datum": {"wavenumber": 70.0}}))
        proc = self._run("solve", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1

    @pytest.mark.parametrize("experiment, overrides", [
        ("wave_op", {"scattering": {"horizon": -1}}),
        ("wave_op", {"scattering": {"dt": 0}}),
        ("corollary2", {"quadrature": {"panels": 2}}),
        ("solve", {"datum": {"amplitude": "x"}}),
        ("solve", {"evolve": {"t1": "x"}}),
        ("solve", {"output": {"snapshot_stride": "x"}}),
        ("wave_op", {"datum": {"width": "x"}}),
        ("subcritical", {"equation": {"sigma": "x"}}),
        ("subcritical", {"equation": {"sigma": 3.0}}),
        ("thm1", {"verify": {"doubled_counts": "ab"}}),
        ("corollary2", {"verify": {"tolerance": "x"}}),
        ("dnls_gauge", {"evolve": {"checkpoints": 5}}),
        ("proposition", {"verify": {"deltas": "abc"}}),
        ("proposition", {"verify": {"deltas": [0.4, 0.2]}}),
        ("lemmas", {"verify": {"ladder_times": [1, "x"]}}),
        ("thm1", {"output": {"snapshots": True}}),
        ("wave_op", {"scattering": {"initializer": "free"}}),
        ("lemmas", {"scattering": {"max_rungs": 3}}),
        ("thm1", {"scattering": {"max_rungs": 1}}),
        ("conjugation", {"scattering": {"tol": 1e-4}}),
        ("wave_op", {"scattering": {"ladder_factor": 2.0}}),
        ("thm1", {"scattering": {"horizon": 0}}),
        ("lemmas", {"scattering": {"horizon": 0}}),
        ("dnls_gauge", {"evolve": {"dt": 0}}),
        ("solve", {"evolve": {"dt": -1e-3}}),
        ("proposition", {"scattering": {"dt": -0.01}}),
        ("corollary2", {"quadrature": {"tail_exponent_hint": 2.0}}),
        ("solve", {"evolve": {"dt": float("inf")}}),
        ("solve", {"datum": {"kind": "modulated_gaussian"}}),
        ("lemmas", {"verify": {"ladder_times": [10.0]}}),
        ("lemmas", {"verify": {"ladder_times": [0.0, 10.0]}}),
        ("proposition", {"verify": {"deltas": [0.4, 0.2, -0.1]}}),
        ("solve", {"evolve": {"t1": float("inf")}}),
        ("solve", {"evolve": {"t1": float("nan")}}),
        ("dnls_gauge", {"evolve": {"t1": float("nan")}}),
        ("solve", {"datum": {"amplitude": float("nan")}}),
        ("solve", {"datum": {"width": 0}}),
        ("solve", {"datum": {"normalize": float("inf")}}),
        ("corollary2", {"quadrature": {"t_max": float("inf")}}),
        ("thm1", {"grid": {"counts": [1024], "spacings": [0.25]},
                  "scattering": {"horizon": 6.0, "dt": 0.04},
                  "verify": {"double_horizon": "no", "doubled_counts": [2048]}}),
        ("dnls_gauge", {"verify": {"order_check": "no"}}),
        ("solve", {"output": {"snapshots": "no"}}),
        ("solve", {"datum": {"amplitude": True}}),
        ("solve", {"grid": {"counts": [1024.7]}}),
        ("solve", {"datum": {"path": 5}}),
        ("wave_op", {"scattering": {"dt": True}}),
        ("dnls_gauge", {"grid": {"dim": 2, "counts": [64, 64], "spacings": [0.5, 0.5]},
                        "datum": {"kind": "gaussian"}}),
        ("solve", {"datum": {"normalize": 0.0}}),
        ("solve", {"datum": {"normalize": -0.3}}),
        ("solve", {"datum": {"amplitude": 0.0}}),
        ("wave_op", {"datum": {"amplitude": 0.0}}),
        ("solve", {"datum": {"amplitude": 1e200}}),
        ("lemmas", {"verify": {"ladder_times": [10.0, 10.0, 20.0]}}),
        # grids over harness.MAX_GRID_SAMPLES, refused before any allocation
        ("solve", {"grid": {"counts": [2**62]}}),
        ("solve", {"grid": {"counts": [2**40]}}),
        ("solve", {"grid": {"dim": 2, "counts": [2048, 1024], "spacings": [0.04, 0.04]}}),
        ("thm1", {"verify": {"doubled_counts": [2**62]}}),
        ("lemmas", {"scattering_grid": {"counts": [2**40]}}),
        # the Theorem 1 statements hold at sigma = 2/n only
        ("thm1", {"equation": {"sigma": 1.5}, "datum": {"normalize": 0.03},
                  "scattering": {"horizon": 25}, "verify": {"double_horizon": False}}),
        ("conjugation", {"equation": {"sigma": 1.5}, "datum": {"normalize": 0.03},
                         "scattering": {"horizon": 25}}),
        ("proposition", {"verify": {"deltas": [0.4, 0.4, 0.1]}}),
        # a scattering grid of another dimension, refused before any evolution
        ("lemmas", {"scattering_grid": {"dim": 2, "counts": [64, 64],
                                        "spacings": [0.5, 0.5]}}),
        # a tolerance that no residual can pass, refused before the run
        ("corollary2", {"verify": {"tolerance": -1}}),
        ("wave_op", {"verify": {"tolerance": 0}}),
        # panel counts over born.MAX_PANELS, refused before any panel edge
        ("corollary2", {"quadrature": {"panels": 100000000}}),
        ("subcritical", {"quadrature": {"panels": 100000000}}),
        ("proposition", {"quadrature": {"panels": 4097}}),
        # a negative snapshot stride; 0 means no snapshots
        ("solve", {"evolve": {"t1": 0.01}, "output": {"snapshot_stride": -3}}),
        # data whose samples overflow, on the datum grid and on thm1's doubled
        # one, and a rescale that overflows
        ("solve", {"datum": {"width": 1e-300}}),
        ("thm1", {"datum": {"wavenumber": 1e308}}),
        ("solve", {"datum": {"amplitude": 1e-150, "normalize": 1e300}}),
        # checkpoints that do not increase strictly within (0, t1]
        ("dnls_gauge", {"evolve": {"t1": 0.2, "checkpoints": [0.1, 0.05, 0.2]}}),
        ("dnls_gauge", {"evolve": {"t1": 0.2, "checkpoints": [0.1, 0.1, 0.2]}}),
        ("dnls_gauge", {"evolve": {"t1": 0.2, "checkpoints": [-0.1, 0.2]}}),
    ])
    def test_rejected_value_exit_two(self, experiment, overrides, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        code = cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "Traceback" not in err

    # each key that held an auxiliary bound or a start time, set to the value
    # it had, and the whole solve.verify section
    @pytest.mark.parametrize("experiment, key, value", [
        ("solve", "verify", {}),
        ("solve", "verify.mass_drift_tol", 1e-11),
        ("solve", "verify.reversibility_tol", 1e-9),
        ("solve", "verify.spectral_checks", True),
        ("solve", "verify.order_check", True),
        ("solve", "evolve.t0", 0.0),
        ("corollary2", "verify.refinement_tol", 1e-6),
        ("subcritical", "verify.refinement_tol", 1e-6),
        ("proposition", "verify.slope_margin", 0.5),
        ("dnls_gauge", "verify.inverse_tol", 1e-12),
        ("dnls_gauge", "verify.mass_drift_tol", 1e-8),
        ("dnls_gauge", "evolve.t0", 0.0),
        ("lemmas", "verify.slope_bound", -0.4),
        ("lemmas", "verify.match_tol", 1e-2),
        ("lemmas", "verify.involution_tol", 1e-6),
    ])
    def test_removed_key_exit_two(self, experiment, key, value, tmp_path, capsys):
        section, _, name = key.partition(".")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {name: value} if name else value}))
        code = cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        # a key of a deleted section is reported by its section
        named = key if section in DEFAULTS[experiment] else f"section {section!r}"
        assert err.startswith("config error:") and named in err

    def test_out_names_existing_file_exit_two(self, tmp_path, capsys):
        # the output directory is made before the runner starts, so the
        # clash is reported without any quadrature having run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quadrature": {"t_max": 100.0, "panels": 4}}))
        taken = tmp_path / "taken"
        taken.write_text("")
        code = cli.main(["corollary2", "--config", str(cfg), "--out", str(taken)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "Traceback" not in err

    def test_horizon_change_gate_exit_one(self, tmp_path):
        # doubling the default horizon moves each operator by ~5.5e-6
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"verify": {"tolerance": 1e-9}}))
        code = cli.main(["wave_op", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        report = json.loads((tmp_path / "o" / "wave_op_report.json").read_text())
        failed = {r["name"] for r in report["residuals"] if not r["pass"]}
        assert failed == {f"{name}_horizon_change_{label}"
                          for name in ("forward", "inverse") for label in ("plus", "minus")}

    def test_thm1_health_violation_exit_one(self):
        # on 2048 points the doubled horizon's evolutions leave the box; the
        # rows march as one stack, so the message names the failing row's
        # run: W_-(F u0), whose initial state at -400 already fails, and not
        # W_-^{-1} u0, which reaches -400 from 0.  A violation is a numerical
        # failure, not a traceback
        code, err = _cli_exit("thm1", {"verify": {"doubled_counts": [2048]}})
        assert code == 1
        assert err.startswith("numerical failure:") and "health violation" in err
        assert "the run from -400 to 0 (initial state)" in err
        assert "Traceback" not in err

    def test_missing_experiment_exit_two(self):
        proc = self._run()
        assert proc.returncode == 2


class TestOutputDirEnv:
    def test_env_override(self, monkeypatch, tmp_path):
        from nlslab.harness import default_output_dir
        monkeypatch.setenv("NLSLAB_OUT", str(tmp_path / "envout"))
        assert default_output_dir() == str(tmp_path / "envout")

    def test_snapshot_stride(self, tmp_path):
        run(
            "solve",
            {"evolve": {"t1": 0.01}, "output": {"snapshot_stride": 5}},
            out_dir=tmp_path,
        )
        assert (tmp_path / "solve_step000000.nlsf").exists()
        assert (tmp_path / "solve_step000005.nlsf").exists()


class TestWaveOpExperiment:
    def test_round_trip_report(self, tmp_path):
        rep = run("wave_op", out_dir=tmp_path)
        assert rep.verdict == "pass"
        assert (tmp_path / "wave_op_forward_plus.csv").exists()


class TestDnlsGaugeExperiment:
    def test_light_run_passes(self, tmp_path):
        rep = run(
            "dnls_gauge",
            {"evolve": {"t1": 0.2, "checkpoints": [0.1, 0.2], "dt": 5e-4}},
            out_dir=tmp_path,
        )
        assert rep.verdict == "pass"
        table = (tmp_path / "dnls_gauge_checkpoint_residuals.csv").read_text()
        assert table.splitlines()[0] == "t,quintic_to_derivative,derivative_to_quintic"
        # the free flow in place of the quintic solution misses by about
        # 1e-3 here, far above the identity's residuals
        worst = max(r.value for r in rep.residuals if "_to_" in r.name)
        assert rep.params["free_flow_control"] > 1e4 * worst

    @pytest.mark.parametrize("lam", [0.0, 0.01])
    def test_small_coupling_passes(self, lam, tmp_path):
        # the order probe runs at lambda = 1 whatever the config holds; at the
        # configured coupling it would read about 0.3 (lambda = 0) or 7.2
        # (lambda = 0.01) against the gate |ratio - 16| <= 4
        rep = run(
            "dnls_gauge",
            {"equation": {"lambda": lam},
             "evolve": {"t1": 0.05, "checkpoints": [0.05]}},
            out_dir=tmp_path,
        )
        assert rep.verdict == "pass"
        assert rep.params["lambda"] == lam
        if lam == 0.0:
            # no coupling: both sides are the free flow, so the control sits
            # at roundoff like the identity, and there is no effect to measure
            assert rep.params["free_flow_control"] < 1e-12

    def test_order_probe_fails_a_second_order_solver(self):
        # the three-level estimator of rk4_order_ratio_deviation reads about
        # 2^4 for the RK4 and about 2^2 for Strang, which fails the gate
        # |ratio - 16| <= 4, so the order check can fail
        rk4 = _order_ratio(dnls_evolve, DNLSParams(1.0))
        strang = _order_ratio(nls_evolve, NLSParams(sigma=2.0, mu=0.5))
        assert abs(rk4 - 16.0) <= 1.0
        assert abs(strang - 4.0) <= 0.5
        assert abs(strang - 16.0) > 4.0
        # and the RK4 fails the gate |ratio - 4| <= 0.5 of
        # split_step_order_ratio_deviation, so that check can fail too
        assert abs(rk4 - 4.0) > 0.5

    def test_order_probe_reads_fourth_order_for_yoshida(self):
        # Yoshida's composition of Strang steps is fourth order: the probe
        # reads 15.99 for it, against Strang's 4.0001
        yoshida = functools.partial(evolve_composed, composition=YOSHIDA)
        assert abs(_order_ratio(yoshida, NLSParams(sigma=2.0, mu=1.0)) - 16.0) <= 1.0


class TestPropositionExperiment:
    def test_report_times_both_signs(self):
        light = {
            "grid": {"counts": [512]},
            "scattering": {"dt": 0.05},
            "quadrature": {"t_max": 100.0, "panels": 4},
        }
        start = time.monotonic()
        rep = run("proposition", light)
        elapsed = time.monotonic() - start
        assert rep.wall_clock_s >= 0.9 * elapsed

    @pytest.fixture(scope="class")
    def off_centre_report(self):
        light = {
            "grid": {"counts": [512]},
            "datum": {"center": 0.5, "wavenumber": 0.7},
            "scattering": {"dt": 0.05},
            "quadrature": {"t_max": 100.0, "panels": 4},
        }
        return run("proposition", light)

    def test_report_records_each_signs_corrector(self, off_centre_report):
        rep = off_centre_report
        grid = GridDescriptor.centered((512,), (0.34,))
        datum = make_datum(InitialDatumSpec("gaussian", center=0.5, wavenumber=0.7,
                                            normalize=1.0), grid)
        q = QuadratureSpec(t_max=100.0, panels=4)
        names = ("tail_bound", "refinement_delta", "decay_exponent", "evaluations")
        assert {key for key in rep.params if key.startswith("corrector_")} == {
            f"corrector_{name}_{label}" for name in names for label in ("plus", "minus")
        }
        for label, k in zip(("plus", "minus"), born_integral(datum, 2.0, q)):
            for name in names:
                assert rep.params[f"corrector_{name}_{label}"] == getattr(k, name)

    def test_merged_params_name_no_single_sign(self, off_centre_report):
        # the one report covers both signs, so no one ``sign`` describes it
        assert "sign" not in off_centre_report.params
        assert off_centre_report.identity == "small_data_expansion_both_signs"


# Light configs of the experiments whose runners add the values of the
# scattering identity functions, and the shape of each report: identity,
# residual names in order, fitted rates in order, ladder names in order,
# params keys and notes.
_LIGHT_SCATTERING = {"grid": {"counts": [1024], "spacings": [0.25]},
                     "scattering": {"horizon": 6.0, "dt": 0.04}}
_SHAPE_CASES = {
    "thm1": (
        {**_LIGHT_SCATTERING, "verify": {"double_horizon": True, "doubled_counts": [2048]}},
        "fourier_exchanges_wave_operators",
        ["sign_plus", "sign_minus",
         "sign_plus_doubled_horizon", "sign_plus_decreases_with_horizon",
         "sign_minus_doubled_horizon", "sign_minus_decreases_with_horizon"],
        [],
        [],
        ["config", "dim", "dt", "experiment", "horizon", "mu", "parallel", "sigma"],
        [],
    ),
    "conjugation": (
        _LIGHT_SCATTERING,
        "conjugation_identities",
        ["conjugation_sandwich_plus", "conjugation_sandwich_minus",
         "transform_conjugated_inverse_plus", "transform_conjugated_inverse_minus"],
        [],
        [],
        ["config", "dim", "dt", "experiment", "horizon", "mu", "parallel", "sigma"],
        ["conjugation_sandwich residuals check a symmetry of the discrete scheme "
         "that any real-coefficient integrator satisfies (Yoshida steps at 1.1e-13): "
         "the sign and conjugation plumbing, not the continuum identity"],
    ),
    "proposition": (
        {"grid": {"counts": [512]}, "scattering": {"dt": 0.05},
         "quadrature": {"t_max": 100.0, "panels": 4}},
        "small_data_expansion_both_signs",
        [f"{name}_{check}_{label}"
         for label in ("plus", "minus")
         for name in ("forward", "inverse")
         for check in ("coefficient_convergence_monotone",
                       "remainder_slope_exceeds_first_order")],
        ["forward_remainder_slope_plus", "inverse_remainder_slope_plus",
         "forward_remainder_slope_minus", "inverse_remainder_slope_minus"],
        ["forward_sweep_plus", "inverse_sweep_plus",
         "forward_sweep_minus", "inverse_sweep_minus"],
        ["config", "corrector_decay_exponent_minus", "corrector_decay_exponent_plus",
         "corrector_evaluations_minus", "corrector_evaluations_plus",
         "corrector_refinement_delta_minus", "corrector_refinement_delta_plus",
         "corrector_tail_bound_minus", "corrector_tail_bound_plus", "deltas", "dim",
         "dt", "experiment", "first_order_sign", "mu", "parallel"],
        ["candidate remainder rates in delta: 24 (claimed) vs 9 (proof bound); "
         "only slope > first-order + margin is asserted"],
    ),
    "lemmas": (
        {"grid": {"counts": [2048], "spacings": [0.008]},
         "scattering_grid": {"counts": [2048], "spacings": [0.35]},
         "verify": {"ladder_times": [10.0, 20.0, 40.0]}},
        "conformal_boundary_matching",
        ["ladder_monotone_decrease", "asymptotic_state_match_plus",
         "asymptotic_state_match_minus", "static_profile_slope_bound",
         "double_conformal_is_reflection"],
        ["free_return_decay_slope", "static_profile_decay_slope"],
        ["free_return_to_transform", "static_profile_decay"],
        ["config", "dim", "dt", "experiment", "horizon", "ladder_times", "mu",
         "parallel", "sigma"],
        [],
    ),
}


class TestReportShape:
    @pytest.mark.parametrize("experiment", sorted(_SHAPE_CASES))
    def test_light_report_shape(self, experiment):
        config, identity, residuals, rates, ladders, params, notes = (
            _SHAPE_CASES[experiment])
        rep = run(experiment, config)
        assert rep.identity == identity
        assert [r.name for r in rep.residuals] == residuals
        assert [r["name"] for r in rep.fitted_rates] == rates
        assert list(rep.ladders) == ladders
        assert sorted(rep.params) == params
        assert rep.notes == notes
        resolved = rep.params["config"]["grid"]
        assert rep.grid == {"counts": resolved["counts"], "spacings": resolved["spacings"]}


class TestSubcriticalExperiment:
    def test_report_records_tail_bounds(self, tmp_path):
        rep = run("subcritical", {"quadrature": {"t_max": 1e4, "panels": 16}},
                  out_dir=tmp_path)
        for idx in ("1", "2"):
            for label in ("plus", "minus"):
                name = f"tail_bounds_identity{idx}_{label}"
                rows = dict(rep.ladders[name])
                assert rows["lhs"] > 0 and rows["rhs"] > 0
                # the integrands decay like |t|^(-n sigma) = |t|^-1.5
                assert abs(rows["lhs_decay_exponent"] - 1.5) < 1e-2
                assert abs(rows["rhs_decay_exponent"] - 1.5) < 1e-2
                csv = tmp_path / f"subcritical_{name}.csv"
                # the first column holds labels, not abscissae
                assert csv.read_text().splitlines()[0] == "quantity,value"


class TestLemmasExperiment:
    def test_ladder_times_in_any_order(self):
        # both ladders, the echoed ladder_times and the slope fits run over
        # the sorted times, whatever order the config lists them in
        def report(times):
            config = copy.deepcopy(_SHAPE_CASES["lemmas"][0])
            config["verify"]["ladder_times"] = times
            data = json.loads(strip_timing(run("lemmas", config).to_json()))
            assert data["params"].pop("config")["verify"]["ladder_times"] == times
            return data

        assert report([40.0, 10.0, 20.0]) == report([10.0, 20.0, 40.0])


def _numeric_keys():
    """(experiment, section, key) for every key whose default is a number
    or a list of numbers."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    return [
        (experiment, section, key)
        for experiment, sections in DEFAULTS.items()
        for section, values in sections.items()
        for key, default in values.items()
        if number(default)
        or (isinstance(default, list) and default and all(map(number, default)))
    ]


# keys that some experiment leaves null by default, where null is valid
_NULLABLE = {
    (section, key)
    for sections in DEFAULTS.values()
    for section, values in sections.items()
    for key, default in values.items()
    if default is None
}


def _float_rejects(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


_junk_text = st.text(max_size=6).filter(_float_rejects)
_not_a_number = st.sampled_from([float("inf"), float("-inf"), float("nan"), True, False])
_JUNK = st.one_of(
    _junk_text,
    st.lists(_junk_text, max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.none(),
    _not_a_number,
    st.lists(_not_a_number, min_size=1, max_size=3),
)

# (experiment, section, key) for every key whose default is a bool
_BOOL_KEYS = [
    (experiment, section, key)
    for experiment, sections in DEFAULTS.items()
    for section, values in sections.items()
    for key, default in values.items()
    if isinstance(default, bool)
]
_NOT_A_BOOL = st.one_of(
    st.text(max_size=6),
    st.integers(),
    st.floats(),
    st.lists(st.booleans(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.booleans(), max_size=2),
    st.none(),
)


def _cli_exit(experiment, overrides):
    """The exit status and stderr of one CLI run on ``overrides``."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        argv = [experiment, "--config", str(cfg), "--out", str(Path(tmp) / "o")]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    return code, err.getvalue()


class TestConfigFuzz:
    """Junk where a number or a bool is required is a config error
    (exit 2), found before any evolution or quadrature runs."""

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(target=st.sampled_from(_numeric_keys()), junk=_JUNK)
    def test_junk_number_exits_two(self, target, junk):
        experiment, section, key = target
        assume(not (junk is None and (section, key) in _NULLABLE))
        code, err = _cli_exit(experiment, {section: {key: junk}})
        assert code == 2
        assert err.startswith("config error:")

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(target=st.sampled_from(_BOOL_KEYS), junk=_NOT_A_BOOL)
    def test_junk_bool_exits_two(self, target, junk):
        experiment, section, key = target
        code, err = _cli_exit(experiment, {section: {key: junk}})
        assert code == 2
        assert err.startswith("config error:")
