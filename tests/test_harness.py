"""Config handling, datum library, experiment driver, CLI, determinism."""

import contextlib
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
    load_config,
    make_datum,
    run,
)
from nlslab.io import read_snapshot, write_snapshot
from nlslab.reports import VerificationReport, strip_timing


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
            InitialDatumSpec("modulated_gaussian", amplitude=1.0, wavenumber=3.0),
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
    def _header(count=64):
        return (struct.pack("<4sII", b"NLSF", 1, 1)
                + struct.pack("<Qdd", count, 0.5, -0.25 * count) + b"\x00")

    @pytest.mark.parametrize("kind", ["random", "header_only", "short_payload"])
    def test_malformed_file(self, kind, tmp_path, capsys):
        if kind == "random":
            data = np.random.default_rng(3).bytes(40)
        elif kind == "header_only":
            data = struct.pack("<4sII", b"NLSF", 1, 1)
        else:
            data = self._header() + b"\x00" * (16 * 63)
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


class TestSolveExperiment:
    def test_free_solve_passes(self, tmp_path):
        rep = run(
            "solve",
            {"equation": {"mu": 0.0}, "evolve": {"t1": 0.2}},
            out_dir=tmp_path,
        )
        assert rep.verdict == "pass"
        names = [r.name for r in rep.residuals]
        assert "free_propagation_exact" in names

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
    ])
    def test_rejected_value_exit_two(self, experiment, overrides, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        code = cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")])
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
        for sign, label in ((+1, "plus"), (-1, "minus")):
            k = born_integral(datum, sign, 2.0, q)
            for name in names:
                assert rep.params[f"corrector_{name}_{label}"] == getattr(k, name)

    def test_merged_params_name_no_single_sign(self, off_centre_report):
        # the merged report covers both signs, so no one ``sign`` describes it
        assert "sign" not in off_centre_report.params
        assert off_centre_report.identity == "small_data_expansion_both_signs"


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
                assert (tmp_path / f"subcritical_{name}.csv").exists()


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
_JUNK = st.one_of(
    _junk_text,
    st.lists(_junk_text, max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.none(),
)


class TestConfigFuzz:
    """Junk where a number is required is a config error (exit 2), found
    before any evolution or quadrature runs."""

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(target=st.sampled_from(_numeric_keys()), junk=_JUNK)
    def test_junk_number_exits_two(self, target, junk):
        experiment, section, key = target
        assume(not (junk is None and (section, key) in _NULLABLE))
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps({section: {key: junk}}))
            argv = [experiment, "--config", str(cfg), "--out", str(Path(tmp) / "o")]
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        assert code == 2
        assert err.getvalue().startswith("config error:")


class TestReportMerge:
    def test_suffixes_order_and_first_branch_kept(self):
        first = VerificationReport("id", params={"sign": 1}, grid={"counts": [8]},
                                   notes=["first"])
        first.add_residual("a", 1.0, 2.0)
        first.ladders["sweep"] = [(1.0, 2.0)]
        first.add_rate("slope", 0.5)
        second = VerificationReport("id", params={"sign": -1}, grid={"counts": [16]},
                                    notes=["second"])
        second.add_residual("b", 3.0, 4.0)
        second.add_residual("c", 5.0, 1.0)
        second.ladders["sweep"] = [(3.0, 4.0)]
        second.add_rate("slope", 0.25)
        first.merge(second, "minus")
        assert [(r.name, r.value, r.tolerance) for r in first.residuals] == [
            ("a", 1.0, 2.0), ("b_minus", 3.0, 4.0), ("c_minus", 5.0, 1.0)
        ]
        assert list(first.ladders.items()) == [
            ("sweep", [(1.0, 2.0)]), ("sweep_minus", [(3.0, 4.0)])
        ]
        assert first.fitted_rates == [
            {"name": "slope", "value": 0.5}, {"name": "slope_minus", "value": 0.25}
        ]
        assert first.params == {"sign": 1}
        assert first.grid == {"counts": [8]}
        assert first.notes == ["first"]
        assert first.verdict == "fail"
