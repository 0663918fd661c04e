"""Command-line behavior: exit codes, file outputs, determinism, and the
self-test report (including a corrupted kernel it must catch)."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aggdiff.cli
from aggdiff import build_kernel, field_from_csv, mass
from aggdiff.classify import _VIRIAL_SLACK
from aggdiff.cli import (
    ConfigError,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_REGIME,
    RunConfig,
    load_config,
    main,
)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# The CLI contract: the accepted config keys and the keys (in order) of the
# JSON sidecars.
CONFIG_KEYS = {
    "params.d", "params.s", "params.m",
    "grid.n", "grid.r_max",
    "extremal.tol_res", "extremal.max_iter", "extremal.init",
    "sim.t_end", "sim.cfl", "sim.blowup_factor", "sim.record_every",
    "experiment.kappas",
    "init.kind", "init.kappa", "init.amplitude", "init.width", "init.csv",
    "seed", "selftest.n",
}
THRESHOLD_KEYS = ["x_star", "g_at_xstar", "cstar", "timestamp"]
PROFILE_KEYS = ["cstar", "support_radius", "el_residual", "iterations",
                "converged", "params", "grid", "timestamp"]
DICHOTOMY_KEYS = ["x_star", "g_at_xstar", "cstar", "rows", "timestamp"]
DICHOTOMY_ROW_KEYS = ["kappa", "verdict", "outcome", "t_detect",
                      "product_over_x_star", "barrier_max_ratio",
                      "barrier_min_ratio", "delta", "t_virial", "m2_slope",
                      "agreement"]
CLASSIFICATION_KEYS = ["verdict", "product", "x_star", "energy_lhs",
                       "g_at_xstar", "margins"]
CLASSIFICATION_MARGIN_KEYS = ["product", "energy"]
TRACE_KEYS = ["outcome", "t_detect", "t_final", "records", "meta"]
TRACE_META_KEYS = ["init", "kappa", "timestamp"]


def write_cfg(path: Path, extra: str = "") -> Path:
    cfg = path / "run.cfg"
    cfg.write_text(
        "params.d = 3\n"
        "params.s = 1.1\n"
        "params.m = 1.2\n"
        "grid.n = 384\n"
        "grid.r_max = 4.0\n"
        "seed = 5\n"
        + extra
    )
    return cfg


class TestConfig:
    def test_defaults_round_trip(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        assert cfg.params.d == 3
        assert cfg.grid.n == 384
        assert cfg.experiment_kappas == (0.8, 1.2)

    def test_accepted_keys(self, tmp_path):
        from aggdiff.cli import _KEYS

        assert set(_KEYS) == CONFIG_KEYS
        cfg = tmp_path / "one.cfg"
        for key in CONFIG_KEYS:
            cfg.write_text(f"{key} = 3\n")
            try:
                load_config(cfg)
            except ConfigError as exc:  # some keys reject the value 3
                assert "unknown key" not in str(exc)

    def test_sections_are_library_objects(self, tmp_path):
        cfg = load_config(write_cfg(
            tmp_path, "sim.cfl = 0.3\nextremal.max_iter = 9\ngrid.r_max = 6\n"))
        assert cfg.sim.cfl == 0.3 and cfg.sim.t_end == 50.0
        assert cfg.sim.record_every == 200
        assert cfg.extremal.max_iter == 9 and cfg.extremal.tol_res == 1e-4
        assert (cfg.grid.n, cfg.grid.r_max) == (384, 6.0)

    def test_readme_example_loads(self, tmp_path):
        blocks = re.split(r"^```.*$", README.read_text(), flags=re.M)[1::2]
        example = next(b for b in blocks if "init.kind" in b)
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(example)
        loaded = load_config(cfg)
        assert loaded.init_kind == "threshold_scaled"
        assert loaded.init_kappa == 1.2

    @pytest.mark.parametrize(
        "line",
        [
            "sim.cfl = 2",
            "sim.t_end = 0",
            "sim.blowup_factor = 1",
            "sim.record_every = 0",
            "grid.n = 1",
            "grid.n = 1.5",  # does not parse as the field's type
            "grid.r_max = 0",
            "grid.r_max = inf",
            "selftest.n = 1",
            "init.kind = nope",
            "extremal.init = nope",
            "extremal.damping = 0",  # a removed key: the damping weight is fixed
            "extremal.max_iter = 0",
            "extremal.tol_res = inf",
            "experiment.kappas =",
            "init.kind = csv",
            "sim.t_end = inf",
            "experiment.kappas = -0.5,1.2",
            "experiment.kappas = 0.8,nan",
            "init.kappa = -1",
            "init.width = 0",
            "init.amplitude = -1",
            "selftest.corrupt_kernel = ture",  # a removed key
            "extremal.tol_j = 1e-10",  # a removed key, at its old default
            "sim.dt_min = 1e-12",  # a removed key, at its old default
            "params.d = 4\nparams.s = 1.5",  # a valid regime triple, but not d = 3
            "seed = -1",
        ],
    )
    def test_bad_value_rejected_at_load(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path, line + "\n")
        out = tmp_path / "out"
        assert main(["dichotomy", "--config", str(cfg), "--out", str(out)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not out.exists()  # rejected before any command ran

    @pytest.mark.parametrize("cmd", ["evolve", "classify"])
    @pytest.mark.parametrize(
        "body",
        [
            None,                             # no such file
            "r,u\n",                          # header only
            "r,u\n0.5,1.0\n",                 # one row
            "r,u\n0.5\n1.5\n",                # one column
            "r,u\na,b\nc,d\n",                # not numbers
            "r,u\n0.5,1.0\n1.5,1.0\n4.5,0.0\n",  # not uniform
            "r,u\n5.5,1.0\n6.5,0.5\n7.5,0.0\n",  # first centre not at dr/2
            "r,u\n0.5,1.0\n1.5,nan\n2.5,0.0\n",  # not finite
            "r,u\n0.5,1.0\n1.5,-0.5\n2.5,0.0\n",  # negative density
            "r,u\n0.5,1.0\ninf,0.5\n2.5,0.0\n",  # a radius not finite
            "r,u\nnan,1.0\n1.5,0.5\n",          # a radius not finite, two rows
        ],
    )
    def test_bad_init_csv_rejected_at_load(self, tmp_path, capsys, cmd, body):
        csv = tmp_path / "init.csv"
        if body is not None:
            csv.write_text(body)
        cfg = write_cfg(tmp_path, f"init.kind = csv\ninit.csv = {csv}\n")
        out = tmp_path / "out"
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "init.csv" in err
        assert "Traceback" not in err
        assert not out.exists()  # classify fails before its solve

    @pytest.mark.parametrize("name, value", [("seed", 1.5), ("selftest_n", 128.5)])
    def test_fractional_integer_rejected_in_code(self, name, value):
        # a config file's integers go through int(); one built in code must
        # be as integral
        with pytest.raises(ValueError, match=repr(value)):
            RunConfig(**{name: value})

    def test_numpy_integers_accepted(self):
        cfg = RunConfig(seed=np.int64(7), selftest_n=np.int32(64))
        assert (cfg.seed, cfg.selftest_n) == (7, 64)

    def test_init_csv_loads(self, tmp_path):
        csv = tmp_path / "init.csv"
        csv.write_text("r,u\n0.5,1.0\n1.5,0.5\n2.5,0.0\n")
        cfg = write_cfg(tmp_path, f"init.kind = csv\ninit.csv = {csv}\n")
        assert load_config(cfg).init_csv == str(csv)

    # out.dir: a removed key, --out is the one output setting
    @pytest.mark.parametrize("key", ["params.zz", "params.eps", "out.dir"])
    def test_unknown_key_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = 1\n")
        assert main(["validate", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("params.s 1.1\n")
        assert main(["validate", "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    def test_unknown_command(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["frobnicate", "--config", str(cfg)]) == EXIT_CONFIG

    def test_help(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "aggdiff dichotomy" in capsys.readouterr().out

    @pytest.mark.parametrize("args, flag", [(["--bogus", "x"], "--bogus"), (["--out"], "--out")],
                             ids=["unknown_flag", "flag_without_value"])
    def test_unexpected_argument(self, tmp_path, capsys, args, flag):
        cfg = write_cfg(tmp_path)
        assert main(["validate", "--config", str(cfg), *args]) == EXIT_CONFIG
        assert f"unexpected argument {flag!r}" in capsys.readouterr().err

    def test_missing_config(self, capsys):
        assert main(["validate"]) == EXIT_CONFIG
        assert "missing --config PATH" in capsys.readouterr().err


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["validate", "--config", str(cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "beta" in out and "c_ds" in out

    def test_regime_violation(self, tmp_path, capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("params.s = 1.0\n")
        assert main(["validate", "--config", str(cfg)]) == EXIT_REGIME
        assert "2 < 2s" in capsys.readouterr().err

    def test_other_dimension_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "d4.cfg"
        cfg.write_text("params.d = 4\nparams.s = 1.5\nparams.m = 1.2\n")
        assert main(["validate", "--config", str(cfg)]) == EXIT_CONFIG
        assert "params.d must be 3" in capsys.readouterr().err


class TestExtremal:
    def test_writes_profile_and_sidecar(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["extremal", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        csv = (out / "extremal_profile.csv").read_text().splitlines()
        assert csv[0] == "r,u"
        sidecar = json.loads((out / "extremal_profile.json").read_text())
        assert list(sidecar) == PROFILE_KEYS
        assert sidecar["params"] == {"d": 3, "s": 1.1, "m": 1.2}
        assert list(sidecar["grid"]) == ["n", "r_max"]
        assert sidecar["grid"]["n"] == 384
        assert sidecar["converged"] is True
        assert 1.6 < sidecar["cstar"] < 1.9107373657
        assert sidecar["el_residual"] <= 1e-4

    def test_profile_is_evolve_initial_data(self, tmp_path):
        # the profile is a field CSV: init.kind = csv runs it as it was written
        out = tmp_path / "out"
        assert main(["extremal", "--config", str(write_cfg(tmp_path)), "--out", str(out)]) \
            == EXIT_OK
        profile = out / "extremal_profile.csv"
        cfg = write_cfg(tmp_path, f"init.kind = csv\ninit.csv = {profile}\nsim.t_end = 0.01\n")
        run_out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out", str(run_out)]) == EXIT_OK
        first = (run_out / "trace.csv").read_text().splitlines()[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(mass(field_from_csv(profile)), rel=1e-14)
        assert float(first[1]) == pytest.approx(1.0, rel=1e-12)  # W has unit mass

    def test_deterministic_csv_bodies(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["extremal", "--config", str(cfg), "--out", str(out1)])
        main(["extremal", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "extremal_profile.csv").read_bytes() \
            == (out2 / "extremal_profile.csv").read_bytes()

    def test_budget_exhaustion_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "extremal.max_iter = 1\n")
        out = tmp_path / "out"
        code = main(["extremal", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_NO_CONVERGENCE
        # best-so-far profile still written
        sidecar = json.loads((out / "extremal_profile.json").read_text())
        assert sidecar["converged"] is False
        assert (out / "extremal_profile.csv").exists()

    def test_constant_above_sharp_bound_still_written(self, tmp_path):
        cfg = write_cfg(tmp_path, "params.m = 1.155\ngrid.n = 256\n")
        out = tmp_path / "out"
        code = main(["extremal", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_NO_CONVERGENCE
        sidecar = json.loads((out / "extremal_profile.json").read_text())
        assert sidecar["converged"] is False
        assert sidecar["cstar"] > 1.9107373657  # C_HLS at lam = 0.8
        assert (out / "extremal_profile.csv").exists()

    def test_regime_violation_exit_code(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("params.m = 1.3\n")
        out = tmp_path / "out"
        assert main(["extremal", "--config", str(cfg), "--out", str(out)]) \
            == EXIT_REGIME


class TestOverflowNearTopOfMRange:
    # s = 1.1, m = 1.266: the solve converges, but x_star and ||u||_1^a
    # (a = 291.6) pass float64's range, which is a regime error
    @pytest.mark.parametrize("command", ["thresholds", "classify", "dichotomy", "selftest"])
    def test_regime_error_exit_code(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, "params.m = 1.266\ngrid.n = 256\nselftest.n = 64\n")
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_REGIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("regime error: ")
        assert "overflows float64" in err[0] and "2 - 2s/d" in err[0]

    def test_overflowing_product_exit_code(self, tmp_path, capsys):
        # m = 1.26 (a = 27.6): x_star is finite, but a gaussian of amplitude
        # 1e10 has a product ||u||_1^a ||u||_m^m past float64
        cfg = write_cfg(tmp_path, "params.m = 1.26\ninit.kind = gaussian\n"
                                  "init.amplitude = 1e10\n")
        out = tmp_path / "out"
        assert main(["classify", "--config", str(cfg), "--out", str(out)]) == EXIT_REGIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("regime error: ")
        assert "the product overflows float64" in err[0]
        assert not (out / "classification.json").exists()

    def test_extremal_still_writes_profile(self, tmp_path):
        cfg = write_cfg(tmp_path, "params.m = 1.266\ngrid.n = 256\n")
        out = tmp_path / "out"
        assert main(["extremal", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "extremal_profile.json").read_text())["converged"] is True
        assert (out / "extremal_profile.csv").exists()


class TestStrictJson:
    def test_default_sidecars_parse_strictly(self, tmp_path):
        def refuse(name):
            raise AssertionError(f"sidecar holds {name}, which strict JSON has not")

        cfg = write_cfg(tmp_path, "grid.n = 512\n")  # RunConfig's own grid
        out = tmp_path / "out"
        for command in ("extremal", "thresholds", "classify", "dichotomy", "evolve"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        sidecars = sorted(p.name for p in out.glob("*.json"))
        assert sidecars == ["classification.json", "dichotomy.json", "extremal_profile.json",
                            "thresholds.json", "trace.json"]
        for name in sidecars:
            json.loads((out / name).read_text(), parse_constant=refuse)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_fails_the_write(self, tmp_path, value):
        path = tmp_path / "x.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            aggdiff.cli._write_json(path, {"product": value})
        assert not path.exists()


class TestThresholds:
    def test_writes_to_working_directory_without_out(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["thresholds", "--config", str(cfg)]) == EXIT_OK
        assert [p.name for p in work.iterdir()] == ["thresholds.json"]

    def test_json_payload(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["thresholds", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "thresholds.json").read_text())
        assert list(payload) == THRESHOLD_KEYS
        assert payload["x_star"] > 0 and payload["g_at_xstar"] > 0
        assert payload["cstar"] < 1.9107373657


class TestClassify:
    @pytest.mark.parametrize("kappa,verdict", [(0.8, "GlobalExistence"),
                                               (1.2, "FiniteTimeBlowup"),
                                               (1.0, "Indeterminate")])
    def test_threshold_scaled_family(self, tmp_path, kappa, verdict):
        cfg = write_cfg(tmp_path, f"init.kind = threshold_scaled\ninit.kappa = {kappa}\n")
        out = tmp_path / "out"
        assert main(["classify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "classification.json").read_text())
        assert list(payload) == CLASSIFICATION_KEYS
        assert list(payload["margins"]) == CLASSIFICATION_MARGIN_KEYS
        assert payload["verdict"] == verdict
        assert payload["margins"]["product"] == \
            (payload["x_star"] - payload["product"]) / payload["x_star"]


class TestEvolve:
    def test_gaussian_run_outputs(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "init.kind = gaussian\ninit.amplitude = 0.4\ninit.width = 1.0\n"
            "grid.r_max = 8.0\nsim.t_end = 0.05\nsim.record_every = 50\n",
        )
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,mass,lm,linf,F,m2,dissipation,dt"
        footer = json.loads((out / "trace.json").read_text())
        assert list(footer) == TRACE_KEYS
        assert list(footer["meta"]) == TRACE_META_KEYS
        assert footer["outcome"] == "CompletedBounded"
        assert footer["t_detect"] is None and footer["t_final"] == 0.05
        assert footer["records"] == len(lines) - 1
        assert (out / "final_state.csv").exists()

    def test_ball_initial_data(self, tmp_path):
        # the 96 cells of 384 whose centres lie inside r = 1 fill the ball
        # of radius 96 dr = 1 exactly
        cfg = write_cfg(tmp_path, "init.kind = ball\ninit.amplitude = 0.5\n"
                                  "init.width = 1.0\nsim.t_end = 0.01\n")
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        first = (out / "trace.csv").read_text().splitlines()[1].split(",")
        assert float(first[1]) == pytest.approx(0.5 * 4.0 / 3.0 * np.pi, rel=1e-12)
        assert float(first[3]) == pytest.approx(0.5, rel=1e-12)
        assert json.loads((out / "trace.json").read_text())["outcome"] == "CompletedBounded"


class TestTraceDeterminism:
    def test_evolve_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "init.kind = gaussian\ninit.amplitude = 0.4\ninit.width = 1.0\n"
            "grid.r_max = 8.0\nsim.t_end = 0.02\nsim.record_every = 20\n",
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["evolve", "--config", str(cfg), "--out", str(out1)])
        main(["evolve", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


class TestDichotomy:
    def test_threshold_amplitude_row(self, tmp_path):
        # kappa = 1 sits in the tolerance band: Indeterminate, and the run
        # stays near-stationary to the horizon
        cfg = write_cfg(
            tmp_path,
            "grid.n = 512\nsim.t_end = 20.0\nsim.record_every = 400\n"
            "experiment.kappas = 1.0\n",
        )
        out = tmp_path / "out"
        code = main(["dichotomy", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads((out / "dichotomy.json").read_text())
        assert list(payload) == DICHOTOMY_KEYS
        row = payload["rows"][0]
        assert list(row) == DICHOTOMY_ROW_KEYS
        assert row["verdict"] == "Indeterminate"
        assert row["outcome"] == "CompletedBounded"
        assert row["agreement"] == "agrees"
        assert row["delta"] is None and row["t_virial"] is None
        assert abs(row["barrier_max_ratio"] - 1.0) <= 1e-3
        assert abs(row["barrier_min_ratio"] - 1.0) <= 1e-3
        body = (out / "trace_kappa_1.0.csv").read_text().splitlines()
        linf = [float(line.split(",")[3]) for line in body[1:]]
        assert 0.9 <= min(linf) / linf[0] and max(linf) / linf[0] <= 1.1

    @pytest.mark.filterwarnings("error")  # n = 512 is fine enough for the trigger
    def test_default_sweep_consistent(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "grid.n = 512\nsim.t_end = 50.0\nsim.record_every = 400\n",
        )
        out = tmp_path / "out"
        code = main(["dichotomy", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads((out / "dichotomy.json").read_text())
        rows = {row["kappa"]: row for row in payload["rows"]}
        assert rows[0.8]["verdict"] == "GlobalExistence"
        assert rows[0.8]["outcome"] == "CompletedBounded"
        assert rows[0.8]["barrier_max_ratio"] < 1.0
        assert rows[1.2]["verdict"] == "FiniteTimeBlowup"
        assert rows[1.2]["outcome"] == "BlowupDetected"
        assert rows[1.2]["barrier_min_ratio"] > 1.0
        assert rows[1.2]["t_detect"] is not None
        # the recorded M2 falls at least as fast as the virial rate says
        assert rows[1.2]["m2_slope"] <= -rows[1.2]["delta"] / _VIRIAL_SLACK
        assert rows[0.8]["m2_slope"] > 0.0
        assert [row["agreement"] for row in payload["rows"]] == ["agrees", "agrees"]
        assert (out / "trace_kappa_0.8.csv").exists()
        assert (out / "trace_kappa_1.2.csv").exists()

    def test_blowup_leg_short_of_its_horizon_is_undecided(self, tmp_path):
        # kappa = 1.05 blows up near t = 58, past the default horizon of 50,
        # but well before its virial bound t_virial
        cfg = write_cfg(tmp_path, "grid.n = 512\nexperiment.kappas = 1.05,0.95\n")
        out = tmp_path / "out"
        code = main(["dichotomy", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        rows = {row["kappa"]: row for row in json.loads((out / "dichotomy.json").read_text())["rows"]}
        assert rows[1.05]["verdict"] == "FiniteTimeBlowup"
        assert rows[1.05]["outcome"] == "CompletedBounded"
        assert rows[1.05]["agreement"] == "undecided"
        assert rows[1.05]["delta"] > 0.0
        assert abs(rows[1.05]["t_virial"] / 2913.0 - 1.0) <= 0.01
        assert rows[0.95]["agreement"] == "agrees"

    @pytest.mark.parametrize("t_end, code, agreement", [
        (200.0, EXIT_OK, "undecided"), (250.0, EXIT_CHECK_FAILED, "disagrees")])
    def test_bounded_past_virial_horizon_exits_4(self, tmp_path, monkeypatch, t_end, code,
                                                 agreement):
        # the run's kernel alone is weakened to f = kappa^(m-2), under which
        # kappa W is a steady state (p(kappa W) = kappa^(m-1) p(W)): the
        # verdict stays FiniteTimeBlowup and the product stays above x_star,
        # so only the horizon 1.05 t_virial = 227 decides
        kappa, f = 1.2, 1.2 ** (1.2 - 2.0)
        run = aggdiff.cli.run

        def weakened_run(u0, sim, kernel, exps):
            return run(u0, sim, dataclasses.replace(kernel, pot=f * kernel.pot), exps)

        monkeypatch.setattr(aggdiff.cli, "run", weakened_run)
        cfg = write_cfg(tmp_path, f"grid.n = 512\nsim.t_end = {t_end}\n"
                                  f"experiment.kappas = {kappa}\n")
        out = tmp_path / "out"
        assert main(["dichotomy", "--config", str(cfg), "--out", str(out)]) == code
        row = json.loads((out / "dichotomy.json").read_text())["rows"][0]
        assert row["verdict"] == "FiniteTimeBlowup"
        assert row["outcome"] == "CompletedBounded"
        assert row["barrier_min_ratio"] > 1.0
        assert 200.0 < row["t_virial"] < 250.0 / 1.05
        assert row["agreement"] == agreement


    def test_constant_above_sharp_bound_exits_3(self, tmp_path, capsys):
        # the solver's stationary point sits at 1.0098 C_HLS here: no kappa leg runs
        cfg = write_cfg(tmp_path, "params.m = 1.155\ngrid.n = 256\n")
        out = tmp_path / "out"
        code = main(["dichotomy", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_NO_CONVERGENCE
        assert "above the sharp bound" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_close_kappas_keep_separate_traces(self, tmp_path):
        # the two amplitudes agree to six significant digits
        cfg = write_cfg(
            tmp_path,
            "grid.n = 512\nsim.t_end = 1.0\nexperiment.kappas = 0.8,0.8000001\n",
        )
        out = tmp_path / "out"
        assert main(["dichotomy", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.glob("trace_kappa_*.csv")) == [
            "trace_kappa_0.8.csv", "trace_kappa_0.8000001.csv"]


class TestCoarseGridWarning:
    @pytest.mark.parametrize("command", ["dichotomy", "evolve"])
    def test_warns_on_stderr(self, tmp_path, command):
        # grid.n = 384: the innermost shell of the padded threshold profile
        # cannot hold the blow-up trigger's mass with room to spare, which
        # run reports once the sup norm starts to grow (t ~ 4)
        cfg = write_cfg(tmp_path, "init.kappa = 1.2\nexperiment.kappas = 1.2\n"
                                  "sim.t_end = 5\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "aggdiff.cli", command, "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300)
        assert "Traceback" not in proc.stderr
        assert "warning: grid too coarse for the blow-up trigger" in proc.stderr
        # one line per warning: no category, location or source echo
        assert "UserWarning" not in proc.stderr
        assert "warnings.warn(" not in proc.stderr


SELFTEST_NAMES = ["exponent_identities", "hls_bound", "scale_invariance",
                  "rearrangement_monotonicity", "kernel_symmetry", "mass_conservation",
                  "tridiagonal_solve", "symmetric_product"]


class TestSelftest:
    def test_passes_with_default_seed(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "selftest.n = 160\n")
        assert main(["selftest", "--config", str(cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") >= 6
        assert "FAIL" not in out

    def test_report_lists_figures_within_bounds(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "selftest.n = 160\n")
        assert main(["selftest", "--config", str(cfg)]) == EXIT_OK
        rows = [re.fullmatch(r"PASS  (\w+) +(\S+)  \(bound (\S+)\)(?:  (\w+): (\w+))?", line)
                for line in capsys.readouterr().out.splitlines()]
        assert all(rows)
        assert [row[1] for row in rows] == SELFTEST_NAMES
        assert all(0.0 <= float(row[2]) <= float(row[3]) for row in rows)
        # only the last two rows carry a note: the solve every sweep ran and
        # the whole-grid product every full-support potential ran
        assert [row[4] for row in rows[:-2]] == [None] * (len(rows) - 2)
        assert [row.group(4, 5) for row in rows[-2:]] == [
            ("solve", aggdiff.evolve._solve.__name__.lstrip("_")),
            ("product", aggdiff.riesz._symv.__name__ if aggdiff.riesz._symv else "gemv")]

    def test_product_note_without_dsymv(self, tmp_path, capsys, monkeypatch):
        # numpy builds without dsymv: the whole-grid product is the gemv
        monkeypatch.setattr(aggdiff.riesz, "_symv", None)
        cfg = write_cfg(tmp_path, "selftest.n = 128\n")
        assert main(["selftest", "--config", str(cfg)]) == EXIT_OK
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("PASS  symmetric_product") and last.endswith("product: gemv")

    def test_corrupted_kernel_fails_named_check(self, tmp_path, capsys, monkeypatch):
        def doubled_kernel(grid, lam):
            kernel = build_kernel(grid, lam)
            return dataclasses.replace(kernel, pot=2.0 * kernel.pot)

        monkeypatch.setattr(aggdiff.cli, "build_kernel", doubled_kernel)
        cfg = write_cfg(tmp_path, "selftest.n = 160\n")
        assert main(["selftest", "--config", str(cfg)]) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert "FAIL  hls_bound" in captured.out
        assert "hls_bound" in captured.err

    def test_seed_stability(self, tmp_path):
        for seed in range(10):
            cfg = write_cfg(tmp_path, f"selftest.n = 128\nseed = {seed}\n")
            assert main(["selftest", "--config", str(cfg)]) == EXIT_OK
