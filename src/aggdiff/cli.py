"""Command-line front end: configuration parsing, experiment orchestration,
and file output.

Commands (exit codes: 0 ok, 1 config error, 2 regime error, 3 no
convergence, 4 selftest/experiment failure):

    aggdiff validate   --config PATH            print the derived exponents
    aggdiff extremal   --config PATH [--out D]  solve and export the maximizer
    aggdiff thresholds --config PATH [--out D]  dichotomy thresholds as JSON
    aggdiff classify   --config PATH [--out D]  classify the configured data
    aggdiff dichotomy  --config PATH [--out D]  classify + simulate a kappa sweep
    aggdiff evolve     --config PATH [--out D]  one simulation with trace
    aggdiff selftest   --config PATH            run the invariant battery

Configuration files are flat key=value text with dotted sections, e.g.

    params.d = 3
    params.s = 1.1
    params.m = 1.2
    grid.n = 512
    experiment.kappas = 0.8,1.2

Unknown keys are rejected so that typos fail loudly.  All numeric output is
written with 14 significant digits; CSV bodies are deterministic given the
same config and seed.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .classify import barrier_check, classify
from .errors import NoConvergence, RegimeError
from .evolve import Outcome, SimConfig, run, trace_footer, trace_to_csv
from .extremal import (
    ExtremalOptions,
    compute_thresholds,
    solve_extremal,
    support_radius,
    threshold_profile,
)
from .field import (
    RadialField,
    RadialGrid,
    field_from_csv,
    field_from_function,
    field_to_csv,
    lp_norm,
    mass,
    pad_grid,
)
from .functionals import vhls_quotient
from .params import ModelParams, derive_exponents, hls_sharp_constant
from .riesz import build_kernel, interaction
from .testing import random_density

__all__ = ["main", "RunConfig", "load_config"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_REGIME = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CHECK_FAILED = 4


@dataclass
class RunConfig:
    """Everything a command needs, with laboratory-scale defaults."""

    params: ModelParams = dataclass_field(default_factory=lambda: ModelParams(3, 1.1, 1.2))
    grid_n: int = 512
    grid_r_max: float = 4.0
    extremal_opts: ExtremalOptions = dataclass_field(default_factory=ExtremalOptions)
    extremal_init: str = "bump"
    sim_t_end: float = 50.0
    sim_cfl: float = 0.45
    sim_dt_min: float = 1e-12
    sim_blowup_factor: float = 1e3
    sim_record_every: int = 200
    kappas: tuple[float, ...] = (0.8, 1.2)
    init_kind: str = "threshold_scaled"  # or gaussian | ball | csv
    init_kappa: float = 1.0
    init_amplitude: float = 1.0
    init_width: float = 1.0
    init_csv: str = ""
    out_dir: str = "."
    seed: int = 2357
    selftest_n: int = 256
    selftest_corrupt_kernel: bool = False

    def sim_config(self, t_end: float | None = None) -> SimConfig:
        return SimConfig(
            t_end=t_end if t_end is not None else self.sim_t_end,
            cfl=self.sim_cfl,
            dt_min=self.sim_dt_min,
            blowup_factor=self.sim_blowup_factor,
            record_every=self.sim_record_every,
        )


_KEYS = {
    "params.d": ("params", "d", int),
    "params.s": ("params", "s", float),
    "params.m": ("params", "m", float),
    "grid.n": ("grid_n", None, int),
    "grid.r_max": ("grid_r_max", None, float),
    "extremal.tol_j": ("extremal_opts", "tol_j", float),
    "extremal.tol_res": ("extremal_opts", "tol_res", float),
    "extremal.max_iter": ("extremal_opts", "max_iter", int),
    "extremal.damping": ("extremal_opts", "damping", float),
    "extremal.init": ("extremal_init", None, str),
    "sim.t_end": ("sim_t_end", None, float),
    "sim.cfl": ("sim_cfl", None, float),
    "sim.dt_min": ("sim_dt_min", None, float),
    "sim.blowup_factor": ("sim_blowup_factor", None, float),
    "sim.record_every": ("sim_record_every", None, int),
    "experiment.kappas": ("kappas", None, "floats"),
    "init.kind": ("init_kind", None, str),
    "init.kappa": ("init_kappa", None, float),
    "init.amplitude": ("init_amplitude", None, float),
    "init.width": ("init_width", None, float),
    "init.csv": ("init_csv", None, str),
    "out.dir": ("out_dir", None, str),
    "seed": ("seed", None, int),
    "selftest.n": ("selftest_n", None, int),
    "selftest.corrupt_kernel": ("selftest_corrupt_kernel", None, "bool"),
}


class ConfigError(ValueError):
    pass


def load_config(path: str | Path) -> RunConfig:
    """Parse a flat key=value config file into a RunConfig."""
    cfg = RunConfig()
    params_kw = {"d": 3, "s": 1.1, "m": 1.2}
    extremal_kw = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, sub, typ = _KEYS[key]
        try:
            if typ == "floats":
                parsed = tuple(float(x) for x in val.split(",") if x.strip())
            elif typ == "bool":
                parsed = val.lower() in ("1", "true", "yes", "on")
            else:
                parsed = typ(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
        if attr == "params":
            params_kw[sub] = parsed
        elif attr == "extremal_opts":
            extremal_kw[sub] = parsed
        else:
            setattr(cfg, attr, parsed)
    cfg.params = ModelParams(**params_kw)
    if extremal_kw:
        base = ExtremalOptions()
        cfg.extremal_opts = ExtremalOptions(
            tol_j=extremal_kw.get("tol_j", base.tol_j),
            tol_res=extremal_kw.get("tol_res", base.tol_res),
            max_iter=extremal_kw.get("max_iter", base.max_iter),
            damping=extremal_kw.get("damping", base.damping),
        )
    return cfg


def _out_dir(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(x: float) -> str:
    return f"{x:.14e}"


def _solve(cfg: RunConfig):
    exps = derive_exponents(cfg.params)
    grid = RadialGrid(cfg.grid_n, cfg.grid_r_max)
    profile = solve_extremal(exps, grid, cfg.extremal_opts, init=cfg.extremal_init)
    return exps, profile


def _profile_sidecar(profile, cfg: RunConfig) -> dict:
    return {
        "cstar": profile.cstar,
        "support_radius": profile.support_radius,
        "el_residual": profile.el_residual,
        "iterations": profile.iterations,
        "converged": profile.converged,
        "params": {
            "d": cfg.params.d,
            "s": cfg.params.s,
            "m": cfg.params.m,
        },
        "grid": {"n": profile.w.grid.n, "r_max": profile.w.grid.r_max},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def cmd_validate(cfg: RunConfig, out: str | None) -> int:
    exps = derive_exponents(cfg.params)
    print(f"d      = {cfg.params.d}")
    print(f"s      = {cfg.params.s}")
    print(f"m      = {cfg.params.m}")
    for name in ("p", "a", "a0", "b0", "beta", "lam", "c_ds"):
        print(f"{name:6s} = {_fmt(getattr(exps, name))}")
    print(f"hls_sharp_constant(d, lam) = {_fmt(hls_sharp_constant(exps.d, exps.lam))}")
    return EXIT_OK


def cmd_extremal(cfg: RunConfig, out: str | None) -> int:
    out_path = _out_dir(cfg, out)
    try:
        exps, profile = _solve(cfg)
        status = EXIT_OK
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        profile = exc.profile
        status = EXIT_NO_CONVERGENCE
    csv_path = out_path / "extremal_profile.csv"
    with open(csv_path, "w", newline="\n") as fh:
        fh.write("r,w\n")
        for r, v in zip(profile.w.grid.centers, profile.w.values):
            fh.write(f"{_fmt(r)},{_fmt(v)}\n")
    (out_path / "extremal_profile.json").write_text(
        json.dumps(_profile_sidecar(profile, cfg), indent=2) + "\n"
    )
    print(f"cstar = {_fmt(profile.cstar)}  (converged: {profile.converged})")
    print(f"wrote {csv_path}")
    return status


def cmd_thresholds(cfg: RunConfig, out: str | None) -> int:
    out_path = _out_dir(cfg, out)
    exps, profile = _solve(cfg)
    thr = compute_thresholds(profile, exps)
    payload = {
        "x_star": thr.x_star,
        "g_at_xstar": thr.g_at_xstar,
        "cstar": thr.cstar,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (out_path / "thresholds.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"x_star = {_fmt(thr.x_star)}")
    print(f"g(x_star) = {_fmt(thr.g_at_xstar)}")
    return EXIT_OK


def _initial_condition(cfg: RunConfig, exps, profile_solver) -> RadialField:
    """Build the configured initial data on an evolution-ready grid.

    profile_solver is called only for the threshold-scaled family, so the
    other initial-data kinds skip the maximizer solve entirely."""
    if cfg.init_kind == "threshold_scaled":
        wt = threshold_profile(profile_solver(), exps)
        wt = pad_grid(wt, 8.0 * support_radius(wt))
        return wt.with_values(cfg.init_kappa * wt.values)
    if cfg.init_kind == "gaussian":
        grid = RadialGrid(cfg.grid_n, cfg.grid_r_max)
        return field_from_function(
            grid, lambda r: cfg.init_amplitude * np.exp(-((r / cfg.init_width) ** 2))
        )
    if cfg.init_kind == "ball":
        grid = RadialGrid(cfg.grid_n, cfg.grid_r_max)
        return field_from_function(
            grid, lambda r: cfg.init_amplitude * (r < cfg.init_width).astype(float)
        )
    if cfg.init_kind == "csv":
        return field_from_csv(cfg.init_csv)
    raise ConfigError(f"unknown init.kind {cfg.init_kind!r}")


def cmd_classify(cfg: RunConfig, out: str | None) -> int:
    out_path = _out_dir(cfg, out)
    exps, profile = _solve(cfg)
    thr = compute_thresholds(profile, exps)
    u0 = _initial_condition(cfg, exps, lambda: profile)
    kernel = build_kernel(u0.grid, exps.lam)
    cls = classify(u0, thr, exps, kernel)
    (out_path / "classification.json").write_text(cls.to_json() + "\n")
    print(f"verdict = {cls.verdict.value}")
    print(f"product/x_star = {_fmt(cls.product / cls.x_star)}")
    return EXIT_OK


def cmd_evolve(cfg: RunConfig, out: str | None) -> int:
    out_path = _out_dir(cfg, out)
    exps = derive_exponents(cfg.params)
    grid = RadialGrid(cfg.grid_n, cfg.grid_r_max)
    u0 = _initial_condition(
        cfg, exps,
        lambda: solve_extremal(exps, grid, cfg.extremal_opts,
                               init=cfg.extremal_init),
    )
    kernel = build_kernel(u0.grid, exps.lam)
    trace = run(u0, cfg.sim_config(), kernel, exps)
    trace_to_csv(trace, out_path / "trace.csv")
    meta = {"init": cfg.init_kind, "kappa": cfg.init_kappa,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    (out_path / "trace.json").write_text(
        json.dumps(trace_footer(trace, meta), indent=2) + "\n"
    )
    field_to_csv(trace.final, out_path / "final_state.csv")
    print(f"outcome = {trace.outcome.value}")
    return EXIT_OK


def cmd_dichotomy(cfg: RunConfig, out: str | None) -> int:
    out_path = _out_dir(cfg, out)
    exps, profile = _solve(cfg)
    thr = compute_thresholds(profile, exps)
    wt = threshold_profile(profile, exps)
    wt = pad_grid(wt, 8.0 * support_radius(wt))
    kernel = build_kernel(wt.grid, exps.lam)

    # Detecting blow-up requires the trigger mass to fit into the innermost
    # shell; on a too-coarse grid the focusing stalls below the trigger.
    v0 = float(wt.grid.volumes[0])
    kmax = max(cfg.kappas)
    trigger_mass = cfg.sim_blowup_factor * max(1.0, kmax * lp_norm(wt, np.inf)) * v0
    if trigger_mass > 0.8 * kmax * mass(wt):
        print(
            "warning: grid too coarse for the configured blowup_factor "
            f"(trigger needs {trigger_mass:.3g} mass in the first shell, "
            f"{kmax * mass(wt):.3g} available); increase grid.n or lower "
            "sim.blowup_factor",
            file=sys.stderr,
        )

    expected = {
        "GlobalExistence": Outcome.COMPLETED_BOUNDED,
        "FiniteTimeBlowup": Outcome.BLOWUP_DETECTED,
    }
    summary = []
    any_mismatch = False
    for kappa in cfg.kappas:
        u0 = wt.with_values(kappa * wt.values)
        cls = classify(u0, thr, exps, kernel)
        trace = run(u0, cfg.sim_config(), kernel, exps)
        trace_to_csv(trace, out_path / f"trace_kappa_{kappa:g}.csv")
        barrier = barrier_check(trace, thr, exps)
        want = expected.get(cls.verdict.value)
        consistent = want is None or trace.outcome is want
        if cls.verdict.value == "GlobalExistence":
            consistent = consistent and barrier.stayed_below
        elif cls.verdict.value == "FiniteTimeBlowup":
            consistent = consistent and barrier.stayed_above
        any_mismatch |= not consistent
        summary.append(
            {
                "kappa": kappa,
                "verdict": cls.verdict.value,
                "outcome": trace.outcome.value,
                "t_detect": trace.t_detect,
                "product_over_x_star": cls.product / thr.x_star,
                "barrier_max_ratio": barrier.max_ratio,
                "barrier_min_ratio": barrier.min_ratio,
                "consistent": consistent,
            }
        )
        print(
            f"kappa={kappa:g}: verdict {cls.verdict.value}, outcome "
            f"{trace.outcome.value}, consistent={consistent}"
        )
    payload = {
        "x_star": thr.x_star,
        "g_at_xstar": thr.g_at_xstar,
        "cstar": thr.cstar,
        "rows": summary,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (out_path / "dichotomy.json").write_text(json.dumps(payload, indent=2) + "\n")
    return EXIT_CHECK_FAILED if any_mismatch else EXIT_OK


def _selftest_checks(cfg: RunConfig):
    """The invariant battery: name -> zero-argument callable returning bool."""
    exps = derive_exponents(cfg.params)
    n = cfg.selftest_n
    grid = RadialGrid(n, 8.0)
    kernel = build_kernel(grid, exps.lam)
    if cfg.selftest_corrupt_kernel:
        import dataclasses

        kernel = dataclasses.replace(kernel, pot=2.0 * kernel.pot,
                                     frc=kernel.frc.copy())
    rng = np.random.default_rng(cfg.seed)
    c_hls = hls_sharp_constant(exps.d, exps.lam)

    def exponent_identities():
        ok = True
        r = np.random.default_rng(cfg.seed + 1)
        for _ in range(200):
            d = int(r.integers(3, 7))
            s = r.uniform(1.0 + 1e-3, d / 2.0 - 1e-3)
            lo, hi = 2.0 * d / (d + 2.0 * s), 2.0 - 2.0 * s / d
            m = r.uniform(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo))
            e = derive_exponents(ModelParams(d, s, m))
            ok &= abs(e.b0 - e.m * e.beta) <= 1e-14 * max(1.0, abs(e.b0))
            ok &= abs(e.a + e.a0 - e.a * e.beta) <= 1e-12 * max(1.0, abs(e.a * e.beta))
        return ok

    def hls_bound():
        for _ in range(40):
            u = random_density(grid, rng)
            if mass(u) <= 0:
                continue
            if vhls_quotient(u, exps, kernel) > c_hls:
                return False
        return True

    def scale_invariance():
        from .field import apply_dynamic_scaling
        u = random_density(grid, rng)
        j0 = vhls_quotient(u, exps, kernel)
        for lam in (0.5, 2.0):
            v = apply_dynamic_scaling(u, lam, exps)
            if abs(vhls_quotient(v, exps, kernel) - j0) > 1e-8 * j0:
                return False
        return True

    def rearrangement_monotone():
        from .field import rearrange_decreasing
        for _ in range(10):
            u = random_density(grid, rng)
            h0 = interaction(u, kernel)
            h1 = interaction(rearrange_decreasing(u), kernel)
            if h1 < h0 * (1.0 - 1e-8):
                return False
        return True

    def kernel_symmetry():
        r = np.random.default_rng(cfg.seed + 2)
        V = grid.volumes
        u, v = r.random(n), r.random(n)
        lhs = (v * V) @ kernel.interaction_matvec(u)
        rhs = (u * V) @ kernel.interaction_matvec(v)
        return abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def mass_conservation():
        import warnings

        u = random_density(grid, rng)
        cfg_run = SimConfig(t_end=1e-3, cfl=0.4, record_every=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # wide tails may brush the domain
            tr = run(u, cfg_run, kernel, exps)
        return abs(tr.mass[-1] - tr.mass[0]) <= 1e-8 * tr.mass[0]

    return {
        "exponent_identities": exponent_identities,
        "hls_bound": hls_bound,
        "scale_invariance": scale_invariance,
        "rearrangement_monotonicity": rearrangement_monotone,
        "kernel_symmetry": kernel_symmetry,
        "mass_conservation": mass_conservation,
    }


def cmd_selftest(cfg: RunConfig, out: str | None) -> int:
    failed = []
    for name, check in _selftest_checks(cfg).items():
        ok = bool(check())
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"selftest failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "extremal": cmd_extremal,
    "thresholds": cmd_thresholds,
    "classify": cmd_classify,
    "dichotomy": cmd_dichotomy,
    "evolve": cmd_evolve,
    "selftest": cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return EXIT_OK
    command = argv.pop(0)
    if command not in _COMMANDS:
        print(f"unknown command {command!r}; expected one of {sorted(_COMMANDS)}",
              file=sys.stderr)
        return EXIT_CONFIG
    config_path = None
    out_override = None
    while argv:
        flag = argv.pop(0)
        if flag == "--config" and argv:
            config_path = argv.pop(0)
        elif flag == "--out" and argv:
            out_override = argv.pop(0)
        else:
            print(f"unexpected argument {flag!r}", file=sys.stderr)
            return EXIT_CONFIG
    if config_path is None:
        print("missing --config PATH", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[command](cfg, out_override)
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
