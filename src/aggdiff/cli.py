"""Command-line front end: configuration parsing, experiment orchestration,
and file output.

Commands (exit codes: 0 ok, 1 config error, 2 regime error, 3 no
convergence, 4 selftest failure or a dichotomy run that disagrees with its
verdict):

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

Each params.*, grid.*, extremal.* and sim.* key is the field of the same
name on ModelParams, RadialGrid, ExtremalOptions and SimConfig.  Unknown
keys and bad values are rejected at load (exit 1), before any solve, so
that typos fail loudly.  Files go to the --out directory (created if
missing), else to the working directory; no config key sets it.  CSV
numbers are written with 15 significant digits and JSON sidecars (all
written by _write_json) at full precision; CSV bodies are deterministic
given the same config.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field as dataclass_field, fields, replace
from pathlib import Path

import numpy as np

from .classify import Agreement, agrees, barrier_check, classify
from .errors import NoConvergence, RegimeError
from .evolve import SimConfig, _solve as _tridiagonal_solve, run, trace_to_csv
from .extremal import ExtremalOptions, compute_thresholds, solve_extremal, threshold_field
from . import riesz
from .field import RadialField, RadialGrid, field_from_csv, field_from_function, field_to_csv
from .params import ModelParams, derive_exponents, hls_sharp_constant
from .riesz import build_kernel
from .testing import (exponent_identity_defect, kernel_symmetry_defect, mass_drift,
                      max_hls_ratio, random_density, rearrangement_loss,
                      scale_invariance_defect, symmetric_product_defect,
                      tridiagonal_solve_defect)

__all__ = ["main", "RunConfig", "load_config"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_REGIME = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CHECK_FAILED = 4

_INIT_KINDS = ("threshold_scaled", "gaussian", "ball", "csv")


@dataclass
class RunConfig:
    """Everything a command needs, with laboratory-scale defaults.

    params, grid, extremal and sim are the library's own objects, so each
    of their settings and its default is defined once, in the class that
    uses it; the CLI only shortens the simulation horizon and thins the
    trace.  Values are checked when the config is built."""

    params: ModelParams = dataclass_field(default_factory=lambda: ModelParams(3, 1.1, 1.2))
    grid: RadialGrid = dataclass_field(default_factory=lambda: RadialGrid(512, 4.0))
    extremal: ExtremalOptions = dataclass_field(default_factory=ExtremalOptions)
    sim: SimConfig = dataclass_field(
        default_factory=lambda: SimConfig(t_end=50.0, record_every=200)
    )
    experiment_kappas: tuple[float, ...] = (0.8, 1.2)
    init_kind: str = "threshold_scaled"
    init_kappa: float = 1.0
    init_amplitude: float = 1.0
    init_width: float = 1.0
    init_csv: str = ""
    seed: int = 2357
    selftest_n: int = 256

    def __post_init__(self):
        if self.params.d != 3:
            raise ValueError(f"params.d must be 3 (the radial model is three-dimensional), "
                             f"got {self.params.d}")
        if self.init_kind not in _INIT_KINDS:
            raise ValueError(f"unknown init.kind {self.init_kind!r}; "
                             f"expected one of {', '.join(_INIT_KINDS)}")
        if self.init_kind == "csv":
            try:
                field_from_csv(self.init_csv)
            except (OSError, ValueError) as exc:
                raise ValueError(f"init.kind = csv needs init.csv naming a field CSV; "
                                 f"{self.init_csv!r}: {exc}") from exc
        if not self.experiment_kappas:
            raise ValueError("experiment.kappas is empty")
        if not all(0.0 <= k < np.inf for k in self.experiment_kappas):
            raise ValueError("experiment.kappas must be nonnegative and finite")
        if not 0.0 <= self.init_kappa < np.inf:
            raise ValueError("init.kappa must be nonnegative and finite")
        if not 0.0 <= self.init_amplitude < np.inf:
            raise ValueError("init.amplitude must be nonnegative and finite")
        if not 0.0 < self.init_width < np.inf:
            raise ValueError("init.width must be positive and finite")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (isinstance(self.selftest_n, (int, np.integer)) and self.selftest_n >= 2):
            raise ValueError(f"selftest.n must be an integer of at least 2, "
                             f"got {self.selftest_n!r}")


# key -> (RunConfig field holding a library object, or None for RunConfig
# itself; field name).  A plain RunConfig field's key is its name with the
# first "_" read as ".", e.g. init_kind -> init.kind.
_SECTIONS = ("params", "grid", "extremal", "sim")
_KEYS = {
    **{f"{sec}.{f.name}": (sec, f.name)
       for sec in _SECTIONS for f in fields(getattr(RunConfig(), sec))},
    **{f.name.replace("_", ".", 1): (None, f.name)
       for f in fields(RunConfig) if f.name not in _SECTIONS},
}


class ConfigError(ValueError):
    pass


def _parse(val: str, like):
    """Parse val into the type of the default value like."""
    if isinstance(like, tuple):
        return tuple(float(x) for x in val.split(",") if x.strip())
    return type(like)(val)


def load_config(path: str | Path) -> RunConfig:
    """Parse a flat key=value config file into a validated RunConfig."""
    base = RunConfig()
    updates: dict = {sec: {} for sec in (None, *_SECTIONS)}  # None: RunConfig itself
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
        sec, name = _KEYS[key]
        like = getattr(base if sec is None else getattr(base, sec), name)
        try:
            updates[sec][name] = _parse(val, like)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    try:
        sections = {sec: replace(getattr(base, sec), **updates[sec]) for sec in _SECTIONS}
        return replace(base, **sections, **updates[None])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _out_dir(out: str | None) -> Path:
    out = Path(out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(x: float) -> str:
    return f"{x:.14e}"


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S")


def _write_json(path: Path, payload: dict) -> None:
    """Write a JSON sidecar: two-space indent, keys in payload order."""
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _solve(cfg: RunConfig):
    """The exponents, the converged maximizer and its thresholds."""
    exps = derive_exponents(cfg.params)
    profile = solve_extremal(exps, cfg.grid, cfg.extremal)
    return exps, profile, compute_thresholds(profile, exps)


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
    out_path = _out_dir(out)
    try:
        # the profile alone: the thresholds overflow near the top of the m range
        profile = solve_extremal(derive_exponents(cfg.params), cfg.grid, cfg.extremal)
        status = EXIT_OK
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        profile = exc.profile
        status = EXIT_NO_CONVERGENCE
    csv_path = out_path / "extremal_profile.csv"
    field_to_csv(profile.w, csv_path)
    _write_json(out_path / "extremal_profile.json", {
        "cstar": profile.cstar,
        "support_radius": profile.support_radius,
        "el_residual": profile.el_residual,
        "iterations": profile.iterations,
        "converged": profile.converged,
        "params": asdict(cfg.params),
        "grid": asdict(profile.w.grid),
        "timestamp": _timestamp(),
    })
    print(f"cstar = {_fmt(profile.cstar)}  (converged: {profile.converged})")
    print(f"wrote {csv_path}")
    return status


def cmd_thresholds(cfg: RunConfig, out: str | None) -> int:
    out_path = _out_dir(out)
    _, _, thr = _solve(cfg)
    _write_json(out_path / "thresholds.json", {**asdict(thr), "timestamp": _timestamp()})
    print(f"x_star = {_fmt(thr.x_star)}")
    print(f"g(x_star) = {_fmt(thr.g_at_xstar)}")
    return EXIT_OK


def _initial_condition(cfg: RunConfig, exps, profile_solver) -> RadialField:
    """Build the configured initial data on an evolution-ready grid.

    profile_solver is called only for the threshold-scaled family, so the
    other initial-data kinds skip the maximizer solve entirely."""
    if cfg.init_kind == "threshold_scaled":
        wt = threshold_field(profile_solver(), exps)
        return wt.with_values(cfg.init_kappa * wt.values)
    if cfg.init_kind == "gaussian":
        return field_from_function(
            cfg.grid, lambda r: cfg.init_amplitude * np.exp(-((r / cfg.init_width) ** 2))
        )
    if cfg.init_kind == "ball":
        return field_from_function(
            cfg.grid, lambda r: cfg.init_amplitude * (r < cfg.init_width).astype(float)
        )
    return field_from_csv(cfg.init_csv)


def cmd_classify(cfg: RunConfig, out: str | None) -> int:
    out_path = _out_dir(out)
    exps, profile, thr = _solve(cfg)
    u0 = _initial_condition(cfg, exps, lambda: profile)
    kernel = build_kernel(u0.grid, exps.lam)
    cls = classify(u0, thr, exps, kernel)
    _write_json(out_path / "classification.json", {
        "verdict": cls.verdict.value,
        "product": cls.product,
        "x_star": cls.x_star,
        "energy_lhs": cls.energy_lhs,
        "g_at_xstar": cls.g_at_xstar,
        "margins": {"product": cls.product_margin, "energy": cls.energy_margin},
    })
    print(f"verdict = {cls.verdict.value}")
    print(f"product/x_star = {_fmt(cls.product / cls.x_star)}")
    return EXIT_OK


def cmd_evolve(cfg: RunConfig, out: str | None) -> int:
    out_path = _out_dir(out)
    exps = derive_exponents(cfg.params)
    u0 = _initial_condition(cfg, exps, lambda: _solve(cfg)[1])
    kernel = build_kernel(u0.grid, exps.lam)
    trace = run(u0, cfg.sim, kernel, exps)
    trace_to_csv(trace, out_path / "trace.csv")
    _write_json(out_path / "trace.json", {
        "outcome": trace.outcome.value,
        "t_detect": trace.t_detect,
        "t_final": float(trace.t[-1]),
        "records": len(trace.t),
        "meta": {"init": cfg.init_kind, "kappa": cfg.init_kappa, "timestamp": _timestamp()},
    })
    field_to_csv(trace.final, out_path / "final_state.csv")
    print(f"outcome = {trace.outcome.value}")
    return EXIT_OK


def cmd_dichotomy(cfg: RunConfig, out: str | None) -> int:
    out_path = _out_dir(out)
    exps, profile, thr = _solve(cfg)
    wt = threshold_field(profile, exps)
    kernel = build_kernel(wt.grid, exps.lam)
    summary = []
    for kappa in cfg.experiment_kappas:
        u0 = wt.with_values(kappa * wt.values)
        cls = classify(u0, thr, exps, kernel)
        trace = run(u0, cfg.sim, kernel, exps)
        trace_to_csv(trace, out_path / f"trace_kappa_{kappa!r}.csv")
        barrier = barrier_check(trace, thr, exps)
        agreement = agrees(cls, trace, barrier).value
        summary.append(
            {
                "kappa": kappa,
                "verdict": cls.verdict.value,
                "outcome": trace.outcome.value,
                "t_detect": trace.t_detect,
                "product_over_x_star": cls.product / thr.x_star,
                "barrier_max_ratio": barrier.max_ratio,
                "barrier_min_ratio": barrier.min_ratio,
                "delta": cls.delta,
                "t_virial": cls.t_virial,
                # least-squares rate of the recorded M2; None with one record
                "m2_slope": float(np.polyfit(trace.t, trace.m2, 1)[0])
                if len(trace.t) > 1 else None,
                "agreement": agreement,
            }
        )
        print(
            f"kappa={kappa:g}: verdict {cls.verdict.value}, outcome "
            f"{trace.outcome.value}, agreement {agreement}"
        )
    _write_json(out_path / "dichotomy.json",
                {**asdict(thr), "rows": summary, "timestamp": _timestamp()})
    disagree = any(row["agreement"] == Agreement.DISAGREES for row in summary)
    return EXIT_CHECK_FAILED if disagree else EXIT_OK


def _selftest_checks(cfg: RunConfig):
    """The invariant battery: name -> (measure, bound[, note]).  A check
    passes when its measure (an aggdiff.testing figure, worst case) is <= its
    bound; a note, such as which tridiagonal solve or whole-grid product
    ran, ends its line.  The density measures share one seeded stream, so
    they run in table order."""
    exps = derive_exponents(cfg.params)
    grid = RadialGrid(cfg.selftest_n, 8.0)
    kernel = build_kernel(grid, exps.lam)
    rng, triples, vectors = (np.random.default_rng(cfg.seed + k) for k in range(3))

    def short_run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # wide tails may brush the domain
            return run(random_density(grid, rng),
                       SimConfig(t_end=1e-3, record_every=5), kernel, exps)

    return {
        "exponent_identities": (lambda: exponent_identity_defect(triples, 200), 1e-14),
        "hls_bound": (lambda: max_hls_ratio(exps, kernel, rng, 40), 1.0),
        "scale_invariance": (lambda: scale_invariance_defect(
            random_density(grid, rng), exps, kernel), 1e-8),
        "rearrangement_monotonicity": (lambda: rearrangement_loss(kernel, rng, 10), 1e-8),
        "kernel_symmetry": (lambda: kernel_symmetry_defect(kernel, vectors), 1e-12),
        "mass_conservation": (lambda: mass_drift(short_run()), 1e-8),
        "tridiagonal_solve": (lambda: tridiagonal_solve_defect(
            random_density(grid, rng), exps, kernel), 1e-13,
            f"solve: {_tridiagonal_solve.__name__.lstrip('_')}"),
        "symmetric_product": (lambda: symmetric_product_defect(kernel, rng), 1e-13,
                              f"product: {riesz._symv.__name__ if riesz._symv else 'gemv'}"),
    }


def cmd_selftest(cfg: RunConfig, out: str | None) -> int:
    failed = []
    for name, (measure, bound, *note) in _selftest_checks(cfg).items():
        figure = measure()
        ok = figure <= bound
        print(f"{'PASS' if ok else 'FAIL'}  {name:<27} {figure:.3e}  (bound {bound:g})"
              + "".join(f"  {n}" for n in note))
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
    flags = {"--config": None, "--out": None}
    while argv:
        flag = argv.pop(0)
        if flag not in flags or not argv:
            print(f"unexpected argument {flag!r}", file=sys.stderr)
            return EXIT_CONFIG
        flags[flag] = argv.pop(0)
    if flags["--config"] is None:
        print("missing --config PATH", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_config(flags["--config"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        with warnings.catch_warnings():
            # one line per warning, without its category and source location
            warnings.showwarning = lambda message, *_, **__: print(
                f"warning: {message}", file=sys.stderr)
            return _COMMANDS[command](cfg, flags["--out"])
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
