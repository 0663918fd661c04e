"""The benchmark's three workloads.

A workload turns the seed into inputs (``make_inputs``, untimed), builds
what its timed operations need (``setup``, timed as ``setup_s``), runs the
timed operations (``operate``; set-up plus operations is ``wall_s``) and
then checks the outputs (``verify``, untimed).  ``warmup`` runs a short
version of the same calls once, untimed, before the first round, so that
first-call costs and an idle CPU do not land in the first sample.  All
calls into the package go through ``api`` (see ``tracing.Api``), so that a
traced round can hand in span-wrapped entry points.

``verify`` returns one ``(operation, ok, why)`` triple per checked
operation, and the round's checksums: result figures a later change must
reproduce to roundoff, never scored as timings.

Seed 0 is the reference seed: every drawn parameter takes the middle of
its range, which makes ``dichotomy`` the CLI's default sweep (kappa = 0.8
and 1.2) and ``energy_budget`` acceptance criterion 7, so the checksums of
seed 0 compare directly with the baseline in ROADMAP.md.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import aggdiff as ag
from aggdiff.testing import random_density

EXPS = ag.derive_exponents(ag.ModelParams(3, 1.1, 1.2))
C_HLS = ag.hls_sharp_constant(EXPS.d, EXPS.lam)
MASS_DRIFT_MAX = 1e-8


def _draw(rng: np.random.Generator, seed: int, lo: float, hi: float) -> float:
    return 0.5 * (lo + hi) if seed == 0 else float(rng.uniform(lo, hi))


def _mass_drift(trace) -> float:
    return float(np.max(np.abs(trace.mass - trace.mass[0])) / trace.mass[0])


@dataclass
class Timed:
    """What ``operate`` hands back: results for ``verify``, the time inside
    the timed operations (``run_s``) and per-call classify latencies."""

    results: dict
    run_s: float
    classify_s: list


class Dichotomy:
    """The paper's headline experiment, as the CLI's dichotomy sweep runs it."""

    name = "dichotomy"
    SOLVE_N, SOLVE_R = 512, 4.0
    PAD = 8.0
    T_END, RECORD_EVERY = 100.0, 200
    WARMUP_T_END = 2.0

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {"kappas": (_draw(rng, seed, 0.78, 0.82), _draw(rng, seed, 1.18, 1.22))}

    def sizes(self, inputs: dict) -> dict:
        return {"solve_n": self.SOLVE_N, "solve_r_max": self.SOLVE_R,
                "pad_factor": self.PAD, "t_end": self.T_END,
                "record_every": self.RECORD_EVERY, "kappas": list(inputs["kappas"])}

    def setup(self, api, inputs: dict) -> dict:
        profile = api.solve_extremal(EXPS, ag.RadialGrid(self.SOLVE_N, self.SOLVE_R))
        thr = api.compute_thresholds(profile, EXPS)
        wt = api.threshold_profile(profile, EXPS)
        wt = api.pad_grid(wt, self.PAD * ag.support_radius(wt))
        kernel = api.build_kernel(wt.grid, EXPS.lam)
        return {"profile": profile, "thr": thr, "wt": wt, "kernel": kernel}

    def warmup(self, api, inputs: dict, out_dir) -> None:
        self.operate(api, self.setup(api, inputs), inputs, out_dir, self.WARMUP_T_END)

    def operate(self, api, state: dict, inputs: dict, out_dir, t_end: float = T_END) -> Timed:
        thr, wt, kernel = state["thr"], state["wt"], state["kernel"]
        cfg = ag.SimConfig(t_end=t_end, record_every=self.RECORD_EVERY)
        legs, run_s, classify_s = [], 0.0, []
        for kappa in inputs["kappas"]:
            u0 = wt.with_values(kappa * wt.values)
            t0 = perf_counter()
            cls = api.classify(u0, thr, EXPS, kernel)
            t1 = perf_counter()
            trace, steps = api.run(u0, cfg, kernel, EXPS)
            t2 = perf_counter()
            barrier = api.barrier_check(trace, thr, EXPS)
            path = os.path.join(out_dir, f"trace_kappa_{kappa:.6f}.csv")
            api.trace_to_csv(trace, path)
            classify_s.append(t1 - t0)
            run_s += t2 - t1
            legs.append((kappa, cls, trace, steps, barrier, path))
        return Timed({"legs": legs}, run_s, classify_s)

    def verify(self, state: dict, timed: Timed, inputs: dict):
        profile, thr, kernel = state["profile"], state["thr"], state["kernel"]
        checks = [("solve_extremal", profile.converged, "solver did not converge")]
        want = [("GlobalExistence", "CompletedBounded", "stayed_below"),
                ("FiniteTimeBlowup", "BlowupDetected", "stayed_above")]
        sums = {"cstar": thr.cstar, "x_star": thr.x_star, "g_at_xstar": thr.g_at_xstar,
                "legs": []}
        for (kappa, cls, trace, steps, barrier, path), (verdict, outcome, side) in zip(
                timed.results["legs"], want):
            drift = _mass_drift(trace)
            with open(path) as fh:
                lines = sum(1 for _ in fh)
            checks += [
                (f"classify kappa={kappa:.4f}", cls.verdict.value == verdict,
                 f"verdict {cls.verdict.value}, expected {verdict}"),
                (f"run kappa={kappa:.4f}",
                 trace.outcome.value == outcome and drift <= MASS_DRIFT_MAX,
                 f"outcome {trace.outcome.value} (expected {outcome}), mass drift {drift:.2e}"),
                (f"barrier_check kappa={kappa:.4f}", getattr(barrier, side),
                 f"barrier ratio left the {side} side"),
                (f"trace_to_csv kappa={kappa:.4f}", lines == len(trace.t) + 1,
                 f"{lines} CSV lines for {len(trace.t)} records"),
            ]
            sums["legs"].append({
                "kappa": kappa, "verdict": cls.verdict.value,
                "outcome": trace.outcome.value, "t_detect": trace.t_detect,
                "steps": steps, "final_mass": float(trace.mass[-1]),
                "F_end": float(trace.F[-1]),
            })
        counts = {"iterations": profile.iterations,
                  "accepted": len(profile.j_history) - 1,
                  "steps_kept": sum(leg["steps"] for leg in sums["legs"])}
        return checks, sums, counts


class EnergyBudget:
    """Acceptance criterion 7: a full-support Gaussian, diagnostics every 5 steps."""

    name = "energy_budget"
    N, R = 512, 8.0
    T_END, RECORD_EVERY = 0.3, 5
    WARMUP_T_END = 0.03
    BUDGET_GAP_MAX = 0.10

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {"amplitude": _draw(rng, seed, 0.45, 0.55),
                "width": _draw(rng, seed, 0.95, 1.05)}

    def sizes(self, inputs: dict) -> dict:
        return {"n": self.N, "r_max": self.R, "t_end": self.T_END,
                "record_every": self.RECORD_EVERY, **inputs}

    def setup(self, api, inputs: dict) -> dict:
        grid = ag.RadialGrid(self.N, self.R)
        amp, width = inputs["amplitude"], inputs["width"]
        u0 = api.field_from_function(grid, lambda r: amp * np.exp(-((r / width) ** 2)))
        return {"u0": u0, "kernel": api.build_kernel(grid, EXPS.lam)}

    def warmup(self, api, inputs: dict, out_dir) -> None:
        self.operate(api, self.setup(api, inputs), inputs, out_dir, self.WARMUP_T_END)

    def operate(self, api, state: dict, inputs: dict, out_dir, t_end: float = T_END) -> Timed:
        cfg = ag.SimConfig(t_end=t_end, record_every=self.RECORD_EVERY)
        t0 = perf_counter()
        trace, steps = api.run(state["u0"], cfg, state["kernel"], EXPS)
        return Timed({"trace": trace, "steps": steps}, perf_counter() - t0, [])

    def verify(self, state: dict, timed: Timed, inputs: dict):
        trace = timed.results["trace"]
        drift = _mass_drift(trace)
        monotone = bool(np.all(np.diff(trace.F) <= 1e-6 * abs(trace.F[0])))
        drop = float(trace.F[0] - trace.F[-1])
        budget = float(np.trapezoid(trace.dissipation, trace.t))
        gap = abs(drop - budget) / drop if drop > 0 else float("inf")
        ok = (drift <= MASS_DRIFT_MAX and monotone and gap <= self.BUDGET_GAP_MAX
              and trace.outcome.value == "CompletedBounded")
        # The run's checks (criterion 7) cannot see a kernel whose potential
        # is off by a constant factor: dynamics and F stay consistent with it.
        # The sharp bound (criterion 3) on the initial field can.
        j_ratio = ag.vhls_quotient(state["u0"], EXPS, state["kernel"]) / C_HLS
        checks = [("build_kernel", j_ratio <= 1.0, f"J(u0)/C_HLS = {j_ratio:.6f} > 1"),
                  ("run", ok, f"outcome {trace.outcome.value}, mass drift {drift:.2e}, "
                              f"F monotone {monotone}, budget gap {gap:.3%}")]
        sums = {"F_end": float(trace.F[-1]), "budget_gap": gap,
                "steps": timed.results["steps"], "records": len(trace.t)}
        return checks, sums, {"steps_kept": timed.results["steps"]}


class ClassifyBatch:
    """The classifier use case: two n = 2048 kernel builds, then a batch of
    classify requests on seeded random densities."""

    name = "classify_batch"
    SOLVE_N, SOLVE_R = 2048, 4.0
    EVAL_N, EVAL_R = 2048, 8.0
    FIELDS = 400  # 20 samples above p95 in every round
    WARMUP_N = 512

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        grid = ag.RadialGrid(self.EVAL_N, self.EVAL_R)
        fields = []
        while len(fields) < self.FIELDS:
            u = random_density(grid, rng)
            if ag.mass(u) > 0.0:  # classify and J are undefined on the zero field
                fields.append(u)
        return {"fields": fields}

    def sizes(self, inputs: dict) -> dict:
        return {"solve_n": self.SOLVE_N, "solve_r_max": self.SOLVE_R,
                "eval_n": self.EVAL_N, "eval_r_max": self.EVAL_R,
                "fields": len(inputs["fields"])}

    def setup(self, api, inputs: dict) -> dict:
        profile = api.solve_extremal(EXPS, ag.RadialGrid(self.SOLVE_N, self.SOLVE_R))
        thr = api.compute_thresholds(profile, EXPS)
        kernel = api.build_kernel(ag.RadialGrid(self.EVAL_N, self.EVAL_R), EXPS.lam)
        return {"profile": profile, "thr": thr, "kernel": kernel}

    def warmup(self, api, inputs: dict, out_dir) -> None:
        """The same calls on n = 512 grids: a full-size set-up takes ~4 s."""
        profile = api.solve_extremal(EXPS, ag.RadialGrid(self.WARMUP_N, self.SOLVE_R))
        thr = api.compute_thresholds(profile, EXPS)
        grid = ag.RadialGrid(self.WARMUP_N, self.EVAL_R)
        kernel = api.build_kernel(grid, EXPS.lam)
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = random_density(grid, rng)
            if ag.mass(u) > 0.0:
                api.classify(u, thr, EXPS, kernel)

    def operate(self, api, state: dict, inputs: dict, out_dir) -> Timed:
        thr, kernel, classify = state["thr"], state["kernel"], api.classify
        verdicts, lat = [], []
        for u in inputs["fields"]:
            t0 = perf_counter()
            cls = classify(u, thr, EXPS, kernel)
            lat.append(perf_counter() - t0)
            verdicts.append(cls.verdict.value)
        return Timed({"verdicts": verdicts}, float(sum(lat)), lat)

    def verify(self, state: dict, timed: Timed, inputs: dict):
        profile, kernel = state["profile"], state["kernel"]
        tol = ag.ExtremalOptions().tol_res
        checks = [("solve_extremal", profile.converged and profile.el_residual <= tol,
                   f"converged {profile.converged}, el_residual {profile.el_residual:.2e}")]
        ratios = [ag.vhls_quotient(u, EXPS, kernel) / C_HLS for u in inputs["fields"]]
        checks += [(f"classify field {i}", r <= 1.0, f"J/C_HLS = {r:.6f} > 1")
                   for i, r in enumerate(ratios)]
        sums = {"cstar": profile.cstar, "verdicts": dict(Counter(timed.results["verdicts"])),
                "max_J_over_C_HLS": max(ratios)}
        counts = {"iterations": profile.iterations, "accepted": len(profile.j_history) - 1}
        return checks, sums, counts


WORKLOADS = {w.name: w for w in (Dichotomy(), EnergyBudget(), ClassifyBatch())}
