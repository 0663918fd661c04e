"""Acceptance battery: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is fixed here, not configurable.
"""

import numpy as np

import aggdiff as ag
from aggdiff import (
    Agreement,
    ExtremalOptions,
    Outcome,
    RadialGrid,
    SimConfig,
    Verdict,
    agrees,
    barrier_check,
    barrier_g,
    build_kernel,
    classify,
    field_from_function,
    free_energy,
    hls_sharp_constant,
    interaction,
    lp_norm,
    mass,
    potential_at,
    run,
    solve_extremal,
    vhls_quotient,
    virial_check,
)
from aggdiff.testing import (
    exponent_identity_defect,
    mass_drift,
    max_hls_ratio,
    scale_invariance_defect,
    trial_densities,
)

LAM = 0.8


def report(num, text):
    print(f"PASS  criterion {num}: {text}")


def test_criterion_01_exponent_arithmetic(exps):
    assert abs(exps.a - 1.2) <= 1e-12
    assert abs(exps.a0 - 0.4) <= 1e-12
    assert abs(exps.b0 - 1.6) <= 1e-12
    assert abs(exps.beta - 4.0 / 3.0) <= 1e-12
    assert abs(exps.p - 12.0 / 11.0) <= 1e-12
    assert abs(exps.lam - 0.8) <= 1e-12
    worst = exponent_identity_defect(np.random.default_rng(314159), 1000)
    assert worst <= 1e-14, worst
    report(1, f"exponents exact; identity defect {worst:.2e} <= 1e-14 over 1000 triples")


def test_criterion_02_riesz_oracle_equivalence(exps):
    from test_riesz import oracle_interaction, oracle_potential

    grid = RadialGrid(1024, 8.0)
    kernel = build_kernel(grid, LAM)
    # each entry: profile and the upper end of its support (the oracles
    # integrate only over the support, keeping quad clear of the ball jump)
    fields = {
        "gaussian": (lambda r: np.exp(-(r**2)), grid.r_max),
        "ball": (lambda r: 0.8 * np.asarray(r < 1.5, dtype=float), 1.5),
    }
    worst = 0.0
    for name, (f, upper) in fields.items():
        u = field_from_function(grid, f)
        for rt in (0.0, 0.7, 1.5, 2.5):
            oracle = oracle_potential(f, rt, LAM, upper)
            val = potential_at(u, np.array([rt]), LAM)[0]
            worst = max(worst, abs(val - oracle) / oracle)
        h_oracle = oracle_interaction(f, LAM, upper)
        h = interaction(u, kernel)
        worst = max(worst, abs(h - h_oracle) / h_oracle)
    assert worst <= 1e-3, worst
    report(2, f"potential and interaction match quadrature oracles, worst rel {worst:.2e}")


def test_criterion_03_hls_bound(exps):
    grid = RadialGrid(1024, 8.0)
    kernel = build_kernel(grid, LAM)
    c_hls = hls_sharp_constant(3, LAM)
    worst = max_hls_ratio(exps, kernel, np.random.default_rng(271828), 100)
    assert worst <= 1.0, worst
    report(3, f"J(u) <= C(3,0.8) = {c_hls:.6f} on 100 seeded fields "
              f"(max ratio {worst:.4f}), zero violations")


def test_criterion_04_scale_invariance(exps):
    grid = RadialGrid(1024, 8.0)
    kernel = build_kernel(grid, LAM)
    u = field_from_function(grid, lambda r: np.maximum(1.0 - (r / 1.7) ** 2, 0.0) ** 2)
    worst = scale_invariance_defect(u, exps, kernel)
    assert worst <= 1e-6, worst
    report(4, f"J, invariant product, and scaled energy invariant to {worst:.2e} <= 1e-6")


def test_criterion_05_extremal_convergence(exps, profile_n1024):
    p_bump = profile_n1024
    p_gauss = solve_extremal(exps, RadialGrid(1024, 4.0),
                             ExtremalOptions(init="gaussian"))
    dj = abs(p_bump.cstar - p_gauss.cstar) / p_bump.cstar
    assert dj <= 1e-4
    assert p_bump.el_residual <= 1e-4 and p_gauss.el_residual <= 1e-4
    grid_t = RadialGrid(1024, 6.0)
    kernel_t = build_kernel(grid_t, exps.lam)
    trials = trial_densities(grid_t, exps.m)
    assert len(trials) == 20
    j_best = max(vhls_quotient(u, exps, kernel_t) for u in trials)
    assert j_best <= p_bump.cstar
    w = p_bump.w
    assert np.all(np.diff(w.values) <= 1e-12 * w.values.max())
    assert p_bump.support_radius < 0.81 * w.grid.r_max
    report(5, f"two-start agreement {dj:.2e}, residuals <= 1e-4, "
              f"cstar = {p_bump.cstar:.6f} >= best trial {j_best:.6f}, compact support")


def test_criterion_06_threshold_identities(exps, profile_n1024):
    thr = ag.compute_thresholds(profile_n1024, exps)
    h = 1e-4 * thr.x_star
    fd = (barrier_g(thr.x_star + h, exps, thr.cstar)
          - barrier_g(thr.x_star - h, exps, thr.cstar)) / (2.0 * h)
    slope_scale = 1.0 / (exps.m - 1.0)
    assert abs(fd) / slope_scale <= 1e-8
    d, s, m = exps.d, exps.s, exps.m
    ident = 2.0 * (d - 2 * s) * thr.g_at_xstar \
        + (2.0 * d - 2.0 * (d - 2 * s) / (m - 1.0)) * thr.x_star
    assert abs(ident) <= 1e-10 * thr.x_star
    wt = ag.threshold_profile(profile_n1024, exps)
    kernel = build_kernel(wt.grid, exps.lam)
    n1a = mass(wt) ** exps.a
    lhs = 2.0 * (d - 2 * s) * free_energy(wt, exps, kernel) * n1a
    rhs = -(2.0 * d - 2.0 * (d - 2 * s) / (m - 1.0)) * lp_norm(wt, m) ** m * n1a
    assert abs(lhs - rhs) <= 1e-3 * abs(rhs)
    mu = ag.chemical_potential(wt, exps, kernel)
    on = wt.values > 1e-6 * wt.values.max()
    spread = (mu.values[on].max() - mu.values[on].min()) / abs(mu.values[on].mean())
    assert spread <= 1e-3
    report(6, f"g'(x*) fd {fd * (exps.m - 1):.2e}, moment identity {ident / thr.x_star:.2e}, "
              f"steady identity, mu spread {spread:.2e} <= 1e-3")


def test_criterion_07_conservation_and_energy(exps):
    grid = RadialGrid(512, 8.0)
    kernel = build_kernel(grid, exps.lam)
    u0 = field_from_function(grid, lambda r: 0.5 * np.exp(-(r**2)))
    tr = run(u0, SimConfig(t_end=0.3, record_every=5), kernel, exps)
    drift = mass_drift(tr)
    assert drift <= 1e-8
    assert np.all(np.diff(tr.F) <= 1e-6 * abs(tr.F[0]))
    drop = tr.F[0] - tr.F[-1]
    budget = np.trapezoid(tr.dissipation, tr.t)
    assert drop > 0
    rel = abs(drop - budget) / drop
    assert rel <= 0.10
    report(7, f"mass drift {drift:.2e} <= 1e-8, F monotone, "
              f"energy/dissipation budget off by {rel:.1%} <= 10%")


def test_criterion_08_virial_consistency(exps, profile_n1024):
    g = RadialGrid(2048, 8.0)
    k = build_kernel(g, exps.lam)
    u = field_from_function(g, lambda r: 0.8 * np.exp(-(r**2)))
    lhs, rhs = virial_check(u, exps, k)
    rel = abs(lhs - rhs) / abs(rhs)
    assert rel <= 0.02
    wt = ag.threshold_profile(profile_n1024, exps)
    kernel_wt = build_kernel(wt.grid, exps.lam)
    lhs_w, rhs_w = virial_check(wt, exps, kernel_wt)
    d, s, m = exps.d, exps.s, exps.m
    scale = abs(2.0 * d - 2.0 * (d - 2 * s) / (m - 1.0)) * lp_norm(wt, m) ** m
    assert abs(rhs_w) <= 1e-3 * scale
    report(8, f"smooth-field virial balance off by {rel:.2%} <= 2%, "
              f"threshold-profile rhs {abs(rhs_w) / scale:.2e} of scale")


def test_criterion_09_dichotomy(exps, profile_n512, profile_n1024, thresholds_n512,
                                wt_padded):
    wt, kernel = wt_padded
    thr = thresholds_n512
    # globally existing side
    u_lo = wt.with_values(0.8 * wt.values)
    cls_lo = classify(u_lo, thr, exps, kernel)
    tr_lo = run(u_lo, SimConfig(t_end=100.0, record_every=400), kernel, exps)
    assert cls_lo.verdict is Verdict.GLOBAL_EXISTENCE
    assert tr_lo.outcome is Outcome.COMPLETED_BOUNDED
    assert np.max(tr_lo.linf) <= 2.0 * tr_lo.linf[0]
    barrier_lo = barrier_check(tr_lo, thr, exps)
    assert barrier_lo.stayed_below
    assert agrees(cls_lo, tr_lo, barrier_lo) is Agreement.AGREES
    # blow-up side
    u_hi = wt.with_values(1.2 * wt.values)
    cls_hi = classify(u_hi, thr, exps, kernel)
    tr_hi = run(u_hi, SimConfig(t_end=100.0, record_every=400), kernel, exps)
    assert cls_hi.verdict is Verdict.FINITE_TIME_BLOWUP
    assert tr_hi.outcome is Outcome.BLOWUP_DETECTED
    assert tr_hi.t_detect is not None and np.isfinite(tr_hi.t_detect)
    barrier_hi = barrier_check(tr_hi, thr, exps)
    assert barrier_hi.stayed_above
    assert agrees(cls_hi, tr_hi, barrier_hi) is Agreement.AGREES
    # t_detect: finite, and trends consistently under refinement (numerical
    # observation, not a reproducible constant of the continuum problem)
    wt_fine = ag.threshold_profile(profile_n1024, exps)
    wt_fine = ag.pad_grid(wt_fine, 6.0 * ag.support_radius(wt_fine))
    k_fine = build_kernel(wt_fine.grid, exps.lam)
    u_fine = wt_fine.with_values(1.2 * wt_fine.values)
    tr_fine = run(u_fine, SimConfig(t_end=100.0, record_every=10**4), k_fine, exps)
    assert tr_fine.outcome is Outcome.BLOWUP_DETECTED
    assert np.isfinite(tr_fine.t_detect)
    assert tr_fine.t_detect >= 0.8 * tr_hi.t_detect
    report(9, f"0.8x bounded to t_end (sup ratio {np.max(tr_lo.linf)/tr_lo.linf[0]:.2f}), "
              f"1.2x blow-up at t = {tr_hi.t_detect:.2f} "
              f"(refined: {tr_fine.t_detect:.2f}); verdicts and barrier sides agree")


def test_criterion_10_amplitude_peak(exps, profile_n1024):
    wt = ag.threshold_profile(profile_n1024, exps)
    kernel = build_kernel(wt.grid, exps.lam)

    def Q(kappa):
        u = wt.with_values(kappa * wt.values)
        return mass(u) ** exps.a * free_energy(u, exps, kernel)

    q09, q10, q11 = Q(0.9), Q(1.0), Q(1.1)
    assert q09 < q10
    assert q11 < q10
    report(10, f"scaled-energy peak at kappa = 1: Q(0.9)/Q(1) = {q09/q10:.4f}, "
               f"Q(1.1)/Q(1) = {q11/q10:.4f}")
