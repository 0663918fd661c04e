"""The whole pipeline at a second point of the parameter window (s = 1.2,
m = 1.15, kernel power 0.6): nothing in the machinery is tuned to the
default laboratory values."""

import numpy as np
import pytest

import aggdiff as ag
from aggdiff.testing import mass_drift


@pytest.fixture(scope="module")
def exps_alt():
    # window for m at s = 1.2 is (1.1111, 1.2)
    return ag.derive_exponents(ag.ModelParams(3, 1.2, 1.15))


@pytest.fixture(scope="module")
def profile_alt(exps_alt):
    return ag.solve_extremal(exps_alt, ag.RadialGrid(512, 4.0))


def test_exponent_identities(exps_alt):
    e = exps_alt
    assert abs(e.lam - 0.6) <= 1e-14
    assert abs(e.b0 - e.m * e.beta) <= 1e-14
    assert abs(e.a + e.a0 - e.a * e.beta) <= 1e-13
    assert 1.0 < e.p < 2.0 * 3 / (3 + 2.4) < e.m
    assert e.beta > 1.0


def test_extremal_solves_and_obeys_bound(exps_alt, profile_alt):
    assert profile_alt.converged
    assert profile_alt.el_residual <= 1e-4
    assert profile_alt.cstar <= ag.hls_sharp_constant(3, exps_alt.lam)
    assert np.all(np.diff(profile_alt.w.values) <= 1e-12)
    assert abs(ag.mass(profile_alt.w) - 1.0) <= 1e-10


def test_threshold_structure(exps_alt, profile_alt):
    thr = ag.compute_thresholds(profile_alt, exps_alt)
    d, s, m = 3, 1.2, 1.15
    ident = 2.0 * (d - 2 * s) * thr.g_at_xstar \
        + (2.0 * d - 2.0 * (d - 2 * s) / (m - 1.0)) * thr.x_star
    assert abs(ident) <= 1e-10 * thr.x_star

    wt = ag.threshold_profile(profile_alt, exps_alt)
    kernel = ag.build_kernel(wt.grid, exps_alt.lam)
    prod = ag.mass(wt) ** exps_alt.a * ag.lp_norm(wt, exps_alt.m) ** exps_alt.m
    assert abs(prod / thr.x_star - 1.0) <= 1e-10
    mu = ag.chemical_potential(wt, exps_alt, kernel)
    on = wt.values > 1e-6 * wt.values.max()
    spread = (mu[on].max() - mu[on].min()) / abs(mu[on].mean())
    assert spread <= 1e-3
    lhs, rhs = ag.virial_check(wt, exps_alt, kernel)
    scale = abs(2.0 * d - 2.0 * (d - 2 * s) / (m - 1.0)) * ag.lp_norm(wt, m) ** m
    assert abs(rhs) <= 1e-3 * scale


def test_classification_of_amplitude_family(exps_alt, profile_alt):
    thr = ag.compute_thresholds(profile_alt, exps_alt)
    wt = ag.threshold_profile(profile_alt, exps_alt)
    kernel = ag.build_kernel(wt.grid, exps_alt.lam)
    lo = ag.classify(wt.with_values(0.8 * wt.values), thr, exps_alt, kernel)
    hi = ag.classify(wt.with_values(1.2 * wt.values), thr, exps_alt, kernel)
    assert lo.verdict is ag.Verdict.GLOBAL_EXISTENCE
    assert hi.verdict is ag.Verdict.FINITE_TIME_BLOWUP
    assert lo.energy_ok and hi.energy_ok


def test_short_evolution_conserves_and_decays(exps_alt):
    grid = ag.RadialGrid(384, 8.0)
    kernel = ag.build_kernel(grid, exps_alt.lam)
    u0 = ag.field_from_function(grid, lambda r: 0.5 * np.exp(-(r**2)))
    tr = ag.run(u0, ag.SimConfig(t_end=0.1, record_every=20), kernel, exps_alt)
    assert tr.outcome is ag.Outcome.COMPLETED_BOUNDED
    assert mass_drift(tr) <= 1e-10
    assert np.all(np.diff(tr.F) <= 1e-6 * abs(tr.F[0]))
