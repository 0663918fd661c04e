"""Free energy against quadrature oracles, chemical potential cases, quotient
invariances, barrier function identities, and the scheme's dissipation."""

import dataclasses
import json
import weakref

import numpy as np
import pytest
from scipy import integrate

import aggdiff as ag
from aggdiff import (
    RadialGrid,
    ZeroField,
    barrier_g,
    build_kernel,
    chemical_potential,
    dissipation,
    energy_report,
    field_from_function,
    field_from_values,
    free_energy,
    lp_norm,
    mass,
    normalize_both_norms,
    potential,
    vhls_quotient,
    xstar_threshold,
)
from aggdiff.evolve import _face_system
from aggdiff.functionals import _scaled
from aggdiff.testing import max_hls_ratio, random_density, scale_invariance_defect

from test_riesz import oracle_interaction

LAM = 0.8


@pytest.fixture(scope="module")
def grid():
    return RadialGrid(1024, 8.0)


@pytest.fixture(scope="module")
def kernel(grid):
    return build_kernel(grid, LAM)


@pytest.fixture(scope="module")
def gauss(grid):
    return field_from_function(grid, lambda r: np.exp(-(r**2)))


class TestFreeEnergy:
    def test_zero_field(self, exps, grid, kernel):
        u = field_from_values(grid, np.zeros(grid.n))
        assert free_energy(u, exps, kernel) == 0.0

    def test_small_amplitude_positive(self, exps, gauss, kernel):
        # for m < 2 the entropy term scales like eps^m, the interaction like
        # eps^2, so tiny fields have positive free energy
        tiny = gauss.with_values(1e-4 * gauss.values)
        assert free_energy(tiny, exps, kernel) > 0.0

    def test_gaussian_against_oracle(self, exps, gauss, kernel):
        m = exps.m
        ent_oracle, _ = integrate.quad(
            lambda r: 4 * np.pi * r**2 * np.exp(-m * r**2), 0, 8.0
        )
        h_oracle = oracle_interaction(lambda r: np.exp(-(r**2)), LAM, 8.0)
        oracle = ent_oracle / (m - 1.0) - 0.5 * exps.c_ds * h_oracle
        val = free_energy(gauss, exps, kernel)
        assert abs(val - oracle) <= 1e-4 * abs(oracle)


class TestChemicalPotential:
    def test_zero_field(self, exps, grid, kernel):
        u = field_from_values(grid, np.zeros(grid.n))
        mu = chemical_potential(u, exps, kernel)
        assert np.all(mu == 0.0)

    def test_cell_values(self, exps, gauss, kernel):
        # mu is signed, so no density holds it: its cell values, as
        # potential returns c's
        mu = chemical_potential(gauss, exps, kernel)
        assert type(mu) is np.ndarray and mu.shape == (gauss.grid.n,)
        assert mu.min() < 0.0 < mu.max()
        m = exps.m
        pressure = gauss.values ** (m - 1.0) * (m / (m - 1.0))
        np.testing.assert_array_equal(mu, pressure - exps.c_ds * potential(gauss, kernel))

    def test_decoupled_entropy_only(self, exps, gauss, kernel):
        # with the interaction switched off, mu is the bare entropy slope
        exps0 = dataclasses.replace(exps, c_ds=0.0)
        mu = chemical_potential(gauss, exps0, kernel)
        m = exps.m
        expect = m / (m - 1.0) * gauss.values ** (m - 1.0)
        assert np.allclose(mu, expect, rtol=1e-12)

    def test_constant_on_support_at_steady_profile(self, exps, profile_n512):
        wt = ag.threshold_profile(profile_n512, exps)
        kernel_wt = build_kernel(wt.grid, exps.lam)
        mu = chemical_potential(wt, exps, kernel_wt)
        on = wt.values > 1e-6 * wt.values.max()
        spread = mu[on].max() - mu[on].min()
        assert spread <= 1e-3 * abs(np.mean(mu[on]))


class TestQuotient:
    def test_value_scaling_exact(self, exps, gauss, kernel):
        j0 = vhls_quotient(gauss, exps, kernel)
        j2 = vhls_quotient(gauss.with_values(2.0 * gauss.values), exps, kernel)
        assert abs(j2 - j0) <= 1e-12 * j0

    def test_two_parameter_invariance(self, exps, gauss, kernel):
        assert scale_invariance_defect(gauss, exps, kernel) <= 1e-8

    def test_bounded_by_sharp_constant(self, exps, kernel):
        # the lower end shows the measure saw the fields: skipping them reads 0
        assert 0.5 < max_hls_ratio(exps, kernel, np.random.default_rng(2024), 100) <= 1.0

    def test_normalized_field_quotient_is_interaction(self, exps, gauss, kernel):
        v, _, _ = normalize_both_norms(gauss, exps)
        j = vhls_quotient(v, exps, kernel)
        h = ag.interaction(v, kernel)
        assert abs(j - h) <= 1e-8 * j

    def test_zero_field_raises(self, exps, grid, kernel):
        with pytest.raises(ZeroField):
            vhls_quotient(field_from_values(grid, np.zeros(grid.n)), exps, kernel)


class TestBarrier:
    def test_g_at_zero(self, exps):
        assert barrier_g(0.0, exps, 1.0) == 0.0

    def test_stationary_at_xstar(self, exps):
        for cstar in (0.5, 1.0, 1.87):
            thr = xstar_threshold(exps, cstar)
            h = 1e-4 * thr.x_star
            fd = (barrier_g(thr.x_star + h, exps, cstar)
                  - barrier_g(thr.x_star - h, exps, cstar)) / (2.0 * h)
            # relative to the natural slope scale g'(0) = 1/(m-1)
            assert abs(fd) * (exps.m - 1.0) <= 1e-8

    def test_g_at_xstar_closed_form(self, exps):
        thr = xstar_threshold(exps, 1.87)
        expect = thr.x_star * (exps.beta - 1.0) / ((exps.m - 1.0) * exps.beta)
        assert abs(barrier_g(thr.x_star, exps, 1.87) - expect) <= 1e-12 * expect
        assert abs(thr.g_at_xstar - expect) <= 1e-12 * expect

    def test_monotone_shape(self, exps):
        thr = xstar_threshold(exps, 1.0)
        xs = np.linspace(0.01, 3.0, 50) * thr.x_star
        g = np.array([barrier_g(x, exps, 1.0) for x in xs])
        peak = np.argmax(g)
        assert np.all(np.diff(g[: peak + 1]) > 0)
        assert np.all(np.diff(g[peak:]) < 0)

    def test_xstar_reference_arithmetic(self, exps):
        # (2 / ((m-1) c_ds * 1.0 * beta))^3 for the laboratory parameters
        thr = xstar_threshold(exps, 1.0)
        base = 2.0 / (0.2 * exps.c_ds * (4.0 / 3.0))
        assert abs(base - 82.29) <= 0.02 * 82.29
        assert abs(thr.x_star - base**3) <= 1e-10 * base**3

    def test_moment_identity(self, exps):
        # 2(d-2s) g(x*) + (2d - 2(d-2s)/(m-1)) x* = 0
        d, s, m = exps.d, exps.s, exps.m
        for cstar in (0.7, 1.87):
            thr = xstar_threshold(exps, cstar)
            val = 2.0 * (d - 2 * s) * thr.g_at_xstar \
                + (2.0 * d - 2.0 * (d - 2 * s) / (m - 1.0)) * thr.x_star
            assert abs(val) <= 1e-10 * abs(thr.x_star)

    def test_xstar_decreasing_in_cstar(self, exps):
        x1 = xstar_threshold(exps, 1.0).x_star
        x2 = xstar_threshold(exps, 1.01).x_star
        assert x2 < x1
        # beta = 4/3 gives x* ~ cstar^-3: a 1% increase shrinks x* by ~3%
        assert abs(x2 / x1 - 1.01 ** (-3.0)) <= 1e-10

    @pytest.mark.parametrize("cstar", [0.0, -1.0, np.inf, np.nan])
    def test_cstar_positive_and_finite(self, exps, cstar):
        with pytest.raises(ValueError, match="cstar must be positive and finite"):
            xstar_threshold(exps, cstar)
        with pytest.raises(ValueError, match="cstar must be positive and finite"):
            barrier_g(1.0, exps, cstar)

    def test_overflow_near_top_of_m_range_is_a_regime_error(self):
        # s = 1.1, m = 1.266 of a range ending at 1.2667: beta - 1 = 0.0025,
        # so x_star = base^(1/(beta - 1)) is past float64 at the solved cstar
        exps = ag.derive_exponents(ag.ModelParams(3, 1.1, 1.266))
        with pytest.raises(ag.RegimeError, match=r"x_star overflows float64.*2 - 2s/d"):
            xstar_threshold(exps, 1.8407)
        # and so is ||u||_1^a (a = 291.6) for a density of mass above 12
        u = field_from_function(RadialGrid(64, 4.0), lambda r: np.exp(-r**2))
        u = u.with_values(10.0 * u.values)
        kernel = build_kernel(u.grid, exps.lam)
        with pytest.raises(ag.RegimeError, match=r"\|\|u\|\|_1\^a overflows float64"):
            energy_report(u, exps, kernel)


class TestScaledInvariants:
    def test_scalar_and_array_powers_as_before(self, exps):
        # a field's numbers take the scalar power and a trace's columns the
        # array power, bit for bit as each was computed on its own before
        rng = np.random.default_rng(3)
        n1, x = rng.uniform(0.1, 1e3, 64), rng.uniform(-1e3, 1e3, 64)
        np.testing.assert_array_equal(_scaled(exps, n1, x), n1**exps.a * x)
        for a, b in zip(n1.tolist(), x.tolist()):
            got = _scaled(exps, a, b)
            assert type(got) is float and got == a**exps.a * b
        assert _scaled(exps, 2.0) == 2.0**exps.a

    def test_overflow_names_the_quantity(self, exps):
        with pytest.raises(ag.RegimeError, match="the scaled energy overflows float64"):
            _scaled(exps, 2.0, -1e308, "the scaled energy")
        with pytest.raises(ag.RegimeError, match=r"\|\|u\|\|_1\^a overflows float64"):
            _scaled(exps, np.array([1.0, 1e300]), np.ones(2), "the product")


class TestDissipation:
    def test_constant_field_zero_interaction(self, exps, grid, kernel):
        exps0 = dataclasses.replace(exps, c_ds=0.0)
        u = field_from_values(grid, np.full(grid.n, 0.7))
        assert dissipation(u, exps0, kernel) <= 1e-20

    def test_near_zero_at_steady_profile(self, exps, profile_n512):
        wt = ag.threshold_profile(profile_n512, exps)
        kernel_wt = build_kernel(wt.grid, exps.lam)
        dis = dissipation(wt, exps, kernel_wt)
        scale = lp_norm(wt, np.inf) * abs(free_energy(wt, exps, kernel_wt))
        assert dis <= 1e-8 * scale

    def test_is_energy_rate_of_step(self, exps):
        # the discrete mu is the exact variational derivative of the discrete
        # F, so the upwind scheme dissipates exactly D_h: F falls at that rate
        # over a short step (the implicit step's rate differs from it by O(h))
        grid = RadialGrid(512, 8.0)
        kernel = build_kernel(grid, exps.lam)
        u = field_from_function(grid, lambda r: 0.8 * np.exp(-(r**2)))
        h = 1e-7
        u_h, _ = ag.step(u, kernel, exps, ag.SimConfig(t_end=1.0), dt=h)
        rate = (free_energy(u, exps, kernel) - free_energy(u_h, exps, kernel)) / h
        dis = dissipation(u, exps, kernel)
        assert abs(rate - dis) <= 1e-5 * dis

    def test_face_system_kept_on_the_field(self, exps, grid, kernel):
        # built once per (field, exps, kernel): a record's dissipation and the
        # step from that state share it, read-only
        u = field_from_function(grid, lambda r: 0.8 * np.exp(-(r**2)))
        system = _face_system(u, exps, kernel)
        assert _face_system(u, exps, kernel) is system
        assert not any(a.flags.writeable for a in system[1:])
        # other exps or kernel objects, even equal ones, build their own
        other = build_kernel(grid, kernel.lam)
        for args in ((dataclasses.replace(exps), kernel), (exps, other)):
            again = _face_system(u, *args)
            assert again is not system
            for a, b in zip(again, system):
                np.testing.assert_array_equal(a, b)
        # the field keeps no kernel alive
        held = weakref.ref(other)
        del other, args
        assert held() is None

    def test_drift_square_term_bounded(self, exps, grid, kernel):
        # int u |grad c|^2 <= C ||u||_q^3 with q = 3d/(d-2(1-2s)); fit C on
        # ten samples, verify on ten fresh ones
        from aggdiff.riesz import force

        q = 3.0 * exps.d / (exps.d - 2.0 * (1.0 - 2.0 * exps.s))
        rng = np.random.default_rng(77)

        def drift_sq(u):
            frc = force(u, kernel, exps.c_ds)[1:-1]
            u_face = 0.5 * (u.values[1:] + u.values[:-1])
            rho = grid.edges[1:-1]
            return float(np.sum(u_face * frc**2 * 4 * np.pi * rho**2 * grid.dr))

        fit = max(
            drift_sq(u) / lp_norm(u, q) ** 3
            for u in (random_density(grid, rng) for _ in range(10))
        )
        for _ in range(10):
            u = random_density(grid, rng)
            assert drift_sq(u) <= 2.0 * fit * lp_norm(u, q) ** 3


class TestEnergyReport:
    def test_consistency_and_json(self, exps, gauss, kernel):
        rep = energy_report(gauss, exps, kernel)
        assert np.isclose(rep.free_energy, rep.entropy_term - rep.interaction_term,
                          rtol=1e-14)
        assert np.isclose(rep.free_energy, free_energy(gauss, exps, kernel), rtol=1e-14)
        assert rep.vhls_quotient == vhls_quotient(gauss, exps, kernel)
        assert rep.mass > 0 and rep.lm_norm > 0 and rep.second_moment > 0
        # the report's JSON form is its dataclass dict (demo 06 prints it)
        payload = json.loads(json.dumps(dataclasses.asdict(rep)))
        assert set(payload) == {
            "entropy_term", "interaction_term", "free_energy", "mass",
            "lm_norm", "product", "barrier", "vhls_quotient", "second_moment",
        }

    def test_barrier_lower_bound(self, exps, grid, kernel, profile_n512):
        # H(u) >= g(||u||_1^a ||u||_m^m) with the computed optimal constant
        rng = np.random.default_rng(31)
        cstar = profile_n512.cstar
        for _ in range(50):
            u = random_density(grid, rng)
            rep = energy_report(u, exps, kernel)
            bound = barrier_g(rep.product, exps, cstar)
            assert rep.barrier >= bound - 1e-10 * max(1.0, abs(bound))


class TestInvarianceOfBarrierQuantities:
    def test_product_and_barrier_under_dynamic_scaling(self, exps, gauss, kernel):
        # energy_report's product and barrier fields, through the shared measure
        assert scale_invariance_defect(gauss, exps, kernel) <= 1e-6


# every entry point where exponents meet a kernel, called as (u, exps, kernel)
_KERNEL_READERS = {
    "free_energy": free_energy,
    "vhls_quotient": vhls_quotient,
    "energy_report": energy_report,
    "chemical_potential": chemical_potential,
    "el_residual": lambda u, e, k: ag.el_residual(u, 1.0, e, k),
    "step": lambda u, e, k: ag.step(u, k, e, ag.SimConfig(t_end=1.0)),
    "dissipation": dissipation,
    "virial_check": ag.virial_check,
    "classify": lambda u, e, k: ag.classify(u, ag.Thresholds(1e3, 1e3, 1.8), e, k),
}


class TestKernelMatchesExponents:
    """The kernel must be the one the exponents describe: d = 3, and the
    same power lam; a mismatch raises instead of giving numbers."""

    @pytest.fixture(scope="class")
    def small(self):
        return field_from_function(RadialGrid(64, 8.0), lambda r: np.exp(-(r**2)))

    @pytest.mark.parametrize("reader", _KERNEL_READERS.values(), ids=_KERNEL_READERS)
    def test_other_dimension_rejected(self, small, reader):
        e5 = ag.derive_exponents(ag.ModelParams(5, 2.2, 1.1))
        with pytest.raises(ag.UnsupportedDimension, match="d = 5"):
            reader(small, e5, build_kernel(small.grid, e5.lam))

    @pytest.mark.parametrize("reader", _KERNEL_READERS.values(), ids=_KERNEL_READERS)
    def test_other_power_rejected(self, exps, small, reader):
        with pytest.raises(ValueError, match=f"lam = 0.5 .*lam = {exps.lam!r}"):
            reader(small, exps, build_kernel(small.grid, 0.5))
