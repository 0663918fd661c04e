"""Kernel tables against independent quadrature oracles, scaling laws, the
sharp interaction bound, and rearrangement monotonicity."""

import dataclasses

import numpy as np
import pytest
from scipy import integrate

import aggdiff as ag
from aggdiff import (
    GridMismatch,
    RadialGrid,
    build_kernel,
    field_from_function,
    field_from_values,
    force,
    hls_sharp_constant,
    interaction,
    lp_norm,
    mass,
    potential,
    potential_at,
    rearrange_decreasing,
    scale_field,
)
from aggdiff.riesz import _pot_rows_exact, _shell_integral
from aggdiff.testing import (
    kernel_symmetry_defect,
    max_hls_ratio,
    random_density,
    rearrangement_loss,
)

LAM = 0.8


def oracle_potential(f, r, lam, r_max):
    """Continuum angular-reduced potential of the radial profile f at radius
    r, by adaptive quadrature (independent of the table construction)."""
    if r == 0.0:
        val, _ = integrate.quad(
            lambda rp: 4.0 * np.pi * rp ** (2.0 - lam) * f(rp), 0.0, r_max, limit=400
        )
        return val
    def integrand(rp):
        return (
            2.0 * np.pi * rp / ((2.0 - lam) * r)
            * ((r + rp) ** (2.0 - lam) - abs(r - rp) ** (2.0 - lam))
            * f(rp)
        )
    val, _ = integrate.quad(
        integrand, 0.0, r_max, limit=400, points=[r] if 0 < r < r_max else None
    )
    return val


def oracle_interaction(f, lam, r_max):
    """Brute-force nested quadrature of iint f f |x-y|^(-lam)."""
    def outer(r):
        return 4.0 * np.pi * r**2 * f(r) * oracle_potential(f, r, lam, r_max)
    val, _ = integrate.quad(outer, 0.0, r_max, limit=400)
    return val


@pytest.fixture(scope="module")
def grid1024():
    return RadialGrid(1024, 8.0)


@pytest.fixture(scope="module")
def kernel1024(grid1024):
    return build_kernel(grid1024, LAM)


@pytest.fixture(scope="module")
def gauss1024(grid1024):
    return field_from_function(grid1024, lambda r: np.exp(-(r**2)))


class TestBuild:
    def test_rejects_bad_power(self, grid1024):
        with pytest.raises(ValueError):
            build_kernel(grid1024, 1.5)

    def test_weights_nonnegative(self, kernel1024):
        assert np.all(kernel1024.pot >= 0.0)

    def test_volume_weighted_symmetry(self, grid1024, kernel1024):
        # the two independent estimates of each shell-pair integral agree to
        # discretization accuracy...
        V = grid1024.volumes
        S = V[:, None] * kernel1024.pot
        assert np.max(np.abs(S - S.T)) <= 2e-4 * np.max(S)
        # ...and the interaction form itself is exactly symmetric: its matvec
        # is (S_sym u)/V with S_sym = (S + S.T)/2
        assert kernel_symmetry_defect(kernel1024, np.random.default_rng(1)) <= 1e-13

    def test_delta_bump_at_origin_value(self):
        # concentrated shell at r0 with mass M: potential at 0 -> M / r0^lam
        grid = RadialGrid(2048, 4.0)
        r0 = 1.0
        width = 0.02
        u = field_from_function(
            grid, lambda r: np.exp(-(((r - r0) / width) ** 2))
        )
        M = mass(u)
        val = potential_at(u, np.array([0.0]), LAM)[0]
        assert abs(val - M / r0**LAM) <= 1e-3 * M / r0**LAM


def reference_rows(n, r_max, lam, centres, faces):
    """Potential rows at the given cell centres and force rows at the given
    faces, from the closed-form antiderivatives of the shell integral
    evaluated at 40 significant digits in physical coordinates: the
    library's own P and M on mpmath numbers (only the float pi of their
    prefactor is double precision), and the derivative's P2 and G written
    out here."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        lam = mpmath.mpf(lam)
        t, dr = 2 - lam, mpmath.mpf(r_max) / n
        edges = np.array([j * dr for j in range(n + 1)], dtype=object)
        a, b = edges[:-1], edges[1:]

        def E(r, x):  # P2 - G
            w = x - r
            return ((r + x) ** (t + 1) / (t + 1) - r * (r + x) ** t / t
                    + r * abs(w) ** t / t + mpmath.sign(w) * abs(w) ** (t + 1) / (t + 1))

        r = np.array([(i + mpmath.mpf(1) / 2) * dr for i in centres], dtype=object)
        pot = _pot_rows_exact(r, a, b, lam)
        frc = []
        for f in faces:
            r = f * dr
            I = _shell_integral(np.array([[r]], dtype=object), a, b, t)[0]
            e = [E(r, x) for x in edges]
            D = t * (np.array(e[1:], dtype=object) - np.array(e[:-1], dtype=object))
            frc.append(2 * mpmath.pi / t * (-I / r**2 + D / r))
        return pot.astype(float), np.array(frc, dtype=float)


class TestTables:
    def test_against_high_precision_antiderivatives(self):
        n, r_max = 256, 8.0
        centres, faces = [0, 1, 7, 128, 255], [1, 2, 7, 128, 256]
        kernel = build_kernel(RadialGrid(n, r_max), LAM)
        pot, frc = reference_rows(n, r_max, LAM, centres, faces)

        def row_error(rows, ref):
            return np.max(np.abs(rows - ref), axis=1) / np.max(np.abs(ref), axis=1)

        assert np.all(row_error(kernel.pot[centres], pot) <= 1e-11)
        # the face-1 row loses about 8 digits to cancellation between the
        # two terms of the derivative
        assert np.all(row_error(kernel.frc[faces], frc) <= 3e-8)

    @pytest.mark.parametrize("c", [0.37, 3.0])
    def test_exact_homogeneity(self, c):
        base = build_kernel(RadialGrid(300, 5.0), LAM)
        scaled = build_kernel(RadialGrid(300, c * 5.0), LAM)
        pot_ref = c ** (3.0 - LAM) * base.pot
        frc_ref = c ** (2.0 - LAM) * base.frc
        np.testing.assert_allclose(scaled.pot, pot_ref, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(scaled.frc, frc_ref, rtol=1e-14, atol=0.0)


def dense_interaction_matvec(kernel, u):
    """The interaction matvec from the raw rows: two dense products."""
    V = kernel.grid.volumes
    return 0.5 * (kernel.pot @ u + (kernel.pot.T @ (V * u)) / V)


class TestInteractionMatvec:
    @pytest.mark.parametrize("last", [0, 517, 1023])
    def test_windowed_matches_dense(self, grid1024, kernel1024, last):
        # support ending at cell 0, at a middle cell and at cell n - 1
        u = np.zeros(grid1024.n)
        u[: last + 1] = np.random.default_rng(last).random(last + 1) + 0.1
        full = kernel1024.interaction_matvec(u)
        np.testing.assert_allclose(
            full, dense_interaction_matvec(kernel1024, u), rtol=1e-13, atol=0.0
        )
        rows = min(last + 2, grid1024.n)
        part = kernel1024.interaction_matvec(u, rows=rows, extent=last + 1)
        assert part.shape == (rows,)
        np.testing.assert_allclose(part, full[:rows], rtol=1e-14, atol=0.0)

    def test_zero_field(self, grid1024, kernel1024):
        u = np.zeros(grid1024.n)
        assert np.all(kernel1024.interaction_matvec(u) == 0.0)
        part = kernel1024.interaction_matvec(u, rows=1, extent=0)
        assert part.shape == (1,) and part[0] == 0.0

    def test_replaced_pot_rederives_operator(self, grid1024, kernel1024, gauss1024):
        # the corrupt-kernel gates double pot with dataclasses.replace; the
        # operator must follow the new table, not keep the old one
        doubled = dataclasses.replace(kernel1024, pot=2.0 * kernel1024.pot)
        u = gauss1024.values
        np.testing.assert_allclose(
            doubled.interaction_matvec(u), 2.0 * kernel1024.interaction_matvec(u),
            rtol=1e-14, atol=0.0,
        )


class TestPotential:
    def test_zero_field(self, grid1024, kernel1024):
        u = field_from_values(grid1024, np.zeros(grid1024.n))
        c = potential(u, kernel1024, 1.0)
        assert np.all(c.values == 0.0)

    def test_gaussian_against_oracle(self, gauss1024, kernel1024):
        f = lambda r: np.exp(-(r**2))
        c = potential(gauss1024, kernel1024, 1.0)
        grid = gauss1024.grid
        for rt in (0.0, 1.0, 2.0):
            oracle = oracle_potential(f, rt, LAM, grid.r_max)
            direct = potential_at(gauss1024, np.array([rt]), LAM)[0]
            assert abs(direct - oracle) <= 1e-3 * oracle
            i = int(np.argmin(np.abs(grid.centers - max(rt, grid.dr / 2))))
            oracle_i = oracle_potential(f, grid.centers[i], LAM, grid.r_max)
            assert abs(c.values[i] - oracle_i) <= 1e-3 * oracle_i

    def test_far_field_decay(self, gauss1024):
        M = mass(gauss1024)
        r_far = 10.0 * 2.0  # ten times the effective support radius
        big = ag.pad_grid(gauss1024, 1.05 * r_far)
        val = potential_at(big, np.array([r_far]), LAM)[0]
        assert abs(val * r_far**LAM / M - 1.0) <= 1e-3

    def test_origin_consistency(self, gauss1024):
        # analytic limit row vs generic row evaluated near zero
        limit = potential_at(gauss1024, np.array([0.0]), LAM)[0]
        near = potential_at(gauss1024, np.array([1e-7]), LAM)[0]
        assert abs(near - limit) <= 1e-6 * limit

    def test_monotone_for_nonincreasing_input(self, gauss1024, kernel1024):
        c = potential(gauss1024, kernel1024, 1.0)
        assert np.all(np.diff(c.values) <= 1e-12 * c.values[0])
        assert np.all(c.values >= 0.0)

    def test_monotone_for_random_rearranged_inputs(self, grid1024, kernel1024):
        rng = np.random.default_rng(202)
        for _ in range(10):
            u = rearrange_decreasing(random_density(grid1024, rng))
            c = potential(u, kernel1024, 1.0)
            assert np.all(c.values >= 0.0)
            assert np.all(np.diff(c.values) <= 1e-10 * c.values[0])

    def test_near_identical_grid(self, grid1024, kernel1024, gauss1024):
        # a grid equal to the build grid up to roundoff in r_max goes through
        # the homogeneity factor and gets the build-grid potential and force
        near = RadialGrid(grid1024.n, grid1024.r_max * (1.0 + 1e-14))
        u = ag.RadialField(near, gauss1024.values)
        c0 = potential(gauss1024, kernel1024, 1.0).values
        c1 = potential(u, kernel1024, 1.0).values
        assert np.allclose(c1, c0, rtol=1e-12, atol=0.0)
        f0 = force(gauss1024, kernel1024, 1.0)
        f1 = force(u, kernel1024, 1.0)
        assert np.allclose(f1, f0, rtol=1e-12, atol=0.0)

    def test_grid_mismatch(self, kernel1024):
        other = RadialGrid(512, 8.0)
        u = field_from_function(other, lambda r: np.exp(-(r**2)))
        with pytest.raises(GridMismatch):
            potential(u, kernel1024, 1.0)


class TestForce:
    def test_zero_field(self, grid1024, kernel1024):
        u = field_from_values(grid1024, np.zeros(grid1024.n))
        assert np.all(force(u, kernel1024, 1.0) == 0.0)

    def test_point_mass_far_field(self):
        grid = RadialGrid(2048, 4.0)
        width = 0.02
        u = field_from_function(grid, lambda r: np.exp(-((r / width) ** 2)))
        M = mass(u)
        kernel = build_kernel(grid, LAM)
        frc = force(u, kernel, 1.0)
        faces = grid.edges
        i = int(np.argmin(np.abs(faces - 2.0)))  # far from the bump width
        expect = -LAM * M * faces[i] ** (-LAM - 1.0)
        assert abs(frc[i] - expect) <= 1e-3 * abs(expect)

    def test_nonpositive_for_nonincreasing(self, gauss1024, kernel1024):
        frc = force(gauss1024, kernel1024, 1.0)
        assert np.all(frc <= 1e-12)

    def test_finite_difference_consistency_order(self, exps):
        # face force vs centered difference of cell-center potentials must
        # converge at second order under grid refinement
        errs = []
        for n in (256, 512, 1024):
            grid = RadialGrid(n, 6.0)
            u = field_from_function(grid, lambda r: np.exp(-(r**2)))
            kernel = build_kernel(grid, LAM)
            c = potential(u, kernel, 1.0)
            frc = force(u, kernel, 1.0)[1:-1]
            fd = np.diff(c.values) / grid.dr
            errs.append(np.max(np.abs(fd - frc)))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert order1 >= 1.8
        assert order2 >= 1.8


class TestInteraction:
    def test_zero_field(self, grid1024, kernel1024):
        u = field_from_values(grid1024, np.zeros(grid1024.n))
        assert interaction(u, kernel1024) == 0.0

    def test_quadratic_homogeneity(self, gauss1024, kernel1024):
        h1 = interaction(gauss1024, kernel1024)
        h2 = interaction(gauss1024.with_values(2.0 * gauss1024.values), kernel1024)
        assert abs(h2 - 4.0 * h1) <= 1e-12 * h2

    def test_gaussian_against_nested_quadrature(self, gauss1024, kernel1024):
        oracle = oracle_interaction(lambda r: np.exp(-(r**2)), LAM, 8.0)
        h = interaction(gauss1024, kernel1024)
        assert abs(h - oracle) <= 1e-4 * oracle

    def test_scaling_law(self, exps, gauss1024, kernel1024):
        # h(alpha u(lam x)) = alpha^2 lam^-(d+2s) h(u), exact for the
        # grid-moving rescaling
        h0 = interaction(gauss1024, kernel1024)
        for alpha, lam in [(0.5, 2.0), (2.0, 0.5), (2.0, 2.0)]:
            v = scale_field(gauss1024, alpha, lam)
            hv = interaction(v, kernel1024)
            expect = alpha**2 * lam ** (-(3.0 + 2.0 * exps.s)) * h0
            assert abs(hv - expect) <= 1e-6 * abs(expect)

    def test_hls_bound_on_random_fields(self, exps, grid1024, kernel1024):
        # the plain inequality h(u) <= C ||u||_q^2 (which implies J <= C by
        # Hoelder), then the quotient form through the shared measure
        rng = np.random.default_rng(101)
        c_hls = hls_sharp_constant(3, LAM)
        q = 2.0 * 3.0 / (3.0 + 2.0 * exps.s)
        for _ in range(100):
            u = random_density(grid1024, rng)
            h = interaction(u, kernel1024)
            assert h <= c_hls * lp_norm(u, q) ** 2 * (1.0 + 1e-12)
        assert max_hls_ratio(exps, kernel1024, np.random.default_rng(101), 100) <= 1.0

    def test_rearrangement_monotonicity(self, kernel1024):
        assert rearrangement_loss(kernel1024, np.random.default_rng(55), 25) <= 1e-8

    def test_measures_propagate_nan(self, exps, kernel1024):
        # a NaN in the operator must fail a bound check, not vanish in a max
        broken = dataclasses.replace(kernel1024, pot=np.full_like(kernel1024.pot, np.nan))
        assert np.isnan(max_hls_ratio(exps, broken, np.random.default_rng(0), 3))
        assert np.isnan(rearrangement_loss(broken, np.random.default_rng(0), 3))
        assert np.isnan(kernel_symmetry_defect(broken, np.random.default_rng(0)))
