"""Kernel tables against independent quadrature oracles, scaling laws, the
sharp interaction bound, and rearrangement monotonicity."""

import dataclasses
import tracemalloc

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
from aggdiff import riesz
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
        # the public constructor checks lam as build_kernel does
        for make in (build_kernel, riesz.ReducedKernel):
            for lam in (1.5, 0.0, float("nan")):
                with pytest.raises(ValueError):
                    make(grid1024, lam)

    def test_rejects_wrong_shape_table(self):
        # a larger pinned pot would be sliced silently into the operator
        # block; tables of the right shape (dataclasses.replace) are kept
        grid = RadialGrid(128, 4.0)
        n = grid.n
        for tables in ({"pot": np.ones((200, 200))}, {"pot": np.ones((n + 1, n))},
                       {"frc": np.ones((n, n))}):
            with pytest.raises(ValueError):
                riesz.ReducedKernel(grid, LAM, **tables)

    def test_pinned_table_is_a_private_copy(self):
        grid = RadialGrid(8, 1.0)
        mine = np.ones((grid.n, grid.n))
        kernel = riesz.ReducedKernel(grid, LAM, pot=mine)
        pot, sym = kernel.pot.copy(), kernel.sym.copy()
        # the caller's array stays theirs: writeable, and writing into it
        # later moves neither the pinned table nor the operator
        assert mine.flags.writeable and not kernel.pot.flags.writeable
        mine[:] = 5.0
        np.testing.assert_array_equal(kernel.pot, pot)
        np.testing.assert_array_equal(kernel.sym, sym)
        # any array-like of the right shape is accepted, as float64
        listed = riesz.ReducedKernel(grid, LAM, pot=[[1] * grid.n] * grid.n)
        assert listed.pot.dtype == np.float64
        np.testing.assert_array_equal(listed.sym, sym)

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

    def test_operator_layout(self, grid1024, kernel1024):
        # sym is 0.5 (pot_ij + pot_ji V_j / V_i), evaluated in that order, and
        # row-major: the windowed products slice its rows and leading columns
        V, pot, sym = grid1024.volumes, kernel1024.pot, kernel1024.sym
        assert sym.flags.c_contiguous and not sym.flags.writeable
        np.testing.assert_array_equal(sym, 0.5 * (pot + pot.T * V / V[:, None]))

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


class TestFailedFill:
    """Every table fills on the calling thread when first read; a fill that
    fails raises in the read that started it and keeps nothing, so the next
    read fills afresh."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "fault, expected",
        [
            ("raise", ArithmeticError),
            # a numpy warning that the error filter turns into an exception
            ("warn", RuntimeWarning),
            # the caller's errstate holds in the operator block's fill
            ("errstate", FloatingPointError),
        ],
    )
    def test_failure_reaches_caller(self, monkeypatch, fault, expected):
        grid = RadialGrid(64, 4.0)
        if fault == "errstate":
            # with pot pinned, the operator block is the only fill of a sym
            # read, and 1e308 times a cell volume overflows in it
            def build():
                return riesz.ReducedKernel(grid, LAM, pot=np.full((grid.n, grid.n), 1e308))
        else:
            # every pot and frc fill, and an operator block filled from the
            # power tables, builds its windows through _hankel_toeplitz
            def faulty(*args):
                if fault == "raise":
                    raise ArithmeticError("fill failed")
                np.log(np.zeros(1))

            def build():
                return build_kernel(grid, LAM)

            monkeypatch.setattr(riesz, "_hankel_toeplitz", faulty)
        kernel = build()
        reads = [lambda: kernel.sym,
                 lambda: kernel.interaction_matvec(np.ones(grid.n), rows=1)]
        if fault != "errstate":
            reads += [lambda: kernel.pot, lambda: kernel.frc]
        with np.errstate(over="raise"):
            for read in reads:
                for _ in range(2):
                    with pytest.raises(expected):
                        read()
        # no operator block and no table but a pinned one
        held = {k for k, v in vars(kernel).items() if v is not None} - {"grid", "lam"}
        assert held == ({"_pot"} if fault == "errstate" else set())
        monkeypatch.undo()
        fresh = build()
        with np.errstate(over="ignore"):
            for name in ("sym", "pot", "frc"):
                np.testing.assert_array_equal(getattr(kernel, name), getattr(fresh, name))


class TestOperatorBlock:
    """The kernel fills nothing when built; the operator block grows by
    powers of two to the cells a product reads, and every block is the
    bit-identical prefix of the full operator."""

    @pytest.mark.parametrize("n", [300, 1140])
    def test_pot_rows_are_prefixes(self, n):
        t, coef = build_kernel(RadialGrid(n, 4.0), LAM)._unit(3.0)
        full = riesz._pot_table(n, t, coef)
        for size in (64, 128, 256, 512):
            if size < n:
                np.testing.assert_array_equal(riesz._pot_table(size, t, coef),
                                              full[:size, :size])

    def test_grown_block_matches_one_full_build(self):
        grid = RadialGrid(1140, 9.0)
        rng = np.random.default_rng(3)
        fields, parts, sizes = [], [], []
        grown = build_kernel(grid, LAM)
        for extent in (40, 100, 200, 400, 800, 1140):
            u = np.zeros(grid.n)
            u[:extent] = rng.random(extent) + 0.1
            fields.append(u)
            parts.append(grown.interaction_matvec(u, rows=extent))
            sizes.append(len(grown.__dict__["_block"]))
        assert sizes == [64, 128, 256, 512, 1024, 1140]
        fresh = build_kernel(grid, LAM)
        for u, part in zip(fields, parts):
            full = fresh.interaction_matvec(u)
            np.testing.assert_array_equal(part, full[: len(part)])
            np.testing.assert_array_equal(grown.interaction_matvec(u), full)
        np.testing.assert_array_equal(grown.sym, fresh.sym)

    @pytest.mark.parametrize("lam", [0.2, 0.8, 0.95])
    @pytest.mark.parametrize("n", [2, 31, 32, 33, 100, 257, 1025])
    def test_table_fill_matches_pot_derived_block(self, n, lam):
        # chunks of pot rows and columns from the power tables, partial last
        # chunks included, give the block derived from a pinned full pot,
        # and the operator's formula on that pot, bit for bit
        grid = RadialGrid(n, 4.0)
        V = grid.volumes
        filled = build_kernel(grid, lam)
        pot = riesz._pot_table(n, *filled._unit(3.0))
        derived = riesz.ReducedKernel(grid, lam, pot=pot)
        np.testing.assert_array_equal(filled.sym, derived.sym)
        np.testing.assert_array_equal(filled.sym, 0.5 * (pot + pot.T * V / V[:, None]))
        assert filled.__dict__["_pot"] is None

    def test_fill_builds_no_square_temporary(self):
        # an E x E pot beside the block would take the peak to 2x its bytes
        n = 512
        kernel = build_kernel(RadialGrid(n, 4.0), LAM)
        tracemalloc.start()
        try:
            kernel._operator(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    def test_build_fills_no_table(self):
        grid = RadialGrid(1140, 9.0)
        kernel = build_kernel(grid, LAM)
        held = (*vars(kernel).values(), *vars(grid).values())
        assert [a for a in held if isinstance(a, np.ndarray) and a.size > grid.n + 1] == []

    def test_dichotomy_kernel_stays_small(self, exps, profile_n512, thresholds_n512):
        # the seed-0 dichotomy: both legs to t_end = 100 read the operator on
        # the first ~150 of 1140 cells, so one 256-cell block serves them
        wt = ag.threshold_profile(profile_n512, exps)
        wt = ag.pad_grid(wt, 8.0 * ag.support_radius(wt))
        kernel = build_kernel(wt.grid, exps.lam)
        cfg = ag.SimConfig(t_end=100.0, record_every=200)
        for kappa in (0.8, 1.2):
            u0 = wt.with_values(kappa * wt.values)
            ag.classify(u0, thresholds_n512, exps, kernel)
            ag.run(u0, cfg, kernel, exps)
        held = sum(a.nbytes for a in vars(kernel).values() if isinstance(a, np.ndarray))
        assert wt.grid.n == 1140 and held < 2**20

    @pytest.mark.parametrize("n, r_max, extent", [
        pytest.param(128, 4.0, 1, id="1"),
        pytest.param(128, 4.0, 19, id="19"),
        pytest.param(128, 4.0, 58, id="58"),
        pytest.param(1140, 9.0, 596, id="596"),
    ])
    def test_interaction_matches_full_rows(self, n, r_max, extent):
        # h is the product on the support [0, e) alone, on the build grid and
        # on one twice as long (fac = 2^(3 - lam)); the full-row product sums
        # in another order, so it agrees to roundoff only
        grid = RadialGrid(n, r_max)
        kernel = build_kernel(grid, LAM)
        u = np.zeros(n)
        u[:extent] = np.random.default_rng(extent).random(extent) + 0.1
        for fac, on in ((1.0, grid), (2.0 ** (3.0 - LAM), RadialGrid(n, 2.0 * r_max))):
            h = interaction(field_from_values(on, u), kernel)
            uv = u * on.volumes
            sym = kernel.sym
            assert h == fac * (uv[:extent] @ (sym[:extent, :extent] @ u[:extent]))
            full = fac * (uv @ (sym[:, :extent] @ u[:extent]))
            assert abs(h - full) <= 1e-15 * full

    def test_identity_equality(self):
        grid = RadialGrid(64, 4.0)
        a, b = build_kernel(grid, LAM), build_kernel(grid, LAM)
        assert a == a and a != b and len({a, b, a}) == 2
        # comparing fills no table
        assert a.__dict__["_pot"] is None and "_block" not in a.__dict__


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
        r_max = 8.0

        def row_error(rows, ref):
            return np.max(np.abs(rows - ref), axis=1) / np.max(np.abs(ref), axis=1)

        # n = 300 is no multiple of the fill's row chunk, so its last rows
        # come from a partial chunk
        for n, centres, faces in [
            (256, [0, 1, 7, 128, 255], [1, 2, 7, 128, 256]),
            (300, [0, 1, 7, 290, 299], [1, 2, 7, 290, 300]),
        ]:
            kernel = build_kernel(RadialGrid(n, r_max), LAM)
            pot, frc = reference_rows(n, r_max, LAM, centres, faces)
            assert np.all(row_error(kernel.pot[centres], pot) <= 1e-11)
            # the face-1 row loses about 8 digits to cancellation between
            # the two terms of the derivative
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
        # operator must follow the new table, not keep the old one, at a
        # size whose sym is derived over many row chunks
        doubled = dataclasses.replace(
            kernel1024, pot=2.0 * kernel1024.pot, frc=kernel1024.frc.copy()
        )
        np.testing.assert_array_equal(doubled.sym, 2.0 * kernel1024.sym)
        u = gauss1024.values
        np.testing.assert_allclose(
            doubled.interaction_matvec(u), 2.0 * kernel1024.interaction_matvec(u),
            rtol=1e-14, atol=0.0,
        )


class TestPotential:
    def test_zero_field(self, grid1024, kernel1024):
        u = field_from_values(grid1024, np.zeros(grid1024.n))
        c = potential(u, kernel1024)
        assert np.all(c == 0.0)

    def test_positional_prefactor_rejected(self, gauss1024, kernel1024):
        # the prefactor argument is gone: an old call must fail, not rebind rows
        with pytest.raises(TypeError):
            potential(gauss1024, kernel1024, 1.0)

    def test_gaussian_against_oracle(self, gauss1024, kernel1024):
        f = lambda r: np.exp(-(r**2))
        c = potential(gauss1024, kernel1024)
        grid = gauss1024.grid
        for rt in (0.0, 1.0, 2.0):
            oracle = oracle_potential(f, rt, LAM, grid.r_max)
            direct = potential_at(gauss1024, np.array([rt]), LAM)[0]
            assert abs(direct - oracle) <= 1e-3 * oracle
            i = int(np.argmin(np.abs(grid.centers - max(rt, grid.dr / 2))))
            oracle_i = oracle_potential(f, grid.centers[i], LAM, grid.r_max)
            assert abs(c[i] - oracle_i) <= 1e-3 * oracle_i

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
        c = potential(gauss1024, kernel1024)
        assert np.all(np.diff(c) <= 1e-12 * c[0])
        assert np.all(c >= 0.0)

    def test_monotone_for_random_rearranged_inputs(self, grid1024, kernel1024):
        rng = np.random.default_rng(202)
        for _ in range(10):
            u = rearrange_decreasing(random_density(grid1024, rng))
            c = potential(u, kernel1024)
            assert np.all(c >= 0.0)
            assert np.all(np.diff(c) <= 1e-10 * c[0])

    def test_near_identical_grid(self, grid1024, kernel1024, gauss1024):
        # a grid equal to the build grid up to roundoff in r_max goes through
        # the homogeneity factor and gets the build-grid potential and force
        near = RadialGrid(grid1024.n, grid1024.r_max * (1.0 + 1e-14))
        u = ag.RadialField(near, gauss1024.values)
        c0 = potential(gauss1024, kernel1024)
        c1 = potential(u, kernel1024)
        assert np.allclose(c1, c0, rtol=1e-12, atol=0.0)
        f0 = force(gauss1024, kernel1024, 1.0)
        f1 = force(u, kernel1024, 1.0)
        assert np.allclose(f1, f0, rtol=1e-12, atol=0.0)

    def test_grid_mismatch(self, kernel1024):
        other = RadialGrid(512, 8.0)
        u = field_from_function(other, lambda r: np.exp(-(r**2)))
        with pytest.raises(GridMismatch):
            potential(u, kernel1024)


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
            c = potential_at(u, grid.centers, LAM)
            frc = force(u, kernel, 1.0)[1:-1]
            fd = np.diff(c) / grid.dr
            errs.append(np.max(np.abs(fd - frc)))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert order1 >= 1.8
        assert order2 >= 1.8


class TestInteraction:
    def test_zero_field(self, grid1024, kernel1024):
        u = field_from_values(grid1024, np.zeros(grid1024.n))
        assert interaction(u, kernel1024) == 0.0

    def test_zero_field_reads_no_block(self, exps):
        # the zero field's products are empty: no operator block is built
        grid = RadialGrid(1140, 9.0)
        kernel = build_kernel(grid, exps.lam)
        u = field_from_values(grid, np.zeros(grid.n))
        assert interaction(u, kernel) == 0.0
        new, _ = ag.step(u, kernel, exps, ag.SimConfig(t_end=1.0))
        assert np.all(new.values == 0.0)
        assert "_block" not in kernel.__dict__

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
