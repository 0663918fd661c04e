"""Grid construction, reductions against quadrature oracles, the exact
rescaling transforms, and the rearrangement."""

import pickle

import numpy as np
import pytest
from scipy import integrate

import aggdiff as ag
from aggdiff import (
    RadialGrid,
    ZeroField,
    apply_dynamic_scaling,
    field_from_function,
    field_from_values,
    lp_norm,
    mass,
    normalize_both_norms,
    rearrange_decreasing,
    scale_field,
    second_moment,
)


def gaussian_field(n=4096, r_max=6.0, p=1.0):
    grid = RadialGrid(n, r_max)
    return field_from_function(grid, lambda r: np.exp(-p * r**2))


def radial_integral(f, r_max):
    val, _ = integrate.quad(lambda r: 4.0 * np.pi * r**2 * f(r), 0.0, r_max, limit=200)
    return val


class TestGrid:
    def test_edges_and_volumes(self):
        g = RadialGrid(100, 5.0)
        e = g.edges
        assert e[0] == 0.0
        assert e[-1] == 5.0
        assert np.all(np.diff(e) > 0)
        assert abs(g.volumes.sum() - 4.0 * np.pi / 3.0 * 5.0**3) <= 1e-10

    def test_moment_weights_sum(self):
        g = RadialGrid(64, 2.0)
        assert abs(g.moment_weights.sum() - 4.0 * np.pi / 5.0 * 2.0**5) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2.5, 8.0])
    def test_n_an_integer_of_at_least_two(self, n):
        # a float count, even a whole one, has no linspace or range
        with pytest.raises(ValueError, match="integer"):
            RadialGrid(n, 1.0)

    def test_numpy_integer_count_accepted(self):
        assert RadialGrid(np.int64(8), 1.0).volumes.size == 8

    @pytest.mark.parametrize("r_max", [0.0, np.inf, np.nan])
    def test_r_max_positive_and_finite(self, r_max):
        with pytest.raises(ValueError, match="r_max"):
            RadialGrid(8, r_max)


# the doors through which density values come in from outside, each named
# in its refusal; the last three take a field built without any check
def _through_values(grid, vals, exps, tmp_path):
    field_from_values(grid, vals)


def _through_function(grid, vals, exps, tmp_path):
    # f takes each cell's value on the whole cell, so its shell average is that value
    field_from_function(grid, lambda r: vals[np.minimum((r / grid.dr).astype(int), grid.n - 1)])


def _through_csv(grid, vals, exps, tmp_path):
    path = tmp_path / "f.csv"
    ag.field_to_csv(ag.RadialField(grid, vals), path)
    ag.field_from_csv(path)


def _through_hypothesis_check(grid, vals, exps, tmp_path):
    ag.hypothesis_check(ag.RadialField(grid, vals), exps)


def _through_run(grid, vals, exps, tmp_path):
    ag.run(ag.RadialField(grid, vals), ag.SimConfig(t_end=0.05),
           ag.build_kernel(grid, exps.lam), exps)


def _through_classify(grid, vals, exps, tmp_path):
    ag.classify(ag.RadialField(grid, vals), ag.Thresholds(1e3, 1e3, 1.8), exps,
                ag.build_kernel(grid, exps.lam))


_DOORS = {
    "field_from_values": (_through_values, "field_from_values"),
    "field_from_function": (_through_function, "field_from_function"),
    "field_from_csv": (_through_csv, "field CSV"),
    "hypothesis_check": (_through_hypothesis_check, "hypothesis_check"),
    "run": (_through_run, "hypothesis_check"),
    "classify": (_through_classify, "classify"),
}


class TestAdmissibleDensity:
    @pytest.mark.parametrize("bad, kind", [(np.nan, "non-finite"), (np.inf, "non-finite"),
                                           (-0.3, "negative")])
    @pytest.mark.parametrize("door", _DOORS)
    def test_each_door_refuses(self, exps, tmp_path, door, bad, kind):
        grid = RadialGrid(256, 8.0)
        vals = 0.5 * np.exp(-grid.centers**2)
        vals[20] = bad
        through, name = _DOORS[door]
        with pytest.raises(ValueError, match=f"{name}: {kind}"):
            through(grid, vals, exps, tmp_path)

    def test_values_holding_nan_and_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            field_from_values(RadialGrid(4, 1.0), [np.nan, 1.0, 0.0, np.inf])


# two distinct results with equal values, of each type that holds arrays
def _two_fields(exps):
    grid = RadialGrid(4, 1.0)
    return ag.RadialField(grid, np.ones(4)), ag.RadialField(grid, np.ones(4))


def _two_traces(exps):
    grid = RadialGrid(64, 8.0)
    u0 = field_from_function(grid, lambda r: 0.3 * np.exp(-(r**2)))
    kernel = ag.build_kernel(grid, exps.lam)
    return tuple(ag.run(u0, ag.SimConfig(t_end=0.01), kernel, exps) for _ in range(2))


def _two_profiles(exps):
    return tuple(ag.solve_extremal(exps, RadialGrid(256, 4.0)) for _ in range(2))


def _two_barrier_reports(exps):
    trace = _two_traces(exps)[0]
    return tuple(ag.barrier_check(trace, ag.Thresholds(1e3, 1e3, 1.8), exps)
                 for _ in range(2))


class TestIdentity:
    @pytest.mark.parametrize("make", [_two_fields, _two_traces, _two_profiles,
                                      _two_barrier_reports],
                             ids=["RadialField", "SimTrace", "ExtremalProfile", "BarrierReport"])
    def test_results_compare_by_identity(self, exps, make):
        a, b = make(exps)
        assert a == a and a != b and not a == b
        assert hash(a) == hash(a)
        assert {a, b, a} == {a, b} and len({a, b}) == 2

    def test_grid_compares_by_value(self):
        # a grid holds no array: equal cell counts and radii are one grid
        assert RadialGrid(4, 1.0) == RadialGrid(4, 1.0)
        assert hash(RadialGrid(4, 1.0)) == hash(RadialGrid(4, 1.0))
        assert RadialGrid(4, 1.0) != RadialGrid(4, 2.0)


class TestExtent:
    def test_last_nonzero_cell_plus_one(self):
        grid = RadialGrid(8, 1.0)
        assert field_from_values(grid, np.zeros(8)).extent == 0
        # inner zeros count, trailing ones do not
        u = field_from_values(grid, [0.0, 2.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        assert u.extent == 4
        assert field_from_values(grid, np.ones(8)).extent == 8

    def test_pickle_recomputes_the_extent(self):
        # the pickle holds the grid and values only; the constructor that
        # rebuilds the field computes the same extent
        u = field_from_values(RadialGrid(8, 1.0), [1.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        _, (grid, values) = u.__reduce__()
        assert grid is u.grid and values is u.values
        assert pickle.loads(pickle.dumps(u)).extent == u.extent == 3


class TestMass:
    def test_zero_field(self):
        g = RadialGrid(128, 4.0)
        assert mass(field_from_values(g, np.zeros(128))) == 0.0

    def test_constant_on_ball(self):
        g = RadialGrid(512, 4.0)
        u = field_from_function(g, lambda r: (r < 2.0).astype(float))
        # one cell volume of slack for the jump at the ball boundary
        cell_vol = 4.0 * np.pi * 2.0**2 * g.dr
        assert abs(mass(u) - 4.0 * np.pi / 3.0 * 8.0) <= cell_vol

    def test_gaussian_oracle(self):
        # quadrature oracle of 4 pi int r^2 e^{-r^2} dr = pi^{3/2}
        u = gaussian_field(n=2048, r_max=10.0)
        oracle = radial_integral(lambda r: np.exp(-(r**2)), 10.0)
        assert abs(oracle - np.pi**1.5) <= 1e-10
        assert abs(mass(u) - oracle) <= 1e-6 * oracle


class TestLpNorm:
    def test_q1_equals_mass(self):
        u = gaussian_field(n=512, r_max=6.0)
        assert abs(lp_norm(u, 1.0) - mass(u)) <= 1e-14 * mass(u)

    def test_ball_indicator_closed_form(self):
        g = RadialGrid(1000, 4.0)
        h, R = 2.5, 2.0
        # align the ball boundary with a cell edge for exactness
        u = field_from_values(g, np.where(g.centers < R, h, 0.0))
        for q in (1.0, 1.5, 2.0, 3.0):
            expect = h * (4.0 * np.pi / 3.0 * R**3) ** (1.0 / q)
            assert abs(lp_norm(u, q) - expect) <= 1e-12 * expect

    def test_gaussian_l2_oracle(self):
        u = gaussian_field(n=4096, r_max=6.0)
        oracle = radial_integral(lambda r: np.exp(-2.0 * r**2), 6.0) ** 0.5
        assert abs(oracle - (np.pi / 2.0) ** 0.75) <= 1e-10
        assert abs(lp_norm(u, 2.0) - oracle) <= 1e-6 * oracle

    def test_linf(self):
        g = RadialGrid(64, 1.0)
        vals = np.linspace(3.0, 0.0, 64)
        assert lp_norm(field_from_values(g, vals), np.inf) == 3.0

    def test_homogeneity(self):
        u = gaussian_field(n=256, r_max=5.0)
        for q in (1.0, 1.2, 2.0, np.inf):
            assert np.isclose(lp_norm(u.with_values(3.0 * u.values), q),
                              3.0 * lp_norm(u, q), rtol=1e-13)

    @pytest.mark.parametrize("q", [0.5, -np.inf, np.nan])
    def test_order_below_one_or_nan_rejected(self, q):
        # q < 1.0 is False for NaN: the order must be checked as q >= 1
        with pytest.raises(ValueError, match="q >= 1"):
            lp_norm(gaussian_field(n=64, r_max=4.0), q)


class TestSecondMoment:
    def test_zero(self):
        g = RadialGrid(32, 1.0)
        assert second_moment(field_from_values(g, np.zeros(32))) == 0.0

    def test_uniform_ball_exact(self):
        g = RadialGrid(500, 5.0)
        h, R = 1.7, 2.0  # R on a cell edge
        u = field_from_values(g, np.where(g.centers < R, h, 0.0))
        assert np.isclose(second_moment(u), h * 4.0 * np.pi / 5.0 * R**5, rtol=1e-13)

    def test_gaussian_oracle(self):
        u = gaussian_field(n=4096, r_max=6.0)
        oracle, _ = integrate.quad(lambda r: 4 * np.pi * r**4 * np.exp(-r**2), 0, 6.0)
        assert abs(oracle - 1.5 * np.pi**1.5) <= 1e-9
        assert abs(second_moment(u) - oracle) <= 1e-6 * oracle

    def test_value_scaling_degree_one(self):
        u = gaussian_field(n=256, r_max=5.0)
        v = u.with_values(3.0 * u.values)
        assert np.isclose(mass(v), 3.0 * mass(u), rtol=1e-14)
        assert np.isclose(second_moment(v), 3.0 * second_moment(u), rtol=1e-14)


class TestDynamicScaling:
    def test_identity_at_lambda_one(self, exps):
        u = gaussian_field(n=512, r_max=5.0)
        v = apply_dynamic_scaling(u, 1.0, exps)
        assert np.allclose(v.values, u.values, rtol=0, atol=0)
        assert v.grid.compatible(u.grid)

    def test_invariant_norm(self, exps):
        u = gaussian_field(n=512, r_max=5.0)
        n0 = lp_norm(u, exps.p)
        for lam in (0.5, 2.0):
            v = apply_dynamic_scaling(u, lam, exps)
            assert abs(lp_norm(v, exps.p) - n0) <= 1e-6 * n0

    def test_invariant_product(self, exps):
        u = gaussian_field(n=512, r_max=5.0)
        prod0 = mass(u) ** exps.a * lp_norm(u, exps.m) ** exps.m
        for lam in (0.5, 2.0):
            v = apply_dynamic_scaling(u, lam, exps)
            prod = mass(v) ** exps.a * lp_norm(v, exps.m) ** exps.m
            assert abs(prod - prod0) <= 1e-6 * prod0

    def test_composition(self, exps):
        u = gaussian_field(n=256, r_max=5.0)
        v12 = apply_dynamic_scaling(apply_dynamic_scaling(u, 1.3, exps), 0.6, exps)
        v = apply_dynamic_scaling(u, 1.3 * 0.6, exps)
        assert np.allclose(v12.values, v.values, rtol=1e-12)
        assert np.isclose(v12.grid.r_max, v.grid.r_max, rtol=1e-12)


class TestNormalizeBothNorms:
    def test_already_normalized_is_fixed_point(self, exps):
        u = gaussian_field(n=512, r_max=6.0)
        v, _, _ = normalize_both_norms(u, exps)
        w, lam, alpha = normalize_both_norms(v, exps)
        assert abs(lam - 1.0) <= 1e-10
        assert abs(alpha - 1.0) <= 1e-10

    def test_norms_equal_one(self, exps):
        u = gaussian_field(n=512, r_max=6.0)
        v, _, _ = normalize_both_norms(u.with_values(2.0 * u.values), exps)
        assert abs(mass(v) - 1.0) <= 1e-8
        assert abs(lp_norm(v, exps.m) - 1.0) <= 1e-8

    def test_zero_field_raises(self, exps):
        g = RadialGrid(64, 2.0)
        with pytest.raises(ZeroField):
            normalize_both_norms(field_from_values(g, np.zeros(64)), exps)


class TestRearrange:
    def test_nonincreasing_input_unchanged(self):
        g = RadialGrid(256, 4.0)
        u = field_from_function(g, lambda r: np.exp(-r))
        v = rearrange_decreasing(u)
        assert np.allclose(v.values, u.values, rtol=1e-13, atol=1e-16)

    def test_annulus_becomes_ball(self):
        g = RadialGrid(1024, 4.0)
        r1, r2, h = 1.0, 2.0, 1.5
        u = field_from_values(g, np.where((g.centers > r1) & (g.centers < r2), h, 0.0))
        v = rearrange_decreasing(u)
        r_equiv = (r2**3 - r1**3) ** (1.0 / 3.0)
        inside = g.centers < r_equiv - g.dr
        outside = g.centers > r_equiv + g.dr
        assert np.allclose(v.values[inside], h, rtol=1e-12)
        assert np.allclose(v.values[outside], 0.0, atol=1e-14)

    def test_mass_preserved(self):
        rng = np.random.default_rng(11)
        g = RadialGrid(512, 6.0)
        from aggdiff.testing import random_density
        for _ in range(20):
            u = random_density(g, rng)
            v = rearrange_decreasing(u)
            assert abs(mass(v) - mass(u)) <= 1e-10 * max(mass(u), 1e-300)

    def test_superlevel_volumes_preserved(self):
        rng = np.random.default_rng(5)
        g = RadialGrid(512, 6.0)
        from aggdiff.testing import random_density
        u = random_density(g, rng)
        v = rearrange_decreasing(u)
        vols = g.volumes
        cell_vol = vols.max()
        for h in np.quantile(u.values[u.values > 0], [0.1, 0.4, 0.7, 0.9]):
            vol_u = vols[u.values > h].sum()
            vol_v = vols[v.values > h].sum()
            assert abs(vol_u - vol_v) <= 2.0 * cell_vol

    def test_idempotent(self):
        rng = np.random.default_rng(17)
        g = RadialGrid(512, 6.0)
        from aggdiff.testing import random_density
        u = random_density(g, rng)
        v1 = rearrange_decreasing(u)
        v2 = rearrange_decreasing(v1)
        assert np.allclose(v1.values, v2.values, rtol=1e-12, atol=1e-15)

    def test_output_nonincreasing(self):
        rng = np.random.default_rng(23)
        g = RadialGrid(512, 6.0)
        from aggdiff.testing import random_density
        for _ in range(10):
            v = rearrange_decreasing(random_density(g, rng))
            assert np.all(np.diff(v.values) <= 1e-12)


class TestScaleField:
    def test_exact_norm_laws(self):
        u = gaussian_field(n=256, r_max=5.0)
        v = scale_field(u, 2.5, 1.7)
        for q in (1.0, 1.2, 2.0):
            expect = 2.5 * 1.7 ** (-3.0 / q) * lp_norm(u, q)
            assert np.isclose(lp_norm(v, q), expect, rtol=1e-13)


    @pytest.mark.parametrize("alpha, lam, name", [(np.inf, 1.0, "alpha"), (np.nan, 1.0, "alpha"),
                                                  (0.0, 1.0, "alpha"), (1.0, np.inf, "lam"),
                                                  (1.0, np.nan, "lam"), (1.0, -2.0, "lam")])
    def test_factors_positive_and_finite(self, alpha, lam, name):
        u = gaussian_field(n=64, r_max=5.0)
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            scale_field(u, alpha, lam)


class TestPadGrid:
    def test_preserves_all_functionals_exactly(self):
        u = gaussian_field(n=256, r_max=5.0)
        v = ag.pad_grid(u, 12.0)
        assert v.grid.r_max >= 12.0
        assert np.isclose(v.grid.dr, u.grid.dr, rtol=1e-14)
        assert mass(v) == mass(u)
        assert lp_norm(v, 2.0) == lp_norm(u, 2.0)
        assert second_moment(v) == second_moment(u)

    def test_roundoff_bound(self):
        # the new grid re-derives dr and the edges from n_new * dr, so they
        # can move by a few ulps; the volumes and mass move with them
        rng = np.random.default_rng(2024)
        eps = np.finfo(float).eps
        for _ in range(200):
            n = int(rng.integers(2, 1025))
            r_max = float(10.0 ** rng.uniform(-1.0, 2.0))
            u = field_from_values(RadialGrid(n, r_max), rng.random(n))
            v = ag.pad_grid(u, r_max * rng.uniform(1.01, 10.0))
            np.testing.assert_array_equal(v.values[:n], u.values)
            np.testing.assert_allclose(
                v.grid.volumes[:n], u.grid.volumes, rtol=4 * n * eps, atol=0.0
            )
            assert abs(mass(v) - mass(u)) <= 1e-14 * mass(u)

    def test_noop_when_already_large(self):
        u = gaussian_field(n=128, r_max=5.0)
        assert ag.pad_grid(u, 4.0) is u

    @pytest.mark.parametrize("r_max_new", [np.nan, np.inf, -np.inf])
    def test_radius_finite(self, r_max_new):
        u = gaussian_field(n=64, r_max=5.0)
        with pytest.raises(ValueError, match="r_max_new must be finite"):
            ag.pad_grid(u, r_max_new)


class TestCsvRoundTrip:
    def test_exact_text(self, tmp_path):
        # the format README documents: header line, %.14e values, \n endings
        u = field_from_values(RadialGrid(3, 3.0), [2.0, 0.125, 0.0])
        ag.field_to_csv(u, tmp_path / "f.csv")
        assert (tmp_path / "f.csv").read_bytes() == (
            b"r,u\n"
            b"5.00000000000000e-01,2.00000000000000e+00\n"
            b"1.50000000000000e+00,1.25000000000000e-01\n"
            b"2.50000000000000e+00,0.00000000000000e+00\n"
        )
        trace = ag.SimTrace(
            t=np.array([0.0, 0.5]), mass=np.array([1.0, 1.0]),
            lm=np.array([0.75, 1.0 / 3.0]), linf=np.array([2.0, 1.5]),
            F=np.array([-0.25, -0.3]), m2=np.array([3.0, 3.5]),
            dissipation=np.array([0.1, 0.09]), dt=np.array([0.0, 1e-3]),
            outcome=ag.Outcome.COMPLETED_BOUNDED,
        )
        ag.trace_to_csv(trace, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == (
            b"t,mass,lm,linf,F,m2,dissipation,dt\n"
            b"0.00000000000000e+00,1.00000000000000e+00,7.50000000000000e-01,"
            b"2.00000000000000e+00,-2.50000000000000e-01,3.00000000000000e+00,"
            b"1.00000000000000e-01,0.00000000000000e+00\n"
            b"5.00000000000000e-01,1.00000000000000e+00,3.33333333333333e-01,"
            b"1.50000000000000e+00,-3.00000000000000e-01,3.50000000000000e+00,"
            b"9.00000000000000e-02,1.00000000000000e-03\n"
        )

    def test_round_trip(self, tmp_path):
        u = gaussian_field(n=128, r_max=4.0)
        path = tmp_path / "f.csv"
        ag.field_to_csv(u, path)
        header = path.read_text().splitlines()[0]
        assert header == "r,u"
        v = ag.field_from_csv(path)
        assert np.allclose(v.values, u.values, rtol=1e-12)
        assert np.isclose(v.grid.r_max, u.grid.r_max, rtol=1e-12)
