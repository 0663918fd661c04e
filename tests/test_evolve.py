"""Time integrator: conservation, positivity, porous-medium oracle, energy
decay and dissipation budget, blow-up detection, the second-moment balance,
and the initial-data checks."""

import dataclasses
import warnings

import numpy as np
import pytest

import aggdiff as ag
from aggdiff import (
    NonFiniteValue,
    Outcome,
    RadialGrid,
    SimConfig,
    build_kernel,
    field_from_function,
    field_from_values,
    hypothesis_check,
    lp_norm,
    mass,
    run,
    second_moment,
    step,
    virial_check,
)
from aggdiff.evolve import _ROUNDOFF, _sweep
from aggdiff.functionals import _face_system
from aggdiff.testing import mass_drift

M_EXP = 1.2


def barenblatt(r, t, m=M_EXP, d=3, c0=0.5):
    al = d / (d * (m - 1.0) + 2.0)
    kap = al * (m - 1.0) / (2.0 * d * m)
    return t ** (-al) * np.maximum(c0 - kap * r**2 * t ** (-2.0 * al / d), 0.0) ** (
        1.0 / (m - 1.0)
    )


def dense_step(u, kernel, exps, cfg, dt=None):
    """Reference first-order linearly implicit upwind step on the whole
    build grid: mu from two dense products, the n x n matrix of V + dt (flux
    differences) assembled face by face, and a dense solve.  The step size,
    unless given, is the accuracy rule over all interior faces."""
    grid, v, m, dr = u.grid, u.values, exps.m, u.grid.dr
    V = grid.volumes
    phi = 0.5 * (kernel.pot @ v + (kernel.pot.T @ (V * v)) / V)
    c = exps.c_ds * phi
    p = m / (m - 1.0) * v ** (m - 1.0)
    vel = -((p[1:] - c[1:]) - (p[:-1] - c[:-1])) / dr
    if dt is None:
        dt = cfg.cfl * dr / (3.0 * np.max(np.abs(vel)))
    matrix = np.diag(V)
    for f in range(1, grid.n):
        # flux from cell f-1 into cell f: D (u_(f-1) - u_f) + a u_k at the
        # new time level, upwind cell k from the full velocity
        k = f - 1 if vel[f - 1] > 0.0 else f
        a = (c[f] - c[f - 1]) / dr
        if v[f] != v[f - 1]:
            D = v[k] * (p[f] - p[f - 1]) / ((v[f] - v[f - 1]) * dr)
        else:
            D = m * v[f] ** (m - 1.0) / dr  # u p'(u), zero between empty cells
        coef = np.zeros(grid.n)
        coef[f - 1] += D
        coef[f] -= D
        coef[k] += a
        matrix[f - 1] += dt * grid.face_areas[f] * coef
        matrix[f] -= dt * grid.face_areas[f] * coef
    return np.maximum(np.linalg.solve(matrix, V * v), 0.0), dt


def sweep(u, kernel, exps, dt):
    """The first-order step S(u, dt) that `step` extrapolates."""
    return _sweep(u, _face_system(u, exps, kernel), dt)


def extrapolation(u, kernel, exps, dt):
    """S(S(u, dt/2), dt/2) and 2 S(S(u, dt/2), dt/2) - S(u, dt), before the
    positivity rule of `step`."""
    half = u.with_values(sweep(u, kernel, exps, 0.5 * dt))
    two = sweep(half, kernel, exps, 0.5 * dt)
    return two, 2.0 * two - sweep(u, kernel, exps, dt)


PROFILES = pytest.mark.parametrize(
    "profile",
    [
        lambda r: np.maximum(1.0 - r**2, 0.0) ** 2,  # support ends near cell 64
        lambda r: 0.5 * np.exp(-(r**2) / 8.0),  # support touches the last cell
    ],
    ids=["compact", "full"],
)


@pytest.fixture(scope="module")
def grid():
    return RadialGrid(512, 8.0)


@pytest.fixture(scope="module")
def kernel(grid, exps):
    return build_kernel(grid, exps.lam)


class TestSimConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_end": 0.0},
            {"t_end": 1.0, "cfl": 0.0},
            {"t_end": 1.0, "cfl": 1.5},
            {"t_end": 1.0, "blowup_factor": 1.0},
            {"t_end": 1.0, "record_every": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


class TestStep:
    def test_zero_field_unchanged(self, exps, grid, kernel):
        u = field_from_values(grid, np.zeros(grid.n))
        cfg = SimConfig(t_end=1.0)
        v, dt = step(u, kernel, exps, cfg, dt=1e-3)
        assert np.all(v.values == 0.0)

    def test_zero_field_step_is_noop(self, exps, grid, kernel):
        u = field_from_values(grid, np.zeros(grid.n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, dt = step(u, kernel, exps, SimConfig(t_end=1.0))
        assert np.all(v.values == 0.0)
        assert dt == np.inf

    @PROFILES
    def test_matches_dense_reference(self, exps, grid, kernel, profile):
        # the first-order sweep and the step-size rule
        u = field_from_function(grid, profile)
        cfg = SimConfig(t_end=1.0)
        want, dt_want = dense_step(u, kernel, exps, cfg)
        _, dt = step(u, kernel, exps, cfg)
        assert abs(dt - dt_want) <= 1e-12 * dt_want
        v = sweep(u, kernel, exps, dt)
        np.testing.assert_allclose(v, want, rtol=0.0, atol=1e-12 * np.max(want))

    @PROFILES
    def test_step_matches_extrapolated_dense_reference(self, exps, grid, kernel, profile):
        # step is 2 D(D(u, dt/2), dt/2) - D(u, dt) with D the dense reference
        u = field_from_function(grid, profile)
        cfg = SimConfig(t_end=1.0)
        full, dt = dense_step(u, kernel, exps, cfg)
        half = u.with_values(dense_step(u, kernel, exps, cfg, dt=0.5 * dt)[0])
        want = 2.0 * dense_step(half, kernel, exps, cfg, dt=0.5 * dt)[0] - full
        v, dt_v = step(u, kernel, exps, cfg)
        assert abs(dt_v - dt) <= 1e-12 * dt
        np.testing.assert_allclose(v.values, want, rtol=0.0, atol=1e-12 * np.max(want))

    def test_outward_attraction_solves_whole_grid(self, exps, grid, kernel):
        # with the sign of the interaction flipped, the attraction velocity
        # at the first face past the support points outward, and the implicit
        # flux carries mass beyond it within one step: the window must widen
        repulsive = dataclasses.replace(exps, c_ds=-exps.c_ds)
        u = field_from_function(grid, lambda r: np.maximum(1.0 - r**2, 0.0) ** 2)
        cfg = SimConfig(t_end=1.0)
        want, dt_want = dense_step(u, kernel, repulsive, cfg)
        _, dt = step(u, kernel, repulsive, cfg)
        assert abs(dt - dt_want) <= 1e-12 * dt_want
        v = sweep(u, kernel, repulsive, dt)
        np.testing.assert_allclose(v, want, rtol=0.0, atol=1e-12 * np.max(want))
        extent = np.flatnonzero(u.values)[-1] + 1
        assert v[extent + 1] > 0.0  # first cell past the narrow window

    def test_long_step_positive_and_conservative(self, exps, grid, kernel):
        # each sweep is an M-matrix solve with column sums V for every dt.
        # The extrapolation of a 10^4-fold step goes well negative, and the
        # step falls back to the two half sweeps on the whole field
        from aggdiff.testing import random_density
        u = random_density(grid, np.random.default_rng(11))
        cfg = SimConfig(t_end=1.0)
        _, dt = step(u, kernel, exps, cfg)
        for factor in (1e3, 1e4):
            v, _ = step(u, kernel, exps, cfg, dt=factor * dt)
            assert np.all(v.values >= 0.0)
            assert abs(mass(v) - mass(u)) <= 1e-13 * mass(u)
        two, combined = extrapolation(u, kernel, exps, 1e4 * dt)
        assert combined.min() < -_ROUNDOFF * combined.max()
        np.testing.assert_array_equal(v.values, two)  # the 10^4-fold step

    def test_roundoff_negatives_clipped(self, exps, wt_padded):
        # the first step of the kappa = 0.8 leg leaves a -1e-19 at the
        # support edge: it is clipped, and no other cell changes
        wt, kernel = wt_padded
        u = wt.with_values(0.8 * wt.values)
        v, dt = step(u, kernel, exps, SimConfig(t_end=1.0))
        _, combined = extrapolation(u, kernel, exps, dt)
        assert -_ROUNDOFF * combined.max() <= combined.min() < 0.0
        np.testing.assert_array_equal(v.values, np.maximum(combined, 0.0))
        assert np.all(v.values >= 0.0)
        assert abs(mass(v) - mass(u)) <= 1e-13 * mass(u)

    def test_uniform_field_without_interaction_is_stationary(self, exps, grid, kernel):
        # no face velocity anywhere: the step size rule has no bound, and the
        # field solves the implicit system for every dt
        exps0 = dataclasses.replace(exps, c_ds=0.0)
        u = field_from_values(grid, np.full(grid.n, 0.3))
        v, dt = step(u, kernel, exps0, SimConfig(t_end=1.0))
        assert dt == np.inf and np.all(v.values == u.values)
        with pytest.warns(UserWarning, match="outer 5%"):  # it fills the grid
            tr = run(u, SimConfig(t_end=1.0), kernel, exps0)
        assert tr.outcome is Outcome.COMPLETED_BOUNDED and tr.t[-1] == 1.0

    def test_single_step_mass_conservation(self, exps, grid, kernel):
        u = field_from_function(grid, lambda r: np.exp(-(r**2)))
        cfg = SimConfig(t_end=1.0)
        v, dt = step(u, kernel, exps, cfg)
        assert dt > 0
        assert abs(mass(v) - mass(u)) <= 1e-14 * mass(u)

    def test_positivity(self, exps, grid, kernel):
        rng = np.random.default_rng(3)
        from aggdiff.testing import random_density
        cfg = SimConfig(t_end=1.0)
        u = random_density(grid, rng)
        for _ in range(50):
            u, _ = step(u, kernel, exps, cfg)
            assert np.all(u.values >= 0.0)

    def test_nonfinite_detected(self, exps, grid, kernel):
        vals = np.zeros(grid.n)
        vals[0] = 1.0
        u = ag.RadialField(grid, vals)
        bad = u.with_values(np.where(np.arange(grid.n) == 5, np.nan, vals))
        cfg = SimConfig(t_end=1.0)
        with pytest.raises(NonFiniteValue):
            step(bad, kernel, exps, cfg, dt=1e-6)

    def test_rejects_other_dimensions(self, grid, kernel):
        e4 = ag.derive_exponents(ag.ModelParams(4, 1.7, 1.1))
        u = field_from_function(grid, lambda r: np.exp(-(r**2)))
        with pytest.raises(ag.UnsupportedDimension):
            step(u, kernel, e4, SimConfig(t_end=1.0))
        with pytest.raises(ag.UnsupportedDimension):
            virial_check(u, e4, kernel)


class TestPorousMediumOnly:
    def test_supnorm_decays_and_matches_selfsimilar(self, exps, grid):
        # interaction switched off: the flow is the bare degenerate diffusion,
        # compared against its exact self-similar solution
        exps0 = dataclasses.replace(exps, c_ds=0.0)
        kernel = build_kernel(grid, exps.lam)
        u0 = field_from_function(grid, lambda r: barenblatt(r, 1.0))
        cfg = SimConfig(t_end=1.0, record_every=100)
        tr = run(u0, cfg, kernel, exps0)
        assert tr.outcome is Outcome.COMPLETED_BOUNDED
        assert np.all(np.diff(tr.linf) <= 1e-12)
        exact = field_from_function(grid, lambda r: barenblatt(r, 2.0))
        err = np.sum(np.abs(tr.final.values - exact.values) * grid.volumes)
        assert err <= 0.01 * mass(exact)

    def test_refinement_toward_reference(self, exps):
        # coarse run against a fine-grid reference of the same flow
        exps0 = dataclasses.replace(exps, c_ds=0.0)
        finals = {}
        for n in (256, 512):
            g = RadialGrid(n, 8.0)
            k = build_kernel(g, exps.lam)
            u0 = field_from_function(g, lambda r: barenblatt(r, 1.0))
            tr = run(u0, SimConfig(t_end=0.25, record_every=10**9), k, exps0)
            finals[n] = tr
        fine_on_coarse = ag.resample_to(finals[512].final, finals[256].final.grid)
        g256 = finals[256].final.grid
        err = np.sum(np.abs(finals[256].final.values - fine_on_coarse.values)
                     * g256.volumes)
        assert err <= 0.01 * finals[256].mass[0]


class TestRun:
    def test_mass_conservation_full_run(self, exps, grid, kernel):
        u0 = field_from_function(grid, lambda r: 0.5 * np.exp(-(r**2)))
        tr = run(u0, SimConfig(t_end=0.3, record_every=50), kernel, exps)
        assert mass_drift(tr) <= 1e-8

    def test_zero_field_completes(self, exps, grid, kernel):
        # the trivial solution exists globally
        u0 = field_from_values(grid, np.zeros(grid.n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = run(u0, SimConfig(t_end=1.0), kernel, exps)
        assert tr.outcome is Outcome.COMPLETED_BOUNDED
        assert tr.t[-1] == 1.0
        assert np.all(tr.final.values == 0.0)

    def test_energy_monotone(self, exps, grid, kernel):
        u0 = field_from_function(grid, lambda r: 0.5 * np.exp(-(r**2)))
        tr = run(u0, SimConfig(t_end=0.3, record_every=20), kernel, exps)
        assert np.all(np.diff(tr.F) <= 1e-6 * abs(tr.F[0]))

    def test_energy_dissipation_budget(self, exps, grid, kernel):
        # decay of F vs time integral of the recorded dissipation, ~10%
        u0 = field_from_function(grid, lambda r: 0.5 * np.exp(-(r**2)))
        tr = run(u0, SimConfig(t_end=0.2, record_every=5), kernel, exps)
        drop = tr.F[0] - tr.F[-1]
        budget = np.trapezoid(tr.dissipation, tr.t)
        assert drop > 0
        assert abs(drop - budget) <= 0.1 * drop

    def test_budget_gap_is_second_order_time_error(self, exps, grid, kernel):
        # the recorded dissipation is the scheme's own, so on the criterion-7
        # run the budget closes to the time error, a quarter of it when cfl
        # halves
        u0 = field_from_function(grid, lambda r: 0.5 * np.exp(-(r**2)))
        gaps = []
        for cfl in (0.4, 0.2):
            tr = run(u0, SimConfig(t_end=0.3, cfl=cfl, record_every=5), kernel, exps)
            drop = tr.F[0] - tr.F[-1]
            gaps.append(abs(drop - np.trapezoid(tr.dissipation, tr.t)) / drop)
        assert gaps[1] <= 1e-4
        assert 0.15 <= gaps[1] / gaps[0] <= 0.35

    def test_final_record_carries_last_step(self, exps):
        # the closing record holds the step that reached it, whatever the
        # record cadence
        grid = RadialGrid(256, 8.0)
        kernel = build_kernel(grid, exps.lam)
        u0 = field_from_function(grid, lambda r: 0.5 * np.exp(-(r**2)))

        def dts(every):
            return run(u0, SimConfig(t_end=0.05, record_every=every), kernel, exps).dt

        last = dts(1)[-1]
        assert dts(7)[-1] == last
        np.testing.assert_array_equal(dts(10**9), [0.0, last])

    def test_trace_time_strictly_increasing(self, exps, grid, kernel):
        u0 = field_from_function(grid, lambda r: 0.3 * np.exp(-(r**2)))
        tr = run(u0, SimConfig(t_end=0.1, record_every=7), kernel, exps)
        assert np.all(np.diff(tr.t) > 0)

    @staticmethod
    def fake_step(monkeypatch, results):
        """Make run's steps return the given (factor, dt) in turn: the field
        passed in scaled by factor, and dt as the step taken."""
        results = iter(results)

        def fake(u, kernel, exps, cfg, dt=None):
            factor, dt_taken = next(results)
            return u.with_values(factor * u.values), dt_taken

        monkeypatch.setattr("aggdiff.evolve.step", fake)

    def test_collapsed_step_without_growth_is_inconclusive(self, exps, grid, kernel,
                                                           monkeypatch):
        # a step that no longer advances t stops the run; with no sup-norm
        # growth it is Inconclusive
        self.fake_step(monkeypatch, [(1.0, 0.0)])
        u0 = field_from_function(grid, lambda r: 0.3 * np.exp(-(r**2)))
        tr = run(u0, SimConfig(t_end=1.0), kernel, exps)
        assert tr.outcome is Outcome.INCONCLUSIVE
        assert tr.t_detect is None
        assert tr.t[-1] == 0.0

    def test_collapsed_step_after_growth_is_blowup(self, exps, grid, kernel,
                                                   monkeypatch):
        # the sup norm doubled before the step collapsed: the run is focusing
        # and reports blow-up at the time it stopped
        self.fake_step(monkeypatch, [(2.0, 1e-3), (1.0, 0.0)])
        u0 = field_from_function(grid, lambda r: 0.3 * np.exp(-(r**2)))
        tr = run(u0, SimConfig(t_end=1.0), kernel, exps)
        assert tr.outcome is Outcome.BLOWUP_DETECTED
        assert tr.t_detect == 1e-3
        assert tr.linf[-1] == 2.0 * tr.linf[0]

    def test_moment_lower_bound_for_supnorm(self, exps, grid, kernel):
        # ||u||_inf >= ||u||_1^{(d+2)/2} / (c m2^{d/2}), calibrated once at
        # t = 0 and then checked along the run
        u0 = field_from_function(grid, lambda r: 0.6 * np.exp(-(r**2)))
        tr = run(u0, SimConfig(t_end=0.3, record_every=20), kernel, exps)
        d = exps.d
        c_fit = tr.mass[0] ** ((d + 2.0) / 2.0) / (tr.linf[0] * tr.m2[0] ** (d / 2.0))
        for k in range(len(tr.t)):
            bound = tr.mass[k] ** ((d + 2.0) / 2.0) / (2.0 * c_fit * tr.m2[k] ** (d / 2.0))
            assert tr.linf[k] >= bound


class TestBlowupDetection:
    @pytest.mark.filterwarnings("error")  # n = 512 holds the trigger's mass
    def test_blowup_run(self, exps, wt_padded):
        wt, kernel = wt_padded
        u0 = wt.with_values(1.2 * wt.values)
        cfg = SimConfig(t_end=100.0, record_every=500)
        tr = run(u0, cfg, kernel, exps)
        assert tr.outcome is Outcome.BLOWUP_DETECTED
        assert tr.t_detect is not None and np.isfinite(tr.t_detect)
        assert tr.linf[-1] > 100.0 * tr.linf[0]

    def test_bounded_run(self, exps, wt_padded):
        wt, kernel = wt_padded
        u0 = wt.with_values(0.8 * wt.values)
        cfg = SimConfig(t_end=150.0, record_every=500)
        tr = run(u0, cfg, kernel, exps)
        assert tr.outcome is Outcome.COMPLETED_BOUNDED
        assert np.max(tr.linf) <= 2.0 * tr.linf[0]

    def test_detection_time_trend_under_refinement(self, exps, profile_n512,
                                                   profile_n1024):
        # t_detect is resolution-dependent by design; only finiteness and a
        # monotone trend toward the fine-grid detection are asserted
        times = []
        for prof in (profile_n512, profile_n1024):
            wt = ag.threshold_profile(prof, exps)
            wt = ag.pad_grid(wt, 6.0 * ag.support_radius(wt))
            k = build_kernel(wt.grid, exps.lam)
            u0 = wt.with_values(1.3 * wt.values)
            tr = run(u0, SimConfig(t_end=100.0, record_every=10**4), k, exps)
            assert tr.outcome is Outcome.BLOWUP_DETECTED
            times.append(tr.t_detect)
        assert all(np.isfinite(t) for t in times)
        # finer grids detect no earlier than much-coarser ones in this family
        assert times[1] >= 0.8 * times[0]

    @pytest.fixture(scope="class")
    def wt_n384(self, exps):
        """The padded threshold profile from an n = 384 solve, whose innermost
        shell cannot hold the trigger's mass with room to spare."""
        profile = ag.solve_extremal(exps, RadialGrid(384, 4.0))
        wt = ag.threshold_profile(profile, exps)
        wt = ag.pad_grid(wt, 8.0 * ag.support_radius(wt))
        return wt, build_kernel(wt.grid, exps.lam)

    def test_coarse_grid_warns(self, exps, wt_n384):
        # focusing may stall below the trigger: run warns once the sup norm
        # has grown by half (t ~ 4)
        wt, kernel = wt_n384
        u0 = wt.with_values(1.2 * wt.values)
        with pytest.warns(UserWarning, match="needs 251 mass in the innermost shell, "
                                             "253 available"):
            run(u0, SimConfig(t_end=5.0), kernel, exps)

    @pytest.mark.filterwarnings("error")
    def test_coarse_grid_quiet_while_spreading(self, exps, wt_n384):
        # the same grid below the threshold: the sup norm never grows, so the
        # trigger's mass never matters and run does not warn
        wt, kernel = wt_n384
        u0 = wt.with_values(0.8 * wt.values)
        tr = run(u0, SimConfig(t_end=50.0), kernel, exps)
        assert tr.outcome is Outcome.COMPLETED_BOUNDED


class TestTimeConvergence:
    @pytest.mark.filterwarnings("error")
    def test_second_order_in_dt(self, exps):
        # kappa = 0.8 F_end and kappa = 1.2 t_detect (50-fold trigger) on a
        # coarse padded threshold profile: successive differences shrink by
        # close to 4 when cfl halves (a first-order step gives 2)
        wt = ag.threshold_profile(ag.solve_extremal(exps, RadialGrid(192, 4.0)), exps)
        wt = ag.pad_grid(wt, 4.0 * ag.support_radius(wt))
        kernel = build_kernel(wt.grid, exps.lam)
        f_end, t_detect = [], []
        for cfl in (0.2, 0.1, 0.05):
            tr = run(wt.with_values(0.8 * wt.values),
                     SimConfig(t_end=50.0, cfl=cfl, record_every=10**9), kernel, exps)
            assert tr.outcome is Outcome.COMPLETED_BOUNDED
            f_end.append(tr.F[-1])
            tr = run(wt.with_values(1.2 * wt.values),
                     SimConfig(t_end=100.0, cfl=cfl, blowup_factor=50.0,
                               record_every=10**9), kernel, exps)
            assert tr.outcome is Outcome.BLOWUP_DETECTED
            t_detect.append(tr.t_detect)
        for values in (f_end, t_detect):
            d = np.diff(values)
            assert 2.8 <= d[0] / d[1] <= 4.5


class TestSteadyStatePersistence:
    def test_threshold_profile_nearly_stationary(self, exps, thresholds_n512,
                                                 wt_padded):
        # the threshold profile is a saddle of the flow: discretization error
        # feeds its unstable mode, so the stationarity window is finite.
        # Five support-diffusion times keep the drift well under 0.1%.
        wt, kernel = wt_padded
        R = ag.support_radius(wt)
        t_char = R**2 * (exps.m - 1.0) / (2.0 * exps.d * exps.m
                                          * lp_norm(wt, np.inf) ** (exps.m - 1.0))
        cfg = SimConfig(t_end=5.0 * t_char, record_every=2000)
        tr = run(wt, cfg, kernel, exps)
        assert tr.outcome is Outcome.COMPLETED_BOUNDED
        drift = np.sum(np.abs(tr.final.values - wt.values) * wt.grid.volumes)
        assert drift <= 1e-3 * mass(wt)
        ratios = tr.mass**exps.a * tr.lm**exps.m / thresholds_n512.x_star
        assert np.max(np.abs(ratios - 1.0)) <= 1e-3


class TestScalingCovariance:
    def test_discrete_flow_commutes_with_dynamic_scaling(self, exps):
        # u -> lam^(2s/(2-m)) u(lam x) maps discrete trajectories to discrete
        # trajectories: every operator in the step is homogeneous, so the
        # rescaled run reproduces the original states (and step sizes, up to
        # the time-dilation factor) to roundoff
        lam = 2.0
        alpha = lam ** (2.0 * exps.s / (2.0 - exps.m))
        time_factor = lam ** (-(2.0 + 2.0 * exps.s * (exps.m - 1.0) / (2.0 - exps.m)))
        grid = RadialGrid(256, 8.0)
        kernel = build_kernel(grid, exps.lam)
        u = field_from_function(grid, lambda r: 0.6 * np.exp(-(r**2)))
        v = ag.apply_dynamic_scaling(u, lam, exps)
        kernel_v = build_kernel(v.grid, exps.lam)
        cfg = SimConfig(t_end=1e9, record_every=10**9)
        for _ in range(100):
            u, dt_u = step(u, kernel, exps, cfg)
            v, dt_v = step(v, kernel_v, exps, cfg)
            assert abs(dt_v - time_factor * dt_u) <= 1e-12 * dt_v
        assert np.allclose(v.values, alpha * u.values, rtol=1e-10, atol=1e-13)


class TestVirial:
    def test_zero_field(self, exps, grid, kernel):
        u = field_from_values(grid, np.zeros(grid.n))
        lhs, rhs = virial_check(u, exps, kernel)
        assert lhs == 0.0 and rhs == 0.0

    def test_smooth_field_consistency(self, exps):
        g = RadialGrid(2048, 8.0)
        k = build_kernel(g, exps.lam)
        u = field_from_function(g, lambda r: 0.8 * np.exp(-(r**2)))
        lhs, rhs = virial_check(u, exps, k)
        assert abs(lhs - rhs) <= 0.02 * abs(rhs)

    def test_lhs_is_moment_rate_of_step(self, exps, grid, kernel):
        # the balance and the integrator share the same face velocities: the
        # lhs is the rate of change of the second moment over a short step
        # (the implicit step's rate differs from it by O(h))
        u = field_from_function(grid, lambda r: 0.8 * np.exp(-(r**2)))
        lhs, _ = virial_check(u, exps, kernel)
        h = 1e-7
        u_h = u.with_values(sweep(u, kernel, exps, h))
        rate = (second_moment(u_h) - second_moment(u)) / h
        assert abs(rate - lhs) <= 1e-6 * abs(lhs)

    def test_vanishes_at_threshold_profile(self, exps, wt_padded):
        wt, kernel = wt_padded
        lhs, rhs = virial_check(wt, exps, kernel)
        d, s, m = exps.d, exps.s, exps.m
        scale = abs(2.0 * d - 2.0 * (d - 2 * s) / (m - 1.0)) * lp_norm(wt, m) ** m
        assert abs(rhs) <= 1e-3 * scale
        assert abs(lhs) <= 1e-3 * scale


class TestHypothesisCheck:
    def test_smooth_bump_passes(self, exps, grid):
        u = field_from_function(grid, lambda r: np.maximum(1 - r**2, 0.0))
        rep = hypothesis_check(u, exps)
        assert rep.support_clear_of_boundary
        assert rep.mass > 0 and np.isfinite(rep.grad_um_l2)

    def test_boundary_touching_field_warns(self, exps, grid):
        vals = np.zeros(grid.n)
        vals[-1] = 1.0
        u = field_from_values(grid, vals)
        with pytest.warns(UserWarning, match="outer 5%"):
            rep = hypothesis_check(u, exps)
        assert not rep.support_clear_of_boundary
        assert np.isfinite(rep.second_moment)

    def test_run_warns_once(self, exps):
        # data already in the outer 5%: the initial check warns, the time
        # loop does not repeat it
        grid = RadialGrid(256, 4.0)
        u0 = field_from_function(grid, lambda r: 0.3 * np.exp(-((r / 2.0) ** 2)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(u0, SimConfig(t_end=0.01), build_kernel(grid, exps.lam), exps)
        assert sum("outer 5%" in str(w.message) for w in caught) == 1

    def test_nan_rejected(self, exps, grid):
        vals = np.zeros(grid.n)
        vals[3] = np.nan
        u = ag.RadialField(grid, vals)
        with pytest.raises(NonFiniteValue):
            hypothesis_check(u, exps)
