"""Maximizer solver: convergence, monotone ascent, supremacy over trials,
compact support, stationarity residual, threshold member, and refinement."""

import numpy as np
import pytest

from aggdiff import (
    ModelParams,
    NoConvergence,
    NotConverged,
    RadialGrid,
    ZeroField,
    build_kernel,
    compute_thresholds,
    derive_exponents,
    el_residual,
    field_from_values,
    free_energy,
    hls_sharp_constant,
    lp_norm,
    mass,
    solve_extremal,
    threshold_profile,
    vhls_quotient,
)
from aggdiff import extremal
from aggdiff.extremal import ExtremalOptions
from aggdiff.riesz import ReducedKernel
from aggdiff.testing import trial_densities


class TestSolve:
    def test_converged_flags_and_norms(self, exps, profile_n512):
        p = profile_n512
        assert p.converged
        assert abs(mass(p.w) - 1.0) <= 1e-8
        assert abs(lp_norm(p.w, exps.m) - 1.0) <= 1e-8

    def test_quotient_monotone_over_accepted_iterations(self, profile_n512):
        j = profile_n512.j_history
        assert np.all(np.diff(j) >= -1e-10 * j[:-1])

    def test_cstar_below_sharp_constant(self, exps, profile_n512):
        assert profile_n512.cstar <= hls_sharp_constant(exps.d, exps.lam)
        ratio = profile_n512.cstar / hls_sharp_constant(exps.d, exps.lam)
        assert abs(ratio - 0.9804) <= 1e-4

    @pytest.mark.parametrize("s,m", [(1.1, 1.155), (1.3, 1.0745)])
    def test_constant_above_sharp_bound_raises(self, s, m):
        # the collocated kernel's cell-0 excess lets a cell-0 spike reach a
        # stationary point above C_HLS (1.0098 and 1.0038 C_HLS at n = 256);
        # Hoelder interpolation rules such a constant out
        e = derive_exponents(ModelParams(3, s, m))
        with pytest.raises(NoConvergence, match="above the sharp bound") as err:
            solve_extremal(e, RadialGrid(256, 4.0))
        best = err.value.profile
        assert not best.converged
        assert best.el_residual <= 1e-4
        assert best.cstar > hls_sharp_constant(3, e.lam)

    def test_cstar_equals_quotient_of_w(self, exps, profile_n512):
        kernel = build_kernel(profile_n512.w.grid, exps.lam)
        j = vhls_quotient(profile_n512.w, exps, kernel)
        assert abs(j - profile_n512.cstar) <= 1e-10 * profile_n512.cstar

    def test_profile_nonincreasing_and_compact(self, profile_n512):
        w = profile_n512.w
        assert np.all(np.diff(w.values) <= 1e-12 * w.values.max())
        # compact support: zero tail strictly inside the domain
        assert profile_n512.support_radius < 0.81 * w.grid.r_max
        beyond = w.grid.centers > 1.05 * profile_n512.support_radius
        assert np.all(w.values[beyond] <= 1e-12 * w.values.max())

    def test_two_initializations_agree(self, exps, profile_n1024):
        p_gauss = solve_extremal(exps, RadialGrid(1024, 4.0),
                                 ExtremalOptions(init="gaussian"))
        rel = abs(p_gauss.cstar - profile_n1024.cstar) / profile_n1024.cstar
        assert rel <= 1e-4

    def test_el_residual_below_tolerance(self, profile_n512):
        assert profile_n512.el_residual <= 1e-4

    def test_supremacy_over_trials(self, exps, profile_n512):
        grid = RadialGrid(512, 6.0)
        kernel = build_kernel(grid, exps.lam)
        trials = trial_densities(grid, exps.m)
        assert len(trials) == 20
        js = [vhls_quotient(u, exps, kernel) for u in trials]
        assert max(js) <= profile_n512.cstar

    def test_grid_refinement_stability(self, profile_n1024, profile_n2048):
        rel = abs(profile_n1024.cstar - profile_n2048.cstar) / profile_n2048.cstar
        assert rel <= 1e-3

    def test_coarse_grid_converges(self, exps):
        # n = 256 puts about 70 cells on the support; the fixed point still
        # reaches the residual tolerance in a few dozen iterations
        p = solve_extremal(exps, RadialGrid(256, 4.0))
        assert p.converged
        assert p.el_residual <= ExtremalOptions().tol_res
        assert p.iterations < 50

    def test_iteration_budget_exhaustion(self, exps):
        opts = ExtremalOptions(max_iter=1)
        with pytest.raises(NoConvergence) as err:
            solve_extremal(exps, RadialGrid(256, 4.0), opts)
        best = err.value.profile
        assert best is not None
        assert not best.converged
        assert best.iterations == 1
        assert mass(best.w) > 0
        assert "budget of 1" in str(err.value)

    def test_one_kernel_product_per_iteration(self, exps, monkeypatch):
        # one product for the start, one per iteration, one per grid rebuild
        counts = {"products": 0, "rebuilds": 0}
        matvec, resample = ReducedKernel.interaction_matvec, extremal.resample_to

        def counted_matvec(self, *args, **kwargs):
            counts["products"] += 1
            return matvec(self, *args, **kwargs)

        def counted_resample(*args, **kwargs):
            counts["rebuilds"] += 1
            return resample(*args, **kwargs)

        monkeypatch.setattr(ReducedKernel, "interaction_matvec", counted_matvec)
        monkeypatch.setattr(extremal, "resample_to", counted_resample)
        p = solve_extremal(exps, RadialGrid(512, 4.0))
        assert counts["rebuilds"] >= 1
        assert counts["products"] == 1 + p.iterations + counts["rebuilds"]

    def test_falling_quotient_stops_the_solve(self, exps, monkeypatch):
        # every potential after the third comes back shrunk, so the first
        # update after them lowers the quotient
        potential = extremal.potential
        calls = []

        def shrunk(u, kernel):
            calls.append(None)
            phi = potential(u, kernel)
            return phi if len(calls) <= 3 else 0.5 * phi

        monkeypatch.setattr(extremal, "potential", shrunk)
        with pytest.raises(NoConvergence, match="lowers the quotient") as err:
            solve_extremal(exps, RadialGrid(256, 4.0))
        best = err.value.profile
        assert not best.converged
        # j_history holds the start and every accepted iterate; the iteration
        # that fell is counted, not kept
        assert best.iterations == len(best.j_history) >= 2
        assert np.all(np.diff(best.j_history) >= 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iter": 0},
            {"tol_res": np.inf},
            {"tol_res": np.nan},
            {"tol_res": 0.0},
            {"init": "nope"},
        ],
    )
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExtremalOptions(**kwargs)

    def test_rejects_other_dimensions(self):
        import aggdiff as ag
        # valid regime at d = 4, but the radial reduction is d = 3 only
        e4 = ag.derive_exponents(ag.ModelParams(4, 1.7, 1.1))
        with pytest.raises(ag.UnsupportedDimension):
            solve_extremal(e4, RadialGrid(128, 4.0))


class TestElResidual:
    def test_manufactured_fixed_point(self, exps, profile_n512):
        # build a profile from a given potential through the stationarity
        # relation; measured against that same potential the defect vanishes
        # identically
        kernel = build_kernel(profile_n512.w.grid, exps.lam)
        from aggdiff.riesz import potential

        w = profile_n512.w
        c = profile_n512.cstar
        phi = potential(w, kernel)
        raw = np.maximum(2.0 * phi - exps.a0 * c, 0.0) / (exps.b0 * c)
        w_exact = raw ** (1.0 / (exps.m - 1.0))
        on = w_exact > 1e-12 * w_exact.max()
        defect = 2.0 * phi[on] - exps.b0 * c * w_exact[on] ** (exps.m - 1.0) \
            - exps.a0 * c
        assert np.max(np.abs(defect)) / (exps.a0 * c) <= 1e-10
        # and the solver's converged profile keeps a small genuine residual
        assert el_residual(w, c, exps, kernel) <= 1e-4

    def test_zero_field_guarded(self, exps):
        grid = RadialGrid(128, 2.0)
        kernel = build_kernel(grid, exps.lam)
        with pytest.raises(ZeroField):
            el_residual(field_from_values(grid, np.zeros(128)), 1.0, exps, kernel)


class TestThresholdProfile:
    def test_product_and_supnorm(self, exps, profile_n512, thresholds_n512):
        wt = threshold_profile(profile_n512, exps)
        product = mass(wt) ** exps.a * lp_norm(wt, exps.m) ** exps.m
        assert abs(product / thresholds_n512.x_star - 1.0) <= 1e-6
        assert abs(lp_norm(wt, np.inf) - 1.0) <= 1e-12

    def test_barrier_equals_peak_height(self, exps, profile_n512, thresholds_n512):
        wt = threshold_profile(profile_n512, exps)
        kernel = build_kernel(wt.grid, exps.lam)
        H = mass(wt) ** exps.a * free_energy(wt, exps, kernel)
        assert abs(H / thresholds_n512.g_at_xstar - 1.0) <= 1e-4

    def test_steady_moment_identity(self, exps, profile_n512):
        wt = threshold_profile(profile_n512, exps)
        kernel = build_kernel(wt.grid, exps.lam)
        d, s, m = exps.d, exps.s, exps.m
        n1a = mass(wt) ** exps.a
        lhs = 2.0 * (d - 2 * s) * free_energy(wt, exps, kernel) * n1a
        rhs = -(2.0 * d - 2.0 * (d - 2 * s) / (m - 1.0)) * lp_norm(wt, m) ** m * n1a
        assert abs(lhs - rhs) <= 1e-3 * abs(rhs)

    def test_requires_convergence(self, exps, profile_n512):
        import dataclasses
        broken = dataclasses.replace(profile_n512, converged=False)
        with pytest.raises(NotConverged):
            threshold_profile(broken, exps)
        with pytest.raises(NotConverged):
            compute_thresholds(broken, exps)

    def test_scale_found_where_its_product_overflows(self):
        # m = 1.265: x_star is 2.5e262 and ||W||_inf^(a+m) 8e87, so their
        # product overflows, but the profile's length scale does not
        import aggdiff as ag
        e = ag.derive_exponents(ag.ModelParams(3, 1.1, 1.265))
        profile = solve_extremal(e, RadialGrid(256, 4.0))
        wt = threshold_profile(profile, e)
        product = mass(wt) ** e.a * lp_norm(wt, e.m) ** e.m
        assert abs(product / compute_thresholds(profile, e).x_star - 1.0) <= 1e-10


class TestThresholds:
    def test_consistency_with_profile(self, exps, profile_n512, thresholds_n512):
        wt = threshold_profile(profile_n512, exps)
        product = mass(wt) ** exps.a * lp_norm(wt, exps.m) ** exps.m
        assert abs(product - thresholds_n512.x_star) <= 1e-6 * thresholds_n512.x_star

    def test_invariant_of_thresholds_type(self, exps, thresholds_n512):
        d, s, m = exps.d, exps.s, exps.m
        thr = thresholds_n512
        assert thr.x_star > 0 and thr.g_at_xstar > 0
        val = 2.0 * (d - 2 * s) * thr.g_at_xstar \
            + (2.0 * d - 2.0 * (d - 2 * s) / (m - 1.0)) * thr.x_star
        assert abs(val) <= 1e-10 * thr.x_star

    def test_closed_form_height(self, exps, thresholds_n512):
        thr = thresholds_n512
        expect = thr.x_star * (exps.beta - 1.0) / ((exps.m - 1.0) * exps.beta)
        assert abs(thr.g_at_xstar - expect) <= 1e-10 * expect


class TestAmplitudeFamily:
    def test_barrier_peaks_at_kappa_one(self, exps, profile_n512):
        # Q(kappa) = ||kappa wt||_1^a F(kappa wt) is maximal at kappa = 1
        wt = threshold_profile(profile_n512, exps)
        kernel = build_kernel(wt.grid, exps.lam)

        def Q(kappa):
            u = wt.with_values(kappa * wt.values)
            return mass(u) ** exps.a * free_energy(u, exps, kernel)

        q1 = Q(1.0)
        assert Q(0.9) < q1
        assert Q(1.1) < q1
