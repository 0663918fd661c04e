"""Decision rule: amplitude families, the tolerance band, scale robustness,
the barrier monitor along recorded runs, and the rule that matches a
verdict with a run."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import aggdiff as ag
from aggdiff import (
    Agreement,
    BarrierReport,
    Outcome,
    SimConfig,
    Verdict,
    agrees,
    barrier_check,
    classify,
    run,
)
from aggdiff.cli import EXIT_OK, main


class TestClassify:
    def test_kappa_family_verdicts(self, exps, thresholds_n512, wt_padded):
        wt, kernel = wt_padded
        cases = {
            0.8: Verdict.GLOBAL_EXISTENCE,
            1.0: Verdict.INDETERMINATE,
            1.2: Verdict.FINITE_TIME_BLOWUP,
        }
        for kappa, want in cases.items():
            u0 = wt.with_values(kappa * wt.values)
            cls = classify(u0, thresholds_n512, exps, kernel)
            assert cls.verdict is want, (kappa, cls.verdict)

    def test_virial_horizon_for_blowup_verdicts_only(self, exps, thresholds_n512, wt_padded):
        wt, kernel = wt_padded
        for kappa in (0.8, 1.0):
            cls = classify(wt.with_values(kappa * wt.values), thresholds_n512, exps, kernel)
            assert cls.delta is None and cls.t_virial is None
        u0 = wt.with_values(1.2 * wt.values)
        cls = classify(u0, thresholds_n512, exps, kernel)
        rep = ag.energy_report(u0, exps, kernel)
        lam = exps.d - 2.0 * exps.s
        # M2' <= 2(d-2s) F(u0) + (2d - 2(d-2s)/(m-1)) x_star / M^a = -delta
        bound = 2.0 * lam * rep.free_energy + (2.0 * exps.d - 2.0 * lam / (exps.m - 1.0)) \
            * thresholds_n512.x_star / rep.mass**exps.a
        assert cls.delta == pytest.approx(-bound, rel=1e-12) and cls.delta > 0.0
        assert cls.t_virial == pytest.approx(rep.second_moment / cls.delta, rel=1e-12)
        assert abs(cls.t_virial / 216.6 - 1.0) <= 0.01

    def test_product_scaling_with_amplitude(self, exps, thresholds_n512, wt_padded):
        # product(kappa u) = kappa^(a+m) product(u)
        wt, kernel = wt_padded
        cls1 = classify(wt, thresholds_n512, exps, kernel)
        for kappa in (0.8, 1.2):
            u0 = wt.with_values(kappa * wt.values)
            cls = classify(u0, thresholds_n512, exps, kernel)
            expect = kappa ** (exps.a + exps.m) * cls1.product
            assert abs(cls.product - expect) <= 1e-10 * expect

    def test_energy_hypothesis_on_both_sides(self, exps, thresholds_n512, wt_padded):
        wt, kernel = wt_padded
        for kappa in (0.8, 1.2):
            u0 = wt.with_values(kappa * wt.values)
            cls = classify(u0, thresholds_n512, exps, kernel)
            assert cls.energy_ok
            assert cls.energy_margin > 0

    def test_scale_robustness(self, exps, thresholds_n512, wt_padded):
        # the rescaling leaves both threshold quantities invariant, so the
        # verdict cannot change
        wt, kernel = wt_padded
        for kappa in (0.8, 1.2):
            u0 = wt.with_values(kappa * wt.values)
            base = classify(u0, thresholds_n512, exps, kernel).verdict
            for lam in (0.5, 2.0):
                v = ag.apply_dynamic_scaling(u0, lam, exps)
                cls = classify(v, thresholds_n512, exps, kernel)
                assert cls.verdict is base
                assert abs(cls.product - classify(u0, thresholds_n512, exps,
                                                  kernel).product) \
                    <= 1e-9 * cls.product

    def test_single_switch_in_amplitude(self, exps, thresholds_n512, wt_padded):
        # sweeping kappa, the verdict switches exactly once (through the band)
        wt, kernel = wt_padded
        kappas = np.linspace(0.7, 1.3, 25)
        verdicts = []
        for kappa in kappas:
            u0 = wt.with_values(kappa * wt.values)
            verdicts.append(classify(u0, thresholds_n512, exps, kernel).verdict)
        seq = [v.value for v in verdicts]
        # global -> (indeterminate band) -> blowup, each block contiguous
        blocks = [seq[0]]
        for v in seq[1:]:
            if v != blocks[-1]:
                blocks.append(v)
        assert blocks in (
            ["GlobalExistence", "Indeterminate", "FiniteTimeBlowup"],
            ["GlobalExistence", "FiniteTimeBlowup"],
        )

    def test_energy_hypothesis_failure_is_indeterminate(self, exps,
                                                        thresholds_n512):
        # a non-extremal shape tuned so its invariant product sits right at
        # x_star has scaled energy strictly above the barrier height (only
        # the extremal family touches it), so the rule must refuse to decide
        thr = thresholds_n512
        grid = ag.RadialGrid(512, 8.0)
        kernel = ag.build_kernel(grid, exps.lam)
        g = ag.field_from_function(grid, lambda r: np.exp(-(r**2)))
        p_g = ag.mass(g) ** exps.a * ag.lp_norm(g, exps.m) ** exps.m
        kappa = (thr.x_star / p_g) ** (1.0 / (exps.a + exps.m))
        u0 = g.with_values(kappa * g.values)
        cls = classify(u0, thr, exps, kernel)
        assert not cls.energy_ok
        assert cls.energy_lhs > thr.g_at_xstar
        assert cls.verdict is Verdict.INDETERMINATE
        # just above the product threshold the energy hypothesis still fails
        # (no blow-up claim permitted), while further out the amplitude
        # parabola dips back under the barrier and the rule decides again
        cls_hi = classify(u0.with_values(1.1 * u0.values), thr, exps, kernel)
        assert cls_hi.verdict is Verdict.INDETERMINATE
        assert not cls_hi.energy_ok
        cls_lo = classify(u0.with_values(0.8 * u0.values), thr, exps, kernel)
        assert cls_lo.verdict is Verdict.GLOBAL_EXISTENCE
        cls_big = classify(u0.with_values(1.2 * u0.values), thr, exps, kernel)
        assert cls_big.verdict is Verdict.FINITE_TIME_BLOWUP

    def test_band_width_configurable(self, exps, thresholds_n512, wt_padded):
        wt, kernel = wt_padded
        u0 = wt.with_values(1.01 * wt.values)
        narrow = classify(u0, thresholds_n512, exps, kernel, tol=1e-6)
        wide = classify(u0, thresholds_n512, exps, kernel, tol=0.2)
        assert narrow.verdict is Verdict.FINITE_TIME_BLOWUP
        assert wide.verdict is Verdict.INDETERMINATE

    def test_reads_energy_report(self, exps, thresholds_n512, wt_padded):
        wt, kernel = wt_padded
        u0 = wt.with_values(1.2 * wt.values)
        cls = classify(u0, thresholds_n512, exps, kernel)
        rep = ag.energy_report(u0, exps, kernel)
        assert cls.product == rep.product and cls.energy_lhs == rep.barrier

    def test_json_payload(self, exps, thresholds_n512, wt_padded, tmp_path):
        # the classify command's sidecar carries the library's Classification
        # of the same data, float for float
        wt, _ = wt_padded
        csv = tmp_path / "u0.csv"
        ag.field_to_csv(wt.with_values(0.8 * wt.values), csv)
        u0 = ag.field_from_csv(csv)
        cls = classify(u0, thresholds_n512, exps, ag.build_kernel(u0.grid, exps.lam))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"init.kind = csv\ninit.csv = {csv}\n")
        assert main(["classify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "classification.json").read_text())
        assert set(payload) == {"verdict", "product", "x_star", "energy_lhs",
                                "g_at_xstar", "margins"}
        assert payload["verdict"] == "GlobalExistence"
        assert payload["verdict"] == cls.verdict.value
        assert (payload["product"], payload["x_star"], payload["energy_lhs"],
                payload["g_at_xstar"]) == (cls.product, cls.x_star,
                                           cls.energy_lhs, cls.g_at_xstar)
        assert payload["margins"] == {"product": cls.product_margin,
                                      "energy": cls.energy_margin}


class TestBarrierCheck:
    def test_global_run_stays_below(self, exps, thresholds_n512, wt_padded):
        wt, kernel = wt_padded
        u0 = wt.with_values(0.8 * wt.values)
        tr = run(u0, SimConfig(t_end=100.0, record_every=200), kernel, exps)
        rep = barrier_check(tr, thresholds_n512, exps)
        assert rep.stayed_below
        assert rep.max_ratio < 1.0

    def test_blowup_run_stays_above(self, exps, thresholds_n512, wt_padded):
        wt, kernel = wt_padded
        u0 = wt.with_values(1.2 * wt.values)
        tr = run(u0, SimConfig(t_end=100.0, record_every=200), kernel, exps)
        assert tr.outcome is Outcome.BLOWUP_DETECTED
        rep = barrier_check(tr, thresholds_n512, exps)
        assert rep.stayed_above
        assert rep.min_ratio > 1.0


# barrier sides: the product stayed below x_star, above it, or crossed it
SIDES = {"below": np.array([0.5, 0.9]), "above": np.array([1.1, 1.5]),
         "crossed": np.array([0.9, 1.1])}


def _barrier(side: str) -> BarrierReport:
    r = SIDES[side]
    return BarrierReport(ratios=r, max_ratio=float(r.max()), min_ratio=float(r.min()),
                         stayed_below=bool(np.all(r < 1.0)),
                         stayed_above=bool(np.all(r > 1.0)))


class TestAgrees:
    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("outcome", list(Outcome))
    @pytest.mark.parametrize("verdict", list(Verdict))
    def test_table(self, verdict, outcome, side):
        # runs that end past every blow-up horizon: agree or disagree only
        want = {
            Verdict.GLOBAL_EXISTENCE: (Outcome.COMPLETED_BOUNDED, "below"),
            Verdict.FINITE_TIME_BLOWUP: (Outcome.BLOWUP_DETECTED, "above"),
        }.get(verdict)
        expected = want is None or want == (outcome, side)
        cls = SimpleNamespace(verdict=verdict, t_virial=1.0)
        trace = SimpleNamespace(outcome=outcome, t=np.array([0.0, 2.0]))
        assert agrees(cls, trace, _barrier(side)) is (
            Agreement.AGREES if expected else Agreement.DISAGREES)

    # (verdict, outcome, side, end time, agreement) against t_virial = 1,
    # whose horizon with the 5% slack is 1.05
    HORIZON_CASES = [
        ("FiniteTimeBlowup", "CompletedBounded", "above", 0.5, "undecided"),
        ("FiniteTimeBlowup", "CompletedBounded", "above", 1.04, "undecided"),
        ("FiniteTimeBlowup", "CompletedBounded", "above", 1.06, "disagrees"),
        ("FiniteTimeBlowup", "CompletedBounded", "crossed", 0.5, "disagrees"),
        ("FiniteTimeBlowup", "CompletedBounded", "below", 0.5, "disagrees"),
        ("FiniteTimeBlowup", "BlowupDetected", "above", 0.5, "agrees"),
        ("FiniteTimeBlowup", "BlowupDetected", "crossed", 0.5, "disagrees"),
        ("FiniteTimeBlowup", "Inconclusive", "above", 0.5, "disagrees"),
        ("GlobalExistence", "CompletedBounded", "below", 0.5, "agrees"),
        ("GlobalExistence", "CompletedBounded", "above", 0.5, "disagrees"),
        ("Indeterminate", "CompletedBounded", "above", 0.5, "agrees"),
    ]

    @pytest.mark.parametrize("verdict, outcome, side, t_end, agreement", HORIZON_CASES)
    def test_three_valued_table(self, verdict, outcome, side, t_end, agreement):
        cls = SimpleNamespace(verdict=Verdict(verdict), t_virial=1.0)
        trace = SimpleNamespace(outcome=Outcome(outcome), t=np.array([0.0, t_end]))
        assert agrees(cls, trace, _barrier(side)) is Agreement(agreement)
