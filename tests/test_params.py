"""Parameter validation, exponent arithmetic, and the gamma-based constants.

The package evaluates the constants with the standard library's
math.lgamma; the oracles here write the same formulas out independently,
and scipy's gammaln gives a second log-gamma implementation to pin against.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from aggdiff import (
    ModelParams,
    RegimeError,
    derive_exponents,
    hls_sharp_constant,
    riesz_constant,
    validate,
)
from aggdiff.testing import exponent_identity_defect


def oracle_riesz_constant(d, s):
    return math.exp(
        math.lgamma(d / 2 - s) - (d / 2) * math.log(math.pi)
        - s * math.log(4.0) - math.lgamma(s)
    )


def oracle_hls_constant(d, lam):
    return math.exp(
        (lam / 2) * math.log(math.pi)
        + math.lgamma(d / 2 - lam / 2) - math.lgamma(d - lam / 2)
        + (lam / d - 1.0) * (math.lgamma(d / 2) - math.lgamma(d))
    )


def random_valid_params(rng):
    d = int(rng.integers(3, 8))
    s = rng.uniform(1.0 + 1e-6, d / 2.0 - 1e-6)
    lo = 2.0 * d / (d + 2.0 * s)
    hi = 2.0 - 2.0 * s / d
    m = rng.uniform(lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo))
    return ModelParams(d, s, m)


class TestValidate:
    def test_default_params_ok(self):
        validate(ModelParams(3, 1.1, 1.2))

    def test_s_at_lower_boundary_rejected(self):
        with pytest.raises(RegimeError, match="2 < 2s"):
            validate(ModelParams(3, 1.0, 1.2))

    def test_m_above_upper_boundary_rejected(self):
        # 2 - 2s/d = 1.2666...; m = 1.3 violates it
        with pytest.raises(RegimeError, match="2-2s/d"):
            validate(ModelParams(3, 1.1, 1.3))

    def test_m_below_lower_boundary_rejected(self):
        # 2d/(d+2s) = 1.1538...
        with pytest.raises(RegimeError, match="2d"):
            validate(ModelParams(3, 1.1, 1.1))

    def test_s_above_half_d_rejected(self):
        with pytest.raises(RegimeError, match="2s < d"):
            validate(ModelParams(3, 1.6, 1.2))


class TestExponents:
    def test_reference_values(self, exps):
        # hand arithmetic for (3, 1.1, 1.2)
        assert abs(exps.a - 1.2) <= 1e-12
        assert abs(exps.a0 - 0.4) <= 1e-12
        assert abs(exps.b0 - 1.6) <= 1e-12
        assert abs(exps.beta - 4.0 / 3.0) <= 1e-12
        assert abs(exps.p - 12.0 / 11.0) <= 1e-12
        assert abs(exps.lam - 0.8) <= 1e-12

    def test_identities_on_random_triples(self):
        assert exponent_identity_defect(np.random.default_rng(42), 1000) <= 1e-14

    def test_norm_exponent_ordering(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            prm = random_valid_params(rng)
            e = derive_exponents(prm)
            assert 1.0 < e.p < 2.0 * e.d / (e.d + 2.0 * e.s) < e.m

    def test_beta_above_one_in_regime(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            e = derive_exponents(random_valid_params(rng))
            assert e.beta > 1.0

    def test_a_vanishes_at_lower_m_boundary(self):
        d, s = 4, 1.5
        m = 2.0 * d / (d + 2.0 * s) + 1e-9
        e = derive_exponents(ModelParams(d, s, m))
        assert 0.0 < e.a < 1e-7


class TestRieszConstant:
    def test_reference_value(self):
        # Gamma(0.4) / (pi^1.5 * 4^1.1 * Gamma(1.1))
        val = riesz_constant(3, 1.1)
        assert abs(val - oracle_riesz_constant(3, 1.1)) <= 1e-14
        assert abs(val - 0.0911299866) <= 1e-9

    def test_limit_toward_s_equal_one(self):
        val = riesz_constant(3, 1.0 + 1e-12)
        limit = math.gamma(0.5) / (math.pi**1.5 * 4.0)
        assert abs(val - limit) <= 1e-9

    def test_positive_for_valid_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(3, 9))
            s = rng.uniform(1e-3, d / 2 - 1e-3)
            assert riesz_constant(d, s) > 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            riesz_constant(3, 1.5)


@pytest.mark.parametrize("s", [1.1, 1.2])  # default and alternate parameter sets
def test_constants_match_scipy_gammaln(s):
    d, lam = 3, 3 - 2 * s
    riesz = np.exp(gammaln(d / 2 - s) - (d / 2) * np.log(np.pi)
                   - s * np.log(4.0) - gammaln(s))
    hls = np.exp((lam / 2) * np.log(np.pi) + gammaln(d / 2 - lam / 2)
                 - gammaln(d - lam / 2)
                 + (lam / d - 1.0) * (gammaln(d / 2) - gammaln(d)))
    assert abs(riesz_constant(d, s) - riesz) <= 1e-15 * riesz
    assert abs(hls_sharp_constant(d, lam) - hls) <= 1e-15 * hls


class TestHlsSharpConstant:
    def test_reference_value(self):
        # frozen from the lgamma oracle
        val = hls_sharp_constant(3, 0.8)
        assert abs(val - oracle_hls_constant(3, 0.8)) <= 1e-13
        assert abs(val - 1.9107373656530289) <= 1e-12

    def test_d4_matches_oracle(self):
        assert abs(hls_sharp_constant(4, 1.0) - oracle_hls_constant(4, 1.0)) <= 1e-13

    def test_small_lam_limit_is_one(self):
        assert abs(hls_sharp_constant(3, 1e-10) - 1.0) <= 1e-8

    def test_domain_error(self):
        with pytest.raises(ValueError):
            hls_sharp_constant(3, 3.0)
        with pytest.raises(ValueError):
            hls_sharp_constant(3, 0.0)
