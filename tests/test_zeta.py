"""The cut-area function: frozen values, identities, monotonicity."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circumquad import (
    BadParams,
    DomainError,
    TheoremConstants,
    zeta,
    zeta_bound,
    zeta_derivative,
    zeta_derivative_roots,
)
from circumquad.zeta import cut_domain_violation

c_strategy = st.fractions(min_value=F(14, 5), max_value=4, max_denominator=200)
delta_strategy = st.fractions(min_value=0, max_value=F(1, 10), max_denominator=200)


class TestFrozenValues:
    def test_endpoint_value_no_tilt(self):
        # Hand-evaluated: (3/20) * (40 + 12 + 1*107/17) = 2973/340.
        assert zeta(F(3), F(0), F(-3, 2)) == F(2973, 340)
        assert zeta_bound(F(3), F(0)) == F(2973, 340)

    def test_endpoint_value_with_tilt(self):
        assert zeta(F(3), F(1, 10), F(-3, 2)) == F(5451, 580)
        assert zeta_bound(F(3), F(1, 10)) == F(5451, 580)

    def test_float_path_tracks_exact(self):
        exact = zeta(F(283134, 100000), F(2824, 100000), F(-1, 2))
        approx = zeta(2.83134, 0.02824, -0.5)
        assert approx == pytest.approx(float(exact), rel=1e-12)


class TestDomain:
    def test_c_too_small(self):
        with pytest.raises(DomainError):
            zeta(F(5, 2), F(0), F(0))

    def test_delta_out_of_range(self):
        with pytest.raises(DomainError):
            zeta(F(3), F(1, 2), F(0))
        with pytest.raises(DomainError):
            zeta(F(3), F(-1, 100), F(0))

    def test_derivative_needs_interior_t(self):
        with pytest.raises(DomainError):
            zeta_derivative(F(3), F(0), F(-3, 2))

    def test_cut_domain_bounds_and_slack(self):
        c_min, delta_max, eps = F(14, 5), F(1, 10), F(1, 10**6)
        assert cut_domain_violation(c_min, F(0)) is None
        assert cut_domain_violation(c_min, delta_max) is None
        assert "14/5" in cut_domain_violation(c_min - eps, F(0))
        assert "delta" in cut_domain_violation(c_min, delta_max + eps)
        assert "delta" in cut_domain_violation(c_min, -eps)
        assert cut_domain_violation(2.8 - 1e-12, 0.1 + 1e-12) is None
        # Callers keep their own error class for the shared domain.
        with pytest.raises(DomainError):
            zeta_bound(F(5, 2), F(0))
        with pytest.raises(BadParams):
            TheoremConstants(c3=F(5, 2))

    def test_cut_domain_slack_follows_number_type(self):
        assert cut_domain_violation(2.8 - 1e-12, -1e-12) is None
        assert cut_domain_violation(3.0, 0.1 + 1e-12) is None
        tiny = F(1, 10**30)
        assert "14/5" in cut_domain_violation(F(14, 5) - tiny, F(0))
        assert "delta" in cut_domain_violation(F(3), F(1, 10) + tiny)
        assert "delta" in cut_domain_violation(F(3), -tiny)

    def test_float_domain_corners_track_exact(self):
        # The float 2.8 lies below 14/5 and the float 0.1 above 1/10.
        for t, exact_t in ((-1.4, F(-7, 5)), (0.0, F(0)), (0.5, F(1, 2))):
            exact = zeta(F(14, 5), F(1, 10), exact_t)
            assert zeta(2.8, 0.1, t) == pytest.approx(float(exact), rel=1e-12)
        exact = zeta_bound(F(14, 5), F(1, 20))
        assert zeta_bound(2.8, 0.05) == pytest.approx(float(exact), rel=1e-12)
        roots = zeta_derivative_roots(3.0, 0.1)
        exact_roots = zeta_derivative_roots(F(3), F(1, 10))
        assert roots == pytest.approx([float(r) for r in exact_roots], rel=1e-12)
        with pytest.raises(DomainError):
            zeta_bound(2.8 - 1e-6, 0.05)


class TestIdentities:
    @settings(max_examples=80)
    @given(c_strategy, delta_strategy)
    def test_bound_equals_endpoint_evaluation(self, c, d):
        assert zeta_bound(c, d) == zeta(c, d, -c / 2)

    @settings(max_examples=80)
    @given(
        c_strategy,
        delta_strategy,
        st.fractions(min_value=F(-7, 5), max_value=6, max_denominator=100),
    )
    def test_derivative_matches_root_factorization(self, c, d, t):
        # quadratic(t) = 2 (t - r1) (t - r2) reassembles the closed form.
        if not t > -c / 2:
            return
        r1, r2 = zeta_derivative_roots(c, d)
        den = c * (9 - 20 * d + 20 * d * d) + 4 * (t - 1)
        expected = -2 * c * (1 - 2 * d) * 2 * (t - r1) * (t - r2) / (den * den)
        assert zeta_derivative(c, d, t) == expected

    @settings(max_examples=80)
    @given(c_strategy, delta_strategy)
    def test_roots_lie_left_of_admissible_range(self, c, d):
        r1, r2 = zeta_derivative_roots(c, d)
        assert r1 < -c / 2
        assert r2 < -c / 2

    @settings(max_examples=60)
    @given(
        c_strategy,
        delta_strategy,
        st.fractions(min_value=F(-7, 5), max_value=5, max_denominator=50),
        st.fractions(min_value=F(1, 50), max_value=3, max_denominator=50),
    )
    def test_strictly_decreasing(self, c, d, t, step):
        if not t >= -c / 2:
            return
        assert zeta(c, d, t) > zeta(c, d, t + step)

    def test_derivative_negative_on_range(self):
        rng = random.Random(5)
        for _ in range(50):
            c = F(14, 5) + F(rng.randrange(0, 120), 100)
            d = F(rng.randrange(0, 101), 1000)
            t = -c / 2 + F(rng.randrange(1, 500), 100)
            assert zeta_derivative(c, d, t) < 0

    def test_derivative_matches_difference_quotient(self):
        c, d = F(3), F(1, 20)
        t, h = F(1, 4), F(1, 10 ** 6)
        quotient = (zeta(c, d, t + h) - zeta(c, d, t - h)) / (2 * h)
        assert float(quotient) == pytest.approx(
            float(zeta_derivative(c, d, t)), rel=1e-9
        )
