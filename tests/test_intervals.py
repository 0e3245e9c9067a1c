"""Interval arithmetic and certified comparisons."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circumquad.constants import TheoremConstants, certify_constants
from circumquad.errors import (
    BadParams,
    DivisionByIntervalContainingZero,
    NegativeRadicand,
)
from circumquad.intervals import (
    CertifiedComparison,
    Interval,
    Verdict,
    certify_less,
    const,
    esqrt,
    sqrt_enclosure,
)

rational = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


class TestInterval:
    def test_ordering_validated(self):
        with pytest.raises(BadParams):
            Interval(F(1), F(0))

    def test_arithmetic_frozen(self):
        a = Interval(F(1), F(2))
        b = Interval(F(-1), F(3))
        assert (a + b) == Interval(F(0), F(5))
        assert (a - b) == Interval(F(-2), F(3))
        assert (a * b) == Interval(F(-2), F(6))

    def test_division_through_zero_raises(self):
        with pytest.raises(DivisionByIntervalContainingZero):
            Interval(F(1), F(2)) / Interval(F(-1), F(1))

    def test_division_frozen(self):
        assert Interval(F(1), F(2)) / Interval(F(2), F(4)) == Interval(
            F(1, 4), F(1)
        )

    def test_outward_contains(self):
        iv = Interval(F(1, 3), F(2, 3))
        out = iv.outward(16)
        assert out.lo <= iv.lo and iv.hi <= out.hi
        assert (out.hi - out.lo) - (iv.hi - iv.lo) <= F(2, 2 ** 16)

    @settings(max_examples=100)
    @given(rational, rational, rational, rational)
    def test_products_cover_all_sign_cases(self, a, b, c, d):
        lo1, hi1 = min(a, b), max(a, b)
        lo2, hi2 = min(c, d), max(c, d)
        prod = Interval(lo1, hi1) * Interval(lo2, hi2)
        for x in (lo1, hi1):
            for y in (lo2, hi2):
                assert prod.lo <= x * y <= prod.hi


class TestSqrtEnclosure:
    def test_perfect_square_is_point(self):
        assert sqrt_enclosure(F(4)) == Interval(F(2), F(2))
        assert sqrt_enclosure(F(9, 16)) == Interval(F(3, 4), F(3, 4))

    def test_two_bracketed(self):
        iv = sqrt_enclosure(F(2), 128)
        assert iv.lo * iv.lo <= 2 <= iv.hi * iv.hi
        assert iv.hi - iv.lo <= F(1, 2 ** 100)

    def test_zero(self):
        assert sqrt_enclosure(F(0)).lo == 0

    def test_negative_raises(self):
        with pytest.raises(NegativeRadicand):
            sqrt_enclosure(F(-1))

    def test_low_precision_rejected(self):
        with pytest.raises(BadParams):
            sqrt_enclosure(F(2), 4)
        for bits in ("128", 12.5):
            with pytest.raises(BadParams, match="precision_bits"):
                sqrt_enclosure(F(2), bits)
            with pytest.raises(BadParams, match="precision_bits"):
                certify_constants(TheoremConstants(), bits)

    @pytest.mark.parametrize("bits", [-100, 0, 3, 7, 7.5, "128"])
    def test_comparison_below_the_precision_floor_is_bad_params(self, bits):
        with pytest.raises(BadParams, match="precision_bits"):
            certify_less(const(1) + const(1), const(3), bits)

    @settings(max_examples=60)
    @given(st.fractions(min_value=0, max_value=1000, max_denominator=997))
    def test_enclosure_brackets_square(self, x):
        iv = sqrt_enclosure(x, 64)
        assert iv.lo >= 0
        assert iv.lo * iv.lo <= x <= iv.hi * iv.hi


class TestExpr:
    def test_const_and_arithmetic(self):
        e = (1 + esqrt(const(F(2)))) * (1 + esqrt(const(F(2))))
        iv = e.enclosure(128)
        # (1+sqrt2)^2 = 3 + 2 sqrt2, so (endpoint-3)/2 must bracket sqrt2.
        assert ((iv.lo - 3) / 2) ** 2 <= 2 <= ((iv.hi - 3) / 2) ** 2
        assert float(iv.lo) == pytest.approx(5.828427124746190, abs=1e-12)

    def test_refinement_narrows(self):
        e = esqrt(const(F(3))) / (1 + esqrt(const(F(5))))
        coarse = e.enclosure(16)
        fine = e.enclosure(96)
        assert fine.hi - fine.lo < coarse.hi - coarse.lo
        assert coarse.lo <= fine.lo and fine.hi <= coarse.hi

    def test_negative_sqrt_in_expr(self):
        with pytest.raises(NegativeRadicand):
            esqrt(const(F(-3))).enclosure(64)

    def test_division_by_zero_interval(self):
        with pytest.raises(DivisionByIntervalContainingZero):
            (const(1) / (esqrt(const(F(2))) - esqrt(const(F(2))))).enclosure(64)


class TestCertify:
    def test_proven(self):
        comp = certify_less(esqrt(const(F(2))), const(F(3, 2)), 64)
        assert comp.verdict is Verdict.PROVEN
        assert isinstance(comp, CertifiedComparison)

    def test_disproven(self):
        comp = certify_less(const(F(3, 2)), esqrt(const(F(2))), 64)
        assert comp.verdict is Verdict.DISPROVEN

    def test_undecidable_then_proven(self):
        # 577/408 exceeds sqrt(2) by about 1.06e-6: invisible at 8 bits.
        lhs = esqrt(const(F(2)))
        rhs = const(F(577, 408))
        low = certify_less(lhs, rhs, 8)
        high = certify_less(lhs, rhs, 64)
        assert low.verdict is Verdict.UNDECIDABLE
        assert high.verdict is Verdict.PROVEN

    def test_definite_verdicts_stable_under_refinement(self):
        lhs = esqrt(const(F(2)))
        rhs = const(F(3, 2))
        for bits in (16, 32, 64, 128, 256):
            assert certify_less(lhs, rhs, bits).verdict is Verdict.PROVEN

    def test_claim_text(self):
        comp = certify_less(const(F(1), "one"), const(F(2), "two"), 32)
        assert "one" in comp.claim and "two" in comp.claim
