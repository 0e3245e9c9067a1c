"""Certified verification of the improvement constants."""

import math
from collections import Counter
from fractions import Fraction as F

import pytest

from circumquad import (
    BadParams,
    CaseId,
    TheoremConstants,
    Verdict,
    case_machine,
    certify_constants,
    regular_polygon,
)
from circumquad import intervals, pipeline
from circumquad.intervals import certify_less


class TestTheoremConstants:
    def test_defaults_are_exact_rationals(self):
        c = TheoremConstants()
        assert c.c1 == 1 + F(53, 10 ** 8)
        assert c.c3 == F(283134, 100000)
        assert c.delta == F(2824, 100000)

    def test_validation(self):
        with pytest.raises(BadParams):
            TheoremConstants(c1=F(1))
        with pytest.raises(BadParams):
            TheoremConstants(c3=F(5, 2))
        with pytest.raises(BadParams):
            TheoremConstants(delta=F(1, 5))
        malformed = (
            {"c1": "abc"}, {"c1": math.nan}, {"c1": None},
            {"c3": math.inf}, {"delta": "1/0"},
        )
        for bad in malformed:
            with pytest.raises(BadParams, match=next(iter(bad))):
                TheoremConstants(**bad)

    def test_derived_values(self):
        assert pipeline._C2 == pytest.approx(1.0020591, abs=1e-6)
        assert pipeline._R == pytest.approx(2.9120e-3, abs=1e-6)

    def test_case_factors_coincide(self):
        # The second and third factors, from the ladder's float c2 and r.
        c1, c2, r = pipeline._C1, pipeline._C2, pipeline._R
        f2 = 1.0 / math.sqrt(1.0 + (c2 - 1.0) ** 2 / (8.0 * c1))
        f3 = 1.0 / (1.0 + r * r / 32.0)
        f1 = pipeline._CASE_FACTOR
        assert f1 == pytest.approx(f2, abs=1e-12)
        assert f1 == pytest.approx(f3, abs=1e-12)
        assert f1 == pytest.approx(1 - 2.65e-7, abs=2e-9)


class TestFloatView:
    """The case ladder's float thresholds, derived in ``pipeline``."""

    def test_bit_for_bit(self):
        # The floats nearest c2 and r, and 1/sqrt(c1) in floats (one ulp
        # above the float nearest 1/sqrt(c1), on the safe side).
        assert pipeline._C1 == 1.00000053
        assert pipeline._C2 == 1.0020591265738656
        assert pipeline._R == 0.00291204376278934
        assert pipeline._CASE_FACTOR == 0.9999997350001054
        assert (pipeline._C3, pipeline._DELTA) == (2.83134, 0.02824)

    def test_nearest_float_to_the_128_bit_enclosure(self):
        # float() of a Fraction rounds to nearest.  When both ends of the
        # enclosure round to one float, so does the true value inside it.
        c = TheoremConstants()
        for value, expr in ((pipeline._C2, c.c2_expr()), (pipeline._R, c.r_expr())):
            iv = expr.enclosure(128)
            assert float(iv.lo) == value == float(iv.hi)

    def test_derived_once_across_bodies(self, monkeypatch):
        calls = Counter()
        for name in ("c2_expr", "r_expr"):
            def counted(self, _name=name, _method=getattr(TheoremConstants, name)):
                calls[_name] += 1
                return _method(self)

            monkeypatch.setattr(TheoremConstants, name, counted)
        for body in (regular_polygon(5), regular_polygon(64)):
            assert case_machine(body).case_id is not CaseId.DEGENERATE_TRIANGLE
        # Derived at import: solving reads the module floats only.
        assert calls == Counter()


class TestCertification:
    def test_all_proven_at_default(self):
        checks = certify_constants(TheoremConstants(), 128)
        assert len(checks) == 8
        assert all(c.verdict is Verdict.PROVEN for c in checks)

    def test_precision_floor_is_checked_first(self, monkeypatch):
        # The first evaluation is a certify_less, which checks the floor.
        calls = []

        def spy(*args):
            calls.append(args)
            return certify_less(*args)

        monkeypatch.setattr("circumquad.constants.certify_less", spy)
        with pytest.raises(BadParams, match="precision_bits"):
            certify_constants(TheoremConstants(), 7)
        assert len(calls) == 1

    def test_each_shared_radical_is_enclosed_once_per_call(self, monkeypatch):
        # Five roots, each enclosed at both ends: sqrt(8 c1 (c1 - 1)) in c2,
        # sqrt(c1) and the outer root in r, the root of check 3, and
        # sqrt(c1) in check 7.  Enclosing c2 and r at every use took 28.
        calls = []
        real = intervals.sqrt_enclosure

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(intervals, "sqrt_enclosure", spy)
        for _ in range(2):  # nothing is kept from one call to the next
            calls.clear()
            certify_constants(TheoremConstants(), 128)
            assert len(calls) == 10

    def test_low_precision_never_disproves(self):
        checks = certify_constants(TheoremConstants(), 8)
        assert any(c.verdict is Verdict.UNDECIDABLE for c in checks)
        assert all(c.verdict is not Verdict.DISPROVEN for c in checks)

    def test_perturbed_c1_breaks_final_bound(self):
        checks = certify_constants(TheoremConstants(c1=F(10001, 10000)), 128)
        # c1 - 1 jumps from 5.3e-7 to 1e-4, inflating c2 and r past their
        # certified bounds and pushing the dilated cut area above 7.999996.
        assert checks[0].verdict is Verdict.DISPROVEN
        assert checks[1].verdict is Verdict.DISPROVEN
        assert checks[5].verdict is Verdict.DISPROVEN
        # the cut-area peaks depend only on c3 and delta, so they survive
        assert checks[3].verdict is Verdict.PROVEN
        assert checks[4].verdict is Verdict.PROVEN

    def test_exact_override_keeps_factor_coincidence(self):
        # 8 * 2 * (2 - 1) = 16 is a perfect square, so the derived c2 is the
        # point 5: the magnitude bounds fail, the coincidence holds.
        checks = certify_constants(TheoremConstants(c1=F(2)), 64)
        assert checks[7].verdict is Verdict.PROVEN
        assert checks[0].verdict is Verdict.DISPROVEN

    def test_interval_endpoints_reported(self):
        checks = certify_constants(TheoremConstants(), 64)
        for comp in checks:
            assert comp.lhs_interval.lo <= comp.lhs_interval.hi
            assert comp.rhs_interval.lo <= comp.rhs_interval.hi
            assert comp.precision_bits == 64

    def test_verdicts_stable_under_refinement(self):
        for bits in (32, 64, 128, 256):
            checks = certify_constants(TheoremConstants(), bits)
            for comp in checks:
                assert comp.verdict is not Verdict.DISPROVEN
