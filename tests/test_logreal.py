"""Log-domain scalar arithmetic: identities, oracles, random agreement."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orliczlab import LogReal, Tolerance, ZERO

finite_vals = st.floats(
    min_value=-1e15, max_value=1e15, allow_nan=False, allow_infinity=False
).filter(lambda x: x == 0.0 or abs(x) > 1e-300)


class TestConstruction:
    def test_zero_is_canonical(self):
        assert LogReal.from_float(0.0) == ZERO
        assert ZERO.sign == 0
        assert LogReal(0, 123.0) == ZERO  # log2mag normalized away

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            LogReal(2, 0.0)
        with pytest.raises(ValueError):
            LogReal(1, math.nan)
        with pytest.raises(ValueError):
            LogReal.from_float(math.inf)

    def test_underflowed_magnitude_is_zero(self):
        assert LogReal(1, -math.inf) == ZERO


class TestAdd:
    def test_additive_identity(self):
        x = LogReal.from_float(0.37)
        assert ZERO + x == x
        assert x + ZERO == x

    def test_doubling_shifts_exponent(self):
        x = LogReal.two_pow(10)
        assert (x + x).log2mag == pytest.approx(11.0, abs=0)
        assert (x + x).sign == 1

    def test_subnormal_scale_sum(self):
        # 2^-2000 + 2^-2001 = 2^-2000 * 1.5; exact identity checked by the
        # same sum at small exponents in exact rational arithmetic below
        got = LogReal.two_pow(-2000) + LogReal.two_pow(-2001)
        assert got.log2mag == pytest.approx(-2000 + math.log2(1.5), rel=1e-15)

    def test_against_exact_rationals(self):
        # same mantissa pattern at representable exponents
        for ea, eb in [(-20, -21), (-5, -9), (0, -3), (7, 7)]:
            exact = Fraction(2) ** ea + Fraction(2) ** eb
            got = LogReal.two_pow(ea) + LogReal.two_pow(eb)
            assert got.log2mag == pytest.approx(math.log2(float(exact)), rel=1e-15)

    def test_cancellation(self):
        x = LogReal.from_float(0.625)
        assert (x - x) == ZERO
        near = LogReal.from_float(0.625 - 1e-12)
        diff = x - near
        assert diff.sign == 1
        assert diff.to_float() == pytest.approx(1e-12, rel=1e-3)

    def test_cancellation_at_a_tie(self):
        # the magnitudes differ by 1e-17 in log2, so 2^(b - a) rounds to 1.0
        diff = LogReal(1, 1e-17) - LogReal(1, 0.0)
        assert diff.sign == 1
        assert diff.log2mag == pytest.approx(math.log2(1e-17 * math.log(2.0)), abs=1e-12)

    def test_no_overflow_at_extreme_exponents(self):
        big = LogReal.two_pow(1_000_000)
        tiny = LogReal.two_pow(-1_000_000)
        assert (big + tiny).log2mag == 1_000_000
        assert (big + big).log2mag == 1_000_001
        assert (big - tiny).log2mag == 1_000_000


class TestMulDiv:
    def test_mul_adds_exponents_exactly(self):
        a = LogReal(1, 12.5)
        b = LogReal(-1, -3.25)
        assert (a * b).log2mag == 12.5 + -3.25
        assert (a * b).sign == -1

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            LogReal.from_float(1.0) / ZERO

    def test_zero_absorbs(self):
        assert (ZERO * LogReal.from_float(5.0)) == ZERO


class TestRandomAgreement:
    def test_agreement_with_native_doubles(self):
        # 10^4 random pairs, |log2mag| <= 100
        import random

        rng = random.Random(20240)
        for _ in range(10_000):
            a = rng.uniform(-1, 1) * 2.0 ** rng.uniform(-100, 100)
            b = rng.uniform(-1, 1) * 2.0 ** rng.uniform(-100, 100)
            la, lb = LogReal.from_float(a), LogReal.from_float(b)
            assert (la * lb).to_float() == pytest.approx(a * b, rel=1e-12)
            s = a + b
            ls = (la + lb).to_float()
            if s == 0.0:
                assert ls == 0.0
            elif abs(s) > 1e-12 * (abs(a) + abs(b)):
                assert ls == pytest.approx(s, rel=1e-12)

    def test_associativity(self):
        import random

        rng = random.Random(77)
        for _ in range(2000):
            vals = [
                LogReal.from_float(rng.uniform(-1, 1) * 2.0 ** rng.uniform(-80, 80))
                for _ in range(3)
            ]
            left = (vals[0] + vals[1]) + vals[2]
            right = vals[0] + (vals[1] + vals[2])
            if left.sign == 0 or right.sign == 0:
                continue
            assert left.sign == right.sign
            assert left.log2mag == pytest.approx(right.log2mag, abs=1e-12, rel=1e-12)


class TestCmp:
    @given(a=finite_vals, b=finite_vals)
    @example(a=-999999999999998.0, b=-999999999999997.0)
    @settings(max_examples=300, deadline=None)
    def test_order_matches_reals(self, a, b):
        # the core sorts magnitudes by their stored log2 (rearrangement,
        # attainment), so from_float must keep the order of |a| and |b|.
        # Conversion is exact only to a few ulps of the exponent, so reals one
        # ulp apart can share a stored exponent (math.log2 maps both pinned
        # magnitudes to 49.82892142331043): such pairs may tie, never invert
        la, lb = LogReal.from_float(a), LogReal.from_float(b)
        assert la.sign == (a > 0) - (a < 0)
        if a == 0.0 or b == 0.0:
            return
        got = (la.log2mag > lb.log2mag) - (la.log2mag < lb.log2mag)
        want = (abs(a) > abs(b)) - (abs(a) < abs(b))
        assert got in (0, want)
        if la.log2mag != lb.log2mag:
            assert got == want


class TestConversionRendering:
    @given(x=finite_vals.filter(lambda v: v != 0.0))
    @settings(max_examples=300, deadline=None)
    def test_float_roundtrip(self, x):
        back = LogReal.from_float(x).to_float()
        assert back == pytest.approx(x, rel=1e-14)

    def test_roundtrip_within_10_ulps_across_range(self):
        for e in (-890.0, -500.5, -10.0, 0.0, 11.25, 899.0):
            x = LogReal(1, e)
            back = LogReal.from_float(x.to_float())
            assert abs(back.log2mag - e) <= 10 * 2 ** -52 * max(1.0, abs(e))

    def test_saturation_outside_double_range(self):
        assert LogReal(1, 5000.0).to_float() == math.inf
        assert LogReal(-1, 5000.0).to_float() == -math.inf
        assert LogReal(1, -5000.0).to_float() == 0.0

    @given(st.floats(min_value=-5000, max_value=5000, allow_nan=False), st.sampled_from([-1, 1]))
    @settings(max_examples=300, deadline=None)
    def test_render_parse_roundtrip(self, e, sign):
        x = LogReal(sign, e)
        back = LogReal.parse(x.render())
        assert back.sign == x.sign
        # the decimal path costs one float rounding of the value, which is an
        # absolute perturbation of the exponent
        assert back.log2mag == pytest.approx(x.log2mag, rel=1e-15, abs=1e-14)

    def test_parse_forms(self):
        assert LogReal.parse("0") == ZERO
        assert LogReal.parse("2^-100").log2mag == -100
        assert LogReal.parse("-2^3").sign == -1
        assert LogReal.parse("0.25").log2mag == -2
        assert LogReal.parse("-1.5e-3").to_float() == pytest.approx(-1.5e-3)
        with pytest.raises(ValueError):
            LogReal.parse("")

    @pytest.mark.parametrize(
        "token",
        ["1e-400", "-1e-400", "0.5e-330", "1e400", "-1.8e308", "inf", "-inf", "nan", "Infinity", "-abc"],
    )
    def test_decimal_outside_the_double_range_is_named(self, token):
        with pytest.raises(ValueError, match=f"token '{token}'"):
            LogReal.parse(token)

    @pytest.mark.parametrize(
        "token",
        ["2^inf", "2^1e400", "2^nan", "-2^inf", "2^+Infinity", "2^abc", "2^", "-2^x1"],
    )
    def test_pow2_token_without_finite_exponent_is_named(self, token):
        with pytest.raises(ValueError, match=f"token '{re.escape(token)}'"):
            LogReal.parse(token)

    @pytest.mark.parametrize("token", ["0", "-0", "0.000", "0e-999", "-0.0e400", "+0E5"])
    def test_decimal_zeros_stay_zero(self, token):
        assert LogReal.parse(token) == ZERO

    def test_edges_of_the_double_range_and_pow2_tokens_unchanged(self):
        # the smallest subnormal and the largest double are still decimals;
        # 5e-324 is read as the decimal, not as the double 2^-1074 it rounds to
        assert LogReal.parse("5e-324").log2mag == -1073.982774648618
        assert LogReal.parse("1.7976931348623157e308").log2mag == math.log2(1.7976931348623157e308)
        assert LogReal.parse("2^-1328.77").log2mag == -1328.77
        assert LogReal.parse("-2^5000").log2mag == 5000.0
        assert LogReal.parse("2^-inf") == ZERO


    @pytest.mark.parametrize("token", ["1e-310", "1e-320", "3e-322", "5e-324", "-7.5e-321"])
    def test_subnormal_decimals_are_read_exactly(self, token):
        import mpmath as mp

        q = Fraction(token)
        with mp.workprec(200):
            want = float(mp.log(abs(mp.mpf(q.numerator) / q.denominator), 2))
        got = LogReal.parse(token)
        assert got.sign == (1 if q > 0 else -1)
        assert abs(got.log2mag - want) <= math.ulp(want)

    @pytest.mark.parametrize("token", ["2.2250738585072014e-308", "1e-300", "0.3", "7e300"])
    def test_normal_decimals_keep_their_bits(self, token):
        assert LogReal.parse(token).log2mag == math.log2(float(token))


class TestToleranceType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tolerance(rel=0.0)
