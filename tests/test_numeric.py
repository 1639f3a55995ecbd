"""Exact scalar layer: quadratic field arithmetic, CF enclosures, certified
comparisons, torus distance."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from diophlab.errors import PrecisionExhausted, UnsupportedEntry
from diophlab.numeric import (
    CFReal,
    Ordering,
    Quadratic,
    Radical,
    RatInterval,
    compare,
    dec_str,
    dist_to_int,
    enclose,
    ex_abs,
    ex_pow,
    floor_exact,
    format_exact,
    lt,
    le,
    nearest_int,
    parse_exact,
    quadratic,
    sign,
    sup_norm,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


class TestQuadratic:
    def test_arithmetic_closure(self):
        x = Quadratic(F(1, 2), F(1, 3), 5)
        y = Quadratic(F(-1), F(2), 5)
        assert (x + y) - y == x
        assert (x * y) * y.inverse() == x

    def test_sqrt2_squares_to_two(self, sqrt2):
        assert sqrt2 * sqrt2 == F(2)

    def test_mixed_radicands_rejected(self):
        with pytest.raises(UnsupportedEntry):
            Quadratic(F(0), F(1), 2) + Quadratic(F(0), F(1), 3)

    def test_degenerate_collapses_to_fraction(self):
        assert quadratic(F(3), F(0), 7) == F(3)

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            Quadratic(F(0), F(1), 8)

    @given(a=rationals, b=rationals)
    def test_sign_matches_float(self, a, b):
        x = quadratic(a, b, 5)
        if isinstance(x, F):
            assert sign(x) == (x > 0) - (x < 0)
        else:
            fx = float(a) + float(b) * math.sqrt(5)
            if abs(fx) > 1e-9:  # stay away from float noise
                assert sign(x) == (1 if fx > 0 else -1)

    def test_sign_of_radical_is_sign_of_radicand(self, golden):
        assert sign(Radical(F(0), 3)) == 0
        assert sign(Radical(golden, 2)) == 1
        assert sign(Radical(RatInterval(F(1, 3), F(1, 2)), 2)) == 1

    def test_undecided_sign_prints_a_short_width(self):
        # ends with 60-digit denominators: the message names the width only
        x = RatInterval(F(-1, 10**59 + 3), F(1, 10**59 + 7))
        with pytest.raises(PrecisionExhausted) as exc:
            sign(x)
        msg = str(exc.value)
        assert msg.startswith("sign undecided (width 2e-59")
        assert len(msg) < 80


class TestCompare:
    def test_sqrt2_vs_rational(self, sqrt2):
        assert compare(sqrt2, F(3, 2)).kind == "less"
        assert compare(sqrt2, F(7, 5)).kind == "greater"

    def test_equal_exact(self, sqrt2):
        assert compare(sqrt2 * sqrt2, F(2)) is Ordering.EQUAL

    def test_cf_vs_rational(self):
        golden_cf = CFReal((0,) + (1,) * 8)
        assert compare(golden_cf, F(13, 8)).kind == "less"

    def test_uncertain_reports_width(self):
        coarse = CFReal((0, 1, 1))
        c = compare(coarse, F(3, 5))
        assert not c.decided and c.width > 0

    def test_le_lt_raise_on_undecided(self):
        coarse = CFReal((0, 1, 1))
        with pytest.raises(PrecisionExhausted):
            lt(coarse, F(3, 5))

    @given(x=rationals, y=rationals)
    def test_total_order_on_rationals(self, x, y):
        c = compare(x, y)
        assert c.kind == ("less" if x < y else "greater" if x > y else "equal")


class TestFloorDist:
    def test_floor_sqrt2(self, sqrt2):
        assert floor_exact(sqrt2) == 1
        assert floor_exact(sqrt2 * 100) == 141
        assert floor_exact(-sqrt2) == -2

    def test_nearest(self, sqrt2):
        assert nearest_int(sqrt2) == 1
        assert nearest_int(F(7, 2)) == 4  # half rounds up

    def test_dist_rational(self):
        assert dist_to_int(F(7, 2)) == F(1, 2)
        assert dist_to_int(F(-1, 3)) == F(1, 3)

    def test_dist_sqrt2(self, sqrt2):
        d = dist_to_int(sqrt2)
        assert dec_str(d).startswith("0.414213562373")

    @given(q=st.integers(min_value=-500, max_value=500), p=st.integers(min_value=-500, max_value=500))
    def test_dist_periodicity(self, q, p):
        # ||x + p||_Z == ||x||_Z and ||-x||_Z == ||x||_Z
        x = Quadratic(F(0), F(1), 2) * q
        assert dist_to_int(x + p) == dist_to_int(x)
        assert dist_to_int(-x) == dist_to_int(x)

    @given(x=rationals)
    def test_dist_bounds(self, x):
        d = dist_to_int(x)
        assert F(0) <= d <= F(1, 2)

    def test_cf_dist_stays_cf(self):
        x = CFReal((3, 7, 15, 1, 292))  # pi-ish
        d = dist_to_int(x)
        lo, hi = enclose(d, 40)
        assert F(1, 8) < lo and hi < F(1, 6)

    def test_cf_dist_reflects_above_half(self):
        # [0; 1, 2, 3] = 7/10 > 1/2, so 1 - [0; 1, a2, a3] = [0; a2 + 1, a3]
        d = dist_to_int(CFReal((0, 1, 2, 3)))
        assert d == CFReal((0, 3, 3)) and d.enclosure() == (F(3, 10), F(1, 3))
        assert dist_to_int(CFReal((-2, 1, 2, 3))) == CFReal((0, 3, 3))
        # [0; 1] encloses (0, 1), which straddles 1/2
        with pytest.raises(PrecisionExhausted):
            dist_to_int(CFReal((0, 1)))

    def test_sup_norm(self, sqrt2):
        assert sup_norm([F(-3, 4), F(1, 2)]) == F(3, 4)
        v = ex_abs(sqrt2 - 2)
        assert lt(F(1, 2), v)


class TestRadical:
    def test_cube_root_two_bounds(self):
        r = Radical(F(2), 3)
        lo, hi = r.enclose(50)
        assert lo < hi and hi - lo < F(1, 2**49)
        assert float(lo) == pytest.approx(2 ** (1 / 3), rel=1e-12)

    def test_compare_mixed_roots(self):
        # 2^(1/2) vs 2^(1/3)
        assert Radical(F(2), 2).compare(Radical(F(2), 3)).kind == "greater"

    def test_compare_rational(self):
        assert Radical(F(8), 3).compare(F(2)) is Ordering.EQUAL

    @given(x=st.fractions(min_value=F(1, 100), max_value=100, max_denominator=1000),
           r=st.integers(min_value=1, max_value=5))
    def test_root_power_roundtrip(self, x, r):
        assert Radical(ex_pow(x, r), r).compare(x) is Ordering.EQUAL

    def test_compare_enclosure_touching_zero(self):
        # only a certainly negative operand short-circuits to GREATER; an
        # enclosure reaching down to 0 is decided on powers, like d^2 vs 1/4
        d = RatInterval(F(0), F(1, 100))
        assert compare(ex_pow(d, 2), F(1, 4)) is Ordering.LESS
        assert Radical(F(1, 4), 2).compare(d) is Ordering.GREATER
        assert Radical(F(1, 4), 2).compare(RatInterval(F(-1, 100), F(1, 100))) is Ordering.GREATER
        assert Radical(F(1, 4), 2).compare(RatInterval(F(-1), F(-1, 2))) is Ordering.GREATER
        assert not Radical(F(1, 4), 2).compare(RatInterval(F(0), F(1))).decided

    @given(x=st.fractions(min_value=-2, max_value=2, max_denominator=1000),
           rad=st.fractions(min_value=0, max_value=4, max_denominator=1000),
           r=st.integers(min_value=1, max_value=4))
    def test_compare_lt_le_accept_radical(self, x, rad, r):
        root = Radical(rad, r)
        c = root.compare(x)
        assert compare(root, x) is c
        assert compare(x, root) is c.reversed()
        assert lt(x, root) == (c is Ordering.GREATER)
        assert le(x, root) == (c is not Ordering.LESS)
        assert lt(root, x) == (c is Ordering.LESS)
        assert compare(root, root) is Ordering.EQUAL


class TestParseFormat:
    @pytest.mark.parametrize("text", ["3/4", "-7/5", "(1+2*sqrt(3))/5", "(-1+1*sqrt(5))/2", "cf:[0;1,1,1,1]"])
    def test_roundtrip(self, text):
        x = parse_exact(text)
        assert parse_exact(format_exact(x)) == x or format_exact(parse_exact(format_exact(x))) == format_exact(x)

    def test_golden_literal(self, golden):
        assert parse_exact("(-1+1*sqrt(5))/2") == golden

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_exact("sqrt(two)")

    def test_dec_str_truncates_consistently(self, sqrt2):
        assert dec_str(sqrt2) == "1.414213562373"
        assert dec_str(-sqrt2) == "-1.414213562373"


class TestRatInterval:
    def test_arithmetic(self):
        a = RatInterval(F(1), F(2))
        b = RatInterval(F(-1), F(1))
        s = a + b
        assert s.lo == F(0) and s.hi == F(3)
        p = a * b
        assert p.lo == F(-2) and p.hi == F(2)

    def test_endpoints_become_fractions(self):
        # a Fraction endpoint is kept as it is; any other is converted
        lo = F(1, 3)
        for iv in (RatInterval(1, 2), RatInterval(lo, 2), RatInterval(-3, lo)):
            assert type(iv.lo) is F and type(iv.hi) is F
        assert RatInterval(lo, 2).lo is lo
        assert (RatInterval(1, 2).lo, RatInterval(1, 2).hi) == (1, 2)
        with pytest.raises(ValueError):
            RatInterval(2, 1)
        with pytest.raises(ValueError):
            RatInterval(F(1, 2), F(1, 3))

    def test_negative_power_inverts_then_raises(self):
        p = ex_pow(RatInterval(F(1, 3), F(1, 2)), -2)
        assert (p.lo, p.hi) == (4, 9)
        for reaches_zero in (RatInterval(F(0), F(1, 2)), RatInterval(F(-1, 3), F(0)), RatInterval(F(-1), F(1))):
            with pytest.raises(ValueError):
                ex_pow(reaches_zero, -1)

    def test_dist_straddling_integer(self):
        iv = RatInterval(F(9, 10), F(11, 10))
        d = dist_to_int(iv)
        lo, hi = (d.lo, d.hi) if isinstance(d, RatInterval) else (d, d)
        assert lo == 0 and hi >= F(1, 10)
