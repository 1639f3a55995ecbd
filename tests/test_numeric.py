"""Exact scalar layer: quadratic field arithmetic, CF enclosures, certified
comparisons, torus distance."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from diophlab.errors import PrecisionExhausted, UnsupportedEntry
from diophlab.lattice import ApproxMatrix
from diophlab.numeric import (
    CFReal,
    Ordering,
    Quadratic,
    Radical,
    RatInterval,
    _floor_between,
    _floor_sqrt_mult,
    _sign_surd,
    _surd,
    compare,
    convergents,
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
    def test_nearest_int_and_distance_of_a_radical_read_its_view(self):
        assert nearest_int(Radical(F(2), 2)) == 1
        # sqrt(1/4) = 1/2 exactly: the upper integer of the tie
        assert nearest_int(Radical(F(1, 4), 2)) == 1
        assert dist_to_int(Radical(F(1, 4), 2)) == F(1, 2)
        d = dist_to_int(Radical(F(2), 2))
        assert isinstance(d, RatInterval) and d.hi - d.lo < F(1, 2**150)
        root2_less_1 = quadratic(F(-1), F(1), 2)
        assert compare(d.lo, root2_less_1) is Ordering.LESS and compare(root2_less_1, d.hi) is Ordering.LESS

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

    @given(
        x=st.one_of(
            st.integers(-(10**30), 10**30),
            rationals,
            # exact halves, either sign
            st.integers(-(10**6), 10**6).map(lambda k: F(2 * k + 1, 2)),
            # denominators above 2^200, numerators of either sign and size
            st.builds(
                F,
                st.integers(-(1 << 260), 1 << 260),
                st.integers((1 << 200) + 1, 1 << 230),
            ),
        )
    )
    @example(x=0)
    @example(x=F(-1, 2))
    @example(x=F(-7, 3))
    @example(x=F((1 << 201) + 1, 1 << 202))
    def test_dist_of_a_rational_is_the_old_residue(self, x):
        # the former rational path, |x - nearest_int(x)|
        want = ex_abs(x - nearest_int(x))
        got = dist_to_int(x)
        assert got == want and type(got) is type(want)

    def test_cf_dist_stays_cf(self):
        x = CFReal((3, 7, 15, 1, 292))  # pi-ish
        d = dist_to_int(x)
        lo, hi = enclose(d, 40)
        assert F(1, 8) < lo and hi < F(1, 6)

    @settings(max_examples=200, deadline=None)
    @given(a0=st.integers(-5, 5), tail=st.lists(st.integers(1, 30), max_size=7))
    @example(a0=0, tail=[1, 2, 3])
    @example(a0=3, tail=[])
    @example(a0=0, tail=[1])
    def test_cf_dist_encloses_its_last_convergents(self, a0, tail):
        # the value lies between its last two convergents, so its distance
        # lies in the closed interval between theirs, read on the view; a
        # bare a0 spans (a0, a0 + 1), every distance
        x = CFReal((a0, *tail))
        d = dist_to_int(x)
        assert isinstance(d, RatInterval)
        for p, q in x.convergents()[-2:]:
            assert d.lo <= dist_to_int(F(p, q)) <= d.hi
        if not tail:
            assert (d.lo, d.hi) == (0, F(1, 2))
        if tail == [1, 2, 3]:
            # 7/10 in the view (2/3, 7/10): the distances 1/3 and 3/10
            assert (d.lo, d.hi) == (F(3, 10), F(1, 3))

    def test_sup_norm(self, sqrt2):
        assert sup_norm([F(-3, 4), F(1, 2)]) == F(3, 4)
        v = ex_abs(sqrt2 - 2)
        assert lt(F(1, 2), v)

    def test_abs_of_a_negative_cf_real_is_its_mirrored_view(self):
        # [-1; 2] lies in (-1, -1/2); its absolute value is the closed [1/2, 1]
        a = ex_abs(CFReal((-1, 2)))
        assert isinstance(a, RatInterval) and (a.lo, a.hi) == (F(1, 2), F(1))
        n = sup_norm([CFReal((-1, 2)), F(1, 4)])
        assert (n.lo, n.hi) == (F(1, 2), F(1))
        assert ex_abs(CFReal((0, 2))) == CFReal((0, 2))


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

    def test_cf_reads_at_most_64_quotients(self):
        pq = tuple(range(100))  # [0; 1, 2, ..., 99]
        x, head = CFReal(pq), CFReal(pq[:64])
        assert x.convergents() == list(convergents(pq[:64])) == head.convergents()
        assert x.enclosure() == head.enclosure()
        assert len(list(convergents(pq))) == 100
        # the literal and the matrix file carry all 100 quotients, read alike
        y = parse_exact(format_exact(x))
        z = ApproxMatrix.from_text(ApproxMatrix([[x]]).to_text()).rows[0][0]
        assert y.pq == z.pq == pq
        assert y.enclosure() == z.enclosure() == head.enclosure()

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


# ---------------------------------------------------------------------------
# the interval rule: one view (lo, hi, open) of every uncertain real
# ---------------------------------------------------------------------------


def old_interval(x):
    return x.enclosure() if isinstance(x, CFReal) else (x.lo, x.hi)


def old_sign(x):
    """sign as it was before the interval rule was stated once, for the
    rationals, CF reals and intervals these tests draw."""
    if isinstance(x, (int, F)):
        return (x > 0) - (x < 0)
    lo, hi = old_interval(x)
    if lo > 0 or (lo == 0 and isinstance(x, CFReal)):
        return 1
    if hi < 0 or (hi == 0 and isinstance(x, CFReal)):
        return -1
    if lo == hi == 0:
        return 0
    raise PrecisionExhausted("sign undecided")


def old_compare(x, y):
    fuzzy_x = isinstance(x, (CFReal, RatInterval))
    fuzzy_y = isinstance(y, (CFReal, RatInterval))
    if not fuzzy_x and not fuzzy_y:
        return (Ordering.LESS, Ordering.EQUAL, Ordering.GREATER)[old_sign(F(x) - F(y)) + 1]
    xlo, xhi = old_interval(x) if fuzzy_x else (F(x), F(x))
    ylo, yhi = old_interval(y) if fuzzy_y else (F(y), F(y))
    x_open = isinstance(x, CFReal) and len(x.pq) > 1
    y_open = isinstance(y, CFReal) and len(y.pq) > 1
    if xhi < ylo or (xhi == ylo and (x_open or y_open)):
        return Ordering.LESS
    if xlo > yhi or (xlo == yhi and (x_open or y_open)):
        return Ordering.GREATER
    if xlo == xhi == ylo == yhi:
        return Ordering.EQUAL
    if fuzzy_x and fuzzy_y and isinstance(x, CFReal) and isinstance(y, CFReal):
        if x.pq == y.pq:
            return Ordering.EQUAL
    return Ordering.uncertain((xhi - xlo) + (yhi - ylo))


def old_floor_exact(x):
    if isinstance(x, int):
        return x
    if isinstance(x, F):
        return x.numerator // x.denominator
    if isinstance(x, CFReal):
        lo, hi = x.enclosure()
        flo = lo.numerator // lo.denominator
        fhi = (
            hi.numerator // hi.denominator
            if hi.denominator > 1 or len(x.pq) == 1
            else hi.numerator - 1  # open upper endpoint at an integer
        )
        if flo == fhi:
            return flo
        raise PrecisionExhausted("floor undecided by CF enclosure")
    flo = x.lo.numerator // x.lo.denominator
    fhi = x.hi.numerator // x.hi.denominator
    if flo == fhi:
        return flo
    raise PrecisionExhausted("floor undecided by interval")


def old_nearest_int(x):
    if isinstance(x, (CFReal, RatInterval)):
        lo, hi = old_interval(x)
        return old_floor_exact(RatInterval(lo + F(1, 2), hi + F(1, 2)))
    return old_floor_exact(F(x) + F(1, 2))


def decided(f, *args):
    """f(*args), or None where it raises PrecisionExhausted."""
    try:
        return f(*args)
    except PrecisionExhausted:
        return None


cf_reals = st.builds(
    lambda a0, rest: CFReal((a0, *rest)),
    st.integers(min_value=-3, max_value=3),
    st.lists(st.integers(min_value=1, max_value=4), max_size=5),
)
intervals = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=2, max_size=2).map(
    lambda ends: RatInterval(*sorted(ends))
)
uncertain = st.one_of(cf_reals, intervals)
points = st.one_of(uncertain, st.integers(min_value=-4, max_value=4), st.fractions(min_value=-4, max_value=4, max_denominator=2))


class TestIntervalRule:
    def test_cf_ties_are_decided(self):
        # a CF real lies in the open interval of its enclosure, one quotient
        # or more: (0, 1) is above 0, (-1, 0) above -1, (2, 3) has floor 2
        # like its twin [2; 1], and (0, 1/2) and (-2/3, -1/2) round to 0, -1
        assert sign(CFReal((0,))) == 1 and compare(CFReal((0,)), 0) is Ordering.GREATER
        assert compare(CFReal((-1,)), -1) is Ordering.GREATER
        assert floor_exact(CFReal((2,))) == floor_exact(CFReal((2, 1))) == 2
        assert compare(CFReal((0, 2)), F(1, 2)) is Ordering.LESS and nearest_int(CFReal((0, 2))) == 0
        assert nearest_int(CFReal((-1, 2, 1))) == -1

    def test_undecided_floor_names_the_enclosure(self):
        with pytest.raises(PrecisionExhausted, match="^floor undecided by enclosure$"):
            floor_exact(RatInterval(F(1, 2), F(3, 2)))
        with pytest.raises(PrecisionExhausted, match="^floor undecided by enclosure$"):
            nearest_int(CFReal((0, 1)))  # (0, 1) straddles 1/2

    @given(x=uncertain, y=points)
    @settings(max_examples=300)
    @example(x=CFReal((0,)), y=0)
    @example(x=CFReal((0, 2)), y=F(1, 2))
    @example(x=RatInterval(F(1, 2), F(1, 2)), y=CFReal((0, 2)))
    def test_decisions_of_the_old_rule_are_kept(self, x, y):
        for new, old in ((sign, old_sign), (floor_exact, old_floor_exact), (nearest_int, old_nearest_int)):
            want = decided(old, x)
            if want is not None:
                assert new(x) == want
        for a, b in ((x, y), (y, x)):
            want = old_compare(a, b)
            if want.decided:
                assert compare(a, b) == want

    @given(x=uncertain)
    @settings(max_examples=300)
    @example(x=CFReal((0,)))
    @example(x=CFReal((0, 2)))
    @example(x=CFReal((-1, 2, 1)))
    @example(x=RatInterval(F(1), F(3, 2)))
    @example(x=RatInterval(F(0), F(0)))
    def test_sign_floor_and_nearest_agree_with_compare(self, x):
        half = F(1, 2)
        # sign decides exactly where compare places x against 0
        by_compare = {Ordering.LESS: -1, Ordering.EQUAL: 0, Ordering.GREATER: 1}.get(compare(x, 0))
        assert decided(sign, x) == by_compare
        lo = enclose(x, 0)[0]
        for f, shift in ((floor_exact, 0), (nearest_int, half)):
            n = decided(f, x)
            if n is not None:
                # x >= n - shift, or a closed end at it, and x < n + 1 - shift
                assert compare(x, n - shift) != Ordering.LESS and compare(x, n + 1 - shift) is Ordering.LESS
            # where compare places x in [k - shift, k + 1 - shift), f decides k
            k = math.floor(lo + shift)
            if compare(x, k - shift) in (Ordering.EQUAL, Ordering.GREATER) and compare(x, k + 1 - shift) is Ordering.LESS:
                assert n == k


# ---------------------------------------------------------------------------
# one view of every value: the deciders against their kind ladders
# ---------------------------------------------------------------------------


def old_view(x):
    """_as_interval when it took only a CF real or an interval."""
    if isinstance(x, CFReal):
        return (*x.enclosure(), True)
    if isinstance(x, RatInterval):
        return x.lo, x.hi, False
    raise TypeError(x)


def old_enclose(x, bits):
    if isinstance(x, int):
        return F(x), F(x)
    if isinstance(x, F):
        return x, x
    if isinstance(x, Quadratic):
        k = bits + max(x.b.numerator.bit_length() - x.b.denominator.bit_length(), 0) + 2
        s = math.isqrt(x.d << (2 * k))
        slo, shi = F(s, 1 << k), F(s + 1, 1 << k)
        if x.b > 0:
            return x.a + x.b * slo, x.a + x.b * shi
        return x.a + x.b * shi, x.a + x.b * slo
    if isinstance(x, (CFReal, RatInterval)):
        return old_view(x)[:2]
    if isinstance(x, Radical):
        return x.enclose(bits)
    raise TypeError(x)


def old_kind_sign(x):
    if isinstance(x, Radical):
        return old_kind_sign(x.radicand)
    if isinstance(x, (int, F)):
        return (x > 0) - (x < 0)
    if isinstance(x, Quadratic):
        (p,), (w,), _ = _surd((x,))
        return _sign_surd(p, w, x.d)
    lo, hi, open_ = old_view(x)
    if lo > 0 or (lo == 0 and open_):
        return 1
    if hi < 0 or (hi == 0 and open_):
        return -1
    if lo == hi == 0:
        return 0
    raise PrecisionExhausted("sign undecided")


def old_radical_compare(r, other):
    if isinstance(other, Radical):
        l = math.lcm(r.root, other.root)
        return old_kind_compare(ex_pow(r.radicand, l // r.root), ex_pow(other.radicand, l // other.root))
    if (other.hi < 0) if isinstance(other, RatInterval) else old_kind_sign(other) < 0:
        return Ordering.GREATER
    return old_kind_compare(r.radicand, ex_pow(other, r.root))


def old_kind_compare(x, y):
    if isinstance(x, Radical):
        return old_radical_compare(x, y)
    if isinstance(y, Radical):
        return old_radical_compare(y, x).reversed()
    fuzzy_x = isinstance(x, (CFReal, RatInterval))
    fuzzy_y = isinstance(y, (CFReal, RatInterval))
    if not fuzzy_x and not fuzzy_y:
        return (Ordering.LESS, Ordering.EQUAL, Ordering.GREATER)[old_kind_sign(x - y) + 1]
    xlo, xhi, x_open = old_view(x) if fuzzy_x else (*old_enclose(x, 160), False)
    ylo, yhi, y_open = old_view(y) if fuzzy_y else (*old_enclose(y, 160), False)
    if xhi < ylo or (xhi == ylo and (x_open or y_open)):
        return Ordering.LESS
    if xlo > yhi or (xlo == yhi and (x_open or y_open)):
        return Ordering.GREATER
    if xlo == xhi == ylo == yhi or (isinstance(x, CFReal) and x == y):
        return Ordering.EQUAL
    return Ordering.uncertain((xhi - xlo) + (yhi - ylo))


def old_kind_floor(x):
    if isinstance(x, int):
        return x
    if isinstance(x, F):
        return x.numerator // x.denominator
    if isinstance(x, Quadratic):
        (p,), (w,), D = _surd((x,))
        return (p + _floor_sqrt_mult(w, x.d)) // D
    return _floor_between(*old_view(x))


def old_kind_nearest(x):
    if isinstance(x, (CFReal, RatInterval)):
        lo, hi, open_ = old_view(x)
        return _floor_between(lo + F(1, 2), hi + F(1, 2), open_)
    return old_kind_floor(x + F(1, 2))


def old_kind_abs(x):
    if isinstance(x, (int, F)):
        return abs(x)
    if isinstance(x, RatInterval):
        if x.lo >= 0:
            return x
        if x.hi <= 0:
            return -x
        return RatInterval(F(0), max(-x.lo, x.hi))
    return x if old_kind_sign(x) >= 0 else -x


def old_kind_dist(x):
    if isinstance(x, (int, F, CFReal, RatInterval)):
        return dist_to_int(x)  # these kinds never read a view of another kind
    return old_kind_abs(x - old_kind_nearest(x))


def old_interval_op(op, x, y):
    """x op y, one of them an interval, when interval arithmetic took only a
    rational or an interval for its other operand (TypeError otherwise);
    a rational c acted as [c, c]."""
    if not all(isinstance(v, (int, F, RatInterval)) for v in (x, y)):
        raise TypeError(op)
    (a, b), (c, d) = ((v.lo, v.hi) if isinstance(v, RatInterval) else (F(v), F(v)) for v in (x, y))
    if op == "+":
        return RatInterval(a + c, b + d)
    if op == "-":
        return RatInterval(a - d, b - c)
    prods = [a * c, a * d, b * c, b * d]
    return RatInterval(min(prods), max(prods))


INTERVAL_OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y}


def outcome(f, *args):
    """("value", v) with v comparable by ==, or ("raises", the error class)."""
    try:
        v = f(*args)
    except (PrecisionExhausted, UnsupportedEntry, TypeError, ValueError) as exc:
        return "raises", type(exc)

    def plain(v):
        if isinstance(v, Ordering):
            return v.kind, v.width
        if isinstance(v, RatInterval):
            return "interval", v.lo, v.hi
        return tuple(map(plain, v)) if isinstance(v, tuple) else v

    return "value", plain(v)


def radical_floor_holds(r, n):
    """n^k <= r < (n+1)^k for the k-th root r of an exact radicand."""
    return sign(r.radicand - n**r.root) >= 0 and sign((n + 1) ** r.root - r.radicand) > 0


def radical_nearest_holds(r, n):
    """n - 1/2 <= r < n + 1/2 for a Radical r, decided by compare: n is the
    nearest integer, the upper one on a tie."""
    return compare(r, n - F(1, 2)) is not Ordering.LESS and compare(r, n + F(1, 2)) is Ordering.LESS


def radical_dist_holds(r, d):
    """The distance d (a rational, or an interval as `outcome` writes it)
    holds ||v||_Z for each end v of r's enclosure at 160 bits, which holds
    r."""
    lo, hi = d[1:] if isinstance(d, tuple) else (d, d)
    return all(lo <= dist_to_int(v) <= hi for v in enclose(r, 160))


def interval_op_holds(op, x, y, out):
    """out contains a op v (or v op a) for each end a of the interval operand
    and the other operand v: its value where exact, each end of its open
    enclosure for a CF real, and for a Radical r the bounds on r that a op r
    in out means, all decided by compare."""
    iv, v, iv_left = (x, y, True) if isinstance(x, RatInterval) else (y, x, False)
    if isinstance(v, CFReal):
        return all(interval_op_holds(op, x if iv_left else e, e if iv_left else y, out) for e in v.enclosure())
    for a in (iv.lo, iv.hi):
        if not isinstance(v, Radical):
            w = INTERVAL_OPS[op](a, v) if iv_left else INTERVAL_OPS[op](v, a)
            if compare(out.lo, w) is Ordering.GREATER or compare(w, out.hi) is Ordering.GREATER:
                return False
            continue
        # a op r lies in [lo, hi] iff r lies in [r_lo, r_hi]
        lo, hi = out.lo, out.hi
        if op == "+":
            r_lo, r_hi = lo - a, hi - a
        elif op == "-":
            r_lo, r_hi = (a - hi, a - lo) if iv_left else (lo + a, hi + a)
        elif a == 0:
            if not lo <= 0 <= hi:
                return False
            continue
        else:
            r_lo, r_hi = sorted((lo / a, hi / a))
        if compare(r_lo, v) is Ordering.GREATER or compare(v, r_hi) is Ordering.GREATER:
            return False
    return True


small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
quadratics = st.builds(quadratic, small, small.filter(bool), st.sampled_from([2, 3]))
radicals = st.builds(
    Radical,
    st.one_of(
        st.fractions(min_value=0, max_value=9, max_denominator=6),
        st.builds(quadratic, st.fractions(min_value=2, max_value=5), st.fractions(min_value=F(1, 4), max_value=1), st.just(2)),
    ),
    st.integers(min_value=1, max_value=3),
)
every_kind = st.one_of(st.integers(min_value=-4, max_value=4), small, quadratics, radicals, cf_reals, intervals)


class TestOneView:
    @given(x=every_kind, y=every_kind, bits=st.sampled_from([0, 8, 64, 160]))
    @settings(max_examples=400, deadline=None)
    @example(x=Radical(F(2), 2), y=RatInterval(F(1), F(2)), bits=8)
    @example(x=CFReal((-1, 2)), y=quadratic(F(0), F(1), 2), bits=0)
    @example(x=RatInterval(F(-1), F(1, 2)), y=Radical(quadratic(F(3), F(1), 2), 3), bits=64)
    @example(x=RatInterval(F(0), F(1)), y=Radical(F(9, 4), 2), bits=8)
    def test_deciders_keep_every_outcome_of_the_kind_ladders(self, x, y, bits):
        singles = (
            (sign, old_kind_sign),
            (floor_exact, old_kind_floor),
            (nearest_int, old_kind_nearest),
            (dist_to_int, old_kind_dist),
            (lambda v: enclose(v, bits), lambda v: old_enclose(v, bits)),
        )
        for new, old in singles:
            want, got = outcome(old, x), outcome(new, x)
            if want == ("raises", TypeError) and got[0] == "value":
                # a Radical's floor and nearest integer, certified by its
                # radicand's integer powers, and its distance over its view
                holds = {floor_exact: radical_floor_holds, nearest_int: radical_nearest_holds, dist_to_int: radical_dist_holds}
                assert isinstance(x, Radical) and holds[new](x, got[1])
            elif want == ("raises", TypeError) and isinstance(x, Radical) and new in (nearest_int, dist_to_int):
                # a Radical's view that straddles a half-integer
                assert got == ("raises", PrecisionExhausted)
            else:
                assert got == want
        for a, b in ((x, y), (y, x)):
            assert outcome(compare, a, b) == outcome(old_kind_compare, a, b)
            if not isinstance(a, RatInterval) and not isinstance(b, RatInterval):
                continue
            for op, f in INTERVAL_OPS.items():
                want, got = outcome(old_interval_op, op, a, b), outcome(f, a, b)
                # the other operand, of any kind, is read through its view
                assert got[0] == "value"
                if want[0] == "value":
                    assert got == want
                else:
                    assert interval_op_holds(op, a, b, f(a, b))
