"""Window machinery, psi witnesses, measure estimation, ubiquity parameters
and coverage."""

from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from diophlab import limsup
from diophlab.errors import InvalidWindow, PrecisionExhausted
from diophlab.fastpath import threshold_bounds
from diophlab.lattice import ApproxMatrix, return_sequence, shell_size
from diophlab.limsup import (
    DIAMETER_BITS,
    ApproxFunction,
    PowerLog,
    TablePsi,
    Window,
    check_u_regular,
    coverage,
    delta_membership,
    diameter_sum,
    measure_Bad,
    measure_W,
    psi_witness,
    ubiquity_params,
)
from diophlab.numeric import (
    Ordering,
    Radical,
    RatInterval,
    _scaled_pow,
    dist_to_int,
    ex_pow,
    lt,
    quadratic,
)
from diophlab.sampling import sample_point
from diophlab.transference import corollary_bounds
from psi_reference import mpf_to_fraction, old_value_bounds

ROOT = Path(__file__).resolve().parents[1]


class TestApproxFunction:
    def test_powerlog_monotone_required(self):
        with pytest.raises(ValueError):
            PowerLog(F(1), F(-1), F(0))
        with pytest.raises(ValueError):
            PowerLog(F(-1), F(1), F(0))

    def test_value_bounds_rational_power(self):
        psi = PowerLog(F(1, 2), F(1), F(0))
        lo, hi = psi.value_bounds(10)
        assert lo == hi == F(1, 20)

    def test_value_bounds_fractional_power(self):
        psi = PowerLog(F(1), F(1, 2), F(0))  # q^(-1/2)
        lo, hi = psi.value_bounds(2)
        assert lo < hi
        assert float(lo) == pytest.approx(2 ** -0.5, rel=1e-9)

    def test_lt_value_exact_no_beta(self):
        psi = PowerLog(F(1), F(2), F(0))
        assert psi.lt_value(F(1, 101), 10)
        assert not psi.lt_value(F(1, 100), 10)  # equality, strict

    def test_lt_value_with_log(self):
        psi = PowerLog(F(1), F(1), F(1))  # 1/(q ln q)
        # psi(100) = 1/(100 ln 100) ~ 0.00217
        assert psi.lt_value(F(1, 500), 100)
        assert not psi.lt_value(F(1, 100), 100)

    @given(
        qs=st.lists(st.integers(min_value=-3, max_value=60), min_size=1, max_size=8),
        vs=st.lists(st.fractions(min_value=F(1, 100), max_value=5), min_size=8, max_size=8),
        q=st.integers(min_value=-5, max_value=70),
    )
    def test_table_monotone_validated(self, qs, vs, q):
        with pytest.raises(ValueError):
            TablePsi([(1, F(1, 4)), (10, F(1, 2))])
        t = TablePsi([(1, F(1, 2)), (10, F(1, 4))])
        assert t.value_at(5) == F(1, 2)
        assert t.value_at(10) == F(1, 4)
        # value_at's bisection against the linear loop it replaced, on a
        # random nonincreasing table starting at q <= 1
        t = TablePsi(list(zip(sorted({min(*qs, 1), *qs}), sorted(vs, reverse=True))))
        val = t.points[0][1]
        for qq, v in t.points:
            if qq <= q:
                val = v
            else:
                break
        assert t.value_at(q) == val

    @given(q=st.integers(min_value=1, max_value=10**6))
    def test_powerlog_bounds_bracket(self, q):
        psi = PowerLog(F(3, 2), F(2, 3), F(1, 2))
        lo, hi = psi.value_bounds(q)
        assert 0 < lo <= hi


def mp_psi(psi, q):
    """psi(q) = c q^-a max(ln q, 1)^-beta in mpmath's working precision."""
    c, a, beta = (mpmath.mpf(x.numerator) / x.denominator for x in (psi.c, psi.a, psi.beta))
    return c * mpmath.power(q, -a) * mpmath.power(max(mpmath.log(q), 1), -beta)


@st.composite
def increasing_qs(draw, top=10**7):
    """Increasing q <= top from a first q in {1, 2, 3, large}: consecutive
    runs, 17/16 block ends and sparse jumps (past 2q, where the running
    ln q is seeded again)."""
    qs = [draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(min_value=4, max_value=top)))]
    for kind in draw(st.lists(st.sampled_from(["run", "block", "jump"]), max_size=6)):
        q = qs[-1]
        if kind == "run":
            qs += range(q + 1, q + 1 + draw(st.integers(min_value=1, max_value=30)))
        elif kind == "block":
            qs.append(max(q + 1, q * 17 // 16))
        else:
            qs.append(q + draw(st.integers(min_value=1, max_value=10**6)))
    return [q for q in qs if q <= top]


POWERLOGS = st.builds(
    PowerLog,
    st.fractions(min_value=F(1, 1000), max_value=16, max_denominator=1000).filter(lambda c: c > 0),
    st.sampled_from([F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(3)]),
    st.sampled_from([F(-2), F(-1), F(-1, 2), F(-1, 4), F(0), F(1, 3), F(1, 2), F(3, 4), F(1), F(2), F(9)]),
)
SHIFTS = st.sampled_from([32, 60, 64, 96])


def assert_scaled_enclosures(psi, qs, shift, width=2):
    """Every scaled_bounds pair holds psi(q) 2^shift, from 300-bit mpmath
    (its rounding allowed for), and is at most width units wide."""
    pairs = list(psi.scaled_bounds(qs, shift))
    assert len(pairs) == len(qs)
    slack = F(1, 1 << 250)
    for q, (lo, hi) in zip(qs, pairs):
        with mpmath.workprec(300):
            v = mpf_to_fraction(mp_psi(psi, q)) * (1 << shift)
        assert lo <= v * (1 + slack) and v * (1 - slack) <= hi, (q, lo, hi)
        assert 0 <= hi - lo <= (width if width is not None else hi - lo), (q, hi - lo)


@settings(max_examples=150, deadline=None)
@given(psi=POWERLOGS, qs=increasing_qs(), shift=SHIFTS, guard=st.sampled_from([limsup._GUARD, 0]))
def test_powerlog_scaled_bounds_hold_psi(psi, qs, shift, guard):
    # with no guard bits the error of ln q reaches the output scale, so an
    # enclosure taken from the wrong end of it shows; only the default
    # guard promises 2 units of width
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limsup, "_GUARD", guard)
        assert_scaled_enclosures(psi, qs, shift, 2 if guard else None)


@settings(max_examples=100, deadline=None)
@given(qs=increasing_qs(), w=st.sampled_from([60, 104, 136]))
def test_running_ln_holds_ln_q(qs, w):
    for q, lo, hi in limsup._ln_scaled(qs, w):
        with mpmath.workprec(300):
            v = mpf_to_fraction(mpmath.log(q)) * (1 << w)
        assert lo <= v + F(1, 1 << 200) and v - F(1, 1 << 200) <= hi, q
        assert hi - lo < 1 << 21


def test_powerlog_scaled_bounds_on_a_long_run():
    # 70,000 consecutive q: the running ln q is seeded again once its width
    # passes its limit, so the pairs stay 2 units wide; a sample is checked
    # against mpmath, every pair against a 320-bit mpmath enclosure
    psi = PowerLog(F(1), F(1), F(1))
    qs = range(1, 70001)
    pairs = list(psi.scaled_bounds(qs, 96))
    assert max(hi - lo for lo, hi in pairs) <= 2
    assert_scaled_enclosures(psi, qs[::997], 96)
    for q in qs[::97]:
        vlo, vhi = old_value_bounds(psi, q, 320)
        lo, hi = pairs[q - 1]
        assert lo <= vhi * (1 << 96) and vlo * (1 << 96) <= hi


def test_powerlog_scaled_bounds_are_exact_without_logs():
    # beta = 0, or q <= 2 where max(ln q, 1) = 1: the floor and ceiling of
    # the exact value, as threshold_bounds gives them
    for psi in (PowerLog(F(1, 3), F(1), F(0)), PowerLog(F(2, 7), F(2), F(0)), PowerLog(F(1, 5), F(1), F(3))):
        assert list(psi.scaled_bounds([1, 2], 96)) == [threshold_bounds(psi.c / q**psi.a) for q in (1, 2)]
    assert list(PowerLog(F(1, 3), F(1), F(0)).scaled_bounds(range(1, 500), 96)) == [
        threshold_bounds(F(1, 3 * q)) for q in range(1, 500)
    ]
    with pytest.raises(ValueError):
        next(PowerLog(F(1), F(1), F(1)).scaled_bounds([0], 96))


@settings(max_examples=60, deadline=None)
@given(
    c=st.fractions(min_value=F(1, 10**6), max_value=1000, max_denominator=10**6).filter(lambda c: c > 0),
    a=st.integers(min_value=0, max_value=4),
    qs=increasing_qs(),
    shift=SHIFTS,
)
def test_powerlog_closed_form_matches_the_exact_values(c, a, qs, shift):
    # integer a and beta = 0: the closed form gives the floor and ceiling
    # that the default scaled_bounds takes of the exact value_bounds
    psi = PowerLog(c, F(a), F(0))
    assert list(psi.scaled_bounds(qs, shift)) == list(ApproxFunction.scaled_bounds(psi, qs, shift))


def test_powerlog_closed_form_encloses_no_later_q():
    # a consumer that stops after three pairs draws no fourth q, so the
    # q = 0 behind them is refused only once it is asked for
    drawn = []

    def qs():
        for q in (1, 5, 9, 0):
            drawn.append(q)
            yield q

    pairs = PowerLog(F(1, 2), F(1), F(0)).scaled_bounds(qs(), 96)
    assert [next(pairs) for _ in range(3)] == [threshold_bounds(F(1, 2 * q)) for q in (1, 5, 9)]
    assert drawn == [1, 5, 9]
    with pytest.raises(ValueError):
        next(pairs)


def rational_psi(psi, q):
    """psi(q) where it is rational by its form: integer a, and beta = 0 or
    q <= 2, so that max(ln q, 1) = 1; else None."""
    if psi.a.denominator == 1 and (psi.beta == 0 or q <= 2):
        return psi.c / q**psi.a
    return None


def mp_psi_fraction(psi, q):
    with mpmath.workprec(300):
        return mpf_to_fraction(mp_psi(psi, q))


@settings(max_examples=150, deadline=None)
@given(psi=POWERLOGS, q=st.one_of(st.sampled_from([1, 2, 3]), st.integers(min_value=1, max_value=10**7)),
       bits=st.sampled_from([50, 80, 160, 320]))
def test_powerlog_value_bounds_hold_psi(psi, q, bits):
    # psi(q) exactly where it is rational, else an enclosure of the 300-bit
    # mpmath value at most 2^(1 - bits) wide
    lo, hi = psi.value_bounds(q, bits)
    exact = rational_psi(psi, q)
    if exact is not None:
        assert lo == hi == exact
    else:
        v, slack = mp_psi_fraction(psi, q), F(1, 1 << 250)
        assert lo <= v * (1 + slack) and v * (1 - slack) <= hi
        assert 0 <= hi - lo <= F(2, 1 << bits)


@pytest.mark.parametrize("psi", [PowerLog(F(1), F(1), F(0)), PowerLog(F(1), F(1, 2), F(0)), PowerLog(F(1), F(1), F(1))])
def test_value_bounds_refuse_q_zero(psi):
    with pytest.raises(ValueError):
        psi.value_bounds(0)


@settings(max_examples=150, deadline=None)
@given(psi=POWERLOGS, q=st.one_of(st.sampled_from([1, 2, 3]), st.integers(min_value=1, max_value=10**7)),
       k=st.integers(min_value=1, max_value=150), sign=st.sampled_from([-1, 0, 1]))
def test_powerlog_compare_value_near_psi(psi, q, k, sign):
    # d = psi(q) (1 + sign 2^-k): its ordering against psi(q) is sign's,
    # far above the 300-bit reference's rounding; d = psi(q) itself only
    # where psi(q) is rational
    exact = rational_psi(psi, q)
    if exact is None and sign == 0:
        sign = 1
    v = exact if exact is not None else mp_psi_fraction(psi, q)
    d = v * (1 + sign * F(1, 1 << k))
    want = {-1: Ordering.LESS, 0: Ordering.EQUAL, 1: Ordering.GREATER}[sign]
    assert psi.compare_value(d, q) is want
    assert psi.lt_value(d, q) is (sign < 0)


TABLE = TablePsi([(1, F(1, 2)), (10, F(1, 3)), (1000, F(1, 7)), (10**6, F(1, 10**7))])


@settings(max_examples=50, deadline=None)
@given(qs=increasing_qs(), shift=SHIFTS)
def test_table_scaled_bounds_scale_its_value_bounds(qs, shift):
    want = [threshold_bounds(RatInterval(*TABLE.value_bounds(q)), shift) for q in qs]
    assert list(TABLE.scaled_bounds(qs, shift)) == want


class TestWindowWitness:
    def test_window_validation(self):
        with pytest.raises(InvalidWindow):
            Window(5, 5)

    def test_witness_golden(self, A_golden, golden):
        psi = PowerLog(F(1, 2), F(1), F(0))
        q = psi_witness(A_golden, (F(1, 3),), psi, Window(1, 64))
        assert q is not None
        s = q.norm
        assert lt(dist_to_int(golden * q.coords[0] - F(1, 3)), F(1, 2 * s))

    def test_witness_none_when_psi_tiny(self, A_golden):
        psi = PowerLog(F(1, 10**9), F(2), F(0))
        assert psi_witness(A_golden, (F(1, 3),), psi, Window(1, 32)) is None

    def test_delta_membership_halftorus(self, A_golden):
        # radius >= 1/2 covers everything
        assert delta_membership(A_golden, (F(1, 3),), F(1, 2), Window(1, 4))


class TestMeasure:
    def test_measure_w_matches_bruteforce(self, A_golden, golden):
        psi = PowerLog(F(1, 3), F(1), F(0))
        w = Window(1, 128)
        est = measure_W(A_golden, psi, w, 100, seed=11)
        hits = 0
        for i in range(100):
            b = sample_point(11, i, 1)[0]
            if any(
                lt(dist_to_int(golden * q - b), F(1, 3 * abs(q)))
                for s in w.shells
                for q in (-s, s)
            ):
                hits += 1
        assert est.fraction == F(hits, 100)

    def test_bad_complements_w(self, A_golden):
        w = Window(1, 256)
        delta = F(1, 100)
        bad = measure_Bad(A_golden, delta, w, 300, seed=3)
        psi = PowerLog(delta, F(1), F(0))
        good = measure_W(A_golden, psi, w, 300, seed=3)
        assert bad.fraction + good.fraction == 1

    def test_thread_invariance(self, A_golden):
        psi = PowerLog(F(1, 2), F(1), F(0))
        w = Window(1, 512)
        runs = [measure_W(A_golden, psi, w, 200, seed=9, threads=t) for t in (1, 4, 8)]
        assert runs[0].fraction == runs[1].fraction == runs[2].fraction
        assert runs[0].ci_low == runs[1].ci_low == runs[2].ci_low

    def test_grid_mode(self, A_golden):
        psi = PowerLog(F(1, 2), F(1), F(0))
        est = measure_W(A_golden, psi, Window(1, 64), 50, seed=0, mode="grid")
        assert est.samples == 50

    def test_grid_is_refused_before_it_is_built(self, monkeypatch):
        # 1000^2 + 1 samples are no square: the grid is not built, so a
        # count of 10^10 + 1 could not exhaust memory either
        def grid_points(samples, dim):
            assert round(samples ** (1 / dim)) ** dim == samples, "grid built for a non-power"
            return []

        monkeypatch.setattr(limsup, "grid_points", grid_points)
        for samples in (1000**2 + 1, 10**10 + 1):
            with pytest.raises(ValueError, match=rf"grid mode needs samples = k\^2 for an integer k, got {samples}"):
                limsup._points(2, samples, 0, "grid")

    def test_ci_brackets_fraction(self, A_golden):
        psi = PowerLog(F(1), F(2), F(0))
        est = measure_W(A_golden, psi, Window(4, 64), 200, seed=1)
        assert est.ci_low <= est.fraction <= est.ci_high


class TestUbiquity:
    @pytest.fixture
    def params(self, A_golden):
        ret = return_sequence(A_golden, F(2, 5), 10)
        return ubiquity_params(ret, F(3))

    def test_scales(self, params):
        # u_i = (eps^-1 + 1)/2 * 2^l = 7/4 * 2^l for eps = 2/5
        assert params.levels[0].u == F(7, 2)
        assert params.levels[4].u == F(7, 4) * 32
        assert all(lv.l == params.c1 * lv.u for lv in params.levels)

    def test_c1_constraint(self, params):
        # (2 c2)^m C c1^n < 1/2, and c1 is the largest power of 1/2
        c2m = params.c2_pow_m
        assert lt(c2m * 2 * 3 * params.c1, F(1, 2))
        assert not lt(c2m * 2 * 3 * (2 * params.c1), F(1, 2))

    def test_rho_identity(self, params):
        # rho_i = (eps^-m + 1)/2 * eps * 2^(-(n/m) l_i) for m = n = 1
        for lv in params.levels:
            assert lv.rho_pow_m == F(7, 4) * F(2, 5) * F(1, 1 << lv.ell)

    def test_u_regular(self, params):
        # lam as a value or as a Radical of any root: sqrt(1/4) = cbrt(1/8) = 1/2
        for lam in (F(1, 2), Radical(F(1, 4), 2), Radical(F(1, 8), 3)):
            assert check_u_regular(params, lam)
        # and it is sharp: rho ratio is exactly 1/2, so any smaller lambda fails
        for lam in (F(49, 100), Radical(F(49, 200), 2), Radical(F(1, 9), 3)):
            assert not check_u_regular(params, lam)

    @pytest.mark.parametrize(
        "name, eps",
        [
            ("golden", F(2, 5)),
            ("q21", F(2, 5)),
            ("golden", quadratic(F(1, 2), F(-1, 5), 5)),
            ("sqrt2", quadratic(F(1, 2), F(-1, 5), 2)),
        ],
    )
    def test_levels_are_corollary_3_3_bounds(self, name, eps):
        # u_i = X1 and rho_i^m = C1^m of Corollary 3.3 at level l_i, so
        # c2^m = C1^m X1^n at every level
        A = ApproxMatrix.from_text((ROOT / "perfbench" / "inputs" / f"{name}.mat").read_text())
        params = ubiquity_params(return_sequence(A, eps, 10 if A.n * A.m == 1 else 6), F(4))
        assert len(params.levels) > 1
        for lv in params.levels:
            C1_pow_m, X1 = corollary_bounds(eps, lv.ell, A.m, A.n)
            assert (lv.rho_pow_m, lv.u) == (C1_pow_m, X1)
            assert params.c2_pow_m == C1_pow_m * ex_pow(X1, A.n)

    def test_coverage_high_at_top_level(self, A_golden, params):
        ce = coverage(A_golden, params, ((F(1, 2),), F(1, 8)), len(params.levels) - 1, 400, seed=2)
        assert ce.estimate.fraction > F(1, 2)

    def test_coverage_shortcircuit_large_rho(self, A_golden):
        ret = return_sequence(A_golden, F(2, 5), 2)
        params = ubiquity_params(ret, F(3))
        # level 1: rho = 7/20 but annulus tiny; force the rho >= 1/2 path
        params.levels[0].rho_pow_m = F(3, 4)
        ce = coverage(A_golden, params, ((F(1, 2),), F(1, 8)), 0, 50, seed=1)
        assert ce.estimate.fraction == 1


def old_diameter_sum(psi, w, n, s):
    """limsup.diameter_sum before the bracketed psi-sum kernel."""
    lo_total = hi_total = 0
    for k, (lo, hi) in zip(w.shells, psi.scaled_bounds(w.shells, DIAMETER_BITS)):
        cnt = shell_size(n, k)
        dlo, dhi = _scaled_pow(2 * lo, 2 * hi, s, DIAMETER_BITS)
        lo_total += cnt * dlo
        hi_total += cnt * dhi
    return F(lo_total, 1 << DIAMETER_BITS), F(hi_total, 1 << DIAMETER_BITS)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("w", [Window(0, 1), Window(1, 300), Window(7, 2000)])
@pytest.mark.parametrize(
    "psi,s",
    [
        (PowerLog(F(1), F(1), F(1)), F(1, 2)),
        (PowerLog(F(1, 2), F(1), F(0)), F(1)),
        (PowerLog(F(3, 7), F(2, 3), F(-1, 4)), F(3, 2)),
        (TablePsi([(1, F(1, 2)), (10, F(1, 3)), (1000, F(1, 7))]), F(2)),
    ],
)
def test_diameter_sum_equals_the_old_scaled_sum(psi, s, w, n):
    assert diameter_sum(psi, w, n, s) == old_diameter_sum(psi, w, n, s)


def test_diameter_sum_harmonic():
    # sum of 2 * psi(q) over q in (1, 1000], psi = 1/(2q): harmonic tail
    psi = PowerLog(F(1, 2), F(1), F(0))
    lo, hi = diameter_sum(psi, Window(1, 1000), 1, F(1))
    import math

    target = 2 * (sum(1 / (2 * q) for q in range(2, 1001)))
    assert float(lo) <= target * 2 + 1e-9  # counts each shell's 2 points
    assert float(lo) <= float(hi)


def test_diameter_sum_holds_the_sum():
    # sum over shells 1 < k <= 300 of (8k) (2 psi(k))^(1/2) in Z^2, psi(k) =
    # 1/(k ln k), against the same sum from 300-bit mpmath
    psi = PowerLog(F(1), F(1), F(1))
    w = Window(1, 300)
    lo, hi = diameter_sum(psi, w, 2, F(1, 2))
    with mpmath.workprec(300):
        total = mpf_to_fraction(mpmath.fsum(8 * k * mpmath.sqrt(2 * mp_psi(psi, k)) for k in w.shells))
    assert lo <= total <= hi and hi - lo < F(1, 10**9)
