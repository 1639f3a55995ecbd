"""Series classifiers, counterpart sequences, key inequality, exponents."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from diophlab import analysis, lattice
from diophlab.errors import CoverageGap, InsufficientData, PrecisionExhausted
from diophlab.lattice import (
    ApproxMatrix,
    BestApproxEntry,
    BestApproxSequence,
    IntVec,
    best_approximations,
    return_sequence,
)
from diophlab.limsup import PowerLog, TablePsi, Window
from diophlab.analysis import (
    EXACT_UPTO,
    SERIES_SHIFT,
    _blocks,
    _partial_sum_bounds,
    b_alpha_test,
    classify_return_series,
    classify_series,
    estimate_exponents,
    gamma_sequence,
    key_inequality_check,
    verify_prop_5_1,
)
from diophlab.numeric import (
    Ordering,
    Radical,
    RatInterval,
    _nth_root_lower,
    _nth_root_upper,
    _scaled_pow,
    compare,
    dec_str,
    dist_to_int,
    ex_pow,
    le,
    lt,
    quadratic,
)
from diophlab.sampling import sample_point
from psi_reference import old_value_bounds


# the closed-form criterion: Converges iff a s > n, or a s = n and beta s > 1
SERIES_TABLE = [
    # (n, s, a, beta, verdict)
    (1, F(1), F(1), F(0), "Diverges"),      # harmonic
    (1, F(1), F(1), F(1), "Diverges"),      # 1/(q ln q)
    (1, F(1), F(1), F(2), "Converges"),     # Bertrand
    (1, F(1), F(2), F(0), "Converges"),
    (1, F(1), F(1, 2), F(5), "Diverges"),   # a s < n, logs cannot save it
    (1, F(2), F(1, 2), F(0), "Diverges"),   # a s = 1 = n, beta s = 0
    (1, F(2), F(1, 2), F(1), "Converges"),  # a s = n, beta s = 2 > 1
    (2, F(1), F(3), F(0), "Converges"),
    (2, F(1), F(2), F(0), "Diverges"),      # a s = n, no logs
    (2, F(1), F(2), F(1, 2), "Diverges"),   # beta s = 1/2 <= 1
    (2, F(2), F(1), F(1), "Diverges"),      # a s = 2 = n, beta s = 2 > 1? yes -> Converges... see below
    (1, F(1, 2), F(2), F(0), "Diverges"),   # a s = 1 = n, beta s = 0
]
# fix row 10: a=1, s=2 -> a s = 2 = n, beta=1 -> beta s = 2 > 1: Converges
SERIES_TABLE[10] = (2, F(2), F(1), F(1), "Converges")


class TestClassifySeries:
    @pytest.mark.parametrize("n,s,a,beta,verdict", SERIES_TABLE)
    def test_truth_table(self, n, s, a, beta, verdict):
        v = classify_series(PowerLog(F(1), a, beta), s, n, horizons=(100,))
        assert v.status == verdict

    def test_partial_sums_monotone(self):
        v = classify_series(PowerLog(F(1), F(1), F(0)), F(1), 1, horizons=(10, 100, 1000))
        los = [lo for _, (lo, hi) in v.partial_sums]
        assert los == sorted(los)

    def test_partial_sum_brackets_truth(self):
        # the harmonic sum to 1000, 7.4854708605503449..., exactly
        v = classify_series(PowerLog(F(1), F(1), F(0)), F(1), 1, horizons=(1000,))
        (q, (lo, hi)) = v.partial_sums[0]
        assert lo <= sum(F(1, q) for q in range(1, 1001)) <= hi

    def test_table_is_unknown(self):
        t = TablePsi([(1, F(1, 2)), (100, F(1, 4))])
        v = classify_series(t, F(1), 1, horizons=(50,))
        assert v.status == "Unknown" and v.partial_sums


def old_term_pow_bounds(psi, q, s, bits=50):
    """analysis._term_pow_bounds as it was, on the former value_bounds."""
    vlo, vhi = old_value_bounds(psi, q, bits)
    p, r = s.numerator, s.denominator
    return _nth_root_lower(vlo**p, r, bits), _nth_root_upper(vhi**p, r, bits)


def old_partial_sum_bounds(psi, n, s, Q, exact_upto=1024):
    """analysis._partial_sum_bounds as it was: one horizon per call, each
    term enclosed by the former value_bounds."""
    lo = hi = F(0)
    head = min(Q, exact_upto)
    for q in range(1, head + 1):
        tlo, thi = old_term_pow_bounds(psi, q, s)
        lo += q ** (n - 1) * tlo
        hi += q ** (n - 1) * thi
    start = head + 1
    while start <= Q:
        end = min(max(start, start * 17 // 16 - 1), Q)
        count = end - start + 1
        blo, _ = old_term_pow_bounds(psi, end, s)
        _, bhi = old_term_pow_bounds(psi, start, s)
        lo += count * start ** (n - 1) * blo
        hi += count * end ** (n - 1) * bhi
        start = end + 1
    return lo, hi


def old_scaled_partial_sum_bounds(psi, n, s, horizons):
    """analysis._partial_sum_bounds before the bracketed psi-sum kernel:
    one scaled_bounds pass, each term raised by _scaled_pow, integer sums."""
    shift = SERIES_SHIFT
    plans = [(min(Q, EXACT_UPTO), _blocks(Q, min(Q, EXACT_UPTO))) for Q in horizons]
    qs = sorted({
        *range(1, max((head for head, _ in plans), default=0) + 1),
        *(q for _, blocks in plans for block in blocks for q in block),
    })
    terms = {q: _scaled_pow(lo, hi, s, shift) for q, (lo, hi) in zip(qs, psi.scaled_bounds(qs, shift))}
    out = []
    for head, blocks in plans:
        lo = sum(q ** (n - 1) * terms[q][0] for q in range(1, head + 1))
        hi = sum(q ** (n - 1) * terms[q][1] for q in range(1, head + 1))
        for start, end in blocks:
            count = end - start + 1
            lo += count * start ** (n - 1) * terms[end][0]
            hi += count * end ** (n - 1) * terms[start][1]
        out.append((F(lo, 1 << shift), F(hi, 1 << shift)))
    return out


def old_scaled_return_partial_sums(psi, s, n, levels):
    """classify_return_series' loop before the bracketed psi-sum kernel."""
    shift = SERIES_SHIFT
    lo = hi = 0
    partials = []
    for ell, (tlo, thi) in zip(levels, psi.scaled_bounds([1 << ell for ell in levels], shift)):
        tlo, thi = _scaled_pow(tlo, thi, s, shift)
        lo += tlo << (ell * n)
        hi += thi << (ell * n)
        partials.append((1 << ell, (F(lo, 1 << shift), F(hi, 1 << shift))))
    return partials


@pytest.mark.parametrize(
    "psi",
    [
        PowerLog(F(1), F(1), F(1)),
        PowerLog(F(3, 7), F(2, 3), F(-1, 4)),
        TablePsi([(1, F(1, 2)), (100, F(1, 4)), (3000, F(1, 9)), (10**5, F(1, 1000))]),
    ],
)
def test_uneven_horizons_take_the_old_scaled_sums(psi):
    # horizons out of order, one inside the head: each adds the head cells
    # up to its own Q and its own blocks
    horizons = (700, 5 * 10**5, 1300, 10**5)
    for n, s in ((1, F(1)), (2, F(3, 2))):
        assert _partial_sum_bounds(psi, n, s, horizons) == old_scaled_partial_sum_bounds(psi, n, s, horizons)


# the twelve cases of acceptance criterion 12, (n, s, a, beta)
CRITERION_12 = [
    (1, F(1), F(1, 2), F(0)), (1, F(1), F(1, 2), F(9)), (2, F(1), F(1), F(0)),
    (1, F(1), F(1), F(0)), (1, F(1), F(1), F(1)), (2, F(2), F(1), F(1, 2)),
    (1, F(1), F(1), F(2)), (1, F(2), F(1, 2), F(1)), (2, F(2), F(1), F(3, 4)),
    (1, F(1), F(2), F(0)), (2, F(1), F(3), F(0)), (1, F(2), F(1), F(-1, 4)),
]


@pytest.mark.parametrize("n,s,a,beta", CRITERION_12)
def test_partial_sums_lie_inside_the_old_enclosures(n, s, a, beta):
    psi = PowerLog(F(1), a, beta)
    horizons = (10**2, 10**4, 10**6)
    partials = classify_series(psi, s, n, horizons).partial_sums
    assert [Q for Q, _ in partials] == list(horizons)
    # the same Fractions as the scaled sums before the psi-sum kernel
    assert [bounds for _, bounds in partials] == old_scaled_partial_sum_bounds(psi, n, s, horizons)
    for Q, (lo, hi) in partials:
        old_lo, old_hi = old_partial_sum_bounds(psi, n, s, Q)
        assert old_lo <= lo <= hi <= old_hi


def old_return_partial_sums(psi, s, n, levels):
    """classify_return_series' partial sums as they were: each term 2^(l n)
    psi(2^l)^s from old_term_pow_bounds."""
    lo = hi = F(0)
    out = []
    for ell in levels:
        tlo, thi = old_term_pow_bounds(psi, 1 << ell, s)
        lo += (1 << (ell * n)) * tlo
        hi += (1 << (ell * n)) * thi
        out.append((1 << ell, (lo, hi)))
    return out


@pytest.mark.parametrize("n,s,a,beta", CRITERION_12)
@pytest.mark.parametrize("levels", [list(range(1, 17)), [2, 3, 5, 8, 13, 21, 34], [1, 40, 41, 70]])
def test_return_partial_sums_lie_inside_the_old_enclosures(n, s, a, beta, levels):
    from diophlab.lattice import ReturnSequence

    ret = ReturnSequence(F(2, 5), max(levels), levels, 1, n)
    for psi in (PowerLog(F(1), a, beta), PowerLog(F(3, 7), a, beta)):
        got = classify_return_series(psi, s, n, ret).partial_sums
        want = old_return_partial_sums(psi, s, n, levels)
        assert [Q for Q, _ in got] == [Q for Q, _ in want] == [1 << ell for ell in levels]
        assert got == old_scaled_return_partial_sums(psi, s, n, levels)
        for (_, (lo, hi)), (_, (old_lo, old_hi)) in zip(got, want):
            assert old_lo <= lo <= hi <= old_hi


def test_partial_sums_enclose_each_term_once(monkeypatch):
    # one increasing pass over the union of the horizons: the 1,024 head
    # terms and each block end are enclosed once, not once per horizon
    drawn = []
    scaled_bounds = PowerLog.scaled_bounds

    def spy(self, qs, shift):
        return scaled_bounds(self, (drawn.append(q) or q for q in qs), shift)

    monkeypatch.setattr(PowerLog, "scaled_bounds", spy)
    monkeypatch.setattr(PowerLog, "value_bounds", lambda *a: pytest.fail("value_bounds called"))
    classify_series(PowerLog(F(1), F(1), F(1)), F(1), 1, horizons=(10**2, 10**4, 10**6))
    assert drawn == sorted(set(drawn))
    assert drawn[:1024] == list(range(1, 1025))
    # 1 + log(10^6 / 1025) / log(17/16) blocks give at most 2 q each
    assert len(drawn) - 1024 <= 2 * 115 + 2


class TestReturnSeries:
    def test_full_levels_inherits_verdict(self, A_golden):
        ret = return_sequence(A_golden, F(2, 5), 8)
        v = classify_return_series(PowerLog(F(1), F(1), F(0)), F(1), 1, ret)
        assert v.status == "Diverges"
        v2 = classify_return_series(PowerLog(F(1), F(2), F(0)), F(1), 1, ret)
        assert v2.status == "Converges"

    def test_full_levels_take_one_term_per_level(self, monkeypatch, A_golden):
        # the closed-form verdict needs no partial sum of the plain series:
        # one increasing pass of scaled_bounds draws psi(2^l) for each level
        ret = return_sequence(A_golden, F(2, 5), 8)
        passes = []
        scaled_bounds = PowerLog.scaled_bounds

        def spy(self, qs, shift):
            passes.append([])
            return scaled_bounds(self, (passes[-1].append(q) or q for q in qs), shift)

        monkeypatch.setattr(PowerLog, "scaled_bounds", spy)
        monkeypatch.setattr(PowerLog, "value_bounds", lambda *a: pytest.fail("value_bounds called"))
        v = classify_return_series(PowerLog(F(1), F(1), F(1)), F(1), 1, ret)
        assert v.status == "Diverges" and v.rationale.startswith("full levels: ")
        assert passes == [[2**l for l in ret.levels]]
        assert len(ret.levels) == 8

    def test_sparse_levels_unknown(self, A_golden):
        from diophlab.lattice import ReturnSequence

        sparse = ReturnSequence(F(2, 5), 8, [2, 4, 8], 1, 1)
        v = classify_return_series(PowerLog(F(1), F(1), F(0)), F(1), 1, sparse)
        assert v.status == "Unknown"

    def test_critical_psi_linear_growth(self, A_golden):
        # psi = q^-1, s = n = 1: each level contributes exactly 1
        from diophlab.lattice import ReturnSequence

        sparse = ReturnSequence(F(2, 5), 16, [2, 4, 8, 16], 1, 1)
        v = classify_return_series(PowerLog(F(1), F(1), F(0)), F(1), 1, sparse)
        lo, hi = v.partial_sums[-1][1]
        assert lo == hi == 4


class TestGammaSequence:
    def test_golden_oracle(self, A_golden):
        best = best_approximations(A_golden, 144)
        rep = gamma_sequence(best, 1, 1)
        # frozen from a 50-digit independent evaluation
        assert rep.entries[0].gamma_dec == "0.874032048898"
        assert rep.entries[1].gamma_dec == "0.854101966250"
        assert rep.all_checks
        assert rep.V_increasing
        # every obligation is decided by its comparison, and the report
        # carries no structural key
        assert all(e.structural == [] for e in rep.entries)
        assert all("structural" not in e for e in rep.to_json()["entries"])

    def test_gamma_bounded_below_badly_approximable(self, A_golden):
        from diophlab.numeric import lt

        best = best_approximations(A_golden, 10**4)
        rep = gamma_sequence(best, 1, 1)
        for e in rep.entries:
            # gamma_k^(m+n) >= (1/4)^2
            assert not lt(e.gamma_pow, F(1, 16))

    def test_cfreal_gammas_near_one(self, A_cf):
        # in one dimension Y_k M_(k-1) in (1/2, 1), so gamma cannot decay
        best = best_approximations(A_cf, 2**40)
        rep = gamma_sequence(best, 1, 1)
        assert rep.all_checks
        for e in rep.entries:
            assert float(e.gamma_dec) > 0.7

    def test_structural_fallbacks(self):
        # every M_k = [1/10, 1/2]: neither obligation is decided by the
        # enclosures, so U_lt_V falls back to Y_(k+1) > Y_k and
        # U_next_le_V to True (None for the last interior k)
        M = RatInterval(F(1, 10), F(1, 2))
        best = BestApproxSequence([BestApproxEntry(IntVec((Y,)), Y, M) for Y in range(1, 6)], 5)
        rep = gamma_sequence(best, 1, 1)
        for e, nxt in zip(rep.entries, [*rep.entries[1:], None]):
            assert not compare(M * F(e.Y), e.gamma_pow).decided
            if nxt is not None:
                assert not compare(ex_pow(M * F(e.Y + 1), 2), e.gamma_pow * nxt.gamma_pow).decided
        assert [e.U_lt_V for e in rep.entries] == [True, True, True]
        assert [e.U_next_le_V for e in rep.entries] == [True, True, None]
        assert [e.structural for e in rep.entries] == [
            ["U_lt_V", "U_next_le_V"],
            ["U_lt_V", "U_next_le_V"],
            ["U_lt_V"],
        ]
        assert [e["structural"] for e in rep.to_json()["entries"]] == [e.structural for e in rep.entries]

    def test_cf_structural_entries(self, A_cf):
        # records 1, 4, 65, 16644, 1090781249, 4684869791545049348: the
        # enclosures decide every U_k < V_k but none of the three
        # U_(k+1) <= V_k, which the max construction settles
        best = best_approximations(A_cf, 2**63)
        rep = gamma_sequence(best, 1, 1)
        assert [e.structural for e in rep.entries] == [["U_next_le_V"]] * 3 + [[]]
        assert rep.all_checks
        entries = rep.to_json()["entries"]
        assert [e.get("structural") for e in entries] == [["U_next_le_V"]] * 3 + [None]

    def test_insufficient_data(self, A_golden):
        best = best_approximations(A_golden, 2)
        with pytest.raises(InsufficientData):
            gamma_sequence(best, 1, 1)

    def test_partial_sums_grow_linearly(self, A_golden):
        best = best_approximations(A_golden, 10**4)
        rep = gamma_sequence(best, 1, 1)
        lo_last = rep.gamma_partial_sums[-1][1][0]
        k_count = len(rep.entries)
        assert float(lo_last) > 0.7 * k_count  # no Cauchy flattening


def old_gamma_sequence(best, m, n):
    """gamma_sequence as a loop with running sums, a previous-V flag and
    one try/except per obligation: the reference for the folded table."""
    ents = best.entries
    if len(ents) < 3:
        raise InsufficientData("need at least 3 best approximations")
    mn = m + n
    table = analysis._counterparts(best, m, n)
    rows = []
    gsum_lo = gsum_hi = F(0)
    gsums = []
    v_prev = None
    v_increasing = True
    for (k, g, u_rad, v_rad, *_), nxt in zip(table, [*table[1:], None]):
        Yk, Mk = ents[k].Y, ents[k].M
        structural = []
        try:
            u_lt_v = lt(F(Yk**m) * ex_pow(Mk, n), g)
        except PrecisionExhausted:
            u_lt_v = ents[k + 1].Y > Yk
            structural.append("U_lt_V")
        if nxt is not None:
            lhs = ex_pow(F(ents[k + 1].Y ** m) * ex_pow(Mk, n), mn)
            rhs = ex_pow(g, n) * ex_pow(nxt.g, m)
            try:
                u_next_le_v = le(lhs, rhs)
            except PrecisionExhausted:
                u_next_le_v = True
                structural.append("U_next_le_V")
        else:
            u_next_le_v = None
        glo, ghi = Radical(g, mn).enclose(64)
        gsum_lo += glo
        gsum_hi += ghi
        gsums.append((k, (gsum_lo, gsum_hi)))
        if v_prev is not None and v_rad.compare(v_prev) is not Ordering.GREATER:
            v_increasing = False
        v_prev = v_rad
        rows.append(
            analysis.CounterpartEntry(
                k, Yk, dec_str(Mk), g, dec_str(Radical(g, mn)), dec_str(u_rad), dec_str(v_rad),
                u_lt_v, u_next_le_v, structural,
            )
        )
    return analysis.CounterpartReport(m, n, rows, gsums, v_increasing)


# M_k of any kind, mixed within one sequence: rationals and quadratics in
# sqrt(2), exact, and intervals, whose widths leave obligations undecided;
# Y_k need not increase, so the structural U_lt_V may be False and the V
# trend break
COUNTERPART_RATIONAL = st.fractions(min_value=F(1, 40), max_value=F(1, 2), max_denominator=40)
COUNTERPART_M = st.one_of(
    COUNTERPART_RATIONAL,
    st.fractions(min_value=F(1, 10), max_value=F(1), max_denominator=20).map(lambda c: quadratic(-c, c, 2)),
    st.tuples(COUNTERPART_RATIONAL, st.fractions(min_value=F(0), max_value=F(1, 2), max_denominator=40)).map(
        lambda lw: RatInterval(lw[0], lw[0] + lw[1])
    ),
)
# a rational M beside an interval M: Y_1^m M_0^n lies inside Y_2^m M_1^n,
# so gamma_1^(m+n), their undecided max, is the hull of the two views
MIXED_ROWS = [(1, F(1, 40)), (2, RatInterval(F(1, 40), F(21, 40))), (1, F(1, 40))]


@settings(max_examples=150, deadline=None)
@given(
    mn=st.sampled_from([(1, 1), (1, 2), (2, 1)]),
    rows=st.lists(st.tuples(st.integers(min_value=1, max_value=30), COUNTERPART_M), min_size=3, max_size=7),
)
@example(mn=(1, 1), rows=MIXED_ROWS)
@example(mn=(1, 2), rows=MIXED_ROWS)
@example(mn=(2, 1), rows=MIXED_ROWS)
def test_gamma_sequence_matches_old_loop(mn, rows):
    m, n = mn

    def fresh():
        return BestApproxSequence([BestApproxEntry(IntVec((Y,) + (0,) * (m - 1)), Y, M) for Y, M in rows], 30)

    def fields(e):
        # a RatInterval compares by identity, so its ends are compared
        g = (e.gamma_pow.lo, e.gamma_pow.hi) if isinstance(e.gamma_pow, RatInterval) else e.gamma_pow
        return g, e.U_lt_V, e.U_next_le_V, e.structural

    got, want = gamma_sequence(fresh(), m, n), old_gamma_sequence(fresh(), m, n)
    assert got.to_json() == want.to_json()
    assert got.gamma_partial_sums == want.gamma_partial_sums
    assert [fields(e) for e in got.entries] == [fields(e) for e in want.entries]


@pytest.mark.parametrize(
    "mn, hull",
    [((1, 1), (F(1, 20), F(21, 40))), ((1, 2), (F(1, 800), F(441, 1600))), ((2, 1), (F(1, 10), F(21, 40)))],
)
def test_gamma_sequence_of_mixed_kinds_names_its_structural_obligation(mn, hull):
    m, n = mn
    best = BestApproxSequence([BestApproxEntry(IntVec((Y,) + (0,) * (m - 1)), Y, M) for Y, M in MIXED_ROWS], 30)
    (entry,) = gamma_sequence(best, m, n).entries
    assert (entry.gamma_pow.lo, entry.gamma_pow.hi) == hull
    assert entry.structural == ["U_lt_V"] and entry.U_lt_V is False


class TestBAlpha:
    def test_zero_b_fails(self, A_golden):
        best = best_approximations(A_golden, 100)
        assert not b_alpha_test((F(0),), best, F(11, 10), [1, 2, 3])

    def test_no_b_passes_in_1d_for_alpha_gt_1(self, A_golden):
        # alpha gamma_k > 1/2 >= ||b y||_Z always, so the test is vacuous
        best = best_approximations(A_golden, 100)
        hits = sum(
            b_alpha_test(sample_point(3, i, 1), best, F(11, 10), [1, 2])
            for i in range(100)
        )
        assert hits == 0

    def test_small_alpha_can_pass(self, A_golden):
        best = best_approximations(A_golden, 100)
        # alpha gamma ~ 0.0874 < some ||b y_k||_Z
        hits = sum(
            b_alpha_test(sample_point(3, i, 1), best, F(1, 10), [1, 2, 3])
            for i in range(100)
        )
        assert hits > 50  # most mass is far from the resonances

    @pytest.mark.parametrize("alpha", [F(1, 10), F(1, 2), F(11, 10)])
    def test_quadratic_b_matches_the_exact_evaluation(self, A_golden, alpha):
        # ||b y_k||_Z > alpha gamma_k  <=>  ||b y_k||_Z^2 > alpha^2 gamma_k^2,
        # compared exactly in Q(sqrt 5); rational b keep their verdicts
        best = best_approximations(A_golden, 144)
        gammas = gamma_sequence(best, 1, 1).entries
        bs = [quadratic(F(0), F(1, 4), 5), quadratic(F(1, 3), F(-1, 7), 5), quadratic(F(1, 2), F(1, 10), 5),
              F(1, 3), F(2, 7)]
        verdicts = []
        for b in bs:
            for k in range(1, len(best.entries) - 1):
                lhs = dist_to_int(b * best.entries[k].y.coords[0])
                want = compare(lhs**2, alpha**2 * gammas[k - 1].gamma_pow).kind == "greater"
                assert b_alpha_test((b,), best, alpha, [k]) is want
                verdicts.append(want)
        # alpha > 1 is vacuous in 1D (every b fails); below it both verdicts occur
        assert set(verdicts) == ({False} if alpha > 1 else {True, False})

    def test_quadratic_b_reaches_the_precondition_of_prop_5_1(self, A_golden):
        # the target rule keeps sqrt(5)/4, which fails b_alpha_test at
        # alpha = 11/10 as every 1D target does, not with a TypeError
        best = best_approximations(A_golden, 144)
        with pytest.raises(ValueError, match="b fails b_alpha_test"):
            verify_prop_5_1(A_golden, (quadratic(F(0), F(1, 4), 5),), F(11, 10), best, Window(3, 6))


class TestProp51:
    def test_alpha_must_exceed_n(self, A_golden):
        best = best_approximations(A_golden, 100)
        with pytest.raises(ValueError):
            verify_prop_5_1(A_golden, (F(1, 3),), F(1), best, Window(2, 5))

    def test_coverage_gap_beyond_horizon(self, A_golden):
        best = best_approximations(A_golden, 21)
        with pytest.raises(CoverageGap):
            verify_prop_5_1(A_golden, (F(1, 3),), F(3, 2), best, Window(100, 200))

    def test_precondition_b_alpha(self, A_golden):
        # alpha > 1 makes b_alpha_test vacuous in 1D, so any b is rejected
        best = best_approximations(A_golden, 144)
        with pytest.raises(ValueError, match="b_alpha_test"):
            verify_prop_5_1(A_golden, (F(1, 3),), F(11, 10), best, Window(3, 6))


class TestKeyInequality:
    def test_b_zero_trivial(self, A_golden):
        best = best_approximations(A_golden, 100)
        assert key_inequality_check(A_golden, (F(0),), IntVec((7,)), best.entries[3].y)

    def test_q_zero(self, A_golden):
        best = best_approximations(A_golden, 100)
        assert key_inequality_check(A_golden, (F(2, 7),), IntVec((0,)), best.entries[2].y)

    @given(
        bnum=st.integers(min_value=0, max_value=2**20 - 1),
        qv=st.integers(min_value=-200, max_value=200),
        k=st.integers(min_value=0, max_value=6),
        sqrt5=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_never_false(self, bnum, qv, k, sqrt5):
        # a target in the entries' field is kept quadratic, its lhs enclosed
        golden_A = _GOLDEN_A
        b = (F(bnum, 1 << 20) + (quadratic(F(0), F(1, 4), 5) if sqrt5 else 0),)
        assert key_inequality_check(golden_A, b, IntVec((qv,)), _GOLDEN_BEST.entries[k].y)

    def test_2d_shape(self, sqrt2):
        A = ApproxMatrix([[sqrt2, sqrt2 * 3 + F(1, 7)]])
        best = best_approximations(A, 10)
        assert key_inequality_check(A, (F(1, 3),), IntVec((2, -1)), best.entries[0].y)


# module-level shared fixtures for the hypothesis test above
_GOLDEN_A = ApproxMatrix([[quadratic(F(-1, 2), F(1, 2), 5)]])
_GOLDEN_BEST = best_approximations(_GOLDEN_A, 21)


class TestExponents:
    def test_golden_homogeneous_near_one(self, A_golden):
        est = estimate_exponents(A_golden, (F(0),), [8, 16, 32, 64, 128, 256])
        assert est.what_hat == pytest.approx(1.0, abs=0.15)
        assert est.w_hat != math.inf

    def test_exact_hit_sentinel(self, A_golden, golden):
        # b = A q0 for q0 = 3 lies on the orbit
        from diophlab.numeric import floor_exact

        v = golden * 3
        b = v - floor_exact(v)
        est = estimate_exponents(A_golden, (b,), [8, 16])
        assert est.w_hat == math.inf and est.to_json()["w_hat"] == "exact_hit"

    def test_cf_what_hat_exceeds_one(self, A_cf):
        est = estimate_exponents(A_cf, None, [2**j for j in range(3, 39, 4)])
        assert est.what_hat > 1.05

    def test_duality_trend(self, A_cf):
        # w(A, b) ~ 1/what(tA) at matched horizons, generous 20% tolerance;
        # compare the largest-horizon inhomogeneous exponent with the tail
        # statistic (small-X noise makes the running max useless here)
        est = estimate_exponents(A_cf, (F(1, 3),), [8, 64, 512, 4096])
        w_last = est.table[-1]["w"]
        assert w_last == pytest.approx(1 / est.what_hat, rel=0.2)

    def test_one_walk_per_problem(self, monkeypatch, sqrt2):
        # one record walk to the largest horizon for each problem: the
        # 31^2 - 1 points of q12 with ||q|| < 16, and the 30 of its
        # transpose; the record filter computes an exact distance only for
        # the 9 + 3 records of the two walks, 1.2% of the points
        points, exact = [], []
        shell, dist = lattice.iter_shell, ApproxMatrix.dist
        monkeypatch.setattr(lattice, "iter_shell", lambda *a: (points.append(q) or q for q in shell(*a)))
        monkeypatch.setattr(ApproxMatrix, "dist", lambda *a: exact.append(1) or dist(*a))
        A = ApproxMatrix([[sqrt2, sqrt2 * 3 + F(1, 7)]])
        estimate_exponents(A, (F(1, 3),), [4, 8, 16])
        assert len(points) == 960 + 30
        assert len(exact) == 9 + 3

    def test_schedule_validation(self, A_golden):
        # an empty schedule has no horizon, and is refused as a bad one is
        for b, schedule in ((None, [16, 8]), ((F(1, 3),), []), ((F(1, 3),), [1])):
            with pytest.raises(ValueError, match="X_schedule must be increasing with X >= 2"):
                estimate_exponents(A_golden, b, schedule)
