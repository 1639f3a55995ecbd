"""Lattice layer: shell enumeration, homogeneous solver vs a brute-force
oracle, return sequences, best approximations vs continued fractions."""

import copy
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from diophlab import lattice
from diophlab.analysis import estimate_exponents
from diophlab.errors import BudgetExceeded, PrecisionExhausted, RankDeficient, UnsupportedEntry
from diophlab.fastpath import scale_fraction
from diophlab.lattice import (
    ApproxMatrix,
    IntVec,
    _best_approximations_scan,
    bad_witness,
    best_approximations,
    check_rank,
    continued_fraction,
    iter_shell,
    records,
    return_sequence,
    shell_size,
    solve_homogeneous,
    window_points,
    within,
)
from diophlab.numeric import (
    CFReal,
    Quadratic,
    Radical,
    convergents,
    dist_to_int,
    dist_to_int_vec,
    enclose,
    ex_abs,
    format_exact,
    lt,
    parse_exact,
    quadratic,
)
from diophlab.sampling import sample_point


@st.composite
def dist_cases(draw):
    """(A, q, b): a rational, quadratic or mixed matrix up to 2 x 2, and
    a target that is None, rational (k/8 for half-integer ties, or a
    sampled point) or quadratic in the entries' field, which for a
    rational matrix gives the radicand.  A second row may repeat the
    first or negate it with its target, so the two rows tie in the sup
    norm."""
    d = draw(st.sampled_from([2, 3, 5]))
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["rational", "quadratic", "mixed"]))
    eighths = st.integers(-24, 24).map(lambda k: F(k, 8))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=12)

    def entry():
        if kind == "rational" or (kind == "mixed" and draw(st.booleans())):
            return draw(st.one_of(eighths, small))
        return quadratic(draw(small), draw(small.filter(bool)), d)

    def coord(target):
        if target == "eighths":
            return draw(eighths)
        if target == "quadratic":
            return quadratic(draw(eighths), draw(small), d)
        return draw(small)

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    q = draw(st.one_of(
        st.just((0,) * n),
        st.tuples(*[st.integers(-30, 30)] * n),
        st.tuples(*[st.integers(-3000, 3000)] * n),
    ))
    target = draw(st.sampled_from(["none", "eighths", "small", "sampled", "quadratic"]))
    if target == "none":
        b = None
    elif target == "sampled":
        b = sample_point(draw(st.integers(0, 10)), draw(st.integers(0, 10**6)), m)
    else:
        b = tuple(coord(target) for _ in range(m))
    tie = m == 2 and draw(st.sampled_from([None, 1, -1]))
    if tie:
        rows[1] = [tie * e for e in rows[0]]
        if b is not None:
            b = (b[0], tie * b[0])
    return ApproxMatrix(rows), q, b


def old_dist(A, q, b):
    v = A.apply(q)
    return dist_to_int_vec(v if b is None else [x - t for x, t in zip(v, b)])


class TestIntegerDist:
    """`ApproxMatrix.dist` in integer coordinates against the exact values
    of `apply`: the same type and value."""

    @settings(max_examples=400, deadline=None)
    @given(case=dist_cases())
    @example(case=(ApproxMatrix([[F(1, 2)]]), (1,), None))
    @example(case=(ApproxMatrix([[F(3, 8), F(1, 8)], [F(-3, 8), F(-1, 8)]]), (1, 1), (F(0), F(0))))
    @example(case=(ApproxMatrix([[quadratic(0, 1, 2)]]), (0,), (F(1, 2),)))
    @example(case=(ApproxMatrix([[F(1, 3)], [F(1, 3)]]), (2,), (quadratic(0, 1, 5), quadratic(0, 1, 5))))
    def test_matches_exact_values(self, case):
        A, q, b = case
        got, want = A.dist(q, b), old_dist(A, q, b)
        assert (type(got), got) == (type(want), want)

    def test_target_outside_the_field(self, sqrt2):
        with pytest.raises(UnsupportedEntry):
            ApproxMatrix([[sqrt2]]).dist((1,), (quadratic(0, 1, 3),))
        with pytest.raises(UnsupportedEntry):
            ApproxMatrix([[F(1, 3)], [F(1, 5)]]).dist((1,), (quadratic(0, 1, 3), quadratic(0, 1, 2)))


class TestShells:
    @given(n=st.integers(min_value=1, max_value=3), s=st.integers(min_value=0, max_value=4))
    def test_shell_size_matches_enumeration(self, n, s):
        pts = list(iter_shell(n, s))
        assert len(pts) == shell_size(n, s)
        assert len(set(pts)) == len(pts)
        assert all(max(abs(c) for c in p) == s for p in pts) or s == 0

    @given(n=st.integers(min_value=1, max_value=3), start=st.integers(min_value=0, max_value=12),
           length=st.integers(min_value=-2, max_value=12))
    @example(n=2, start=0, length=0)
    @example(n=3, start=0, length=5)
    def test_window_points_sums_the_shells(self, n, start, length):
        # the closed form of every budget check: starting at 0, and empty
        shells = range(start, start + length)
        assert window_points(n, shells) == sum(shell_size(n, s) for s in shells)

    def test_shells_partition_box(self):
        box = {p for s in range(4) for p in iter_shell(2, s)}
        assert box == {(i, j) for i in range(-3, 4) for j in range(-3, 4)}

    def test_lex_order_within_shell(self):
        pts = list(iter_shell(1, 2))
        assert pts == [(-2,), (2,)]

    @given(n=st.integers(min_value=1, max_value=4), s=st.integers(min_value=0, max_value=5))
    def test_shell_is_the_sorted_box_boundary(self, n, s):
        # every point of sup norm s, in ascending lexicographic order
        box = product(range(-s, s + 1), repeat=n)
        assert list(iter_shell(n, s)) == sorted(p for p in box if max(map(abs, p)) == s)


def brute_solve(A, C, X):
    """Independent oracle: scan every q with 0 < ||q|| < X in any order,
    return the set of solutions of ||Aq||_Z < C (floats are fine: the cases
    below are far from the boundary)."""
    import itertools, math

    sols = set()
    rng = range(-X + 1, X)
    for q in itertools.product(rng, repeat=A.n):
        if all(c == 0 for c in q):
            continue
        ok = True
        for i in range(A.m):
            v = sum(float(A.rows[i][j]) * q[j] for j in range(A.n))
            if abs(v - round(v)) >= C:
                ok = False
                break
        if ok:
            sols.add(q)
    return sols


class TestSolveHomogeneous:
    def test_agrees_with_brute_oracle_1d(self, A_golden):
        for C, X in [(0.2, 8), (0.05, 16), (0.3, 32)]:
            got = solve_homogeneous(A_golden, F(C).limit_denominator(100), X)
            want = brute_solve(A_golden, C, X)
            if want:
                assert got is not None and got.coords in want
            else:
                assert got is None

    def test_agrees_with_brute_oracle_2d(self, sqrt2):
        # entries must share the radicand; perturb the second one rationally
        A = ApproxMatrix([[sqrt2, sqrt2 * 3 + F(1, 7)]])
        for C, X in [(0.25, 5), (0.1, 7)]:
            got = solve_homogeneous(A, F(C).limit_denominator(1000), X)
            want = brute_solve(A, C, X)
            assert (got is None) == (not want)
            if got is not None:
                assert got.coords in want

    def test_minimal_norm_first(self, A_golden):
        q = solve_homogeneous(A_golden, F(3, 10), 32)
        assert q is not None
        # no strictly smaller shell contains a solution
        want = brute_solve(A_golden, 0.3, 32)
        assert q.norm == min(max(abs(c) for c in w) for w in want)


class TestReturnSequence:
    def test_golden_full_range(self, A_golden):
        ret = return_sequence(A_golden, F(2, 5), 12)
        assert ret.levels == list(range(1, 13))

    def test_rational_entry_dies_fast(self):
        A = ApproxMatrix([[F(1, 2)]])
        ret = return_sequence(A, F(2, 5), 6)
        # q = 2 kills every level with 2 < 2^l; level 1 survives (q = 1
        # gives distance 1/2, not < 0.2)
        assert ret.levels == [1]

    def test_epsilon_monotone(self, A_golden):
        # smaller eps -> weaker homogeneous demand -> more levels survive
        small = return_sequence(A_golden, F(1, 5), 8)
        large = return_sequence(A_golden, F(2, 5), 8)
        assert set(large.levels) <= set(small.levels)

    def test_brute_oracle(self, A_golden, golden):
        # independent double loop, exact arithmetic
        eps = F(2, 5)
        want = []
        for ell in range(1, 9):
            hit = False
            for q in range(1, 2**ell):
                if lt(dist_to_int(golden * q), eps * F(1, 2**ell)):
                    hit = True
                    break
            if not hit:
                want.append(ell)
        assert return_sequence(A_golden, eps, 8).levels == want


# 1 x 1 irrational lines: quadratic ones, whose records are exact, and CF
# reals from short ones (whose records reach only q = 1 and 23) to ones with
# unbounded partial quotients, the reals the paper adds to Kurzweil's theorem
LINES = {
    "golden": ApproxMatrix([[quadratic(F(-1, 2), F(1, 2), 5)]]),
    "sqrt2": ApproxMatrix([[quadratic(F(0), F(1), 2)]]),
    "cf_short": ApproxMatrix([[CFReal((0, 1, 2))]]),
    "cf_mid": ApproxMatrix([[CFReal((0, 3, 1, 4, 1, 5))]]),
    "cf_fast": ApproxMatrix([[CFReal((0, 4, 16, 256, 65536, 2**32, 2**64, 2**128))]]),
    "a_k=k": ApproxMatrix([[CFReal((0, *range(1, 41)))]]),
    "a_k=2^k": ApproxMatrix([[CFReal((0, *(2**k for k in range(1, 12))))]]),
}


def outcome(fn, *args):
    """A result or the type of the error it raised."""
    try:
        return ("ok", fn(*args))
    except (BudgetExceeded, PrecisionExhausted, UnsupportedEntry) as exc:
        return ("raise", type(exc))


def walk_solve(A, C, X, budget):
    """solve_homogeneous as the `within` walk decides it."""
    hit = next(within(A, range(1, X), budget, C), None)
    return None if hit is None else IntVec(hit[1])


def walk_levels(A, eps, ell_max, budget):
    return [
        ell for ell in range(1, ell_max + 1)
        if walk_solve(A, Radical(eps * F(1, 1 << ell), 1), 1 << ell, budget) is None
    ]


def plain_walk(A):
    """A with its line flag cleared, so `records` walks every point of the
    scan: the reference of the arc-entry search."""
    W = copy.copy(A)
    W.irrational_line = False
    return W


def record_outcome(A, shells, budget, b):
    """(s, q, repr(d)) of every record over the window, then the type and
    message of the error that ended the walk, if any."""
    out = []
    try:
        out.extend((s, q, repr(d)) for s, q, d in records(A, shells, budget, lambda s, d: d, b))
    except (BudgetExceeded, PrecisionExhausted) as exc:
        out.append((type(exc), str(exc)))
    return out


def first_entry_scan(a, B, R, s0, mod):
    """The first s >= s0 whose s a - B lies within R of 0 mod `mod`, over one
    period of s -> s a mod `mod`, or None."""
    return next((s for s in range(s0, s0 + mod) if min((s * a - B) % mod, (B - s * a) % mod) <= R), None)


class TestArcEntry:
    """A line's inhomogeneous records jump from one point near b to the
    next by `_arc_entry`; a linear scan and the plain walk are the
    references."""

    @settings(max_examples=400, deadline=None)
    @given(
        mod_a=st.integers(min_value=1, max_value=128).flatmap(
            lambda m: st.tuples(st.just(m), st.integers(min_value=0, max_value=m - 1))
        ),
        B=st.integers(min_value=-256, max_value=256),
        R=st.integers(min_value=0, max_value=128),
        s0=st.integers(min_value=0, max_value=40),
    )
    # an arc wrapping past 0, R >= mod / 2 (the whole circle), no entry at
    # all (a = 0, or an orbit of multiples of 4 that misses the arc), and a
    # first entry 53 steps past s0 = 5
    @example(mod_a=(64, 5), B=1, R=2, s0=3)
    @example(mod_a=(64, 7), B=0, R=32, s0=9)
    @example(mod_a=(64, 0), B=5, R=2, s0=2)
    @example(mod_a=(64, 4), B=2, R=1, s0=2)
    @example(mod_a=(64, 27), B=30, R=0, s0=5)
    def test_arc_entry_matches_a_linear_scan(self, mod_a, B, R, s0):
        mod, a = mod_a
        assert lattice._arc_entry(a, B, R, s0, mod) == first_entry_scan(a, B, R, s0, mod)

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.sampled_from(["golden", "sqrt2", "cf_mid", "cf_fast", "a_k=k"]),
        b=st.fractions(min_value=0, max_value=1, max_denominator=500)
        | st.integers(min_value=0, max_value=1 << 12).map(lambda k: F(k, 1 << 12)),
        X=st.integers(min_value=1, max_value=2000),
        start=st.sampled_from([0, 1, 1, 1, 7]),
        budget=st.sampled_from([1 << 22]) | st.integers(min_value=0, max_value=4000),
    )
    @example(key="golden", b=F(1, 3), X=2000, start=1, budget=1000)
    @example(key="cf_mid", b=F(1, 3), X=300, start=1, budget=1 << 22)
    def test_records_with_a_target_match_the_walk(self, key, b, X, start, budget):
        A = LINES[key]
        shells = range(start, X)
        assert record_outcome(A, shells, budget, (b,)) == record_outcome(plain_walk(A), shells, budget, (b,))

    def test_arc_radius_holds_the_targets_error(self):
        # a target known only to within b_err = 2^80 cells: a point of the
        # last shell whose centre lies H + S unit_err + b_err - 1 from B has
        # d_lo = H - 1, so the filter keeps it and the arc must list it
        line, X, bound, b_err = LINES["golden"].line, 64, F(1, 1000), 1 << 80
        S, H = X - 1, scale_fraction(bound, line.shift)
        B = (S * line.a_lo + H + S * line.unit_err + b_err - 1) % line.mod
        listed = list(lattice._arc_points(line, range(1, X), 1 << 22, B, b_err, lambda: bound))
        kept = [
            (s, ((q,),)) for s in range(1, X) for q in (-s, s) if line.dist_bounds(q, B, b_err)[0] <= H
        ]
        assert (S, ((S,),)) in kept
        assert set(kept) <= set(listed)

    def test_exponents_on_golden_visit_few_points(self, monkeypatch):
        # the records of b = 1/3 to 10^6 take a few dozen exact distances,
        # where the walk took one for each of its 2 10^6 points
        calls = []
        dist = ApproxMatrix.dist
        monkeypatch.setattr(ApproxMatrix, "dist", lambda *args: calls.append(args) or dist(*args))
        est = estimate_exponents(LINES["golden"], (F(1, 3),), [10**4, 10**5, 10**6])
        assert round(est.w_hat, 3) == 1.194
        assert len(calls) <= 200
        # the budget is charged as the walk's: 2^21 shells of 2 points fit
        with pytest.raises(BudgetExceeded, match="enumeration of 4194306 points exceeds 4194304"):
            estimate_exponents(LINES["golden"], (F(1, 3),), [3 * 10**4, 3 * 10**5, 3 * 10**6])


class TestLineRecords:
    """A 1 x 1 irrational line decides homogeneous searches from its
    convergent records; the `within` walk is the reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        key=st.sampled_from(sorted(LINES)),
        eps=st.one_of(
            st.fractions(min_value=F(1, 50), max_value=1, max_denominator=60),
            st.just(parse_exact("(0+1*sqrt(5))/4")),
        ),
        ell=st.integers(min_value=1, max_value=14),
        X=st.integers(min_value=1, max_value=1 << 14),
        budget=st.sampled_from([40, 1 << 22]),
    )
    # cf_mid's records are certified below q = 23 only: level 5 takes the walk
    @example(key="cf_mid", eps=F(2, 5), ell=5, X=32, budget=1 << 22)
    # 7/160 lies inside cf_mid's enclosure of ||4 alpha||_Z: the record is
    # undecided, so the walk decides, and raises PrecisionExhausted at q = -4
    @example(key="cf_mid", eps=F(7, 10), ell=4, X=16, budget=1 << 22)
    @example(key="cf_short", eps=F(1, 4), ell=3, X=8, budget=40)
    # level 8 of golden's L(1/2) is a hit at q = -233, past a budget of 40
    @example(key="golden", eps=F(1, 2), ell=8, X=256, budget=40)
    def test_matches_the_walk(self, key, eps, ell, X, budget):
        A = LINES[key]
        C = eps * F(1, 1 << ell)
        X = min(X, 1 << ell)
        want = outcome(walk_solve, A, C, X, budget)
        assert outcome(solve_homogeneous, A, C, X, budget) == want
        got = outcome(lambda: return_sequence(A, eps, ell, budget).levels)
        assert got == outcome(walk_levels, A, eps, ell, budget)

    def test_budget_charged_at_the_walks_last_shell(self):
        # golden's first record below 1/50 is q = 34 (F_9): the walk ends
        # at shell 34, so 68 points fit budget 68 and not 67
        A = LINES["golden"]
        assert solve_homogeneous(A, F(1, 50), 100, 68) == IntVec((-34,))
        with pytest.raises(BudgetExceeded, match="enumeration of 68 points exceeds 67"):
            solve_homogeneous(A, F(1, 50), 100, 67)
        # a miss below X ends at shell X - 1
        assert solve_homogeneous(A, F(1, 50), 34, 66) is None
        with pytest.raises(BudgetExceeded, match="enumeration of 66 points exceeds 65"):
            solve_homogeneous(A, F(1, 50), 34, 65)

    def test_quadratic_lines_take_no_walk(self, monkeypatch):
        # the levels are the walk's, which takes 0.45 s on golden to level 16
        walks = []
        real = lattice.within
        monkeypatch.setattr(lattice, "within", lambda *a, **k: walks.append(a[1]) or real(*a, **k))
        assert return_sequence(LINES["golden"], F(2, 5), 16).levels == list(range(1, 17))
        assert return_sequence(LINES["sqrt2"], F(2, 5), 14).levels == [1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14]
        assert walks == []
        # cf_mid's records reach q = 23: level 5 (q < 32) is walked
        assert return_sequence(LINES["cf_mid"], F(2, 5), 5).levels == [1, 2, 4]
        assert walks == [range(1, 32)]

    def test_deep_levels_of_a_k_equals_k(self):
        # L(1/4) of [0; 1, 2, 3, ...]: its partial quotients are unbounded,
        # so the levels thin out, a gap every third level at first
        A = ApproxMatrix([[CFReal((0, *range(1, 61)))]])
        levels = return_sequence(A, F(1, 4), 100, 1 << 101).levels
        gaps = [ell for ell in range(1, 101) if ell not in levels]
        assert gaps[:6] == [8, 11, 14, 17, 20, 23]
        assert len(levels) == 53
        # the walk's budget holds: a miss below 2^100 costs 2^101 - 2 points
        with pytest.raises(BudgetExceeded):
            return_sequence(A, F(1, 4), 100)


class TestBadWitness:
    def test_golden_small_horizon(self, A_golden):
        val, q = bad_witness(A_golden, 8)
        # min over q of |q| * ||q phi|| is attained at |q| = 1: (3 - sqrt5)/2
        lo, hi = enclose(val, 60)
        assert abs(float(lo) - 0.3819660112501051) < 1e-12
        assert q.norm == 1


class TestBestApproximations:
    def test_golden_fibonacci(self, A_golden):
        seq = best_approximations(A_golden, 21)
        assert [e.Y for e in seq.entries] == [1, 2, 3, 5, 8, 13, 21]

    def test_sqrt2(self, A_sqrt2):
        seq = best_approximations(A_sqrt2, 12)
        assert [e.Y for e in seq.entries] == [1, 2, 5, 12]

    def test_matches_cf_convergents(self, A_sqrt2, sqrt2):
        cf = continued_fraction(sqrt2, 10)
        # convergent denominators from the quotients
        p0, q0, p1, q1 = 1, 0, 0, 1
        dens = []
        for a in cf.quotients:
            p0, q0, p1, q1 = a * p0 + p1, a * q0 + q1, p0, q0
            dens.append(q0)
        got = [e.Y for e in best_approximations(A_sqrt2, 1000).entries]
        assert got == [d for d in dens if 1 <= d <= 1000]

    @pytest.mark.parametrize("alpha", [quadratic(F(-1, 2), F(1, 2), 5), quadratic(0, 1, 2), quadratic(F(-9, 21), F(14, 21), 3)])
    def test_quadratic_records_take_the_convergent_residue(self, alpha):
        # M = A.dist((q_k,)) is |q_k alpha - p_k| from the convergents, in
        # value, type and literal, for every record up to 10^6
        seq = best_approximations(ApproxMatrix([[alpha]]), 10**6)
        p_of = {q: p for p, q in convergents(continued_fraction(alpha, 40).quotients)}
        assert seq.entries[-1].Y > 10**4
        for e in seq.entries:
            want = ex_abs(alpha * e.Y - p_of[e.Y])
            assert (type(e.M), e.M, format_exact(e.M)) == (type(want), want, format_exact(want))

    def test_records_strictly_decrease(self, A_golden):
        seq = best_approximations(A_golden, 100)
        for a, b in zip(seq.entries, seq.entries[1:]):
            assert lt(b.M, a.M)
            assert b.Y > a.Y

    def test_cfreal_fast_path(self, A_cf):
        seq = best_approximations(A_cf, 2**40)
        assert [e.Y for e in seq.entries] == [1, 4, 65, 16644, 1090781249]

    def test_rational_rank_deficient(self):
        with pytest.raises(RankDeficient):
            best_approximations(ApproxMatrix([[F(1, 2)]]), 10)

    def test_generic_scan_agrees_with_fast_path(self, golden):
        A = ApproxMatrix([[golden]])
        from diophlab.lattice import _best_approximations_scan

        fast = best_approximations(A, 60)
        slow = _best_approximations_scan(A, 60, 1 << 22)
        assert [e.Y for e in fast.entries] == [e.Y for e in slow.entries]


    @settings(max_examples=60, deadline=None)
    @given(
        a0=st.integers(min_value=-3, max_value=3),
        tail=st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=8).filter(lambda t: 1 in t),
        t=st.fractions(min_value=0, max_value=1, max_denominator=60).filter(lambda t: 0 < t < 1),
        Y=st.integers(min_value=1, max_value=300),
    )
    def test_cf_records_hold_for_every_real_in_the_enclosure(self, a0, tail, t, Y):
        # the CF entry stands for every x strictly between its last two
        # convergents, rational ones included: its records must be those of
        # each such x, or PrecisionExhausted past the certified horizon
        cf = CFReal((a0, *tail))
        lo, hi = cf.enclosure()
        x = lo + (hi - lo) * t
        horizon = cf.convergents()[-2][1]
        try:
            got = best_approximations(ApproxMatrix([[cf]]), Y).entries
        except PrecisionExhausted:
            assert Y >= horizon
            return
        assert Y < horizon
        want = _best_approximations_scan(ApproxMatrix([[x]]), Y, 1 << 22).entries
        assert [(e.y, e.Y) for e in got] == [(e.y, e.Y) for e in want]
        assert all(g.M.lo < w.M < g.M.hi for g, w in zip(got, want))

    def test_cf_record_past_the_horizon_raises(self):
        # 33/100 = [0; 3, 33] lies in the enclosure (3/10, 1/3) of [0; 3, 3],
        # and ||3 * 33/100|| = 1/100: the tail a_2 = 3 bounds nothing
        A = ApproxMatrix([[parse_exact("cf:[0;3,3]")]])
        for Y in (3, 6):
            with pytest.raises(PrecisionExhausted, match="Y_max < 3"):
                best_approximations(A, Y)
        assert best_approximations(A, 2).Y == [1]

    def test_cf_first_quotient_one(self):
        # a_1 = 1 gives q_0 = q_1 = 1: the record at Y = 1 is convergent 1
        A = ApproxMatrix([[parse_exact("cf:[0;1,2,3,4,5,6,7]")]])
        seq = best_approximations(A, 2)
        assert [(e.y, e.Y) for e in seq.entries] == [(IntVec((-1,)), 1)]
        assert (seq.entries[0].M.lo, seq.entries[0].M.hi) == (F(1, 4), F(1, 3))


class TestRank:
    def test_single_irrational(self, A_sqrt2):
        assert check_rank(A_sqrt2)

    def test_rational_fails(self):
        assert not check_rank(ApproxMatrix([[F(1, 2)]]))

    def test_dependent_combination_fails(self, sqrt2):
        # second entry = first entry rational multiple modulo rationals:
        # y = (1, -1)... for a 2x1 matrix rows (sqrt2, sqrt2) the difference
        # of rows is rational
        A = ApproxMatrix([[sqrt2], [sqrt2 + F(1, 3)]])
        assert not check_rank(A)

    def test_independent_pair(self, sqrt2):
        A = ApproxMatrix([[sqrt2, sqrt2 * 3 + F(1, 7)]])
        assert check_rank(A)

    def test_cf_unsupported(self, A_cf):
        with pytest.raises(UnsupportedEntry):
            check_rank(A_cf)


class TestContinuedFraction:
    def test_rational_terminates(self):
        cf = continued_fraction(F(7, 3), 20)
        assert cf.quotients == [2, 3] and cf.terminated

    def test_rational_terminates_at_k(self):
        # the last quotient ends the expansion even when it is the k-th
        cf = continued_fraction(F(7, 3), 2)
        assert cf.quotients == [2, 3] and cf.terminated

    def test_golden_period(self, golden):
        cf = continued_fraction(golden, 12)
        assert cf.quotients[0] == 0
        assert cf.period == [1]

    def test_sqrt2_period(self, sqrt2):
        cf = continued_fraction(sqrt2, 12)
        assert cf.quotients[0] == 1 and cf.period == [2]

    @given(x=st.fractions(min_value=F(-50), max_value=F(50), max_denominator=500))
    def test_rational_roundtrip(self, x):
        cf = continued_fraction(x, 60)
        # rebuild from quotients
        v = F(cf.quotients[-1])
        for a in reversed(cf.quotients[:-1]):
            v = a + 1 / v
        assert v == x


class TestMatrixIO:
    def test_text_roundtrip(self, golden, sqrt2):
        A = ApproxMatrix([[golden]])
        assert ApproxMatrix.from_text(A.to_text()).rows == A.rows
        B = ApproxMatrix([[F(1, 3), sqrt2]])
        assert ApproxMatrix.from_text(B.to_text()).rows == B.rows

    def test_bad_header(self):
        with pytest.raises(ValueError):
            ApproxMatrix.from_text("1\n1/2\n")
