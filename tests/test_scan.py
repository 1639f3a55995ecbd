"""Every search that runs on lattice.scan / lattice.within, and the
single-index 1 x 1 testers, against verbatim copies of the loops they
replaced: the outcome, including the type of a raised error, must agree."""

import functools
import inspect
import math
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import islice
from math import isqrt

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from diophlab import analysis, equidist, lattice, limsup, numeric
from diophlab.analysis import (
    b_alpha_test,
    estimate_exponents,
    key_inequality_check,
    verify_prop_5_1,
)
from diophlab.errors import (
    BudgetExceeded,
    DiophlabError,
    InsufficientData,
    PrecisionExhausted,
    RankDeficient,
    UnsupportedEntry,
)
from diophlab.fastpath import Line1D, UnionIndex1D, threshold_bounds
from diophlab.lattice import (
    ApproxMatrix,
    IntVec,
    _best_approximations_scan,
    bad_witness,
    best_approximations,
    centre_index,
    check_window,
    first_hits,
    iter_shell,
    records,
    return_sequence,
    scan,
    shell_size,
    window_points,
    within,
)
from diophlab.limsup import (
    PowerLog,
    TablePsi,
    Window,
    coverage,
    delta_membership,
    measure_Bad,
    measure_W,
    psi_witness,
    ubiquity_params,
)
from diophlab.numeric import (
    CFReal,
    Ordering,
    Quadratic,
    Radical,
    RatInterval,
    compare,
    dist_to_int,
    dist_to_int_vec,
    enclose,
    ex_pow,
    floor_exact,
    le,
    lt,
    quadratic,
)
from diophlab.sampling import sample_point
from diophlab.transference import solve_inhomogeneous, verify_corollary_3_3
from psi_reference import old_value_bounds
from union_reference import ReferenceUnion

GOLDEN = quadratic(F(-1, 2), F(1, 2), 5)
SQRT2 = quadratic(F(0), F(1), 2)
Q12_B = quadratic(F(1, 7), F(3), 2)  # (1 + 21 sqrt 2) / 7

MATRICES = {
    "golden": ApproxMatrix([[GOLDEN]]),
    "sqrt2": ApproxMatrix([[SQRT2]]),
    "q12": ApproxMatrix([[SQRT2, Q12_B]]),
    "q21": ApproxMatrix([[SQRT2], [Q12_B]]),
    "third": ApproxMatrix([[F(1, 3)]]),
    "half_third": ApproxMatrix([[F(1, 2), F(1, 3)]]),
    "rat21": ApproxMatrix([[F(1, 4)], [F(2, 3)]]),
    "cf_short": ApproxMatrix([[CFReal((0, 1, 2))]]),
    "cf_mid": ApproxMatrix([[CFReal((0, 3, 1, 4, 1, 5))]]),
}
LINES = ["golden", "sqrt2", "cf_mid"]
WITH_FIXTURE = settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)


def outcome(fn, *args):
    """A result or the type of the error it raised."""
    try:
        return ("ok", fn(*args))
    except (DiophlabError, ValueError) as exc:
        return ("raise", type(exc))


def targets(m):
    fracs = st.fractions(min_value=0, max_value=1, max_denominator=24)
    return st.one_of(
        st.lists(fracs, min_size=m, max_size=m).map(tuple),
        st.integers(min_value=0, max_value=10**6).map(lambda i: sample_point(5, i, m)),
    )


# ---------------------------------------------------------------------------
# the loops as they were before the scan kernel
# ---------------------------------------------------------------------------


def old_window_budget(n, w, budget):
    total = sum(shell_size(n, s) for s in w.shells)
    if total > budget:
        raise BudgetExceeded(f"window holds {total} points, budget {budget}")


def old_horizon(n, N, budget):
    """equidist's own horizon rule: the box ||q|| <= N, N >= 1."""
    if N < 1:
        raise ValueError("N >= 1 required")
    total = (2 * N + 1) ** n
    if total > budget:
        raise BudgetExceeded(f"{total} lattice points exceed budget {budget}")
    return total


def mirror(q):
    """q is the mirror of -q, which comes earlier in its shell at exactly
    the same distance to Z^m."""
    return next(filter(None, q), 0) > 0


def old_bad_witness(A, Q, budget):
    """The exhaustive loop, with the mirror q of -q skipped: a tie that a
    CF entry cannot decide, and which q can never win."""
    m, n = A.m, A.n
    best_key = None
    best_q = None
    total = 0
    for s in range(1, Q + 1):
        total += shell_size(n, s)
        if total > budget:
            raise BudgetExceeded(f"enumeration of {total} points exceeds {budget}")
        for q in iter_shell(n, s):
            if mirror(q):
                continue
            d = dist_to_int_vec(A.apply(q))
            key = ex_pow(d, m) * F(s**n)
            if best_key is None or lt(key, best_key):
                best_key = key
                best_q = IntVec(q)
    if m == 1:
        return best_key, best_q
    return Radical(best_key, m), best_q


def old_best_approximations_scan(A, Y_max, budget):
    record = F(1, 2)
    entries = []
    total = 0
    for s in range(1, Y_max + 1):
        total += shell_size(A.m, s)
        if total > budget:
            raise BudgetExceeded(f"enumeration of {total} points exceeds {budget}")
        shell_best = None
        shell_y = None
        for y in iter_shell(A.m, s):
            d = dist_to_int_vec(A.transpose().apply(y))
            if shell_best is None or lt(d, shell_best):
                shell_best = d
                shell_y = y
        if shell_best is not None and lt(shell_best, record):
            record = shell_best
            entries.append((IntVec(shell_y), s, shell_best))
    return entries


def old_solve_inhomogeneous_generic(A, b, C_pow, pw, x_cap, budget):
    total = 0
    for s in range(0, x_cap + 1):
        total += shell_size(A.n, s)
        if total > budget:
            raise BudgetExceeded(f"enumeration of {total} points exceeds {budget}")
        for q in iter_shell(A.n, s):
            diff = [v - t for v, t in zip(A.apply(q), b)]
            d = dist_to_int_vec(diff)
            if le(ex_pow(d, pw), C_pow):
                return IntVec(q)
    return None


def old_solve_inhomogeneous_1d(A, b, C_pow, pw, x_cap):
    """The former 1 x 1 prefilter: it charged no budget."""
    alpha = A.rows[0][0]
    line = Line1D(alpha)
    mod = line.mod
    b_scaled = (b.numerator << line.shift) // b.denominator
    b_err = 0 if (b.numerator << line.shift) % b.denominator == 0 else 1
    thr_lo, thr_hi = threshold_bounds(Radical(C_pow, pw), line.shift)

    def exact_ok(q):
        val = A.apply((q,))[0]
        d = dist_to_int(val - b if q != 0 else -b + F(0))
        return le(ex_pow(d, pw), C_pow)

    def b_dist(b_scaled):
        v = b_scaled % mod
        return min(v, mod - v)

    for s in range(0, x_cap + 1):
        for q in ((0,) if s == 0 else (-s, s)):
            d_lo, d_hi = line.dist_bounds(q, b_scaled, b_err) if q != 0 else (
                b_dist(b_scaled),
                b_dist(b_scaled) + b_err,
            )
            if d_hi <= thr_lo - 2:
                return IntVec((q,))
            if d_lo > thr_hi + 2:
                continue
            if exact_ok(q):
                return IntVec((q,))
    return None


def old_lt_value(psi, d, q, strict=True):
    """PowerLog and TablePsi lt_value as they were."""
    if isinstance(psi, TablePsi):
        c = compare(d, psi.value_at(q))
        if not c.decided:
            raise PrecisionExhausted("table psi comparison undecided")
    elif psi.beta == 0:
        p, r = psi.a.numerator, psi.a.denominator
        c = compare(ex_pow(d, r) * F(q**p), psi.c**r)
        if not c.decided:
            raise PrecisionExhausted("psi comparison undecided")
    else:
        for bits in (80, 160, 320):
            lo, hi = old_value_bounds(psi, q, bits)
            c = compare(d, RatInterval(lo, hi))
            if c.decided:
                break
        else:
            raise PrecisionExhausted(f"psi({q}) enclosure too wide for comparison")
    return c.kind == "less" if strict else c.kind != "greater"


def old_psi_witness(A, b, psi, w, budget=1 << 22):
    old_window_budget(A.n, w, budget)
    b = tuple(F(x) for x in b)
    for s in w.shells:
        for q in iter_shell(A.n, s):
            diff = [v - t for v, t in zip(A.apply(q), b)]
            d = dist_to_int_vec(diff)
            if old_lt_value(psi, d, s):
                return IntVec(q)
    return None


def old_delta_membership(A, x, rho_val, w, budget=1 << 22):
    """The membership loop; it takes the covering shortcut only for a
    radius decidedly above 1/2, since the comparison is strict."""
    if isinstance(rho_val, Radical):
        c = rho_val.compare(F(1, 2))
    else:
        c = compare(rho_val, F(1, 2))
    if c.decided and c.kind == "greater":
        return True
    old_window_budget(A.n, w, budget)
    x = tuple(F(t) for t in x)
    for s in w.shells:
        for q in iter_shell(A.n, s):
            diff = [v - t for v, t in zip(A.apply(q), x)]
            d = dist_to_int_vec(diff)
            if isinstance(rho_val, Radical):
                cc = rho_val.compare(d)
                if not cc.decided:
                    raise PrecisionExhausted("membership radius comparison undecided")
                if cc.kind == "greater":
                    return True
            elif lt(d, rho_val):
                return True
    return False


def old_u_le(best, k, m, n, s):
    """U_k <= s, exact: Y_k^(m(m+n)) <= s^(n(m+n)) g_k^m."""
    g = analysis._gamma_pow(best, k, m, n)
    mn = m + n
    return le(F(best.entries[k].Y ** (m * mn)), F(s ** (n * mn)) * ex_pow(g, m))


def old_lt_v(best, k, m, n, s):
    """s < V_k, exact: s^(m+n) M_k^(m+n) < g_k."""
    g = analysis._gamma_pow(best, k, m, n)
    mn = m + n
    return lt(F(s**mn) * ex_pow(best.entries[k].M, mn), g)


def old_b_alpha_test(b, best, alpha, k_range, m=1, n=1):
    """||b . y_k||_Z > alpha gamma_k for every k in k_range (exact)."""
    alpha = F(alpha)
    b = tuple(F(x) for x in b)
    ents = best.entries
    mn = m + n
    for k in k_range:
        if not 1 <= k <= len(ents) - 2:
            raise InsufficientData(f"k = {k} outside interior range")
        y = ents[k].y.coords
        lhs = dist_to_int(sum(bi * yi for bi, yi in zip(b, y)))
        # lhs > alpha gamma_k  <=>  lhs^(m+n) > alpha^(m+n) gamma_k^(m+n)
        g = analysis._gamma_pow(best, k, m, n)
        if not lt(ex_pow(g, 1) * alpha**mn, lhs**mn):
            return False
    return True


def old_key_inequality_check(A, b, q, y):
    """||b.y||_Z <= m ||y|| ||Aq - b||_Z + n ||q|| ||tA y||_Z, exactly.

    Holds for every integer q, y by the transference identity; a False
    return is a bug detector, not a mathematical possibility."""
    m, n = A.m, A.n
    b = tuple(F(x) for x in b)
    if len(y.coords) != m or len(q.coords) != n:
        raise ValueError("dimension mismatch")
    lhs = dist_to_int(sum(bi * yi for bi, yi in zip(b, y.coords)))
    d1 = A.dist(q.coords, b)
    d2 = A.transpose().dist(y.coords)
    return le(lhs, d1 * (m * y.norm) + d2 * (n * q.norm))


def old_verify_prop_5_1_scan(A, b, alpha, best, w, budget, stride):
    """verify_prop_5_1 after its preconditions (binding, b_alpha_test)."""
    m, n = A.m, A.n
    thr = (F(alpha) - n) / m
    interior = range(1, len(best.entries) - 1)
    binding = {}
    for s in w.shells:
        k_bind = next(
            (k for k in interior if old_u_le(best, k, m, n, s) and old_lt_v(best, k, m, n, s)),
            None,
        )
        if k_bind is None:
            raise analysis.CoverageGap(f"no [U_k, V_k) interval contains ||q|| = {s}")
        binding[s] = k_bind
    total = sum(shell_size(n, s) for s in w.shells)
    if total > budget:
        raise BudgetExceeded(f"{total} lattice points exceed budget {budget}")
    b = tuple(F(x) for x in b)
    violations = []
    spot = 0
    idx = 0
    for s in w.shells:
        for q in iter_shell(n, s):
            diff = [v - t for v, t in zip(A.apply(q), b)]
            d = dist_to_int_vec(diff)
            if not lt(thr**m, F(s**n) * ex_pow(d, m)):
                violations.append(q)
            idx += 1
            if idx % stride == 0:
                k = binding[s]
                # the library check: it mends the CF ties that the old one
                # raises on, and test_key_inequality_matches_old_check
                # compares it with old_key_inequality_check
                if not key_inequality_check(A, b, IntVec(q), best.entries[k].y):
                    violations.append(q)
                spot += 1
    return binding, violations, spot


def old_best_dist_enclosure(A, b, X, budget):
    """The exhaustive minimum; without a target it skips the mirror q of -q."""
    best_d = None
    best_q = None
    total = 0
    for s in range(1, X):
        total += shell_size(A.n, s)
        if total > budget:
            raise BudgetExceeded(f"enumeration of {total} points exceeds {budget}")
        for q in iter_shell(A.n, s):
            if b is None and mirror(q):
                continue
            vec = A.apply(q)
            if b is not None:
                vec = [v - t for v, t in zip(vec, b)]
            d = dist_to_int_vec(vec)
            if best_d is None or lt(d, best_d):
                best_d = d
                best_q = q
    return best_d, best_q


def old_exponent(d, X):
    import math

    lo, hi = enclose(d, 80) if not isinstance(d, F) else (d, d)
    if hi == 0:
        return None
    mid = (lo + hi) / 2 if lo > 0 else hi
    return math.log(1 / float(mid)) / math.log(X)


def old_estimate_exponents(A, b, xs, budget):
    """The exponent table as it was, with records read to X - 1 for the
    largest horizon X; it crashed with TypeError when an exact homogeneous
    hit met a finite exponent in the tail."""
    w_hat = None
    hom_exps = []
    table = []
    best = None
    if (A.m, A.n) == (1, 1):
        try:
            best = best_approximations(A, xs[-1] - 1)
        except Exception:
            best = None
    for X in xs:
        row = {"X": X}
        if b is not None:
            d, q = old_best_dist_enclosure(A, b, X, budget)
            e = old_exponent(d, X)
            if e is None:
                w_hat = "exact_hit"
                row["w"] = "exact_hit"
            else:
                row["w"] = e
                if w_hat != "exact_hit":
                    w_hat = e if w_hat is None else max(w_hat, e)
        if best is not None:
            d = None
            for ent in best.entries:
                if ent.Y < X:
                    d = ent.M
                else:
                    break
        else:
            d, _ = old_best_dist_enclosure(A.transpose(), None, X, budget)
        if d is not None:
            e = old_exponent(d, X)
            row["what"] = e
            hom_exps.append(e)
        table.append(row)
    tail = hom_exps[len(hom_exps) // 2 :]
    return {"w_hat": w_hat, "what_hat": min(tail) if tail else None, "horizons": xs, "table": table}


# ---------------------------------------------------------------------------
# the kernel itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_scan_order_and_budget(dim):
    shells = range(0, 5 if dim < 3 else 3)
    got = [(s, q) for s, shell in scan(dim, shells, 1 << 20) for q in shell]
    assert got == [(s, q) for s in shells for q in iter_shell(dim, s)]
    # the shell that takes the running count past the budget is never yielded
    budget = shell_size(dim, 0) + shell_size(dim, 1) + shell_size(dim, 2) - 1
    seen = []
    with pytest.raises(BudgetExceeded):
        for s, _ in scan(dim, shells, budget):
            seen.append(s)
    assert seen == [0, 1]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    l=st.integers(min_value=0, max_value=6),
    du=st.integers(min_value=1, max_value=6),
    N=st.integers(min_value=-1, max_value=12),
    slack=st.integers(min_value=-2, max_value=2),
)
@example(n=1, l=0, du=1, N=0, slack=-1)
@example(n=3, l=2, du=3, N=3, slack=0)
def test_up_front_refusals_match_the_old_rules(n, l, du, N, slack):
    # the window and horizon checks refuse exactly where the old rules of
    # limsup and equidist did, budgets around the count included, and in
    # the words of scan
    w = Window(l, l + du)
    size = sum(shell_size(n, s) for s in w.shells)
    for budget in (size + slack, (2 * max(N, 0) + 1) ** n + slack):
        got = outcome(check_window, n, w.shells, budget)
        want = outcome(old_window_budget, n, w, budget)
        assert got == (want if want[0] == "raise" else ("ok", size))
        got = outcome(equidist._check_horizon, n, N, budget)
        assert got == outcome(old_horizon, n, N, budget)
    with pytest.raises(BudgetExceeded, match=f"^enumeration of {size} points exceeds {size - 1}$"):
        check_window(n, w.shells, size - 1)
    if N >= 1:
        total = (2 * N + 1) ** n
        with pytest.raises(BudgetExceeded, match=f"^enumeration of {total} points exceeds {total - 1}$"):
            equidist._check_horizon(n, N, total - 1)


def refusal(fn, *args):
    """A result or the words of the BudgetExceeded it raised."""
    try:
        return ("ok", fn(*args))
    except BudgetExceeded as exc:
        return ("raise", str(exc))


def exhausted_scan(n, shells, budget):
    """The points of a scan run to its end, as `scan` charges them."""
    return sum(shell_size(n, s) for s, _ in scan(n, shells, budget))


@st.composite
def budgeted_windows(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    start = draw(st.integers(min_value=0, max_value=6))
    shells = range(start, start + draw(st.integers(min_value=1, max_value=6)))
    return n, shells, draw(st.integers(min_value=-3, max_value=window_points(n, shells) + 3))


@settings(max_examples=300, deadline=None)
@given(case=budgeted_windows())
@example(case=(3, range(3, 6), 27))
@example(case=(1, range(0, 1), -3))
def test_check_window_refuses_where_scan_does(case):
    # the up-front refusal is scan's, count and words: that of the first
    # shell whose running count passes the budget, not the whole window
    assert refusal(check_window, *case) == refusal(exhausted_scan, *case)


def brute_order(d, s, thr):
    """d against thr, or against psi(s) for a psi thr: a table's value
    exactly, c s^-a on cross-powers, and enclosures of c s^-a max(ln s, 1)^-beta
    at 80, 160 and 320 bits otherwise."""
    if isinstance(thr, TablePsi):
        return compare(d, thr.value_at(s))
    if not isinstance(thr, PowerLog):
        return compare(d, thr)
    if thr.beta == 0:
        p, r = thr.a.numerator, thr.a.denominator
        return compare(ex_pow(d, r) * F(s**p), thr.c**r)
    for bits in (80, 160, 320):
        c = compare(d, RatInterval(*old_value_bounds(thr, s, bits)))
        if c.decided:
            break
    return c


def brute_within(A, shells, budget, thr, b, closed):
    """Every point of the walk compared exactly, in scan order."""
    for s, shell in scan(A.n, shells, budget):
        for q in shell:
            c = brute_order(dist_to_int_vec([v - t for v, t in zip(A.apply(q), b)] if b else A.apply(q)), s, thr)
            if not c.decided:
                raise PrecisionExhausted(f"undecided at {q}")
            if c is Ordering.LESS or (closed and c is Ordering.EQUAL):
                yield s, q, c


def walk(hits):
    """The hits before the walk ended, and the type of the error that ended it."""
    seen = []
    try:
        seen.extend(hits)
    except DiophlabError as exc:
        return seen, type(exc)
    return seen, None


def thresholds(A, points, b):
    """A Fraction, a Quadratic in A's field (Q(sqrt 5) for a rational or CF
    matrix), a Radical of either, and, for exact entries, the distance of a
    scanned point or a root of its power, which that point meets exactly."""
    fracs = st.fractions(min_value=F(1, 3000), max_value=F(1, 2), max_denominator=3000)
    quads = st.tuples(
        st.fractions(min_value=0, max_value=F(1, 8), max_denominator=64),
        st.fractions(min_value=F(1, 400), max_value=F(1, 8), max_denominator=400),
    ).map(lambda ab: quadratic(ab[0], ab[1], A.radicand or 5))
    small = st.fractions(min_value=F(1, 10**5), max_value=F(1, 4), max_denominator=10**5)
    radicals = st.tuples(st.one_of(small, quads), st.integers(min_value=1, max_value=3)).map(
        lambda xk: Radical(xk[0], xk[1])
    )
    values = st.one_of(fracs, quads, radicals)
    if A.has_cf or not points:
        return values
    dists = st.sampled_from(points).map(lambda q: A.dist(q, b))
    roots = st.tuples(dists, st.integers(min_value=2, max_value=3)).map(
        lambda dk: Radical(ex_pow(dk[0], dk[1]), dk[1])
    )
    return st.one_of(values, dists, roots)


def psi_thresholds(A, points, b):
    """PowerLog psis with beta = 0 (a in {1/2, 1, 2}) and beta != 0, and
    tables; for rational entries, also a table or a PowerLog with beta = 0
    whose value at a scanned point's shell is that point's distance."""
    powerlogs = st.builds(
        PowerLog,
        st.fractions(min_value=F(1, 1000), max_value=F(2), max_denominator=1000),
        st.sampled_from([F(1, 2), F(1), F(2)]),
        st.sampled_from([F(0), F(1), F(1, 2)]),
    )
    psis = st.one_of(powerlogs, st.sampled_from([p for p in PSIS if isinstance(p, TablePsi)]))
    if A.radicand is not None or A.has_cf:
        return psis
    met = []
    for q in points:
        s, d = max(map(abs, q)), A.dist(q, b)
        if s and d:
            met += [TablePsi([(0, d + F(1, 7)), (s, d)]), PowerLog(d * s, F(1), F(0)), PowerLog(d * s * s, F(2), F(0))]
            if isqrt(s) ** 2 == s:
                met.append(PowerLog(d * isqrt(s), F(1, 2), F(0)))
    return st.one_of(st.sampled_from(met), psis) if met else psis


@settings(max_examples=200, deadline=None)
@given(
    key=st.sampled_from(sorted(MATRICES)),
    data=st.data(),
    lu=st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=25)),
    closed=st.booleans(),
    budget=st.sampled_from([30, 1 << 22]),
)
def test_within_matches_brute_force(key, data, lu, closed, budget):
    A = MATRICES[key]
    lo, du = lu if A.n == 1 else (min(lu[0], 3), min(lu[1], 4))
    shells = range(lo, lo + du)
    b = data.draw(st.one_of(st.none(), targets(A.m)))
    points = [q for s in shells[:3] for q in iter_shell(A.n, s)]
    if data.draw(st.booleans()):
        thr = data.draw(psi_thresholds(A, points, b))
        shells = range(max(lo, 1), lo + du)  # a psi is defined on [1, oo)
    else:
        thr = data.draw(thresholds(A, points, b))
    got = walk(within(A, shells, budget, thr, b, closed))
    assert got == walk(brute_within(A, shells, budget, thr, b, closed))
    for _, _, c in got[0]:
        assert c is Ordering.LESS or (closed and c is Ordering.EQUAL)


def test_within_refuses_a_threshold_from_another_field():
    cases = [
        ("golden", quadratic(F(0), F(1, 8), 2)),
        ("q12", Radical(quadratic(F(0), F(1, 9), 5), 2)),
        ("q21", Radical(Radical(quadratic(F(1), F(1, 9), 3), 2), 3)),
    ]
    for key, thr in cases:
        # refused before any point is scanned, even on an empty walk
        with pytest.raises(UnsupportedEntry):
            next(within(MATRICES[key], range(0), 10, thr))



def test_walks_refuse_a_target_from_another_field():
    # the bounds of a sqrt(5) target would decide points of a sqrt(2)
    # matrix that exact arithmetic refuses to subtract
    b = (quadratic(F(0), F(1, 9), 5),)
    with pytest.raises(UnsupportedEntry):
        next(within(MATRICES["q12"], range(0), 10, F(1, 3), b))
    with pytest.raises(UnsupportedEntry):
        next(records(MATRICES["sqrt2"], range(0), 10, lambda s, d: d, b))

def test_within_takes_values_not_callbacks():
    assert list(inspect.signature(within).parameters) == ["A", "shells", "budget", "thr", "b", "closed"]


def test_within_closed_psi_keeps_its_boundary():
    # ||+-1/3||_Z = 1/3 = psi(1); ||+-2/3||_Z = 1/3 > psi(2) = 1/6
    A = MATRICES["third"]
    for psi in (PowerLog(F(1, 3), F(1), F(0)), TablePsi([(0, F(1, 2)), (1, F(1, 3)), (2, F(1, 6))])):
        assert list(within(A, range(1, 3), 100, psi)) == []
        assert list(within(A, range(1, 3), 100, psi, closed=True)) == [
            (1, (-1,), Ordering.EQUAL),
            (1, (1,), Ordering.EQUAL),
        ]


def test_within_decides_psi_exactly_where_the_log_clamps():
    # max(ln 2, 1) = 1, so with beta = 1 psi(2) = 2^(-1/2) / 2 = sqrt(2)/4,
    # which equals ||2 sqrt 2 - 7 sqrt 2 / 4||_Z: a boundary the 80 -> 320-bit
    # enclosures of psi(2) could never decide
    A, b = MATRICES["sqrt2"], (quadratic(F(0), F(7, 4), 2),)
    want = [(2, (-2,), Ordering.LESS), (2, (2,), Ordering.EQUAL)]
    for beta in (F(1), F(0)):
        assert list(within(A, range(2, 3), 100, PowerLog(F(1, 2), F(1, 2), beta), b, closed=True)) == want


def test_psi_walk_encloses_no_shell_past_its_hit(monkeypatch):
    # psi's per-shell bounds are drawn in step with the scan: a witness at
    # shell 323 of Window(1, 4096) encloses shells 2..323 once each
    drawn = []
    scaled_bounds = PowerLog.scaled_bounds

    def spy(self, qs, shift):
        return scaled_bounds(self, (drawn.append(q) or q for q in qs), shift)

    monkeypatch.setattr(PowerLog, "scaled_bounds", spy)
    q = psi_witness(MATRICES["golden"], (F(3, 8),), PowerLog(F(1, 4), F(1), F(1)), Window(1, 4096))
    assert q.norm == 323
    assert drawn == list(range(2, 324))
    # within itself, over a window of 10^6 shells: a hit at shell 1 draws
    # psi(1) alone
    drawn.clear()
    hit = next(within(MATRICES["golden"], range(1, 10**6), 1 << 22, PowerLog(F(1, 2), F(1), F(0)), (F(1, 3),)))
    assert hit == (1, (-1,), Ordering.LESS)
    assert drawn == [1]


# ---------------------------------------------------------------------------
# the sorted-centre index of a window against the walk it replaces
# ---------------------------------------------------------------------------

# every shape up to 2 x 2, with a quadratic 2 x 2 beside the others
INDEX_MATRICES = {**MATRICES, "q22": ApproxMatrix([[SQRT2, F(1, 3)], [Q12_B, quadratic(F(0), F(2, 5), 2)]])}


def first_walk_hit(A, shells, budget, thr, b, closed):
    return next(within(A, shells, budget, thr, b, closed), None)


@settings(max_examples=200, deadline=None)
@given(
    key=st.sampled_from(sorted(INDEX_MATRICES)),
    data=st.data(),
    lu=st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=25)),
    closed=st.booleans(),
)
def test_centre_index_first_hits_match_the_walks(key, data, lu, closed):
    A = INDEX_MATRICES[key]
    lo, du = lu if A.n == 1 else (min(lu[0], 3), min(lu[1], 4))
    bs = data.draw(st.lists(st.one_of(st.none(), targets(A.m)), min_size=1, max_size=6))
    points = [q for s in range(lo, lo + 3) for q in iter_shell(A.n, s)]
    psi = data.draw(st.booleans())
    if psi:
        thr = data.draw(psi_thresholds(A, points, bs[0]))
        lo = max(lo, 1)  # a psi is defined on [1, oo)
    else:
        thr = data.draw(thresholds(A, points, bs[0]))
    shells, budget = range(lo, lo + du), 1 << 22
    want = [outcome(first_walk_hit, A, shells, budget, thr, b, closed) for b in bs]
    # the index alone, for every target
    index = centre_index(A, shells, budget, thr, closed)
    assert [outcome(index, b) for b in bs] == want
    # the batch, walks then the index, up to the first error
    got, err = walk(first_hits(A, shells, budget, thr, bs, closed))
    assert [("ok", hit) for _, hit in got] + ([("raise", err)] if err else []) == want[: len(got) + bool(err)]
    assert [b for b, _ in got] == [A.target(b) for b in bs[: len(got)]]
    # the counts of limsup._hits over a window, against one walk per target
    bs = [b for b in bs if b is not None]
    if bs and (psi or not A.irrational_line):
        w = Window(max(lo, 1) - 1, lo + du)
        want = outcome(lambda: sum(first_walk_hit(A, w.shells, budget, thr, b, False) is not None for b in bs))
        assert outcome(lambda: limsup._hits(A, w, thr, bs, budget)) == want


def count_builds(monkeypatch):
    """The list of windows a centre index is built over, as first_hits builds them."""
    built = []

    def spy(A, shells, *args):
        built.append(shells)
        return centre_index(A, shells, *args)

    monkeypatch.setattr(lattice, "centre_index", spy)
    return built


def test_a_window_over_budget_keeps_its_walks(monkeypatch):
    # 40 targets hitting in a window of 201 points: the walks pay for an
    # index, but only a budget that holds the window builds it
    A, shells, thr = MATRICES["golden"], range(101), F(1, 20)
    bs = [sample_point(2, i, 1) for i in range(40)]
    want = [(A.target(b), first_walk_hit(A, shells, 1 << 22, thr, b, True)) for b in bs]
    assert all(hit is not None for _, hit in want)
    assert sum(2 * hit[0] + 1 for _, hit in want[:-1]) >= 201
    built = count_builds(monkeypatch)
    assert list(first_hits(A, shells, 200, thr, bs, True)) == want
    assert built == []
    assert list(first_hits(A, shells, 201, thr, bs, True)) == want
    assert built == [shells]
    # a miss walked over budget raises as its walk does
    with pytest.raises(BudgetExceeded):
        list(first_hits(A, shells, 200, F(1, 10**9), bs, True))
    assert built == [shells]


def test_a_single_target_builds_no_index(monkeypatch):
    # x_cap = 917504, about 2^20: one target walks, however long its walk
    built = count_builds(monkeypatch)
    rep = verify_corollary_3_3(MATRICES["golden"], F(2, 5), 19, [sample_point(1, 0, 1)], check_level=False)
    assert floor_exact(rep.X1) == 917504 and rep.all_ok
    assert built == []
    # two early hits on a huge window pay for no index; a miss costs the
    # whole window, so the target after it is served by one
    list(first_hits(MATRICES["golden"], range(1 << 20), 1 << 22, F(1, 4), [(F(1, 2),), (F(1, 3),)]))
    assert built == []
    list(first_hits(MATRICES["golden"], range(50), 1 << 22, F(1, 10**6), [(F(1, 2),), (F(1, 3),)]))
    assert built == [range(50)]


# ---------------------------------------------------------------------------
# differential tests of the migrated searches
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    key=st.sampled_from(sorted(MATRICES)),
    Q=st.integers(min_value=1, max_value=40),
    budget=st.sampled_from([30, 1 << 22]),
)
def test_bad_witness_matches_old_loop(key, Q, budget):
    A = MATRICES[key]
    Q = Q if A.n == 1 else min(Q, 6)

    def norm(res):
        key_, q = res
        key_ = key_.radicand if isinstance(key_, Radical) else key_
        return ((key_.lo, key_.hi) if isinstance(key_, RatInterval) else key_), q

    got = outcome(lambda: norm(bad_witness(A, Q, budget)))
    want = outcome(lambda: norm(old_bad_witness(A, Q, budget)))
    assert got == want


def test_bad_witness_skips_the_cf_mirror_tie():
    # q and -q tie exactly, which a CF entry's enclosures cannot decide;
    # q comes later in its shell, so it can never set a strict record
    A = MATRICES["cf_mid"]
    for key, q in (bad_witness(A, 10), old_bad_witness(A, 10, 1 << 22)):
        assert (key.lo, key.hi, q) == (F(4, 23), F(12, 67), IntVec((-4,)))


@settings(max_examples=25, deadline=None)
@given(
    key=st.sampled_from(["golden", "sqrt2", "q12", "q21", "third", "half_third", "rat21"]),
    Y=st.integers(min_value=1, max_value=60),
    budget=st.sampled_from([25, 1 << 22]),
)
def test_best_approximations_scan_matches_old_loop(key, Y, budget):
    A = MATRICES[key]
    Y = Y if A.m == 1 else min(Y, 8)
    got = outcome(lambda: [(e.y, e.Y, e.M) for e in _best_approximations_scan(A, Y, budget).entries])
    assert got == outcome(old_best_approximations_scan, A, Y, budget)


def test_best_approximations_scan_keeps_records_below_half():
    # the transpose of half_third meets 1/2 at its first point y = -1: a
    # record of the walk, and no best approximation
    A = MATRICES["half_third"]
    assert next(records(A.transpose(), range(1, 4), 100, lambda s, d: d)) == (1, (-1,), F(1, 2))
    assert [(e.y, e.M) for e in _best_approximations_scan(A, 3, 100).entries] == [(IntVec((-2,)), F(1, 3))]


@settings(max_examples=60, deadline=None)
@given(
    key=st.sampled_from(["golden", "sqrt2", "q12", "q21", "third", "half_third", "rat21", "cf_short", "cf_mid"]),
    data=st.data(),
    C=st.fractions(min_value=F(1, 3000), max_value=F(1, 2), max_denominator=3000),
    x_cap=st.integers(min_value=0, max_value=300),
    budget=st.sampled_from([20, 1 << 22]),
)
def test_solve_inhomogeneous_matches_old_loops(key, data, C, x_cap, budget):
    A = MATRICES[key]
    b = data.draw(targets(A.m))
    x_cap = x_cap if A.n == 1 else min(x_cap, 6)
    C_pow = ex_pow(C, A.m)
    got = outcome(solve_inhomogeneous, A, b, Radical(C_pow, A.m), x_cap, budget)
    assert got == outcome(old_solve_inhomogeneous_generic, A, b, C_pow, A.m, x_cap, budget)
    if A.irrational_line and budget > 2 * x_cap + 1:
        # the former 1 x 1 path, where the budget does not bind
        assert got == outcome(old_solve_inhomogeneous_1d, A, b[0], C_pow, A.m, x_cap)


def test_rational_inhomogeneous_exact_hits():
    A = MATRICES["third"]
    # ||q/3 - 1/3||_Z = 0 at q = 1 and C1 = 1/6 < ||1/3||_Z at q = 0
    assert solve_inhomogeneous(A, (F(1, 3),), F(1, 6), F(5)) == IntVec((1,))
    # boundary equality ||0/3 - 1/3||_Z = 1/3 <= C1 is accepted at q = 0
    assert solve_inhomogeneous(A, (F(1, 3),), F(1, 3), F(5)) == IntVec((0,))



def quadratic_targets(A):
    """Targets in the field of A's entries (Q(sqrt 5) for a rational
    matrix), among them Aq for a small q, which that q meets exactly."""
    d = A.radicand or 5
    coord = st.tuples(
        st.fractions(min_value=-1, max_value=1, max_denominator=24),
        st.fractions(min_value=F(-3), max_value=F(3), max_denominator=24).filter(bool),
    ).map(lambda ab: quadratic(ab[0], ab[1], d))
    orbit = st.lists(st.integers(min_value=-4, max_value=4), min_size=A.n, max_size=A.n).map(
        lambda q: tuple(A.apply(q))
    )
    return st.one_of(st.lists(coord, min_size=A.m, max_size=A.m).map(tuple), orbit)


def brute_records(A, shells, budget, b):
    """Every point of the walk at its exact distance, in scan order."""
    best = None
    for s, shell in scan(A.n, shells, budget):
        for q in shell:
            d = A.dist(q, b)
            if best is None or lt(d, best):
                best = d
                yield s, q, d


@settings(max_examples=60, deadline=None)
@given(
    key=st.sampled_from(["golden", "sqrt2", "q12", "q21", "third", "half_third", "rat21"]),
    data=st.data(),
    C=st.fractions(min_value=F(1, 3000), max_value=F(1, 2), max_denominator=3000),
    x_cap=st.integers(min_value=0, max_value=60),
    closed=st.booleans(),
    budget=st.sampled_from([20, 1 << 22]),
)
def test_quadratic_targets_match_brute_force(key, data, C, x_cap, closed, budget):
    # a quadratic b is enclosed as an entry is, in within (and so in
    # solve_inhomogeneous) and in the record walk of estimate_exponents
    A = MATRICES[key]
    b = data.draw(quadratic_targets(A))
    x_cap = x_cap if A.n == 1 else min(x_cap, 5)
    C_pow = ex_pow(C, A.m)
    got = outcome(solve_inhomogeneous, A, b, Radical(C_pow, A.m), x_cap, budget)
    assert got == outcome(old_solve_inhomogeneous_generic, A, b, C_pow, A.m, x_cap, budget)
    shells = range(x_cap + 1)
    # thresholds a scanned point meets exactly put it on the filter's margin
    thr = data.draw(thresholds(A, [q for s in shells[:3] for q in iter_shell(A.n, s)], b))
    assert walk(within(A, shells, budget, thr, b, closed)) == walk(brute_within(A, shells, budget, thr, b, closed))
    assert walk(records(A, shells[1:], budget, lambda s, d: d, b)) == walk(brute_records(A, shells[1:], budget, b))

PSIS = [
    PowerLog(F(1, 2), F(1), F(0)),
    PowerLog(F(1, 50), F(1, 2), F(0)),
    PowerLog(F(1), F(1, 2), F(1)),
    TablePsi([(1, F(1, 5)), (4, F(1, 20)), (9, F(1, 90))]),
]


@settings(max_examples=40, deadline=None)
@given(
    key=st.sampled_from(sorted(MATRICES)),
    psi=st.sampled_from(PSIS),
    data=st.data(),
    lu=st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=24)),
    budget=st.sampled_from([30, 1 << 22]),
)
def test_psi_witness_matches_old_loop(key, psi, data, lu, budget):
    A = MATRICES[key]
    b = data.draw(targets(A.m))
    l, du = lu if A.n == 1 else (min(lu[0], 2), min(lu[1], 3))
    w = Window(l, l + du)
    assert outcome(psi_witness, A, b, psi, w, budget) == outcome(old_psi_witness, A, b, psi, w, budget)


@settings(max_examples=50, deadline=None)
@given(
    key=st.sampled_from(sorted(MATRICES)),
    data=st.data(),
    rho=st.one_of(
        st.fractions(min_value=F(1, 500), max_value=F(3, 4), max_denominator=500),
        st.fractions(min_value=F(1, 10**5), max_value=F(1, 2), max_denominator=10**5).map(
            lambda r: Radical(r, 2)
        ),
        st.sampled_from([F(1, 3), F(1, 6), Radical(F(1, 9), 2), "field"]),
    ),
    lu=st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=24)),
    budget=st.sampled_from([30, 1 << 22]),
)
def test_delta_membership_matches_old_loop(key, data, rho, lu, budget):
    A = MATRICES[key]
    if rho == "field":
        # a radius from the matrix's own quadratic field (the exact
        # comparison refuses to mix two fields)
        rho = Radical(quadratic(F(1, 50), F(1, 30), A.radicand or 5), 3)
    x = data.draw(targets(A.m))
    l, du = lu if A.n == 1 else (min(lu[0], 2), min(lu[1], 3))
    w = Window(l, l + du)
    got = outcome(delta_membership, A, x, rho, w, budget)
    assert got == outcome(old_delta_membership, A, x, rho, w, budget)


def test_delta_membership_radius_one_half_is_strict():
    # q = +-1 lie at distance exactly 1/2 from x = 0, which an open ball of
    # radius 1/2 does not reach; one of radius 3/4 covers the torus
    A, x, w = ApproxMatrix([[F(1, 2)]]), (F(0),), Window(0, 1)
    assert delta_membership(A, x, F(1, 2), w) is old_delta_membership(A, x, F(1, 2), w) is False
    assert delta_membership(A, x, F(3, 4), w) is old_delta_membership(A, x, F(3, 4), w) is True


# the CF of criterion 10, a_k = 2^(2^k), whose records reach 2^63
CF_FAST = ApproxMatrix([[CFReal((0, 4, 16, 256, 65536, 2**32, 2**64, 2**128))]])
# records Y = 1, 2, 7 with gamma_1^2 = 1, U_1 = 2 and V_1 = 7: rational
# values that land inside their own boxes, so the exact margin of every
# counterpart comparison runs
THREE_SEVENTHS = ApproxMatrix([[F(3, 7)]])
COUNTERPART_MATRICES = {**MATRICES, "cf_fast": CF_FAST, "three_sevenths": THREE_SEVENTHS}
# records to the certified horizon of each CF, to 400 (12 for q12 and q21)
# otherwise; q21's transpose fails the rank check and 3/7 is rational, so
# theirs come from the record scan itself
PROP51_BEST = {
    key: best_approximations(A, Y)
    for key, A, Y in [
        ("golden", MATRICES["golden"], 400),
        ("sqrt2", MATRICES["sqrt2"], 400),
        ("q12", MATRICES["q12"], 12),
        ("cf_mid", MATRICES["cf_mid"], 22),
        ("cf_fast", CF_FAST, 2**63),
    ]
} | {
    "q21": _best_approximations_scan(MATRICES["q21"], 12, 1 << 22),
    "three_sevenths": _best_approximations_scan(THREE_SEVENTHS, 7, 1 << 22),
}


@settings(WITH_FIXTURE, max_examples=25)
@given(
    key=st.sampled_from(sorted(PROP51_BEST)),
    data=st.data(),
    alpha=st.sampled_from([F(11, 10), F(3, 2), F(5, 2), F(4)]),
    lu=st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=10)),
    stride=st.sampled_from([1, 7, 97]),
    budget=st.sampled_from([20, 1 << 22]),
)
@example(key="cf_fast", data=None, alpha=F(11, 10), lu=(4, 60), stride=97, budget=1 << 22)
@example(key="cf_fast", data=None, alpha=F(3, 2), lu=(0, 9), stride=7, budget=1 << 22)
@example(key="cf_mid", data=None, alpha=F(3, 2), lu=(0, 22), stride=7, budget=1 << 22)
@example(key="three_sevenths", data=None, alpha=F(3, 2), lu=(1, 5), stride=1, budget=1 << 22)
@example(key="three_sevenths", data=None, alpha=F(5, 2), lu=(1, 6), stride=7, budget=1 << 22)
def test_verify_prop_5_1_matches_old_loop(monkeypatch, key, data, alpha, lu, stride, budget):
    A = COUNTERPART_MATRICES[key]
    b = sample_point(13, lu[0], A.m) if data is None else data.draw(targets(A.m))
    l, du = lu if A.n == 1 else (min(lu[0], 2), min(lu[1], 2))
    w = Window(l, l + du)
    best = PROP51_BEST[key]
    # b_alpha_test is vacuous in 1D; bypass it so the scan itself is compared
    monkeypatch.setattr(analysis, "b_alpha_test", lambda *args: True)
    monkeypatch.setattr(analysis, "SPOT_CHECK_STRIDE", stride)
    got = outcome(
        lambda: (lambda r: (r.binding, r.violations, r.spot_checks))(
            verify_prop_5_1(A, b, alpha, best, w, budget)
        )
    )
    want = outcome(old_verify_prop_5_1_scan, A, b, alpha, best, w, budget, stride)
    if alpha <= A.n:
        assert got == ("raise", ValueError)
    else:
        assert got == want


def holds_at_both_ends(A, b, q, y):
    """The old check on the two rational ends of a 1 x 1 CF entry's
    enclosure.  Where each residue keeps its nearest integer and its sign
    over the enclosure, the right-hand side is affine in the entry, so
    holding at both ends it holds for every value between them."""
    return all(old_key_inequality_check(ApproxMatrix([[x]]), b, q, y) for x in A.rows[0][0].enclosure())


def agrees_with_old_key_check(A, b, q, y):
    """The library check's outcome is the old one's, except that a CF tie
    the old one raises on may now hold, which its two ends must confirm."""
    got = outcome(key_inequality_check, A, b, q, y)
    want = outcome(old_key_inequality_check, A, b, q, y)
    if got != want:
        assert A.has_cf and want == ("raise", PrecisionExhausted) and got == ("ok", True)
        assert holds_at_both_ends(A, b, q, y)
    return got


@contextmanager
def exact_compares():
    """Count of the exact comparisons analysis makes while the block runs."""
    n = [0]

    def counting(*args):
        n[0] += 1
        return compare(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "compare", counting)
        yield n


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(sorted(PROP51_BEST)), data=st.data(), record=st.booleans())
def test_key_inequality_matches_old_check(key, data, record):
    A = COUNTERPART_MATRICES[key]
    b = data.draw(targets(A.m))
    q = IntVec(tuple(data.draw(st.lists(st.integers(-60, 60), min_size=A.n, max_size=A.n))))
    if record:
        y = data.draw(st.sampled_from(PROP51_BEST[key].entries)).y
    else:
        y = IntVec(tuple(data.draw(st.lists(st.integers(-30, 30), min_size=A.m, max_size=A.m))))
    agrees_with_old_key_check(A, b, q, y)


@settings(max_examples=80, deadline=None)
@given(
    key=st.sampled_from(sorted(PROP51_BEST)),
    data=st.data(),
    alpha=st.sampled_from([F(1, 10), F(1, 2), F(11, 10), F(3, 2), F(-1, 3)]),
)
def test_b_alpha_test_matches_old_loop(key, data, alpha):
    A, best = COUNTERPART_MATRICES[key], PROP51_BEST[key]
    b = data.draw(targets(A.m))
    ks = data.draw(st.lists(st.integers(0, len(best.entries)), max_size=4))
    got = outcome(b_alpha_test, b, best, alpha, ks, A.m, A.n)
    assert got == outcome(old_b_alpha_test, b, best, alpha, ks, A.m, A.n)


def test_dist_enclosure_boxes_the_distance_at_the_line_shift():
    # integers at line.shift, which a matrix and its transpose share
    for key, A in sorted(COUNTERPART_MATRICES.items()):
        assert A.transpose().line.shift == A.line.shift
        for i, q in enumerate(islice(iter_shell(A.n, 5), 6)):
            b = sample_point(31, i, A.m)
            lo, hi = A.dist_enclosure(q, b)
            d_lo, d_hi = enclose(A.dist(q, b), 2 * A.line.shift)
            assert isinstance(lo, int) and isinstance(hi, int)
            assert F(lo, 1 << A.line.shift) <= d_lo and d_hi <= F(hi, 1 << A.line.shift), key


def old_order(x, box, exact):
    """analysis._order as it was: a box of two Fractions, x placed by its
    enclosure at COUNTERPART_BITS."""
    lo, hi = box
    x_lo, x_hi = enclose(x, analysis.COUNTERPART_BITS)
    if x_hi < lo:
        return Ordering.LESS
    if x_lo > hi:
        return Ordering.GREATER
    return numeric._decided(compare(x, exact()))


@functools.cache
def order_cases():
    """(v, Fraction box, integer box, shift) of every box _order is given:
    the table's g_k, U_k and V_k, gamma_k^(m+n) alpha^(m+n) as
    b_alpha_test boxes it (alpha = 11/10 puts 121/100 on a 1 x 1 gamma_k,
    and -1/3 a negative factor on q12's), and distances as the key
    inequality boxes them; the integer boxes computed apart from analysis."""
    bits = analysis.COUNTERPART_BITS
    cases = []
    for key, best in sorted(PROP51_BEST.items()):
        A = COUNTERPART_MATRICES[key]
        for c in analysis._counterparts(best, A.m, A.n):
            for v in (c.g, c.U, c.V):
                lo, hi = enclose(v, bits)
                cases.append((v, (lo, hi), (math.floor(lo * 2**bits), math.ceil(hi * 2**bits)), bits))
            for alpha in (F(11, 10), F(-1, 3)):
                a = alpha ** (A.m + A.n)
                lo, hi = enclose(c.g, bits)
                g_lo, g_hi = math.floor(lo * 2**bits), math.ceil(hi * 2**bits)
                if a < 0:
                    lo, hi, g_lo, g_hi = hi, lo, g_hi, g_lo
                cases.append((c.g * a, (lo * a, hi * a), (math.floor(g_lo * a), math.ceil(g_hi * a)), bits))
        for i, q in enumerate(islice(iter_shell(A.n, 3), 4)):
            b = sample_point(29, i, A.m)
            lo, hi = A.dist_enclosure(q, b)
            shift = A.line.shift
            cases.append((A.dist(q, b), (F(lo, 1 << shift), F(hi, 1 << shift)), (lo, hi), shift))
    return cases


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    end=st.sampled_from(["lo", "hi", "mid"]),
    eps=st.sampled_from([F(0), F(1, 3 << 64)] + [F(1, 1 << j) for j in (40, 63, 64, 65, 70, 96, 97, 120, 200)]),
    side=st.sampled_from([-1, 1]),
    kind=st.sampled_from(["rational", "quadratic", "interval", "cf"]),
)
@example(data=None, end="lo", eps=F(1, 1 << 70), side=-1, kind="rational")
def test_order_on_the_integer_box_matches_the_fraction_box(data, end, eps, side, kind):
    cases = order_cases()
    if data is None:
        # the rational gamma_1^2 of the records of 3/7 times 121/100: box
        # ends that are not dyadic, so the integer box is wider
        g = analysis._counterparts(PROP51_BEST["three_sevenths"], 1, 1)[0].g
        v, fbox, ibox, shift = next(case for case in cases if case[0] == g * F(121, 100))
    else:
        v, fbox, ibox, shift = data.draw(st.sampled_from(cases))
    lo, hi = fbox
    # the integer box holds the Fraction box: outward rounding only widens
    assert ibox[0] <= lo * 2**shift and hi * 2**shift <= ibox[1]
    c = {"lo": lo, "hi": hi, "mid": (lo + hi) / 2}[end] + side * eps
    e = eps or F(1, 1 << 80)
    x = {
        "rational": lambda: c,
        # c + (sqrt(d) - 1) e, in v's field when it has one
        "quadratic": lambda: Quadratic(c - e, e, numeric._field([v]) or 2),
        "interval": lambda: RatInterval(c - eps, c + eps),
        "cf": lambda: CFReal(tuple(lattice.continued_fraction(c, 12).quotients)),
    }[kind]()
    want = outcome(old_order, x, fbox, lambda: v)
    assert outcome(analysis._order, x, ibox, shift, lambda: v) == want


def test_exact_margins_run_only_inside_the_boxes(monkeypatch):
    # key inequality: Aq = b, and q = 0 with y = 1, are ties of both sides
    golden = MATRICES["golden"]
    for A, b, q, y, exact in [
        (THREE_SEVENTHS, (F(3, 7),), (1,), (1,), 1),
        (golden, sample_point(1, 0, 1), (0,), (1,), 1),
        (golden, sample_point(1, 0, 1), (5,), (2,), 0),
    ]:
        with exact_compares() as n:
            got = key_inequality_check(A, b, IntVec(q), IntVec(y))
        assert got is old_key_inequality_check(A, b, IntVec(q), IntVec(y)) is True
        assert n[0] == exact
    # b_alpha: ||(1/4) y_1||_Z = 1/2 gamma_1 exactly for the records of 3/7
    best = PROP51_BEST["three_sevenths"]
    analysis._counterparts(best, 1, 1)  # its gamma_k are compared while built
    for b, alpha, exact in [((F(1, 4),), F(1, 2), 1), ((F(1, 5),), F(1, 2), 0), ((F(1, 4),), F(1, 3), 0)]:
        with exact_compares() as n:
            got = b_alpha_test(b, best, alpha, [1])
        assert got is old_b_alpha_test(b, best, alpha, [1])
        assert n[0] == exact
    # Prop. 5.1: the shells s = 2 = U_1 and s = 7 = V_1 are compared
    # exactly, no other; no spot check runs
    monkeypatch.setattr(analysis, "b_alpha_test", lambda *args: True)
    monkeypatch.setattr(analysis, "SPOT_CHECK_STRIDE", 10**6)
    b = (F(1, 3),)
    for w, exact in [(Window(1, 6), 1), (Window(2, 6), 0), (Window(5, 7), 1)]:
        with exact_compares() as n:
            got = outcome(lambda: verify_prop_5_1(THREE_SEVENTHS, b, F(3, 2), best, w, 1 << 22).binding)
        want = outcome(lambda: old_verify_prop_5_1_scan(THREE_SEVENTHS, b, F(3, 2), best, w, 1 << 22, 10**6)[0])
        assert got == want
        assert n[0] == exact
    # golden's binding is decided by the boxes alone
    best = best_approximations(golden, 10**6)
    analysis._counterparts(best, 1, 1)
    with exact_compares() as n:
        report = verify_prop_5_1(golden, b, F(3, 2), best, Window(100, 1000), 1 << 22)
    assert n[0] == 0 and report.k_range == [8, 9, 10, 11, 12, 13]


def test_key_inequality_decides_the_cf_ties():
    # the benchmark's key_inequality draws at seed 1, on the CF of
    # criterion 10 with records to 10^6: the old check raised on the
    # 11 tight ones, among them q = -2, y = -4
    A = ApproxMatrix([[CFReal((0, 4, 16, 256, 65536, 2**32, 2**64, 2**128))]])
    ents = best_approximations(A, 10**6).entries
    mended = []
    for i in range(1500):
        t0, t1, t2 = sample_point(1, i, 3)
        q = IntVec((int(t1 * 400) - 200,))
        y = ents[min(int(t2 * len(ents)), len(ents) - 1)].y
        if agrees_with_old_key_check(A, (t0,), q, y) != outcome(old_key_inequality_check, A, (t0,), q, y):
            mended.append((q.coords, y.coords))
    assert len(mended) == 11 and ((-2,), (-4,)) in mended
    # [0; 2, 3, 1] is any real in (3/7, 4/9): the sign of a residue (first
    # case) or a nearest integer (second) is undecided, so both still raise
    A = ApproxMatrix([[CFReal((0, 2, 3, 1))]])
    for q, y, b in [(-12, -9, F(5, 8)), (1, -8, F(3, 7))]:
        args = (A, (b,), IntVec((q,)), IntVec((y,)))
        assert outcome(key_inequality_check, *args) == outcome(old_key_inequality_check, *args) == (
            "raise",
            PrecisionExhausted,
        )


@settings(max_examples=30, deadline=None)
@given(
    key=st.sampled_from(sorted(MATRICES)),
    data=st.data(),
    homogeneous=st.booleans(),
    xs=st.lists(st.integers(min_value=2, max_value=40), min_size=1, max_size=4, unique=True).map(sorted),
    budget=st.sampled_from([40, 1 << 22]),
)
def test_estimate_exponents_matches_old_loop(key, data, homogeneous, xs, budget):
    A = MATRICES[key]
    b = None if homogeneous else data.draw(targets(A.m))
    xs = xs if A.n == 1 else [min(x, 6) for x in xs]
    if len(set(xs)) != len(xs):
        xs = sorted(set(xs))
    if xs[0] < 2:
        return
    got = outcome(lambda: estimate_exponents(A, b, xs, budget).to_json())
    try:
        want = ("ok", old_estimate_exponents(A, b, xs, budget))
    except (DiophlabError, ValueError) as exc:
        want = ("raise", type(exc))
    except TypeError:
        want = None  # the exact-hit crash
    rows_hit = want is None or (want[0] == "ok" and any(r.get("what", 0) is None for r in want[1]["table"]))
    if not rows_hit:
        assert got == want
        return
    # exact homogeneous hits: recorded as "exact_hit" and counted as +oo
    assert got[0] == "ok"
    table = got[1]["table"]
    exps = [r["what"] for r in table if "what" in r]
    assert "exact_hit" in exps
    tail = exps[len(exps) // 2 :]
    finite = [e for e in tail if e != "exact_hit"]
    assert got[1]["what_hat"] == (min(finite) if finite else "exact_hit")



def test_exponent_walk_errors_come_in_horizon_order():
    # q21's inhomogeneous walk (dimension 1) runs out of budget at shell 21,
    # its transpose walk (dimension 2) at shell 3: a scan per horizon meets
    # the error of the earliest horizon either walk blocks first, the
    # inhomogeneous walk's on a tie
    A, b = MATRICES["q21"], (F(1, 3), F(1, 3))
    for xs, total in (([2, 22], 42), ([4, 22], 48)):
        with pytest.raises(BudgetExceeded, match=f"enumeration of {total} points exceeds 40"):
            estimate_exponents(A, b, xs, 40)
        assert outcome(old_estimate_exponents, A, b, xs, 40) == ("raise", BudgetExceeded)
    # cf_mid's CF records to 22 are certified, so only the budget of its
    # inhomogeneous walk stops it
    A, b = MATRICES["cf_mid"], sample_point(5, 0, 1)
    with pytest.raises(BudgetExceeded):
        estimate_exponents(A, b, [2, 22], 40)
    assert outcome(old_estimate_exponents, A, b, [2, 22], 40) == ("raise", BudgetExceeded)


def test_exponents_read_records_below_the_largest_horizon():
    # cf_mid certifies its records to 22, and a horizon of 23 reads only
    # those with Y < 23
    A = MATRICES["cf_mid"]
    with pytest.raises(PrecisionExhausted):
        best_approximations(A, 23)
    est = estimate_exponents(A, None, [2, 23])
    M = [e.M for e in best_approximations(A, 22).entries if e.Y < 23][-1]
    assert est.table[-1] == {"X": 23, "what": analysis._exponent(M, 23)}
    assert round(est.table[-1]["what"], 4) == 1.0818


def test_exponents_rational_line_is_all_exact_hits():
    est = estimate_exponents(MATRICES["third"], None, [4, 8, 16])
    assert est.what_hat == math.inf
    assert [r["what"] for r in est.table] == ["exact_hit"] * 3
    assert est.to_json()["what_hat"] == "exact_hit"


@pytest.mark.parametrize("exc", [RankDeficient, PrecisionExhausted, ZeroDivisionError])
def test_exponents_catch_only_precision(monkeypatch, exc):
    # an irrational line reads its CF records, which raise only
    # PrecisionExhausted past a CF entry's certified reach
    def broken(*args):
        raise exc("no records")

    monkeypatch.setattr("diophlab.analysis.best_approximations", broken)
    if exc is not PrecisionExhausted:
        with pytest.raises(exc):
            estimate_exponents(MATRICES["golden"], None, [4, 8])
    else:
        # without records the homogeneous exponent comes from the shell scan
        assert estimate_exponents(MATRICES["golden"], None, [4, 8]).what_hat is not None



# ---------------------------------------------------------------------------
# exact fallbacks of the filtered walks
# ---------------------------------------------------------------------------


DIST = ApproxMatrix.dist


@contextmanager
def counted():
    """Counts of the points walked, the exact distances and the records
    yielded while the block runs."""
    n = {"points": 0, "exact": 0, "records": 0}

    def shell(dim, s):
        for q in iter_shell(dim, s):
            n["points"] += 1
            yield q

    def dist(*args):
        n["exact"] += 1
        return DIST(*args)

    def recs(*args, **kwargs):
        for r in records(*args, **kwargs):
            n["records"] += 1
            yield r

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "iter_shell", shell)
        mp.setattr(ApproxMatrix, "dist", dist)
        mp.setattr(lattice, "records", recs)
        yield n


@settings(max_examples=20, deadline=None)
@given(
    key=st.sampled_from(["q12", "q21"]),
    delta=st.sampled_from([F(1, 1000), F(1, 100), F(1, 10)]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_psi_witness_falls_back_on_under_1_percent(key, delta, seed):
    A = MATRICES[key]
    psi = PowerLog(delta, F(A.n, A.m), F(0))
    with counted() as n:
        for i in range(10):
            psi_witness(A, sample_point(seed, i, A.m), psi, Window(1, 8))
    assert n["points"] > 0 and 100 * n["exact"] < n["points"]


def test_verify_prop_5_1_counts_the_boundary_as_a_violation(monkeypatch):
    # ||q|| ||q/3||_Z = 4/3 = alpha - 1 at q = +-4 for alpha = 7/3: the
    # inequality is strict, so these fail it; golden's records supply the
    # binding k, which the scan itself does not read
    monkeypatch.setattr(analysis, "b_alpha_test", lambda *args: True)
    best = best_approximations(MATRICES["golden"], 144)
    args = (MATRICES["third"], (F(0),), F(7, 3), best, Window(3, 6), 1 << 22)
    _, want, _ = old_verify_prop_5_1_scan(*args, 97)
    assert verify_prop_5_1(*args).violations == want == [(-4,), (4,), (-6,), (6,)]


@pytest.mark.parametrize("alpha", [F(3, 2), F(5, 2)])
def test_verify_prop_5_1_computes_under_1_percent_of_distances(monkeypatch, alpha):
    # the threshold walk is filtered, and the spot checks take only indices
    monkeypatch.setattr(analysis, "b_alpha_test", lambda *args: True)
    monkeypatch.setattr(analysis, "key_inequality_check", lambda *args: True)
    A = MATRICES["golden"]
    best = best_approximations(A, 1000)
    w = Window(10, 200)
    with counted() as n:
        report = verify_prop_5_1(A, sample_point(3, 0, 1), alpha, best, w)
    assert report.spot_checks == 380 // 97
    assert 100 * n["exact"] <= 380


@settings(max_examples=20, deadline=None)
@given(key=st.sampled_from(["q12", "q21"]), Q=st.integers(min_value=1, max_value=12))
def test_record_walks_compute_records_and_at_most_two_more(key, Q):
    A = MATRICES[key]
    # the scan itself: q21's transpose fails best_approximations' rank check
    for run in (lambda: bad_witness(A, Q), lambda: _best_approximations_scan(A, 2 * Q, 1 << 22)):
        with counted() as n:
            run()
        assert n["exact"] <= n["records"] + 2

# ---------------------------------------------------------------------------
# per-target verdicts of the single-index 1 x 1 testers
# ---------------------------------------------------------------------------


# the hit counter, saved before captured_tester patches it: a Hypothesis
# test keeps one monkeypatch fixture across its examples, so a copy taken
# at patch time could be an earlier spy
HITS = limsup._hits


def captured_tester(monkeypatch, run):
    """(tester, targets) of the one `_hits` call of measure_W / measure_Bad
    / coverage: the targets it is handed, and `_hits` on one of them."""
    seen = {}

    def spy(A, w, thr, targets, budget):
        seen["fn"] = lambda b: HITS(A, w, thr, [b], budget) == 1
        seen["items"] = list(targets)
        return HITS(A, w, thr, seen["items"], budget)

    monkeypatch.setattr(limsup, "_hits", spy)
    try:
        run()
    except PrecisionExhausted:
        pass  # some target is undecidable; its outcome is compared below
    return seen["fn"], seen["items"]


def old_witness_index(A, psi, w):
    """The former 1 x 1 measure tester: one index for exact psi values, an
    inner/outer pair of indices otherwise, each the merge-based reference
    union."""
    line = Line1D(A.rows[0][0])

    def exact_check(b):
        for s in w.shells:
            for q in (-s, s):
                d = dist_to_int(A.apply((q,))[0] - b)
                if old_lt_value(psi, d, s):
                    return True
        return False

    bounds = [(s, old_value_bounds(psi, s)) for s in w.shells]
    if all(lo == hi for _, (lo, hi) in bounds):
        index = ReferenceUnion(line, [(s, lo) for s, (lo, _) in bounds], exact_check)
        return lambda b: index.contains(b[0])
    inner = ReferenceUnion(line, [(s, lo) for s, (lo, _) in bounds], exact_check)
    outer = ReferenceUnion(line, [(s, hi) for s, (_, hi) in bounds], exact_check)
    return lambda b: inner.contains(b[0]) or (outer.contains(b[0]) and exact_check(b[0]))


def agree(test, old_test, generic, pts):
    """Verdicts equal those of the former tester, and those of the generic
    predicate wherever it decides (it scans points the index never needs)."""
    got = [outcome(test, b) for b in pts]
    assert got == [outcome(old_test, b) for b in pts]
    for g, b in zip(got, pts):
        want = outcome(generic, b)
        if want[0] == "ok":
            assert g == want


@settings(WITH_FIXTURE, max_examples=12)
@given(
    key=st.sampled_from(LINES),
    psi=st.sampled_from(PSIS),
    seed=st.integers(min_value=0, max_value=10**6),
    u=st.integers(min_value=2, max_value=32),
)
def test_measure_W_index_verdicts_match_generic(monkeypatch, key, psi, seed, u):
    A = MATRICES[key]
    w = Window(1, u)
    test, pts = captured_tester(monkeypatch, lambda: measure_W(A, psi, w, 25, seed))
    agree(test, old_witness_index(A, psi, w), lambda b: old_psi_witness(A, b, psi, w) is not None, pts)


@settings(WITH_FIXTURE, max_examples=12)
@given(
    key=st.sampled_from(LINES),
    delta=st.sampled_from([F(1, 100), F(1, 10), F(1, 3)]),
    seed=st.integers(min_value=0, max_value=10**6),
    u=st.integers(min_value=2, max_value=32),
)
def test_measure_Bad_index_verdicts_match_generic(monkeypatch, key, delta, seed, u):
    A = MATRICES[key]
    w = Window(1, u)
    psi = PowerLog(delta, F(1), F(0))
    test, pts = captured_tester(monkeypatch, lambda: measure_Bad(A, delta, w, 25, seed))
    agree(test, old_witness_index(A, psi, w), lambda b: old_psi_witness(A, b, psi, w) is not None, pts)


def test_index_radii_enclose_psi():
    # targets 2^-120 inside and outside psi(3) for q = 3, well within the
    # gap of psi's 80-bit enclosure: an index built from either end of that
    # enclosure alone gets one of them wrong
    A, w = MATRICES["golden"], Window(2, 3)
    psi = PowerLog(F(1, 4), F(1, 2), F(1))
    lo80, hi80 = psi.value_bounds(3)
    lo, hi = old_value_bounds(psi, 3, 320)
    center = enclose(GOLDEN * 3, 200)[0]
    for r, hit in ((lo - F(1, 2**120), True), (hi + F(1, 2**120), False)):
        assert lo80 < r < hi80
        b = (center - r,)
        assert (next(within(A, w.shells, 100, psi, b), None) is not None) is hit
        assert limsup._hits(A, w, psi, [b], 100) == hit


def test_one_dimensional_count_charges_the_budget():
    # a 1 x 1 count is refused up front in scan's words, as every other
    # shape's is: Window(1, 40) passes a budget of 10 at shell 7, 12 points
    A = MATRICES["golden"]

    def counts(u):
        level = limsup.UbiquityLevel(1, F(u), F(1), F(1, 100))
        params = limsup.UbiquityParams(F(1, 4), 1, 1, F(1, 2), F(1, 4), F(1), [level])
        return [
            lambda: measure_W(A, PSIS[2], Window(1, u), 30, seed=3, budget=10),
            lambda: measure_Bad(A, F(1, 100), Window(1, u), 30, seed=3, budget=10),
            lambda: coverage(A, params, ((F(0),), F(1, 8)), 0, 30, seed=3, budget=10).estimate,
        ]

    for count in counts(40):
        with pytest.raises(BudgetExceeded, match=r"^enumeration of 12 points exceeds 10$"):
            count()
    for count in counts(5):
        assert count().window == Window(1, 5)
    with pytest.raises(BudgetExceeded, match=r"^enumeration of 16 points exceeds 10$"):
        measure_W(MATRICES["q12"], PSIS[0], Window(1, 3), 3, seed=3, budget=10)


def test_mixed_fields_refused_up_front():
    # a radius from Q(sqrt 5) against entries from Q(sqrt 2): the filter
    # would decide every point here, the exact comparison none
    rho = Radical(Quadratic(F(-1, 14), F(1, 14), 5), 3)
    with pytest.raises(UnsupportedEntry):
        delta_membership(MATRICES["q12"], sample_point(5, 0, 1), rho, Window(0, 1), 30)
    # the 1 x 1 coverage tester refuses such a radius before its index
    # decides any target
    eps = quadratic(F(0), F(1, 4), 2)
    params = ubiquity_params(return_sequence(MATRICES["sqrt2"], eps, 6), F(4))
    with pytest.raises(UnsupportedEntry):
        coverage(MATRICES["golden"], params, ((F(0),), F(1, 8)), -1, 30, seed=3)


@settings(WITH_FIXTURE, max_examples=8)
@given(
    key=st.sampled_from(LINES),
    eps=st.sampled_from([F(2, 5), F(1, 3), "field"]),
    seed=st.integers(min_value=0, max_value=10**6),
    center=st.fractions(min_value=0, max_value=1, max_denominator=16),
)
# the index certifies q = +-4 within rho where the generic scan stops undecided at q = 3
@example(key="cf_mid", eps="field", seed=0, center=F(0))
def test_coverage_index_verdicts_match_generic(monkeypatch, key, eps, seed, center):
    A = MATRICES[key]
    if eps == "field":
        eps = quadratic(F(0), F(1, 4), A.radicand or 5)  # quadratic radii
    try:
        params = ubiquity_params(return_sequence(A, eps, 6), F(4))
    except (PrecisionExhausted, limsup.InvalidWindow):
        return  # no return sequence to cover
    for idx, lv in enumerate(params.levels):
        w = Window(floor_exact(lv.l), max(floor_exact(lv.u), floor_exact(lv.l) + 1))
        rho = lv.rho(1)
        if floor_exact(lv.l) >= floor_exact(lv.u) or compare(rho, F(1, 2)).kind != "less":
            continue
        test, pts = captured_tester(
            monkeypatch, lambda: coverage(A, params, ((center,), F(1, 8)), idx, 20, seed)
        )

        def generic(b):
            return old_delta_membership(A, b, rho, w)

        if isinstance(rho, F):
            # the former tester: one index over the exact radius
            index = ReferenceUnion(Line1D(A.rows[0][0]), [(s, rho) for s in w.shells], lambda x: generic((x,)))
            agree(test, lambda b: index.contains(b[0]), generic, pts)
        else:
            # a quadratic radius crashed the former tester
            for b in pts:
                want = outcome(generic, b)
                if want[0] == "ok":
                    assert outcome(test, b) == want


# ---------------------------------------------------------------------------
# the 1 x 1 batch decision: one arc of targets answered at once
# ---------------------------------------------------------------------------


ARC_LINES = ["golden", "sqrt2", "cf_short", "cf_mid"]
ARC_THRESHOLDS = PSIS + [F(1, 100), F(1, 7), F(1, 2**90)]
ARC_SAMPLES = 20
SCALE = 1 << 96
# a rational within 2^-100 of 41 golden mod 1
NEAR_41 = F(enclose(GOLDEN * 41, 120)[0] * 2**100 // 1 % 2**100, 2**100)
ARCS = st.one_of(
    st.just(("torus",)),
    st.tuples(
        st.just("ball"),
        st.fractions(min_value=0, max_value=1, max_denominator=64),
        st.fractions(min_value=F(1, 10**6), max_value=F(1, 2), max_denominator=10**6),
    ),
    # half a cell outside the ends of the k-th inner span of the reference
    st.tuples(st.just("edge"), st.integers(min_value=0, max_value=10**6)),
)


def reference_union(A, w, thr):
    """The merge-based union of the window's balls, its sliver decided by an
    exhaustive exact walk, and the radii it was built from."""
    if isinstance(thr, F):
        radii = [(s, thr) for s in w.shells]
        exact = lambda b: old_delta_membership(A, (b,), thr, w)  # noqa: E731
    else:
        radii = list(zip(w.shells, thr.scaled_bounds(w.shells, 96)))
        exact = lambda b: old_psi_witness(A, (b,), thr, w) is not None  # noqa: E731
    return ReferenceUnion(A.line, radii, exact), radii


def arc_ends(arc, ref):
    """[lo, hi) of an arc drawn by ARCS, or None for an edge of no span."""
    if arc[0] == "torus":
        return F(0), F(1)
    if arc[0] == "ball":
        return arc[1] - arc[2], arc[1] + arc[2]
    if not ref.inner or ref.inner == [(0, SCALE)]:
        return None
    s, e = ref.inner[arc[1] % len(ref.inner)]
    return F(2 * s - 1, 2 * SCALE), F(2 * e + 1, 2 * SCALE)


@settings(max_examples=40, deadline=None)
@given(
    key=st.sampled_from(ARC_LINES),
    thr=st.sampled_from(ARC_THRESHOLDS),
    lw=st.tuples(st.integers(min_value=0, max_value=255), st.integers(min_value=1, max_value=256)),
    arc=ARCS,
    seed=st.integers(min_value=0, max_value=10**6),
)
# covered: the inner union is the torus, so no target is drawn
@example(key="golden", thr=PSIS[0], lw=(0, 256), arc=("torus",), seed=0)
# missed: no ball of q <= 4 comes near [1/25, 3/50)
@example(key="golden", thr=F(1, 100), lw=(0, 4), arc=("ball", F(1, 20), F(1, 100)), seed=0)
# split: the arc meets both unions' edges, so each target is queried
@example(key="golden", thr=PSIS[1], lw=(0, 8), arc=("torus",), seed=0)
# every target lies in the ball of q = 41, which the inner union, its
# radius below the centre's error, leaves out
@example(key="golden", thr=F(1, 2**90), lw=(40, 8), arc=("ball", NEAR_41, F(1, 2**93)), seed=0)
# the arc's ends lie half a cell outside an inner span
@example(key="golden", thr=PSIS[1], lw=(0, 8), arc=("edge", 0), seed=0)
def test_arc_decision_matches_per_target_reference(key, thr, lw, arc, seed):
    A = MATRICES[key]
    w = Window(lw[0], min(lw[0] + lw[1], 256))
    ref, radii = reference_union(A, w, thr)
    ends = arc_ends(arc, ref)
    assume(ends is not None)
    lo, hi = ends
    targets = [(lo + (hi - lo) * t,) for (t,) in (sample_point(seed, i, 1) for i in range(ARC_SAMPLES))]
    # a decided arc is decided, by the reference spans alone, for every
    # target in it, its two ends included
    whole = UnionIndex1D(A.line, radii, None).arc(lo, hi)
    if whole is not None:
        assert all(ref.verdict(b) is whole for b in [lo, hi - F(1, 2**120)] + [b for (b,) in targets])
    # the batch count is the per-target count of the reference
    want = outcome(lambda: sum(ref.contains(b) for (b,) in targets))
    sample = limsup._Sample(targets.__getitem__, ARC_SAMPLES, (lo, hi))
    assert outcome(limsup._hits, A, w, thr, sample, 1 << 22) == want
    if isinstance(thr, F):
        level = limsup.UbiquityLevel(0, F(w.u), F(w.l), thr)
        params = limsup.UbiquityParams(F(1, 2), 1, 1, F(1), F(1), F(1), [level])
        ball = (((lo + hi) / 2,), (hi - lo) / 2)
        got = outcome(lambda: coverage(A, params, ball, 0, ARC_SAMPLES, seed).estimate.fraction * ARC_SAMPLES)
        assert got == want
    elif arc[0] == "torus":
        got = outcome(lambda: measure_W(A, thr, w, ARC_SAMPLES, seed).fraction * ARC_SAMPLES)
        assert got == want
        if isinstance(thr, PowerLog) and (thr.a, thr.beta) == (1, 0):
            got = outcome(lambda: ARC_SAMPLES - measure_Bad(A, thr.c, w, ARC_SAMPLES, seed).fraction * ARC_SAMPLES)
            assert got == want
