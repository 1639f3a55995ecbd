"""The scaled-integer fast path may never flip a verdict against exact
arithmetic; these tests drive both sides on the same inputs."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from diophlab import lattice
from diophlab.equidist import counting_report, estimate_equid_constant
from diophlab.errors import BudgetExceeded, PrecisionExhausted
from diophlab.fastpath import (
    Line1D,
    UnionIndex1D,
    scale_fraction,
    threshold_bounds,
)
from diophlab.lattice import (
    ApproxMatrix,
    IntVec,
    iter_shell,
    return_sequence,
    shell_size,
    solve_homogeneous,
)
from diophlab.numeric import (
    CFReal,
    Radical,
    compare,
    dist_to_int,
    dist_to_int_vec,
    ex_pow,
    le,
    lt,
    quadratic,
)
from diophlab.sampling import sample_point
from union_reference import ReferenceUnion, merge_intervals

GOLDEN = quadratic(F(-1, 2), F(1, 2), 5)
SQRT2 = quadratic(F(0), F(1), 2)
Q12_B = quadratic(F(1, 7), F(3), 2)  # (1 + 21 sqrt 2) / 7

# quadratic matrices of each shape, rational ones where exact hits and
# boundary equalities occur, and short CFs whose wide enclosures force the
# exact fallback (and PrecisionExhausted)
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


def test_scale_fraction_floor():
    assert scale_fraction(F(1, 3), 4) == 5  # floor(16/3)
    assert scale_fraction(F(-1, 3), 4) == -6


def test_merge_intervals_wrap():
    # the reference merge the union index is checked against
    spans = merge_intervals([(90, 110), (5, 10), (8, 20)], 100)
    assert spans == [(0, 20), (90, 100)]
    assert merge_intervals([(0, 250)], 100) == [(0, 100)]


def test_line_center_error_certified():
    line = Line1D(GOLDEN)
    for q in (1, 7, 1000, 65536):
        c, err = line.center(q)
        from diophlab.numeric import le

        true = dist_to_int(GOLDEN * q)
        lo, hi = line.dist_bounds(q, 0, 0)
        # exact value in scaled units must fall inside [lo, hi]
        scaled_true = true * line.mod
        assert le(F(lo), scaled_true) and le(scaled_true, F(hi))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_union_index_matches_exact_scan(seed):
    radii = [(q, F(1, 2 * q)) for q in range(1, 200)]
    line = Line1D(GOLDEN)

    def exact(b):
        return any(lt(dist_to_int(GOLDEN * q - b), r) or lt(dist_to_int(GOLDEN * -q - b), r) for q, r in radii)

    calls = []

    def fallback(b):
        calls.append(b)
        return exact(b)

    ix = UnionIndex1D(line, radii, fallback)
    for i in range(20):
        b = sample_point(seed, i, 1)[0]
        assert ix.contains(b) == exact(b)
    # the prefilter should decide almost everything without the fallback
    assert len(calls) <= 2


def test_union_index_non_dyadic_query():
    # denominators that do not scale exactly at 2^-96 still get certified
    radii = [(q, F(1, 2 * q)) for q in range(1, 100)]
    line = Line1D(GOLDEN)

    def exact(b):
        return any(
            lt(dist_to_int(GOLDEN * s - b), r)
            for q, r in radii
            for s in (q, -q)
        )

    ix = UnionIndex1D(line, radii, exact)
    for k in range(1, 40):
        b = F(k, 41)  # denominator 41
        assert ix.contains(b) == exact(b)


# radii of every size: tiny ones leave the inner union empty, ones near 1/2
# wrap round 0, and a single one of 1/2 or more covers the circle
RADII = st.one_of(
    st.fractions(min_value=F(1, 10**9), max_value=F(1, 2), max_denominator=10**9),
    st.integers(min_value=0, max_value=96).map(lambda e: (1 << 96 >> e, (1 << 96 >> e) + 2)),
)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.sampled_from([GOLDEN, SQRT2, CFReal((0, 3, 1, 4, 1, 5)), F(1, 3)]),
    l=st.integers(0, 300),
    radii=st.lists(RADII, min_size=0, max_size=60),
    targets=st.lists(st.fractions(min_value=-1, max_value=2), max_size=20),
)
@example(alpha=GOLDEN, l=0, radii=[F(1, 2)], targets=[F(0)])
@example(alpha=GOLDEN, l=0, radii=[F(1, 3), F(1, 5)], targets=[F(1, 7)])
def test_union_index_spans_match_reference(alpha, l, radii, targets):
    line = Line1D(alpha)
    q_radii = [(l + i + 1, r) for i, r in enumerate(radii)]
    ix = UnionIndex1D(line, q_radii, lambda b: "exact")
    ref = ReferenceUnion(line, q_radii, lambda b: "exact")
    # the index's sorted (starts, ends) lists are the reference's spans
    assert list(zip(*ix.inner)) == ref.inner
    assert list(zip(*ix.outer)) == ref.outer
    for b in targets + [F(k, 2**96) for k in (0, 1, 2**96 - 1)]:
        assert ix.contains(b) == ref.contains(b)


# ---------------------------------------------------------------------------
# m x n model and thresholds
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    key=st.sampled_from(["q12", "q21", "half_third", "rat21", "golden"]),
    q=st.lists(st.integers(min_value=-5000, max_value=5000), min_size=2, max_size=2),
    b=st.lists(st.fractions(min_value=0, max_value=1, max_denominator=97), min_size=2, max_size=2),
)
def test_dist_bounds_mxn_certified(key, q, b):
    A = MATRICES[key]
    q, b = tuple(q[: A.n]), tuple(b[: A.m])
    line = Line1D(A)
    lo, hi = line.dist_bounds(q, tuple(scale_fraction(x) for x in b), 1)
    true = dist_to_int_vec([v - t for v, t in zip(A.apply(q), b)]) * line.mod
    assert le(F(lo), true) and le(true, F(hi))


def test_dist_bounds_1x1_int_and_tuple_agree():
    line = Line1D(ApproxMatrix([[GOLDEN]]))
    b = scale_fraction(F(2, 7))
    for q in (-1000, -3, 1, 99):
        assert line.dist_bounds(q, b, 1) == line.dist_bounds((q,), b, 1)


@pytest.mark.parametrize(
    "thr", [F(1, 3), F(2, 5) / 1024, Radical(F(4, 25) / 2**9, 2), Radical(GOLDEN, 3)]
)
def test_threshold_bounds_enclose(thr):
    lo, hi = threshold_bounds(thr)
    scale = F(1 << 96)
    as_radical = thr if isinstance(thr, Radical) else Radical(thr, 1)
    assert as_radical.compare(F(lo) / scale).kind != "less"
    assert as_radical.compare(F(hi) / scale).kind != "greater"
    assert hi - lo <= 2


# ---------------------------------------------------------------------------
# filtered scans against exact reference loops
# ---------------------------------------------------------------------------


def exact_solve_homogeneous(A, C_pow, pw, X, budget):
    """The unfiltered scan: exact distance and comparison at every point."""
    total = 0
    for s in range(1, X):
        total += shell_size(A.n, s)
        if total > budget:
            raise BudgetExceeded(f"enumeration of {total} points exceeds {budget}")
        for q in iter_shell(A.n, s):
            if lt(ex_pow(dist_to_int_vec(A.apply(q)), pw), C_pow):
                return IntVec(q)
    return None


def exact_return_levels(A, eps, ell_max, budget):
    eps_m = ex_pow(eps, A.m)
    return [
        ell
        for ell in range(1, ell_max + 1)
        if exact_solve_homogeneous(A, eps_m * F(1, 1 << (A.n * ell)), A.m, 1 << ell, budget)
        is None
    ]


def outcome(fn, *args):
    """A result or the type of the error it raised."""
    try:
        return ("ok", fn(*args))
    except (BudgetExceeded, PrecisionExhausted) as exc:
        return ("raise", type(exc))


@settings(max_examples=40, deadline=None)
@given(
    key=st.sampled_from(sorted(MATRICES)),
    eps=st.fractions(min_value=F(1, 50), max_value=1, max_denominator=60),
    ell=st.integers(min_value=1, max_value=7),
    budget=st.sampled_from([40, 1 << 22]),
)
def test_return_sequence_matches_exact(key, eps, ell, budget):
    A = MATRICES[key]
    ell = min(ell, 7 if A.n == 1 else 4)
    got = outcome(lambda: return_sequence(A, eps, ell, budget).levels)
    assert got == outcome(exact_return_levels, A, eps, ell, budget)


@settings(max_examples=40, deadline=None)
@given(
    key=st.sampled_from(sorted(MATRICES)),
    C=st.fractions(min_value=F(1, 2000), max_value=F(1, 2), max_denominator=2000),
    X=st.integers(min_value=1, max_value=40),
)
def test_solve_homogeneous_matches_exact(key, C, X):
    A = MATRICES[key]
    X = X if A.n == 1 else min(X, 12)
    got = outcome(solve_homogeneous, A, C, X)
    assert got == outcome(exact_solve_homogeneous, A, C, 1, X, 1 << 22)


def test_rational_exact_hit_is_a_witness():
    # ||3 * 1/3||_Z = 0 < C: found by the filter or the fallback, never missed
    A = MATRICES["third"]
    assert solve_homogeneous(A, F(1, 1000), 4) == IntVec((-3,))
    # ||q/3||_Z = 1/3 exactly at q = +-1: strict < rejects the equality
    assert solve_homogeneous(A, F(1, 3), 3) is None


def test_precision_exhausted_parity_short_cf():
    A = MATRICES["cf_short"]
    for eps in (F(1, 4), F(1, 10)):
        with pytest.raises(PrecisionExhausted):
            exact_return_levels(A, eps, 3, 1 << 22)
        with pytest.raises(PrecisionExhausted):
            return_sequence(A, eps, 3)


def test_golden_return_sequence_needs_few_fallbacks(monkeypatch):
    # the records decide the levels; a walk of every shell below 2^10 at
    # the level-10 threshold, which no q there meets, is decided by the
    # scaled filter alone, without exact distances
    A = MATRICES["golden"]
    assert return_sequence(A, F(2, 5), 10).levels == list(range(1, 11))
    calls = []
    exact = ApproxMatrix.dist
    monkeypatch.setattr(ApproxMatrix, "dist", lambda self, *args: calls.append(args) or exact(self, *args))
    assert list(lattice.within(A, range(1, 1 << 10), 1 << 22, F(2, 5) / (1 << 10))) == []
    assert len(calls) <= 2


def exact_count(A, center, radius, N):
    """(members, boundary hits) by exact comparison at every point;
    PrecisionExhausted when a membership is undecided."""
    count = boundary = 0
    for s in range(N + 1):
        for q in iter_shell(A.n, s):
            kinds = [
                compare(dist_to_int(v - c), radius).kind for v, c in zip(A.apply(q), center)
            ]
            if "greater" not in kinds:
                if "uncertain" in kinds:
                    raise PrecisionExhausted(f"membership of {q} undecided")
                count += 1
                boundary += "equal" in kinds
    return count, boundary


@settings(max_examples=40, deadline=None)
@given(
    key=st.sampled_from(sorted(MATRICES)),
    center=st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12), min_size=2, max_size=2),
    radius=st.fractions(min_value=F(1, 12), max_value=F(5, 12), max_denominator=12),
    N=st.integers(min_value=1, max_value=30),
)
@example(key="cf_mid", center=[F(0), F(0)], radius=F(1, 12), N=15)
def test_counting_report_matches_exact(key, center, radius, N):
    A = MATRICES[key]
    center = tuple(center[: A.m])
    N = N if A.n == 1 else min(N, 8)

    def report():
        rep = counting_report(A, (center, radius), N)
        assert rep.total == (2 * N + 1) ** A.n
        return rep.count, rep.boundary_hits

    assert outcome(report) == outcome(exact_count, A, center, radius, N)


def test_undecided_membership_raises():
    # the enclosure of [0; 1, 2] = 2/3 is too wide to place every q/3 point
    with pytest.raises(PrecisionExhausted):
        counting_report(MATRICES["cf_short"], ((F(0),), F(1, 10)), 50)


def test_counting_exact_boundary_hits():
    # ||q/3 - 0||_Z = 1/3 = r for every q not divisible by 3
    rep = counting_report(MATRICES["third"], ((F(0),), F(1, 3)), 6)
    assert (rep.count, rep.boundary_hits) == (13, 8)
    assert (rep.count, rep.boundary_hits) == exact_count(MATRICES["third"], (F(0),), F(1, 3), 6)


def per_ball_constant(A, family, l_values):
    """The constant from one counting_report per (ball, horizon)."""
    c_hat, table = F(0), []
    for l in sorted(l_values):
        best = None
        for center, radius in family:
            count = counting_report(A, (center, min(2 * radius, F(1, 2))), l).count
            ratio = F(count) / (F(l) ** A.n * (2 * radius) ** A.m)
            if best is None or ratio > best[2]:
                best = (l, count, ratio)
            c_hat = max(c_hat, ratio)
        table.append(best)
    return c_hat, table


@settings(max_examples=25, deadline=None)
@given(
    key=st.sampled_from(["golden", "sqrt2", "third", "half_third", "q21", "cf_mid"]),
    radii=st.lists(st.fractions(min_value=F(1, 40), max_value=F(3, 8), max_denominator=40), min_size=1, max_size=4),
    l_values=st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=4),
)
@example(key="cf_mid", radii=[F(1, 8)], l_values=[15])
def test_equid_constant_matches_per_ball_counts(key, radii, l_values):
    A = MATRICES[key]
    if A.n > 1:
        l_values = [min(l, 6) for l in l_values]
    family = [(tuple(F(i + 1, 7) for _ in range(A.m)), r) for i, r in enumerate(radii)]

    def constant():
        est = estimate_equid_constant(A, family, l_values)
        assert est.recommended == 2 * est.c_hat
        return est.c_hat, est.table

    assert outcome(constant) == outcome(per_ball_constant, A, family, l_values)


def test_equid_constant_budget_on_largest_horizon():
    with pytest.raises(BudgetExceeded):
        estimate_equid_constant(MATRICES["golden"], [((F(0),), F(1, 8))], [4, 100], budget=200)
