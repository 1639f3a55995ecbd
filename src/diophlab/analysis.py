"""Series classifiers for the zero-one criteria, the best-approximation
counterpart machinery (gamma_k, U_k, V_k, B_alpha), and exponent estimates.

All theorem-critical inequalities are decided by integer cross-power
comparisons, or by certified enclosures that decide only what those decide
(`_order`); decimals in reports are display-only enclosures."""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice, pairwise, zip_longest
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import (
    BudgetExceeded,
    CoverageGap,
    InsufficientData,
    PrecisionExhausted,
)
from .lattice import (
    DEFAULT_BUDGET,
    ApproxMatrix,
    BestApproxSequence,
    IntVec,
    ReturnSequence,
    _last_below,
    best_approximations,
    check_window,
    records,
    scaled_boxes,
    scan,
    within,
)
from .limsup import ApproxFunction, PowerLog, Window, _psi_cells
from .numeric import (
    Comparable,
    Ordering,
    Radical,
    RatInterval,
    compare,
    dec_str,
    dist_to_int,
    enclose,
    ex_pow,
    le,
    lt,
    nearest_int,
    sign,
    _as_interval,
    _decided,
)

__all__ = [
    "CounterpartReport",
    "ExponentEstimate",
    "Prop51Report",
    "SeriesVerdict",
    "b_alpha_test",
    "classify_return_series",
    "classify_series",
    "estimate_exponents",
    "gamma_sequence",
    "key_inequality_check",
    "verify_prop_5_1",
]


# ---------------------------------------------------------------------------
# series classifiers
# ---------------------------------------------------------------------------


@dataclass
class SeriesVerdict:
    status: str  # Converges | Diverges | Unknown
    partial_sums: list[tuple[int, tuple[Fraction, Fraction]]]
    rationale: str

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "rationale": self.rationale,
            "partial_sums": [
                {"Q": q, "lo": dec_str(lo), "hi": dec_str(hi)}
                for q, (lo, hi) in self.partial_sums
            ],
        }


# binary scale of the term enclosures of a partial sum
SERIES_SHIFT = 64
# a partial sum adds its first EXACT_UPTO terms one by one, then blocks
EXACT_UPTO = 1024


def _blocks(Q: int, head: int) -> list[tuple[int, int]]:
    """The geometric blocks (start, end) of (head, Q], ratio 17/16."""
    out = []
    start = head + 1
    while start <= Q:
        end = min(max(start, start * 17 // 16 - 1), Q)
        out.append((start, end))
        start = end + 1
    return out


def _partial_sum_bounds(
    psi: ApproxFunction, n: int, s: Fraction, horizons: Sequence[int]
) -> list[tuple[Fraction, Fraction]]:
    """Enclosures of sum_{q=1}^{Q} q^(n-1) psi(q)^s for each Q of horizons.

    Terms up to EXACT_UPTO are `_psi_cells` cells of their own, built once
    for every horizon; beyond that, each geometric block (ratio 17/16,
    tight enough for log-critical trend checks) of a horizon is one cell,
    bracketed using monotonicity of psi and of q^(n-1).  All cells take
    one pass at 2^-SERIES_SHIFT, and each horizon adds its integers."""
    head = min(max(horizons, default=0), EXACT_UPTO)
    cells = [(q, q, q ** (n - 1), q ** (n - 1)) for q in range(1, head + 1)]
    plans = []
    for Q in horizons:
        blocks = _blocks(Q, min(Q, EXACT_UPTO))
        plans.append((min(Q, EXACT_UPTO), len(cells), len(cells) + len(blocks)))
        cells += [(a, b, (b - a + 1) * a ** (n - 1), (b - a + 1) * b ** (n - 1)) for a, b in blocks]
    bounds = _psi_cells(psi, cells, s, SERIES_SHIFT)
    return [tuple(Fraction(sum(v[:h]) + sum(v[i:j]), 1 << SERIES_SHIFT) for v in bounds) for h, i, j in plans]


def _series_args(s: Fraction, n: int) -> Fraction:
    """s as a Fraction, once s > 0 and n >= 1 are checked."""
    s = Fraction(s)
    if s <= 0:
        raise ValueError("s > 0 required")
    if n < 1:
        raise ValueError("n >= 1 required")
    return s


def _powerlog_verdict(psi: PowerLog, s: Fraction, n: int) -> tuple[str, str]:
    """(status, rationale) for sum q^(n-1) psi(q)^s in closed form:
    Converges iff a s > n, or a s = n with beta s > 1; s > 0, which both
    callers check first (`_series_args`)."""
    as_ = psi.a * s
    bs = psi.beta * s
    if as_ > n or (as_ == n and bs > 1):
        return "Converges", f"a*s = {as_} vs n = {n}, beta*s = {bs}"
    return "Diverges", f"a*s = {as_} vs n = {n}, beta*s = {bs} <= 1"


def classify_series(
    psi: ApproxFunction,
    s: Fraction,
    n: int,
    horizons: Sequence[int] = (10**2, 10**4, 10**6),
) -> SeriesVerdict:
    """Verdict on sum q^(n-1) psi(q)^s.

    For PowerLog psi(q) = c q^-a (ln q)^-beta the closed form applies:
    Converges iff a s > n, or a s = n with beta s > 1.  Tables only get
    partial sums."""
    s = _series_args(s, n)
    partials = list(zip(horizons, _partial_sum_bounds(psi, n, s, horizons)))
    if isinstance(psi, PowerLog):
        status, rationale = _powerlog_verdict(psi, s, n)
        return SeriesVerdict(status, partials, rationale)
    return SeriesVerdict("Unknown", partials, "table psi: partial sums only")


def classify_return_series(
    psi: ApproxFunction, s: Fraction, n: int, L: ReturnSequence
) -> SeriesVerdict:
    """Verdict on sum over levels of 2^(l n) psi(2^l)^s.

    A closed-form verdict is claimed only when the level set is the full
    range [1, ell_max] (condensation then ties it to classify_series);
    sparse level sets get partial sums with status Unknown.  Each level is
    one `_psi_cells` cell 2^(l n) psi(2^l)^s at 2^-SERIES_SHIFT, and the
    partial sums are the running sums of their integers."""
    if not L.levels:
        raise InsufficientData("empty return sequence")
    s = _series_args(s, n)
    cells = [(1 << ell, 1 << ell, 1 << ell * n, 1 << ell * n) for ell in L.levels]
    sums = zip(L.levels, *map(accumulate, _psi_cells(psi, cells, s, SERIES_SHIFT)))
    partials = [(1 << ell, (Fraction(lo, 1 << SERIES_SHIFT), Fraction(hi, 1 << SERIES_SHIFT))) for ell, lo, hi in sums]
    full = list(L.levels) == list(range(1, L.ell_max + 1))
    if full and isinstance(psi, PowerLog):
        # condensed and plain series converge/diverge together
        status, rationale = _powerlog_verdict(psi, s, n)
        return SeriesVerdict(status, partials, "full levels: " + rationale)
    return SeriesVerdict("Unknown", partials, "sparse levels: partial sums only")


# ---------------------------------------------------------------------------
# gamma_k / U_k / V_k machinery
# ---------------------------------------------------------------------------


def _place(x: Comparable, box: tuple[int, int], shift: int) -> Optional[Ordering]:
    """LESS when x 2^shift < box[0], GREATER when x 2^shift > box[1], None
    when x may lie inside the integer box.  x is placed by integer
    cross-multiplication of the ends of its view at `shift` bits, `enclose`,
    which are (x, x) for a rational x, so every kind of x takes the same
    filter."""
    lo, hi = box
    x_lo, x_hi = enclose(x, shift)
    if x_hi.numerator << shift < lo * x_hi.denominator:
        return Ordering.LESS
    if x_lo.numerator << shift > hi * x_lo.denominator:
        return Ordering.GREATER
    return None


def _order(x: Comparable, box: tuple[int, int], shift: int, exact: Callable[[], object]) -> Ordering:
    """The ordering of x against a value v with box[0] <= v 2^shift <=
    box[1], the box in integers: `_place`'s LESS or GREATER, and only for
    an x inside the box compare(x, exact()), v computed then, with
    PrecisionExhausted when that is undecided.  A box that holds every
    value of v's own enclosure decides only comparisons that compare
    decides, and the same way, so the outcome is that of the exact
    comparison; a wider box only sends more x to compare."""
    placed = _place(x, box, shift)
    return placed if placed is not None else _decided(compare(x, exact()))


def _max_pow(x: Comparable, y: Comparable) -> Comparable:
    c = compare(x, y)
    if c.decided:
        return x if c is Ordering.GREATER else y
    # undecided: the hull of the max over the two views, of any kinds
    xl, xh, _ = _as_interval(x)
    yl, yh, _ = _as_interval(y)
    return RatInterval(max(xl, yl), max(xh, yh))


@dataclass
class CounterpartEntry:
    k: int
    Y: int
    M_dec: str
    gamma_pow: Comparable  # gamma_k^(m+n), exact (interval for CFReal)
    gamma_dec: str
    U_dec: str
    V_dec: str
    U_lt_V: bool
    U_next_le_V: Optional[bool]
    # the obligations an undecided comparison left to their structural
    # argument, by name
    structural: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "k": self.k,
            "Y": self.Y,
            "M": self.M_dec,
            "gamma": self.gamma_dec,
            "U": self.U_dec,
            "V": self.V_dec,
            "U_lt_V": self.U_lt_V,
            "U_next_le_V": self.U_next_le_V,
        }
        if self.structural:
            out["structural"] = self.structural
        return out


@dataclass
class CounterpartReport:
    m: int
    n: int
    entries: list[CounterpartEntry]
    gamma_partial_sums: list[tuple[int, tuple[Fraction, Fraction]]]
    V_increasing: bool

    @property
    def all_checks(self) -> bool:
        return all(
            e.U_lt_V and (e.U_next_le_V is None or e.U_next_le_V) for e in self.entries
        )

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "V_increasing_trend": self.V_increasing,
            "all_checks": self.all_checks,
            "entries": [e.to_json() for e in self.entries],
            "gamma_partial_sums": [
                {"k": k, "lo": dec_str(lo), "hi": dec_str(hi)}
                for k, (lo, hi) in self.gamma_partial_sums
            ],
        }

    def csv_rows(self):
        yield ("k", "Y_k", "M_k", "gamma_k", "U_k", "V_k")
        for e in self.entries:
            yield (e.k, e.Y, e.M_dec, e.gamma_dec, e.U_dec, e.V_dec)


def _gamma_pow(best: BestApproxSequence, k: int, m: int, n: int) -> Comparable:
    """gamma_k^(m+n) = max(Y_k^m M_(k-1)^n, Y_(k+1)^m M_k^n), exact."""
    e = best.entries
    a = Fraction(e[k].Y**m) * ex_pow(e[k - 1].M, n)
    b = Fraction(e[k + 1].Y**m) * ex_pow(e[k].M, n)
    return _max_pow(a, b)


# binary precision of the boxes of the counterpart table
COUNTERPART_BITS = 64


class Counterpart(NamedTuple):
    """gamma_k^(m+n), U_k and V_k of one interior k, each with its box
    (lo, hi) at COUNTERPART_BITS: integers with lo <= x 2^COUNTERPART_BITS
    <= hi, from `lattice.scaled_boxes`."""

    k: int
    g: Comparable
    U: Radical
    V: Radical
    g_box: tuple[int, int]
    U_box: tuple[int, int]
    V_box: tuple[int, int]


def _counterparts(best: BestApproxSequence, m: int, n: int) -> list[Counterpart]:
    """The table of every interior k, built once per (m, n) and kept in
    best.counterparts, where U_k = (Y_k/gamma_k)^(m/n) and V_k =
    gamma_k/M_k are exact radicals: U_k^(n(m+n)) = Y_k^(m(m+n)) /
    gamma_k^(m(m+n)) and V_k^(m+n) = gamma_k^(m+n) / M_k^(m+n)."""
    if (m, n) in best.counterparts:
        return best.counterparts[m, n]
    mn = m + n
    table = []
    for k in range(1, len(best.entries) - 1):
        g = _gamma_pow(best, k, m, n)
        e = best.entries[k]
        U = Radical(Fraction(e.Y ** (m * mn)) * ex_pow(g, -m), n * mn)
        V = Radical(g * ex_pow(e.M, -mn), mn)
        table.append(Counterpart(k, g, U, V, *scaled_boxes((g, U, V), COUNTERPART_BITS)))
    best.counterparts[m, n] = table
    return table


def _obligation(decide: Callable[[], bool], fallback: bool, name: str, structural: list[str]) -> bool:
    """decide(), or, where its comparison is undecided (PrecisionExhausted),
    fallback, the verdict of the obligation's structural argument, with
    name appended to structural."""
    try:
        return decide()
    except PrecisionExhausted:
        structural.append(name)
        return fallback


def gamma_sequence(best: BestApproxSequence, m: int, n: int) -> CounterpartReport:
    """gamma_k, U_k = (Y_k/gamma_k)^(m/n), V_k = gamma_k/M_k for interior k,
    with the two proof obligations U_k < V_k and U_(k+1) <= V_k decided by
    integer cross-powers."""
    ents = best.entries
    if len(ents) < 3:
        raise InsufficientData("need at least 3 best approximations")
    mn = m + n
    table = _counterparts(best, m, n)
    rows = []
    for c, nxt in zip_longest(table, table[1:]):
        Yk, Mk, Y_next = ents[c.k].Y, ents[c.k].M, ents[c.k + 1].Y
        structural: list[str] = []
        # (2) U_k < V_k  <=>  (Y_k^m M_k^n)^(m+n) < g_k^(m+n); undecided, the
        # structural argument: g_k >= Y_(k+1)^m M_k^n > Y_k^m M_k^n since Y increases.
        u_lt_v = _obligation(lambda: lt(Fraction(Yk**m) * ex_pow(Mk, n), c.g), Y_next > Yk, "U_lt_V", structural)
        # (3) U_(k+1) <= V_k  <=>  (Y_(k+1)^m M_k^n)^(m+n) <= g_k^n g_(k+1)^m;
        # both maxima dominate the shared branch Y_(k+1)^m M_k^n, so the
        # inequality is an algebraic consequence of the max construction.
        u_next_le_v = None if nxt is None else _obligation(
            lambda: le(ex_pow(Fraction(Y_next**m) * ex_pow(Mk, n), mn), ex_pow(c.g, n) * ex_pow(nxt.g, m)),
            True, "U_next_le_V", structural,
        )
        rows.append(CounterpartEntry(
            k=c.k, Y=Yk, M_dec=dec_str(Mk), gamma_pow=c.g, gamma_dec=dec_str(Radical(c.g, mn)), U_dec=dec_str(c.U),
            V_dec=dec_str(c.V), U_lt_V=u_lt_v, U_next_le_V=u_next_le_v, structural=structural,
        ))
    encs = (Radical(c.g, mn).enclose(64) for c in table)
    gsums = accumulate(encs, lambda s, e: (s[0] + e[0], s[1] + e[1]))
    v_increasing = all(b.V.compare(a.V) is Ordering.GREATER for a, b in pairwise(table))
    return CounterpartReport(m, n, rows, list(zip([c.k for c in table], gsums)), v_increasing)


def b_alpha_test(
    b: Sequence[Fraction],
    best: BestApproxSequence,
    alpha: Fraction,
    k_range: Sequence[int],
    m: int = 1,
    n: int = 1,
) -> bool:
    """||b . y_k||_Z > alpha gamma_k for every k in k_range, decided as
    the exact comparison decides it: gamma_k^(m+n) and its box come from
    the counterpart table, and only an lhs^(m+n) inside the box of
    alpha^(m+n) gamma_k^(m+n), that box times alpha^(m+n) rounded outward
    at COUNTERPART_BITS, is compared exactly.  b passes the target rule of
    the records, `BestApproxSequence.target`, so a `Quadratic` coordinate
    is kept and b . y_k and its distance to Z are exact."""
    alpha = Fraction(alpha)
    ents = best.entries
    b = best.target(b, m)
    mn = m + n
    a = alpha**mn
    p, d = a.numerator, a.denominator
    table = _counterparts(best, m, n)
    for k in k_range:
        if not 1 <= k <= len(ents) - 2:
            raise InsufficientData(f"k = {k} outside interior range")
        y = ents[k].y.coords
        lhs = dist_to_int(sum(bi * yi for bi, yi in zip(b, y)))
        # lhs > alpha gamma_k  <=>  lhs^(m+n) > alpha^(m+n) gamma_k^(m+n)
        g, (g_lo, g_hi) = table[k - 1].g, table[k - 1].g_box
        lo, hi = (g_lo, g_hi) if p >= 0 else (g_hi, g_lo)
        box = (lo * p // d, -(-hi * p // d))
        if _order(lhs**mn, box, COUNTERPART_BITS, lambda: g * a) is not Ordering.GREATER:
            return False
    return True


# ---------------------------------------------------------------------------
# Proposition 5.1 verification
# ---------------------------------------------------------------------------


@dataclass
class Prop51Report:
    alpha: Fraction
    window: Window
    threshold: Fraction  # (alpha - n)/m
    k_range: list[int]
    binding: dict[int, int]  # ||q|| -> binding k with U_k <= ||q|| < V_k
    violations: list[tuple[int, ...]]
    spot_checks: int


# every SPOT_CHECK_STRIDE-th point of a Prop. 5.1 window is checked
# against the key inequality too
SPOT_CHECK_STRIDE = 97


def verify_prop_5_1(
    A: ApproxMatrix,
    b: Sequence[Fraction],
    alpha: Fraction,
    best: BestApproxSequence,
    w: Window,
    budget: int = DEFAULT_BUDGET,
) -> Prop51Report:
    """Check ||q||^(n/m) ||Aq - b||_Z > (alpha - n)/m at every q of the
    window, recording the binding k with U_k <= ||q|| < V_k per norm.  The
    violations are the q where it fails, in scan order, then those of every
    SPOT_CHECK_STRIDE-th point where key_inequality_check fails.

    Preconditions: alpha > n; the [U_k, V_k) intervals must cover the
    window (CoverageGap otherwise); b must pass b_alpha_test on the ks
    used."""
    m, n = A.m, A.n
    b = A.target(b)
    alpha = Fraction(alpha)
    if alpha <= n:
        raise ValueError("alpha > n required for a positive threshold")
    thr = (alpha - n) / m
    table = _counterparts(best, m, n)
    binding: dict[int, int] = {}
    # U_k <= s < V_k, each side decided by the boxes of the table where s
    # falls outside them; the comparisons and their order are the exact ones
    for s in w.shells:
        k_bind = next(
            (
                c.k
                for c in table
                if _order(s, c.U_box, COUNTERPART_BITS, lambda: c.U) is not Ordering.LESS
                and _order(s, c.V_box, COUNTERPART_BITS, lambda: c.V) is Ordering.LESS
            ),
            None,
        )
        if k_bind is None:
            raise CoverageGap(f"no [U_k, V_k) interval contains ||q|| = {s}")
        binding[s] = k_bind
    ks = sorted(set(binding.values()))
    if not b_alpha_test(b, best, alpha, ks, m, n):
        raise ValueError("b fails b_alpha_test on the binding k range")
    check_window(n, w.shells, budget)
    # ||q||^(n/m) d > thr fails exactly where d <= thr ||q||^(-n/m)
    psi = PowerLog(thr, Fraction(n, m), Fraction(0))
    violations = [q for _, q, _ in within(A, w.shells, budget, psi, b, closed=True)]
    points = ((s, q) for s, shell in scan(n, w.shells, budget) for q in shell)
    checked = list(islice(points, SPOT_CHECK_STRIDE - 1, None, SPOT_CHECK_STRIDE))
    violations += [
        q for s, q in checked if not key_inequality_check(A, b, IntVec(q), best.entries[binding[s]].y)
    ]
    return Prop51Report(alpha, w, thr, ks, binding, violations, len(checked))


def key_inequality_check(
    A: ApproxMatrix, b: Sequence[Fraction], q: IntVec, y: IntVec
) -> bool:
    """||b.y||_Z <= m ||y|| ||Aq - b||_Z + n ||q|| ||tA y||_Z.

    Holds for every integer q, y by the transference identity; a False
    return is a bug detector, not a mathematical possibility.  The
    right-hand side is boxed in integers at the line model's shift by
    `ApproxMatrix.transference_box`, and only an lhs inside the box is
    compared exactly (`_order`); the outcome is that of the exact
    comparison.  Where that raises PrecisionExhausted on a 1 x 1 CF entry,
    the tight case of the identity decides it (`_cf_tight`); otherwise it
    still raises."""
    m, n = A.m, A.n
    b = A.target(b)
    if len(y.coords) != m or len(q.coords) != n:
        raise ValueError("dimension mismatch")
    lhs = dist_to_int(sum(bi * yi for bi, yi in zip(b, y.coords)))
    box, shift = A.transference_box(q.coords, y.coords, b)
    wy, wq = m * y.norm, n * q.norm
    try:
        c = _order(lhs, box, shift, lambda: A.dist(q.coords, b) * wy + A.transpose().dist(y.coords) * wq)
        return c is not Ordering.GREATER
    except PrecisionExhausted:
        if A.has_cf and _cf_tight(A, b, q, y, box, shift):
            return True
        raise


def _cf_tight(
    A: ApproxMatrix, b: tuple[Fraction, ...], q: IntVec, y: IntVec, box: tuple[int, int], shift: int
) -> bool:
    """The tight key inequality of a 1 x 1 CF entry alpha, which its
    enclosures cannot separate.  With the signed residues r1 = q alpha - b
    - p1 and r2 = alpha y - p2 (p1, p2 the nearest integers),
    E = b y + y p1 - q p2 = -y r1 + q r2 is an exact rational, and
    ||b y||_Z <= |E|.  When -y r1 and q r2 have the same sign, |E| is the
    right-hand side |y| |r1| + |q| |r2|, so the inequality holds.  True
    only when |E| lies in box, the right-hand side's enclosure in integers
    at `shift` (`_place`), |E| <= 1/2 and both signs are decided equal; False
    when any of this fails or is undecided."""
    (qv,), (yv,), (bv,) = q.coords, y.coords, b
    v1 = A.apply(q.coords)[0] - bv
    v2 = A.apply(y.coords)[0]
    try:
        p1, p2 = nearest_int(v1), nearest_int(v2)
        E = abs(bv * yv + yv * p1 - qv * p2)
        return (
            _place(E, box, shift) is None
            and E <= Fraction(1, 2)
            and sign(-yv) * sign(v1 - p1) == sign(qv) * sign(v2 - p2)
        )
    except PrecisionExhausted:
        return False


# ---------------------------------------------------------------------------
# exponent estimation
# ---------------------------------------------------------------------------


def _cell(e: Optional[float]) -> "float | str | None":
    """An exponent as a report prints it: an exact hit, +infinity, as
    "exact_hit"."""
    return "exact_hit" if e == math.inf else e


@dataclass
class ExponentEstimate:
    w_hat: Optional[float]  # math.inf for an exact hit
    what_hat: Optional[float]
    horizons: list[int]
    table: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "w_hat": _cell(self.w_hat),
            "what_hat": _cell(self.what_hat),
            "horizons": self.horizons,
            "table": self.table,
        }


def _exponent(d, X: int) -> float:
    """-log d / log X, d read at its enclosure's midpoint; math.inf for an
    exact hit, d = 0."""
    lo, hi = enclose(d, 80)
    if hi == 0:
        return math.inf
    mid = (lo + hi) / 2 if lo > 0 else hi
    return math.log(1 / float(mid)) / math.log(X)


def estimate_exponents(
    A: ApproxMatrix,
    b: Optional[Sequence[Fraction]],
    X_schedule: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> ExponentEstimate:
    """Finite-horizon surrogates for the exponents: w_hat(A, b) is the max
    per-horizon best exponent; what_hat(tA) is the min over the schedule
    tail (a "for all large X" stand-in).  A vanishing distance has the
    exponent math.inf, which the report prints as "exact_hit" (`_cell`)."""
    xs = [int(x) for x in X_schedule]
    if not xs or xs[0] < 2 or any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
        raise ValueError("X_schedule must be increasing with X >= 2")
    best = None
    if A.irrational_line:
        try:
            best = best_approximations(A, xs[-1] - 1)
        except PrecisionExhausted:
            pass

    def walk(M: ApproxMatrix, target=None) -> tuple[Optional[list], Optional[Exception]]:
        """((s, distance) records over 0 < ||q|| < X for the largest X, None),
        or (None, error) for a walk ended by BudgetExceeded or
        PrecisionExhausted; q = 0 is excluded in both problems (b = 0 would
        be a trivial exact hit)."""
        try:
            return [(s, d) for s, _, d in records(M, range(1, xs[-1]), budget, lambda s, d: d, target)], None
        except (BudgetExceeded, PrecisionExhausted) as exc:
            return None, exc

    def blocked(M: ApproxMatrix, exc: Exception, target=None) -> int:
        """The index of the first horizon X whose own walk, over
        0 < ||q|| < X, raises, found by bisection: the walk over a smaller
        window is a prefix of the one that raised exc, so a horizon that
        blocks is followed by blocking ones.  A walk ended by BudgetExceeded
        met no undecided comparison, so only its windows over budget raise."""

        def raises(X: int) -> bool:
            try:
                check_window(M.n, range(1, X), budget)
                if isinstance(exc, PrecisionExhausted):
                    deque(records(M, range(1, X), budget, lambda s, d: d, target), 0)
            except (BudgetExceeded, PrecisionExhausted):
                return True
            return False

        return bisect_left(xs, True, key=raises)

    inh, inh_err = (None, None) if b is None else walk(A, b)
    hom, hom_err = walk(A.transpose()) if best is None else ([(e.Y, e.M) for e in best.entries], None)
    # raise the error a scan per horizon meets first: that of the earliest
    # horizon, the inhomogeneous walk's on a tie
    if inh_err and hom_err:
        raise inh_err if blocked(A, inh_err, b) <= blocked(A.transpose(), hom_err) else hom_err
    if inh_err or hom_err:
        raise inh_err or hom_err
    ws, whats, table = [], [], []
    for X in xs:
        row: dict = {"X": X}
        if b is not None:
            ws.append(_exponent(_last_below(inh, X), X))
            row["w"] = _cell(ws[-1])
        d = _last_below(hom, X)
        if d is not None:
            whats.append(_exponent(d, X))
            row["what"] = _cell(whats[-1])
        table.append(row)
    tail = whats[len(whats) // 2 :]
    return ExponentEstimate(max(ws, default=None), min(tail, default=None), xs, table)
