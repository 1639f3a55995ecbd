"""Integer-point enumeration: small-solution search, return sequences,
best-approximation records, badly-approximable witnesses, rank check."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import cycle, groupby, islice, pairwise, product, repeat, takewhile
from operator import itemgetter, mul
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    BudgetExceeded,
    PrecisionExhausted,
    RankDeficient,
    UnsupportedEntry,
)
from .fastpath import Line1D, scale_fraction, threshold_bounds
from .numeric import (
    CFReal,
    Comparable,
    ExactReal,
    Ordering,
    Quadratic,
    Radical,
    RatInterval,
    _decided,
    _dist_surds,
    _field,
    _fraction,
    _surd,
    compare,
    convergents,
    dec_str,
    dist_to_int_vec,
    enclose,
    ex_pow,
    floor_exact,
    format_exact,
    lt,
    parse_exact,
    sign,
)

if TYPE_CHECKING:
    from .limsup import ApproxFunction

DEFAULT_BUDGET = 1 << 22


@dataclass(frozen=True)
class IntVec:
    coords: tuple[int, ...]

    @property
    def norm(self) -> int:
        return max(abs(c) for c in self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)


class ApproxMatrix:
    """m x n matrix of exact reals; all quadratic entries share one radicand,
    CF entries are only allowed in the 1 x 1 case."""

    def __init__(self, rows: Sequence[Sequence[ExactReal]]):
        self.rows = tuple(tuple(r) for r in rows)
        self.m = len(self.rows)
        if self.m == 0 or any(len(r) != len(self.rows[0]) for r in self.rows):
            raise ValueError("matrix must be rectangular and nonempty")
        self.n = len(self.rows[0])
        entries = [e for r in self.rows for e in r]
        for e in entries:
            if not isinstance(e, (Fraction, Quadratic, CFReal)):
                raise TypeError(f"bad entry {e!r}")
        self.radicand = _field(entries)
        self.has_cf = any(isinstance(e, CFReal) for e in entries)
        if self.has_cf and (self.m, self.n) != (1, 1):
            raise UnsupportedEntry("CF entries only supported for 1x1 matrices")
        # the 1 x 1 irrational case, served by CF records and union indices
        self.irrational_line = (self.m, self.n) == (1, 1) and not isinstance(
            self.rows[0][0], Fraction
        )

    @cached_property
    def line(self) -> Line1D:
        """The scaled-integer model of the matrix, built once."""
        return Line1D(self)

    @cached_property
    def _surd_rows(self) -> tuple:
        """(U, V, D): integer rows with a_ij = (U_ij + V_ij sqrt d) / D for
        a rational or quadratic matrix, d its radicand, from the one model
        `numeric._surd` of its entries, built once."""
        P, W, D = _surd(e for r in self.rows for e in r)
        starts = range(0, len(P), self.n)
        return tuple(P[i : i + self.n] for i in starts), tuple(W[i : i + self.n] for i in starts), D

    def apply(self, q: Sequence[int]):
        """A q as a list of m exact values (intervals for CF entries)."""
        return [_dot(row, q) for row in self.rows]

    def target(self, b: Optional[Sequence]) -> Optional[tuple]:
        """The target b of a walk or a distance over A, the one rule every
        target and ball centre goes through: None stays None, and any
        other b passes `check_target` with the entries' radicand and CF
        flag."""
        return None if b is None else check_target(b, self.m, self.radicand, self.has_cf)

    def ball(self, center: Sequence, radius) -> tuple[Optional[tuple], Fraction]:
        """(target(center), radius) of a closed ball on the torus;
        ValueError unless the radius lies in (0, 1/2]."""
        radius = Fraction(radius)
        if not 0 < radius <= Fraction(1, 2):
            raise ValueError("ball radius must lie in (0, 1/2]")
        return self.target(center), radius

    def dist(self, q: Sequence[int], b: Optional[Sequence[ExactReal]] = None):
        """||Aq - b||_Z in the sup norm, exactly (b = 0 when omitted); q
        has n coordinates (ValueError otherwise) and b passes `target`.

        A CF matrix takes the distances of its enclosures.  Otherwise the
        entries' model `_surd_rows`, a_ij = (U_ij + V_ij sqrt d) / D, and
        the model (T, S, B) of b from `numeric._surd` (b may be quadratic
        in the entries' field or, for a rational matrix, give the
        radicand) put row i of Aq - b over E = D B as p_i + w_i sqrt d with
        p_i = B u_i.q - D T_i and w_i = B v_i.q - D S_i, and
        `numeric._dist_surds` gives the sup of their distances to Z: one
        value, of the type and value of the distances of `apply`."""
        if len(q) != self.n:
            raise ValueError(f"q needs {self.n} coordinates, got {len(q)}")
        b = self.target(b) or (0,) * self.m
        if self.has_cf:
            return dist_to_int_vec([x - t for x, t in zip(self.apply(q), b)])
        U, V, D = self._surd_rows
        T, S, B = _surd(b)
        rows = [(B * sum(map(mul, u, q)) - D * t, B * sum(map(mul, v, q)) - D * s) for u, v, t, s in zip(U, V, T, S)]
        return _dist_surds(rows, D * B, self.radicand or _field(b) or 0)

    def dist_enclosure(
        self, q: Sequence[int], b: Optional[Sequence[ExactReal]] = None
    ) -> tuple[int, int]:
        """Integers (lo, hi) with lo <= ||Aq - b||_Z 2^shift <= hi, shift
        being `line.shift`: the `Line1D.dist_bounds` of the scaled-integer
        `line` model, for b as `target` takes it, which this alone scales.
        The box holds every value of the exact `dist`'s enclosure too, so a
        comparison it decides, `dist` decides the same way, CF entries
        included."""
        line = self.line
        return line.dist_bounds(q, *line.scale_target(self.target(b)))

    def transference_box(
        self, q: Sequence[int], y: Sequence[int], b: Optional[Sequence[ExactReal]] = None
    ) -> tuple[tuple[int, int], int]:
        """((lo, hi), shift) with lo <= rhs 2^shift <= hi, rhs the right-hand
        side m ||y|| ||Aq - b||_Z + n ||q|| ||tA y||_Z of the key inequality:
        the two `dist_enclosure`s, at `line.shift`, which A and its
        transpose share, weighted and added as integers."""
        wy, wq = self.m * max(map(abs, y)), self.n * max(map(abs, q))
        lo1, hi1 = self.dist_enclosure(q, b)
        lo2, hi2 = self.transpose().dist_enclosure(y)
        return (lo1 * wy + lo2 * wq, hi1 * wy + hi2 * wq), self.line.shift

    @cached_property
    def _transposed(self) -> "ApproxMatrix":
        return ApproxMatrix(
            [[self.rows[i][j] for i in range(self.m)] for j in range(self.n)]
        )

    def transpose(self) -> "ApproxMatrix":
        """The transposed matrix, built once, so its `line` model is too."""
        return self._transposed

    def to_text(self) -> str:
        head = f"{self.m} {self.n}"
        body = "\n".join(" ".join(format_exact(e) for e in r) for r in self.rows)
        return head + "\n" + body + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ApproxMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix file")
        m, n = (int(t) for t in lines[0].split())
        if len(lines) != m + 1:
            raise ValueError(f"expected {m} rows, got {len(lines) - 1}")
        rows = []
        for ln in lines[1:]:
            toks = ln.split()
            if len(toks) != n:
                raise ValueError(f"expected {n} entries per row, got {len(toks)}")
            rows.append([parse_exact(t) for t in toks])
        return cls(rows)


def check_target(b: Sequence, m: int, radicand: Optional[int], has_cf: bool) -> tuple:
    """The target rule of `ApproxMatrix.target` for entries with this
    radicand (None when rational) and CF flag: b as a tuple, a `Quadratic`
    coordinate kept and any other through Fraction().  ValueError unless b
    has m coordinates; UnsupportedEntry for any quadratic coordinate when
    the entries are CF, and unless `numeric._field` finds one radicand in
    b and the entries."""
    b = tuple([x if isinstance(x, Quadratic) else _fraction(x) for x in b])
    if len(b) != m:
        raise ValueError(f"target needs {m} coordinates, got {len(b)}")
    if has_cf and any(isinstance(x, Quadratic) for x in b):
        raise UnsupportedEntry("a CF matrix takes rational targets only")
    _field(b, radicand)
    return b


def _dot(entries: Sequence[ExactReal], q: Sequence[int]):
    acc: Comparable = Fraction(0)
    for e, c in zip(entries, q):
        if c == 0:
            continue
        if isinstance(e, CFReal):
            # two products: RatInterval * c would read c's view and take four
            lo, hi = e.enclosure()
            term: Comparable = RatInterval(lo * c, hi * c) if c > 0 else RatInterval(hi * c, lo * c)
        else:
            term = e * c
        acc = term + acc if isinstance(acc, Fraction) else acc + term
    return acc


def iter_shell(dim: int, s: int) -> Iterator[tuple[int, ...]]:
    """Vectors with sup-norm exactly s, in ascending lexicographic order."""
    if s == 0:
        yield (0,) * dim
        return
    if dim == 1:
        yield from ((-s,), (s,))
        return
    # a head of norm s takes any last coordinate, any other head only -s, s
    side, ends = range(-s, s + 1), (-s, s)
    for head in product(side, repeat=dim - 1):
        for c in side if s in head or -s in head else ends:
            yield head + (c,)


def shell_size(dim: int, s: int) -> int:
    if s == 0:
        return 1
    if dim == 1:
        return 2
    return (2 * s + 1) ** dim - (2 * s - 1) ** dim


def _ball_points(n: int, s: int) -> int:
    """Points of Z^n with sup norm at most s (none for s < 0)."""
    return (2 * s + 1) ** n if s >= 0 else 0


def window_points(n: int, shells: range) -> int:
    """Points of Z^n on the shells of a range of consecutive shells: the
    sum of their `shell_size`s, in closed form."""
    return _ball_points(n, shells[-1]) - _ball_points(n, shells.start - 1) if shells else 0


def _over_budget(total: int, budget: int) -> BudgetExceeded:
    """The one refusal of a walk whose point count, total, passes budget."""
    return BudgetExceeded(f"enumeration of {total} points exceeds {budget}")


def _fitting(n: int, shells: range, budget: int) -> range:
    """The shells that `scan` yields over the window before its running
    count passes budget: all of them when the window fits."""
    return shells[: bisect_right(range(len(shells)), budget, key=lambda i: window_points(n, shells[: i + 1]))]


def check_window(n: int, shells: range, budget: int) -> int:
    """window_points(n, shells), checked up front: when the window holds
    more than budget points, the BudgetExceeded that `scan` raises over it,
    at the first shell whose running count passes budget."""
    total = window_points(n, shells)
    if total > budget:
        raise _over_budget(window_points(n, shells[: len(_fitting(n, shells, budget)) + 1]), budget)
    return total


def scan(dim: int, shells: Iterable[int], budget: int) -> Iterator[tuple[int, Iterator]]:
    """(s, points of the sup-norm shell s in lexicographic order) for each s
    in turn.  A shell is charged to the running point count before it is
    yielded; BudgetExceeded once the count passes budget."""
    total = 0
    for s in shells:
        total += shell_size(dim, s)
        if total > budget:
            raise _over_budget(total, budget)
        yield s, iter_shell(dim, s)


def scaled_boxes(xs: Iterable, bits: int) -> tuple[tuple[int, int], ...]:
    """The boxes of the counterpart table of `analysis`: integers (lo, hi)
    with lo <= x 2^bits <= hi for each x, by `threshold_bounds`, so an
    enclosure end that is not dyadic is rounded outward."""
    return tuple(threshold_bounds(x, bits) for x in xs)


@dataclass(frozen=True)
class Constant:
    """The constant threshold psi(s) = thr of every shell s, for a value thr
    that `threshold_bounds` encloses: a fixed radius as a psi."""

    thr: Comparable | Radical

    def scaled_bounds(self, shells: Iterable[int], shift: int) -> Iterator[tuple[int, int]]:
        """The one enclosure of thr at 2^-shift, repeated for every shell."""
        return repeat(threshold_bounds(self.thr, shift))

    def compare_value(self, d: Comparable, s: int) -> Ordering:
        """The certified ordering of d against thr; PrecisionExhausted when
        undecided."""
        return _decided(compare(d, self.thr))


def threshold(A: ApproxMatrix, thr: Comparable | Radical | ApproxFunction) -> ApproxFunction | Constant:
    """thr as the psi of a walk over A, the one place the two kinds of
    threshold are told apart: a psi (anything with compare_value) passes
    through unchanged, and a value becomes `Constant`(thr) once
    `numeric._field` has checked it (UnsupportedEntry for a value, or the
    radicand of a `Radical`, outside the field of A's entries and Q)."""
    if hasattr(thr, "compare_value"):
        return thr
    _field((thr,), A.radicand)
    return Constant(thr)


def within(
    A: ApproxMatrix, shells: range, budget: int, thr: Comparable | Radical | ApproxFunction,
    b: Optional[Sequence[ExactReal]] = None, closed: bool = False,
) -> Iterator[tuple[int, tuple[int, ...], Ordering]]:
    """(s, q, c) for every q in the order of scan(A.n, shells, budget) with
    ||Aq - b||_Z < psi(s), or <= psi(s) when closed, where psi is
    threshold(A, thr) (so a value is checked before any point is scanned)
    and c is the ordering of that distance against psi(s): LESS, or EQUAL
    on the boundary of a closed threshold.  b passes `ApproxMatrix.target`
    before any point is scanned.

    The scaled bounds of psi come from psi.scaled_bounds(shells, shift),
    drawn in step with the scan, so a walk that stops at a hit encloses no
    later shell: a value is enclosed once, and a `PowerLog` gives integer
    roots over a running fixed-point ln s whose every rounding is counted
    in its width.  Each point is decided by `_decide`, so the hits,
    BudgetExceeded and PrecisionExhausted are those of the exact scan.
    """
    line = A.line
    psi = threshold(A, thr)
    bounds = psi.scaled_bounds(shells, line.shift)
    b = A.target(b)
    yield from _decide(A, psi, closed, b, line.scale_target(b), zip(scan(A.n, shells, budget), bounds))


def _decide(
    A: ApproxMatrix, psi: ApproxFunction | Constant, closed: bool, b: Optional[tuple], scaled: tuple,
    shells: Iterable[tuple[tuple[int, Iterable], tuple[int, int]]],
) -> Iterator[tuple[int, tuple[int, ...], Ordering]]:
    """The per-point rule of `within` and of `centre_index`: (s, q, c) for
    every point q of each ((s, points), (thr_lo, thr_hi)) of shells, in
    turn, that meets psi(s) as `within` states it, (thr_lo, thr_hi) being
    the scaled bounds of psi(s).  b has passed `ApproxMatrix.target` and
    scaled is its `scale_target`.  Scaled-integer bounds accept q with
    c = LESS when d_hi < thr_lo and reject it when d_lo > thr_hi; only a
    point inside that margin is compared exactly, by psi.compare_value,
    raising PrecisionExhausted when undecided."""
    b_scaled, b_err = scaled
    dist_bounds = A.line.dist_bounds
    for (s, points), (thr_lo, thr_hi) in shells:
        for q in points:
            d_lo, d_hi = dist_bounds(q, b_scaled, b_err)
            if d_hi < thr_lo:
                yield s, q, Ordering.LESS
            elif d_lo <= thr_hi:
                c = psi.compare_value(A.dist(q, b), s)
                if c is Ordering.LESS or (closed and c is Ordering.EQUAL):
                    yield s, q, c


def centre_index(
    A: ApproxMatrix, shells: range, budget: int, thr: Comparable | Radical | ApproxFunction,
    closed: bool = False,
) -> Callable[[Optional[Sequence[ExactReal]]], Optional[tuple[int, tuple[int, ...], Ordering]]]:
    """One sorted-centre index over the window of shells: a function of a
    target b giving the first hit of within(A, shells, budget, thr, b,
    closed), or None, and raising what that walk raises first.

    The window's points are enumerated once by `scan` (so BudgetExceeded
    when the window exceeds budget) and sorted by the scaled first-row
    centre of `Line1D`, sum_j q_j a_0j mod 2^shift.  A point whose centre
    lies farther than R = max thr_hi + s_max sum_j err_0j + b_err from b's
    scaled first coordinate, on the circle, has d_lo > thr_hi, so the walk
    rejects it without an exact comparison.  A query therefore takes the
    centres within R of b (two bisections, wrapping mod 2^shift) and hands
    them to `_decide` in scan order, each with its own shell's bounds: its
    first hit, or first PrecisionExhausted, is the walk's."""
    line = A.line
    mod = line.mod
    psi = threshold(A, thr)
    points = [(s, q) for s, shell in scan(A.n, shells, budget) for q in shell]
    per_shell = dict(zip(shells, psi.scaled_bounds(shells, line.shift)))
    row = line.a_rows[0]
    keys = [sum(map(mul, q, row)) % mod for _, q in points]
    order = sorted(range(len(points)), key=keys.__getitem__)
    keys = [keys[i] for i in order]
    s_max = shells[-1] if shells else 0
    reach = max((hi for _, hi in per_shell.values()), default=0) + s_max * sum(line.err_rows[0])

    def first_hit(b):
        b = A.target(b)
        scaled = line.scale_target(b)
        b0 = scaled[0] if isinstance(scaled[0], int) else scaled[0][0]
        r = reach + scaled[1]
        if 2 * r + 1 >= mod:
            near = range(len(points))
        else:
            lo, hi = (b0 - r) % mod, (b0 + r) % mod
            i, j = bisect_left(keys, lo), bisect_right(keys, hi)
            near = sorted(order[i:j] if lo <= hi else order[i:] + order[:j])
        walk = (((s, [q for _, q in pts]), per_shell[s]) for s, pts in groupby(map(points.__getitem__, near), itemgetter(0)))
        return next(_decide(A, psi, closed, b, scaled, walk), None)

    return first_hit


def first_hits(
    A: ApproxMatrix, shells: range, budget: int, thr: Comparable | Radical | ApproxFunction,
    targets: Iterable[Optional[Sequence[ExactReal]]], closed: bool = False,
) -> Iterator[tuple[Optional[tuple], Optional[tuple[int, tuple[int, ...], Ordering]]]]:
    """(b, first hit of within(A, shells, budget, thr, b, closed) or None)
    for each target in turn, b as `ApproxMatrix.target` returns it, with
    what that walk raises first raised in its place.

    Each target walks `within` until the walks made have cost at least the
    window's size (a hit at shell s costs the window's points up to s, a
    miss the whole window); from then on, if the window fits budget, one
    `centre_index` built then answers every later target.  The batch thus
    never pays more than twice the cheaper of walking and indexing, a
    single target never builds an index, and a window over budget keeps
    its walks and their BudgetExceeded."""
    size = window_points(A.n, shells)
    spent, index = 0, None
    for b in targets:
        if index is None and 0 < size <= budget and spent >= size:
            index = centre_index(A, shells, budget, thr, closed)
        if index is not None:
            hit = index(b)
        else:
            hit = next(within(A, shells, budget, thr, b, closed), None)
            spent += size if hit is None else window_points(A.n, range(shells.start, hit[0] + 1))
        yield A.target(b), hit


def records(
    A: ApproxMatrix, shells: range, budget: int, key: Callable,
    b: Optional[Sequence[ExactReal]] = None,
) -> Iterator[tuple[int, tuple[int, ...], Comparable]]:
    """(s, q, key(s, ||Aq - b||_Z)) for every q in the order of
    scan(A.n, shells, budget) whose key is strictly below the keys of all
    earlier points; b passes `ApproxMatrix.target` before any point is
    scanned.  key must be nondecreasing in the distance d, as d and d^m s^n
    are; with a target on a 1 x 1 irrational line, key(s, d) >= d for
    s >= 1 too, as for d and d s, and shells must step by 1.  Strict
    comparison keeps each record's lexicographically first attainer; an
    undecided comparison raises PrecisionExhausted.

    A point whose scaled lower bound d_lo gives key(s, d_lo 2^-shift) above
    the upper end of the current record's enclosure cannot set a record and
    is skipped without an exact distance.  Without a target, a q whose
    first nonzero coordinate is positive is skipped too: -q comes earlier
    in its shell at exactly the same distance, so q cannot set a strict
    record, even where a CF entry's enclosures could not decide the tie.
    Every other tie and overlap reaches the exact comparison, so the
    records, BudgetExceeded and PrecisionExhausted are those of the exact
    walk with mirror points skipped.

    A 1 x 1 irrational line with a target visits, in place of every point
    of the scan, the points `_arc_points` finds near b: under the two
    conditions above, a superset of those the filter keeps, so each gets
    the same test and the walk's records and errors are unchanged."""
    line = A.line
    b = A.target(b)
    b_scaled, b_err = line.scale_target(b)
    dist_bounds = line.dist_bounds
    mirrored = b is None
    best = best_hi = None
    if A.irrational_line and not mirrored:
        walk = _arc_points(line, shells, budget, b_scaled[0], b_err, lambda: best_hi)
    else:
        walk = scan(A.n, shells, budget)
    for s, shell in walk:
        for q in shell:
            if mirrored and next(filter(None, q), 0) > 0:
                continue
            if best_hi is not None and key(s, Fraction(dist_bounds(q, b_scaled, b_err)[0], line.mod)) > best_hi:
                continue
            k = key(s, A.dist(q, b))
            if best is None or lt(k, best):
                best, best_hi = k, enclose(k, line.shift)[1]
                yield s, q, k


def _arc_points(
    line: Line1D, shells: range, budget: int, B: int, b_err: int, bound: Callable[[], Optional[Fraction]],
) -> Iterator[tuple[int, tuple[tuple[int], ...]]]:
    """(s, ((q,),)) in the order of scan(1, shells, budget) for each point
    q = -s, s of a 1 x 1 line whose scaled centre q a_lo lies within R of
    B on the circle of 2^shift cells, then the BudgetExceeded of
    check_window(1, shells, budget), if any, where scan would raise it;
    shells must step by 1, and the caller must need only the points with
    d_lo <= bound() 2^shift, as a filter on key(s, d) >= d does.

    R = floor(bound() 2^shift) + S unit_err + b_err, S the last shell
    scanned, is read afresh before each point, and covers the circle while
    bound() is None.  A point with d_lo <= bound() 2^shift, as
    `Line1D.dist_bounds` gives d_lo, has its centre within
    d_lo + s unit_err + b_err <= R of B, so every such point is listed.
    Each sign's next point is its `_arc_entry`: q = -s at centre distance
    from B that of s a_lo from -B; -s comes first in its shell."""
    fit = _fitting(1, shells, budget)
    if fit:
        a, mod, last = line.a_lo, line.mod, fit[-1]
        reach = last * line.unit_err + b_err
        # walk positions: 2s for (-s,) and 2s + 1 for (s,); shell 0 holds (0,) alone
        t = 2 * fit.start
        while True:
            hi = bound()
            R = mod if hi is None else scale_fraction(hi, line.shift) + reach
            entries = _arc_entry(a, -B, R, (t + 1) // 2, mod), _arc_entry(a, B, R, t // 2, mod)
            t = min((2 * s + i for i, s in enumerate(entries) if s is not None), default=None)
            if t is None or t // 2 > last:
                break
            s = t // 2
            yield s, ((s if t % 2 else -s,),)
            t += 1 if s else 2
    check_window(1, shells, budget)


def _arc_entry(a: int, B: int, R: int, s0: int, mod: int) -> Optional[int]:
    """The first s >= s0 with (s a - B) mod `mod` within R of 0 on the
    circle, or None when no s has it: the first entry of the rotation
    s -> s a into the arc of radius R about B.

    The arc is unwrapped to [0, 2R]: s enters exactly when
    (s a - B + R) mod `mod` <= 2R, which every s does once 2R + 1 >= mod.
    With c that residue at s0, the step t = s - s0 is 0 when c <= 2R, and
    else the least t with a t mod `mod` in [mod - c, mod - c + 2R], an
    interval that does not wrap, by `_least_in`."""
    if 2 * R + 1 >= mod:
        return s0
    c = (s0 * a - B + R) % mod
    if c <= 2 * R:
        return s0
    t = _least_in(a % mod, mod, mod - c, mod - c + 2 * R)
    return None if t is None else s0 + t


def _least_in(a: int, m: int, l: int, r: int) -> Optional[int]:
    """The least x >= 0 with a x mod m in [l, r], for 0 <= a < m and
    0 < l <= r < m, or None when there is none; O(log m) steps.

    With y = floor(a x / m), the least x has the least y.  y = 0 serves
    when a multiple of a lies in [l, r], at x = ceil(l / a).  Otherwise y
    is the least with a multiple of a in [m y + l, m y + r], that is with
    (m mod a) y mod a in [-r mod a, -l mod a], an interval that misses 0,
    and x = ceil((m y + l) / a): Euclid's step (m, a) -> (a, m mod a)."""
    if a == 0:
        return None
    x = -(-l // a)
    if a * x <= r:
        return x
    y = _least_in(m % a, a, -r % a, -l % a)
    return None if y is None else -(-(m * y + l) // a)


def _last_below(recs: Iterable[tuple[int, Comparable]], X: int) -> Optional[Comparable]:
    """Value of the last record (s, value) with s < X, or None: the best
    distance over 0 < ||q|| < X of a record walk in shell order."""
    d = None
    for s, v in recs:
        if s >= X:
            break
        d = v
    return d


# ---------------------------------------------------------------------------
# homogeneous search and return sequences
# ---------------------------------------------------------------------------


def solve_homogeneous(
    A: ApproxMatrix,
    C: Comparable | Radical,
    X: int,
    budget: int = DEFAULT_BUDGET,
) -> Optional[IntVec]:
    """First q (shell-then-lex order) with 0 < ||q|| < X and ||Aq||_Z < C,
    for C an exact value or a `Radical`; a 1 x 1 irrational line answers
    from its convergent records (`_homogeneous`)."""
    if sign(C) <= 0 or X < 1:
        raise ValueError("need C > 0 and X >= 1")
    return _homogeneous(A, X, budget)(C, X)


def _homogeneous(
    A: ApproxMatrix, X_max: int, budget: int,
) -> Callable[[Comparable | Radical, int], Optional[IntVec]]:
    """solve_homogeneous(A, C, X, budget) as a function of (C, X), for
    X <= X_max: the `within` walk over shells 1..X-1, or for a 1 x 1
    irrational line its convergent records below X_max, read once.

    On a line the first |q| with ||q alpha||_Z < C is a record q_k, and
    the walk meets -q_k first in its shell.  So the answer is -q_k for the
    first record q_k < X whose distance A.dist((q_k,)) (exact for a
    quadratic alpha, the enclosure's for a CF one) is certainly < C, and
    None when every record below X is certainly >= C; either is charged
    by `check_window` over the shells the walk takes, 1..q_k on a hit and
    1..X-1 on a miss.  A record comparison left undecided, or an X - 1 at
    or past the records' reach, takes the walk, with its own errors.  A
    point that is not a record is farther than the record before it, so
    on a CF line the records may decide where the walk raises
    PrecisionExhausted at such a point."""
    recs, reach = [], 0
    if A.irrational_line:
        found, reach = _line_records(A.rows[0][0], X_max - 1)
        recs = [(q, A.dist((q,))) for q, _ in found]

    def solve(C: Comparable | Radical, X: int) -> Optional[IntVec]:
        psi = threshold(A, C)
        if X - 1 < reach:
            for q, d in takewhile(lambda r: r[0] < X, recs):
                c = compare(d, C)
                if not c.decided:
                    break
                if c is Ordering.LESS:
                    check_window(1, range(1, q + 1), budget)
                    return IntVec((-q,))
            else:
                check_window(1, range(1, X), budget)
                return None
        hit = next(within(A, range(1, X), budget, psi), None)
        return None if hit is None else IntVec(hit[1])

    return solve


@dataclass
class ReturnSequence:
    """L(eps) truncated to [1, ell_max]: levels with no small homogeneous
    solution below the eps * 2^(-(n/m) l) threshold."""

    epsilon: ExactReal
    ell_max: int
    levels: list[int]
    m: int
    n: int

    def csv_rows(self) -> list[list[str]]:
        rows = [["ell", "in_return_sequence", "threshold_pow_m", "threshold_dec"]]
        lv = set(self.levels)
        for ell in range(1, self.ell_max + 1):
            thr = ex_pow(self.epsilon, self.m) * Fraction(1, 1 << (self.n * ell))
            rows.append(
                [
                    str(ell),
                    "1" if ell in lv else "0",
                    format_exact(thr),
                    dec_str(Radical(thr, self.m)),
                ]
            )
        return rows


def return_sequence(
    A: ApproxMatrix,
    epsilon: Comparable,
    ell_max: int,
    budget: int = DEFAULT_BUDGET,
) -> ReturnSequence:
    """Levels l in [1, ell_max] with no q, 0 < ||q|| < 2^l and
    ||Aq||_Z < eps * 2^(-(n/m) l); the threshold is compared on m-th powers."""
    if sign(epsilon) <= 0 or ell_max < 1:
        raise ValueError("need eps > 0 and ell_max >= 1")
    levels = _levels(A, ex_pow(epsilon, A.m), range(1, ell_max + 1), budget)
    return ReturnSequence(epsilon, ell_max, levels, A.m, A.n)


def in_return_sequence(A: ApproxMatrix, eps_m: Comparable, ell: int, budget: int) -> bool:
    """Level l of L(eps), from eps^m: no q with 0 < ||q|| < 2^l and
    ||Aq||_Z^m < eps^m 2^(-n l)."""
    return _levels(A, eps_m, [ell], budget) == [ell]


def _levels(A: ApproxMatrix, eps_m: Comparable, ells: Sequence[int], budget: int) -> list[int]:
    """The levels of ells (ascending, nonempty) in L(eps), from eps^m, with
    one `_homogeneous` search, so a line's records are read once."""
    solve = _homogeneous(A, 1 << ells[-1], budget)
    return [ell for ell in ells if solve(Radical(eps_m * Fraction(1, 1 << (A.n * ell)), A.m), 1 << ell) is None]


def bad_witness(
    A: ApproxMatrix, Q: int, budget: int = DEFAULT_BUDGET
) -> tuple[Comparable, IntVec]:
    """min over 0 < ||q|| <= Q of ||q||^(n/m) ||Aq||_Z, minimized on m-th
    powers; reported exactly for m = 1 and as an m-th root otherwise."""
    if Q < 1:
        raise ValueError("Q >= 1 required")
    m, n = A.m, A.n
    *_, (_, q, key) = records(
        A, range(1, Q + 1), budget, lambda s, d: ex_pow(d, m) * Fraction(s**n)
    )
    return (key if m == 1 else Radical(key, m)), IntVec(q)


# ---------------------------------------------------------------------------
# best approximations for the transpose
# ---------------------------------------------------------------------------


@dataclass
class BestApproxEntry:
    y: IntVec
    Y: int
    M: Comparable  # ||(t)A y||_Z


@dataclass
class BestApproxSequence:
    entries: list[BestApproxEntry]
    y_max: int
    # the counterpart tables of `analysis._counterparts`, by (m, n), each
    # built on first use, like `_target_field`; valid because no caller
    # changes entries
    counterparts: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def Y(self) -> list[int]:
        return [e.Y for e in self.entries]

    @cached_property
    def _target_field(self) -> tuple[Optional[int], bool]:
        """The radicand and CF flag of the distances M_k, computed once."""
        Ms = [e.M for e in self.entries]
        return _field(Ms), any(isinstance(M, RatInterval) for M in Ms)

    def target(self, b: Sequence, m: int) -> tuple:
        """b through `check_target` with the radicand and CF flag of the
        records' distances M_k, so a `Quadratic` coordinate is kept and
        b . y_k is exact."""
        return check_target(b, m, *self._target_field)

    def csv_rows(self) -> list[list[str]]:
        rows = [["k", "y", "Y", "M_exact", "M_dec"]]
        for k, e in enumerate(self.entries, start=1):
            m_lit = (
                f"[{dec_str(e.M)}]"
                if isinstance(e.M, RatInterval)
                else format_exact(e.M)
            )
            rows.append(
                [str(k), " ".join(str(c) for c in e.y.coords), str(e.Y), m_lit, dec_str(e.M)]
            )
        return rows


def best_approximations(
    A: ApproxMatrix, Y_max: int, budget: int = DEFAULT_BUDGET
) -> BestApproxSequence:
    """Record-improving ||(t)A y||_Z minimizers over shells ||y|| = 1..Y_max.

    For 1 x 1 irrational matrices the records are the CF convergents, read
    off without a shell scan; a CF entry raises PrecisionExhausted past the
    horizon its partial quotients certify.
    """
    if Y_max < 1:
        raise ValueError("Y_max >= 1 required")
    if not A.has_cf and not check_rank(A):
        raise RankDeficient("integer-translate group is not of maximal rank")
    if A.irrational_line:
        return _best_approximations_1d(A, Y_max)
    return _best_approximations_scan(A, Y_max, budget)


def _best_approximations_scan(
    A: ApproxMatrix, Y_max: int, budget: int
) -> BestApproxSequence:
    # a strictly closer point of the same shell replaces its record: each
    # entry is its shell's lexicographically first minimizer.  A best
    # approximation lies below 1/2; of the walk's records only the first
    # can lie at 1/2
    last = {
        s: (y, d)
        for s, y, d in records(A.transpose(), range(1, Y_max + 1), budget, lambda s, d: d)
        if lt(d, Fraction(1, 2))
    }
    return BestApproxSequence(
        [BestApproxEntry(IntVec(y), s, d) for s, (y, d) in last.items()], Y_max
    )


def _line_records(alpha: Quadratic | CFReal, Y_max: int) -> tuple[list[tuple[int, int]], int]:
    """((q_k, q_(k+1)) for each record q_k <= Y_max of the irrational
    alpha, and their reach: every record below reach is listed.

    The records of an irrational alpha are its convergents (Lagrange):
    ||q_k alpha||_Z = |q_k alpha - p_k| strictly decreases for k >= 1, and
    q_0 = q_1 = 1 when a_1 = 1, so convergent k is a record iff
    q_k < q_(k+1).  The reach is Y_max + 1 for a quadratic alpha.  A CF
    entry read to n convergents (at most 64) is any real between the last
    two, whose convergents are certain up to q_(n-2) alone: it lists the
    records below q_(n-2), and its reach is min(Y_max + 1, q_(n-2))."""
    if isinstance(alpha, CFReal):
        conv = alpha.convergents()
        reach = min(Y_max + 1, conv[-2][1] if len(conv) > 1 else 0)
    else:
        conv = convergents(a for a, _ in _quotients(alpha))
        reach = Y_max + 1
    recs = []
    for (_, q), (_, q_next) in pairwise(conv):
        if q >= reach:
            break
        if q < q_next:
            recs.append((q, q_next))
    return recs, reach


def _best_approximations_1d(A: ApproxMatrix, Y_max: int) -> BestApproxSequence:
    """The records of `_line_records`; the lexicographic tie-break over the
    shell {-q, q} picks -q.

    M is A.dist((q_k,)), exact for a quadratic alpha.  For a CF entry
    read to n convergents (at most 64), only its tails alpha_(k+1) in
    (a_(k+1), a_(k+1) + 1) for k <= n - 3 are known, giving
    M = 1/(alpha_(k+1) q_k + q_(k-1)) in (1/(q_(k+1) + q_k), 1/q_(k+1));
    Y_max >= q_(n-2) raises PrecisionExhausted."""
    alpha = A.rows[0][0]
    recs, reach = _line_records(alpha, Y_max)
    if Y_max >= reach:
        raise PrecisionExhausted(f"CF entry certifies best approximations only for Y_max < {reach}")
    entries = [
        BestApproxEntry(
            IntVec((-q,)), q,
            RatInterval(Fraction(1, q_next + q), Fraction(1, q_next))
            if isinstance(alpha, CFReal)
            else A.dist((q,)),
        )
        for q, q_next in recs
    ]
    return BestApproxSequence(entries, Y_max)


# ---------------------------------------------------------------------------
# rank of (t)A Z^m + Z^n
# ---------------------------------------------------------------------------


def check_rank(A: ApproxMatrix) -> bool:
    """True iff the group (t)A Z^m + Z^n has full rank m + n over Z.

    Equivalent to: no nonzero y in Z^m has (t)A y in Z^n.  A nonzero y with
    integral image must kill every sqrt(d)-coefficient, and any rational
    vector in that kernel scales to an integral witness, so full rank holds
    exactly when the irrational-part matrix has trivial left kernel.
    """
    if A.has_cf:
        raise UnsupportedEntry("rank check unsupported for CF entries")
    # the sqrt(d)-coefficients of the entries, one row per i, scaled by D
    return _rational_rank(A._surd_rows[1]) == A.m


def _rational_rank(rows: Sequence[Sequence[int]]) -> int:
    mat = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [v / pv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


# ---------------------------------------------------------------------------
# continued-fraction diagnostics
# ---------------------------------------------------------------------------


@dataclass
class CFExpansion:
    quotients: list[int]
    terminated: bool = False
    period: Optional[list[int]] = None
    preperiod: int = 0


def _quotients(alpha: Fraction | Quadratic) -> Iterator[tuple[int, Fraction | Quadratic]]:
    """(a_k, alpha_k), the partial and complete quotients of the exact CF
    algorithm alpha_0 = alpha, alpha_(k+1) = 1/(alpha_k - a_k): finite for a
    rational alpha, endless (and eventually periodic) for a quadratic one."""
    x = alpha
    while True:
        a = floor_exact(x)
        yield a, x
        if x == a:
            return
        x = 1 / (x - a)


def continued_fraction(alpha: ExactReal, k: int) -> CFExpansion:
    """First k partial quotients; the period of a quadratic starts at the
    first complete quotient that repeats among those k."""
    if k < 1:
        raise ValueError("k >= 1 required")
    if not isinstance(alpha, (Fraction, Quadratic)):
        raise UnsupportedEntry("continued_fraction needs a rational or quadratic")
    qs: list[int] = []
    seen: dict[Fraction | Quadratic, int] = {}
    for a, x in _quotients(alpha):
        if len(qs) == k:
            return CFExpansion(qs)
        if x in seen:
            pre = seen[x]
            period = qs[pre:]
            qs += islice(cycle(period), k - len(qs))
            return CFExpansion(qs, period=period, preperiod=pre)
        seen[x] = len(qs)
        qs.append(a)
    return CFExpansion(qs, terminated=True)
