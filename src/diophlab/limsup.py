"""Truncated limsup-set machinery: psi-approximability in windows, resonant
neighborhoods, ubiquity parameters and coverage, Monte Carlo measure
estimation for the well- and badly-approximable target sets."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import InvalidWindow, PrecisionExhausted
from .fastpath import UnionIndex1D
from .lattice import (
    DEFAULT_BUDGET,
    ApproxMatrix,
    IntVec,
    ReturnSequence,
    check_window,
    first_hits,
    shell_size,
    threshold,
    within,
)
from .numeric import (
    Comparable,
    ExactReal,
    Ordering,
    Radical,
    RatInterval,
    _ceil_root,
    _decided,
    _floor_root,
    _scaled_pow,
    _surd,
    compare,
    dec_str,
    ex_pow,
    floor_exact,
    format_exact,
    le,
    lt,
)
from .sampling import binomial_ci, grid_points, sample_point
from .transference import corollary_bounds

__all__ = [
    "ApproxFunction",
    "CoverageEntry",
    "MeasureEstimate",
    "PowerLog",
    "TablePsi",
    "UbiquityParams",
    "Window",
    "check_u_regular",
    "coverage",
    "delta_membership",
    "diameter_sum",
    "measure_Bad",
    "measure_W",
    "psi_witness",
    "ubiquity_params",
]


# ---------------------------------------------------------------------------
# approximation functions
# ---------------------------------------------------------------------------


class ApproxFunction:
    """Positive nonincreasing psi on [1, oo)."""

    def value_bounds(self, q: int, bits: int = 80) -> tuple[Fraction, Fraction]:
        raise NotImplementedError

    def scaled_bounds(self, qs: Iterable[int], shift: int) -> Iterator[tuple[int, int]]:
        """Integers (lo, hi) with lo <= psi(q) * 2^shift <= hi for each q of
        the increasing sequence qs in turn, drawn lazily: a consumer that
        stops early encloses no later q.  Here, the floor and ceiling of
        the scaled 80-bit value_bounds(q)."""
        for q in qs:
            lo, hi = self.value_bounds(q)
            yield (lo.numerator << shift) // lo.denominator, -((-hi.numerator << shift) // hi.denominator)

    def compare_value(self, d: Comparable, q: int) -> Ordering:
        """The certified ordering of d against psi(q), refining the enclosure
        of psi(q) from 80 to 160 to 320 bits; a psi(q) known exactly is
        compared exactly.  PrecisionExhausted when still undecided."""
        for bits in (80, 160, 320):
            lo, hi = self.value_bounds(q, bits)
            c = compare(d, lo if lo == hi else RatInterval(lo, hi))
            if c.decided:
                return c
        raise PrecisionExhausted(f"psi({q}) enclosure too wide for comparison")

    def lt_value(self, d: Comparable, q: int) -> bool:
        """Certified d < psi(q)."""
        return self.compare_value(d, q) is Ordering.LESS


def _psi_cells(
    psi: ApproxFunction, cells: Sequence[tuple[int, int, int, int]], s: Fraction, shift: int, c: int = 1
) -> tuple[list[int], list[int]]:
    """The one bracketed psi-sum: for each cell (a, b, w_lo, w_hi) with
    1 <= a <= b, integers lo <= w_lo (c psi(b))^s 2^shift and
    hi >= w_hi (c psi(a))^s 2^shift, as the lists (los, his).  Since psi
    is nonincreasing, a cell whose weights w_lo <= w_hi bound those of its
    terms q in [a, b] brackets their sum, and a caller adds the integers
    exactly.  One increasing pass of psi.scaled_bounds encloses each
    distinct end once, at 2^-shift; (c psi)^s is an integer power and root
    of each end (`_scaled_pow`)."""
    qs = sorted({a for a, _, _, _ in cells} | {b for _, b, _, _ in cells})
    pows = {q: _scaled_pow(c * lo, c * hi, s, shift) for q, (lo, hi) in zip(qs, psi.scaled_bounds(qs, shift))}
    return [w * pows[b][0] for _, b, w, _ in cells], [w * pows[a][1] for a, _, _, w in cells]


@dataclass(frozen=True)
class PowerLog(ApproxFunction):
    """psi(q) = c * q^-a * max(ln q, 1)^-beta with rational c > 0, a >= 0."""

    c: Fraction
    a: Fraction
    beta: Fraction

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c > 0 required")
        if self.a < 0 or (self.a == 0 and self.beta < 0):
            raise ValueError("psi must be nonincreasing: a > 0, or a = 0, beta >= 0")

    def value_bounds(self, q: int, bits: int = 80) -> tuple[Fraction, Fraction]:
        """psi(q) exactly where it is rational (integer a, and beta = 0 or
        q <= 2), else scaled_bounds at 2^-bits."""
        if q < 1:
            raise ValueError("q >= 1 required")
        if self.a.denominator == 1 and (self.beta == 0 or q <= 2):
            v = self.c / q**self.a.numerator
            return v, v
        lo, hi = next(self.scaled_bounds((q,), bits))
        return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)

    def scaled_bounds(self, qs: Iterable[int], shift: int) -> Iterator[tuple[int, int]]:
        """Integer arithmetic only.  With R the least common denominator
        of a and beta, a R = P and beta R = U, and L = max(ln q, 1),
        (psi(q) 2^shift)^R = c^R 2^(shift R) / (q^P L^U): one floored and
        one ceiled integer R-th root of that rational, L taken from either
        end of `_ln_scaled`'s running fixed-point ln q at _GUARD bits below
        the scale, clamped to 1 (exactly, where q <= 2).  With beta = 0
        no logarithm is taken, and the pair is the floor and ceiling of
        psi(q) 2^shift, which for integer a (R = 1, U = 0) is taken in
        closed form, as the floor and ceiling of c 2^shift / q^a."""
        (P, U), _, R = _surd((self.a, self.beta))
        if R == 1 and U == 0:
            num, den = self.c.numerator << shift, self.c.denominator
            for q in qs:
                if q < 1:
                    raise ValueError("q >= 1 required")
                lo, rem = divmod(num, den * q**P)
                yield lo, lo + (rem > 0)
            return
        w = shift + _GUARD
        one = 1 << w
        # L^-U = 2^(w U) / (L 2^w)^U
        num = self.c.numerator**R << (shift * R + max(w * U, 0))
        den = self.c.denominator**R << max(-w * U, 0)
        logs = _ln_scaled(qs, w) if U else ((q, one, one) for q in qs)
        for q, l_lo, l_hi in logs:
            if q < 1:
                raise ValueError("q >= 1 required")
            # only q <= 2 clamps; conditional expressions cost less than the
            # two max calls per q of a long window
            l_lo, l_hi = (l_lo if l_lo > one else one), (l_hi if l_hi > one else one)
            d = den * q**P
            if U > 0:  # psi falls as L grows: its lower end takes L's upper
                yield _floor_root(num, d * l_hi**U, R), _ceil_root(num, d * l_lo**U, R)
            else:
                yield _floor_root(num * l_lo**-U, d, R), _ceil_root(num * l_hi**-U, d, R)

    def compare_value(self, d: Comparable, q: int) -> Ordering:
        if self.beta != 0 and q > 2:
            return super().compare_value(d, q)
        # max(ln q, 1) = 1 here: d against c q^(-p/r) as d^r q^p against
        # c^r, exact in the field
        p, r = self.a.numerator, self.a.denominator
        return _decided(compare(ex_pow(d, r) * Fraction(q**p), self.c**r))

    def to_json(self) -> dict:
        return {"kind": "powerlog", "c": str(self.c), "a": str(self.a), "beta": str(self.beta)}


# guard bits of the fixed-point ln q below the scale of a psi enclosure
_GUARD = 40


def _atanh_scaled(n: int, d: int, w: int) -> tuple[int, int]:
    """(lo, hi) with lo <= atanh(n/d) * 2^w < hi, for 0 <= n/d <= 1/3.

    The series sum_k x^(2k+1)/(2k+1) is summed as floored terms
    t_k // (2k+1) with t_0 = floor(x 2^w) and t_k = floor(t_(k-1) x^2),
    up to the first t_k = 0.  Each t_k lies below x^(2k+1) 2^w by less
    than 1 + 1/9 + 1/81 + ... = 9/8, so each term falls short by less than
    2, and the dropped tail, below (9/8)^2, is less than 2 as well."""
    n2, d2 = n * n, d * d
    t = (n << w) // d
    s, k = 0, 1
    while t:
        s += t // k
        t = t * n2 // d2
        k += 2
    return s, s + k + 1  # (k - 1)/2 terms taken


@cache
def _ln2_scaled(w: int) -> tuple[int, int]:
    """Bounds on ln 2 * 2^w from ln 2 = 2 atanh(1/3), made on first use."""
    lo, hi = _atanh_scaled(1, 3, w)
    return 2 * lo, 2 * hi


def _ln_scaled(qs: Iterable[int], w: int) -> Iterator[tuple[int, int, int]]:
    """(q, lo, hi) with lo <= ln(q) * 2^w <= hi for each q of qs in turn.

    A q above the one before it, a, and at most 2a advances the running
    bounds by ln q - ln a = 2 atanh((q - a)/(q + a)), summing the errors
    of `_atanh_scaled`; any other q, and a q reached once the running
    width passes 2^(_GUARD / 2), is seeded as k ln 2 + ln(q / 2^k) with
    2^k <= q < 2^(k+1), ln(q / 2^k) = 2 atanh((q - 2^k)/(q + 2^k)).  No
    atanh argument exceeds 1/3."""
    a = lo = hi = 0
    for q in qs:
        if a < q <= 2 * a and hi - lo < 1 << (_GUARD // 2):
            t_lo, t_hi = _atanh_scaled(q - a, q + a, w)
            lo, hi = lo + 2 * t_lo, hi + 2 * t_hi
        elif q != a:
            if q < 1:
                raise ValueError("q >= 1 required")
            k = q.bit_length() - 1
            l2_lo, l2_hi = _ln2_scaled(w)
            t_lo, t_hi = _atanh_scaled(q - (1 << k), q + (1 << k), w)
            lo, hi = k * l2_lo + 2 * t_lo, k * l2_hi + 2 * t_hi
        a = q
        yield q, lo, hi


@dataclass(frozen=True)
class TablePsi(ApproxFunction):
    """Step-interpolated table (q_j, value_j), nonincreasing."""

    points: tuple[tuple[int, Fraction], ...]

    def __init__(self, points: Sequence[tuple[int, Fraction]]):
        pts = tuple(sorted((int(q), Fraction(v)) for q, v in points))
        if not pts or pts[0][0] > 1:
            raise ValueError("table must start at q <= 1")
        if any(v <= 0 for _, v in pts):
            raise ValueError("table values must be positive")
        if any(pts[i + 1][1] > pts[i][1] for i in range(len(pts) - 1)):
            raise ValueError("table values must be nonincreasing")
        object.__setattr__(self, "points", pts)

    def value_at(self, q: int) -> Fraction:
        """The value of the last point at or below q, else of the first."""
        return self.points[max(bisect_right(self.points, q, key=itemgetter(0)) - 1, 0)][1]

    def value_bounds(self, q: int, bits: int = 80) -> tuple[Fraction, Fraction]:
        v = self.value_at(q)
        return v, v


# ---------------------------------------------------------------------------
# windows and witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """The annulus l < ||q|| <= u."""

    l: int
    u: int

    def __post_init__(self):
        if self.l < 0 or self.u <= self.l:
            raise InvalidWindow(f"need 0 <= l < u, got ({self.l}, {self.u})")

    @property
    def shells(self) -> range:
        return range(self.l + 1, self.u + 1)


def psi_witness(
    A: ApproxMatrix,
    b: Sequence[Fraction],
    psi: ApproxFunction | Comparable,
    w: Window,
    budget: int = DEFAULT_BUDGET,
) -> Optional[IntVec]:
    """First q (shell-then-lex) in the annulus with ||Aq - b||_Z < psi(||q||),
    a value psi being the constant psi (`lattice.threshold`)."""
    check_window(A.n, w.shells, budget)
    hit = next(within(A, w.shells, budget, psi, b), None)
    return None if hit is None else IntVec(hit[1])


def delta_membership(
    A: ApproxMatrix,
    x: Sequence[Fraction],
    rho_val: Comparable,
    w: Window,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """x within distance rho_val of some resonant point Aq, q in the annulus:
    the `psi_witness` walk for the constant rho_val, after the target rule
    and the shortcut that open balls of radius > 1/2 cover the torus."""
    x = A.target(x)
    covered = compare(rho_val, Fraction(1, 2)) is Ordering.GREATER
    return covered or psi_witness(A, x, rho_val, w, budget) is not None


# ---------------------------------------------------------------------------
# measure estimation
# ---------------------------------------------------------------------------


@dataclass
class MeasureEstimate:
    fraction: Fraction
    samples: int
    ci_low: Fraction
    ci_high: Fraction
    seed: int
    window: Window

    @classmethod
    def from_hits(cls, k: int, samples: int, seed: int, window: Window) -> "MeasureEstimate":
        """The fraction k / samples with its Wilson interval."""
        return cls(Fraction(k, samples), samples, *binomial_ci(k, samples), seed, window)

    def to_json(self) -> dict:
        return {
            "fraction": str(self.fraction),
            "fraction_dec": dec_str(self.fraction),
            "samples": self.samples,
            "ci_low": dec_str(self.ci_low),
            "ci_high": dec_str(self.ci_high),
            "seed": self.seed,
            "window": {"l": self.window.l, "u": self.window.u},
        }


def _hits(
    A: ApproxMatrix, w: Window, thr: Comparable | Radical | ApproxFunction,
    targets: Iterable[tuple[Fraction, ...]], budget: int,
) -> int:
    """How many targets b have ||Aq - b||_Z below psi(||q||) for some q in
    the window, psi = lattice.threshold(A, thr), as `within` decides it;
    thr is wrapped (a value checked) before anything else.  Other shapes
    check the window against the budget once and decide the targets as one
    batch of `lattice.first_hits`: walks, then one sorted-centre index once
    the walks have cost the window's size.  A 1 x 1 irrational matrix gets
    one union index over the radii of psi, its scaled_bounds over the
    window's shells at the index's scale, with `within` for a target
    inside its margin; the index covers the whole window, so that fallback
    is not charged to the budget.  When the targets are a `_Sample` with an
    arc, an index that decides the whole arc answers for every target at
    once, and no target is drawn."""
    psi = threshold(A, thr)
    if not A.irrational_line:
        check_window(A.n, w.shells, budget)
        return sum(hit is not None for _, hit in first_hits(A, w.shells, budget, psi, targets))
    index = UnionIndex1D(
        A.line, list(zip(w.shells, psi.scaled_bounds(w.shells, A.line.shift))),
        lambda x: next(within(A, w.shells, math.inf, psi, (x,)), None) is not None,
    )
    whole = index.arc(*targets.arc) if isinstance(targets, _Sample) and targets.arc else None
    if whole is not None:
        return len(targets) if whole else 0
    return sum(map(lambda b: index.contains(b[0]), targets))


def measure_W(
    A: ApproxMatrix,
    psi: ApproxFunction,
    w: Window,
    samples: int,
    seed: int,
    mode: str = "mc",
    budget: int = DEFAULT_BUDGET,
    threads: int | None = None,
) -> MeasureEstimate:
    """Fraction of random targets admitting a witness in the window;
    threads has no effect (runs are serial)."""
    return MeasureEstimate.from_hits(
        _hits(A, w, psi, _points(A.m, samples, seed, mode), budget), samples, seed, w
    )


def measure_Bad(
    A: ApproxMatrix,
    delta: Fraction,
    w: Window,
    samples: int,
    seed: int,
    mode: str = "mc",
    budget: int = DEFAULT_BUDGET,
    threads: int | None = None,
) -> MeasureEstimate:
    """Fraction of targets with NO witness for psi_delta(q) = delta q^(-n/m);
    threads has no effect (runs are serial)."""
    psi = PowerLog(Fraction(delta), Fraction(A.n, A.m), Fraction(0))
    return MeasureEstimate.from_hits(
        samples - _hits(A, w, psi, _points(A.m, samples, seed, mode), budget), samples, seed, w
    )


@dataclass(frozen=True)
class _Sample:
    """The targets of an estimate, drawn only when iterated: point(i) for
    each i < count, in order.  For one coordinate, arc is an arc [lo, hi)
    of rationals that holds every target, else None."""

    point: Callable[[int], tuple]
    count: int
    arc: Optional[tuple[Fraction, Fraction]]

    def __iter__(self) -> Iterator[tuple]:
        return map(self.point, range(self.count))

    def __len__(self) -> int:
        return self.count


def _points(dim: int, samples: int, seed: int, mode: str) -> _Sample:
    """The sampled targets of every estimate, checked at once: samples >= 1,
    a known mode, and for the grid samples = k^dim, so that each grid point
    counts once.  Every point lies in [0, 1)^dim."""
    if samples < 1:
        raise ValueError("samples >= 1 required")
    arc = (Fraction(0), Fraction(1)) if dim == 1 else None
    if mode == "mc":
        return _Sample(lambda i: sample_point(seed, i, dim), samples, arc)
    if mode != "grid":
        raise ValueError(f"unknown sampling mode {mode!r}")
    if _floor_root(samples, 1, dim) ** dim != samples:
        raise ValueError(f"grid mode needs samples = k^{dim} for an integer k, got {samples}")
    return _Sample(grid_points(samples, dim).__getitem__, samples, arc)


# ---------------------------------------------------------------------------
# ubiquity parameters and coverage
# ---------------------------------------------------------------------------


@dataclass
class UbiquityLevel:
    ell: int
    u: ExactReal
    l: ExactReal
    rho_pow_m: ExactReal  # rho_i^m, exact

    def rho(self, m: int) -> Comparable:
        return self.rho_pow_m if m == 1 else Radical(self.rho_pow_m, m)


@dataclass
class UbiquityParams:
    epsilon: ExactReal
    m: int
    n: int
    c1: Fraction
    c2_pow_m: ExactReal  # c2^m = eps^m ((eps^-m + 1)/2)^(m+n), exact
    equid_constant: Fraction
    levels: list[UbiquityLevel]

    def to_json(self) -> dict:
        return {
            "epsilon": format_exact(self.epsilon),
            "m": self.m,
            "n": self.n,
            "c1": str(self.c1),
            "c2_dec": dec_str(Radical(self.c2_pow_m, self.m)),
            "equid_constant": str(self.equid_constant),
            "levels": [
                {
                    "ell": lv.ell,
                    "u_dec": dec_str(lv.u),
                    "l_dec": dec_str(lv.l),
                    "rho_dec": dec_str(Radical(lv.rho_pow_m, self.m)),
                }
                for lv in self.levels
            ],
        }


def ubiquity_params(
    ret: ReturnSequence, equid_constant: Fraction
) -> UbiquityParams:
    """Scale sequences u_i = (eps^-m + 1)/2 * 2^l_i, l_i = c1 u_i and the
    ubiquitous radius rho_i = c2 u_i^(-n/m), with c1 the largest power of 1/2
    satisfying the separation constraint (2 c2)^m C c1^n < 1/2.  These are
    Corollary 3.3's bounds at each level l_i: u_i = X1 and rho_i = C1, so
    c2^m = C1^m X1^n, the same at every level."""
    if not ret.levels:
        raise InvalidWindow("empty return sequence")
    m, n = ret.m, ret.n
    eps = ret.epsilon
    bounds = [corollary_bounds(eps, ell, m, n) for ell in ret.levels]
    C1_pow_m, X1 = bounds[0]
    c2_pow_m = C1_pow_m * ex_pow(X1, n)
    C = Fraction(equid_constant)
    if C <= 0:
        raise ValueError("equidistribution constant must be positive")
    c1 = None
    for j in range(1, 4096):
        cand = Fraction(1, 1 << j)
        # (2 c2)^m C c1^n < 1/2  compared exactly on m-th powers of c2
        lhs = c2_pow_m * Fraction(2**m) * C * cand**n
        if lt(lhs, Fraction(1, 2)):
            c1 = cand
            break
    if c1 is None:
        raise ValueError("no admissible c1 found")
    levels = [UbiquityLevel(ell, u, c1 * u, rho_pow_m) for ell, (rho_pow_m, u) in zip(ret.levels, bounds)]
    return UbiquityParams(eps, m, n, c1, c2_pow_m, C, levels)


def check_u_regular(params: UbiquityParams, lam: Comparable | Radical) -> bool:
    """rho_{i+1} <= lam * rho_i along consecutive levels: the ratio
    rho_{i+1} / rho_i, the m-th root of the ratio of the m-th powers,
    compared with lam, an exact value or a `Radical` of any root."""
    if len(params.levels) < 2:
        raise InvalidWindow("need at least two levels")
    levels = params.levels
    return all(le(Radical(b.rho_pow_m / a.rho_pow_m, params.m), lam) for a, b in zip(levels, levels[1:]))


@dataclass
class CoverageEntry:
    ell: int
    l_dec: str
    u_dec: str
    rho_dec: str
    estimate: MeasureEstimate

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "l": self.l_dec,
            "u": self.u_dec,
            "rho": self.rho_dec,
            "covered_fraction": self.estimate.to_json(),
        }


def coverage(
    A: ApproxMatrix,
    params: UbiquityParams,
    ball: tuple[Sequence[Fraction], Fraction],
    level_index: int,
    samples: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
    threads: int | None = None,
) -> CoverageEntry:
    """Monte Carlo estimate of |B cap Delta(rho, i)| / |B| at one level;
    threads has no effect (runs are serial)."""
    lv = params.levels[level_index]
    m = params.m
    center, radius = A.ball(*ball)
    pts = _points(m, samples, seed, "mc")
    w = Window(floor_exact(lv.l), floor_exact(lv.u))
    rho = lv.rho(m)
    rc = compare(rho, Fraction(1, 2))
    if rc.decided and rc is not Ordering.LESS:
        est = MeasureEstimate(Fraction(1), samples, Fraction(1), Fraction(1), seed, w)
    else:
        # c + radius (2t - 1) as one multiply-add from the corner c - radius;
        # a rational centre of one coordinate gives the arc [c - radius, c + radius)
        corner, step = [c - radius for c in center], 2 * radius
        arc = (corner[0], corner[0] + step) if m == 1 and isinstance(corner[0], Fraction) else None
        targets = _Sample(lambda i: tuple(k + step * t for k, t in zip(corner, pts.point(i))), samples, arc)
        est = MeasureEstimate.from_hits(_hits(A, w, rho, targets, budget), samples, seed, w)
    return CoverageEntry(lv.ell, dec_str(lv.l), dec_str(lv.u), dec_str(Radical(lv.rho_pow_m, m)), est)


# ---------------------------------------------------------------------------
# Borel-Cantelli diameter sums
# ---------------------------------------------------------------------------

# binary scale of the psi and diameter enclosures of a diameter sum
DIAMETER_BITS = 60


def diameter_sum(psi: ApproxFunction, w: Window, n: int, s: Fraction) -> tuple[Fraction, Fraction]:
    """Enclosure of sum over the annulus of diam(B(Aq, psi(||q||)))^s: one
    `_psi_cells` cell per shell k, weighted by its (2k+1)^n - (2k-1)^n
    points, with diameter 2 psi, summed at 2^-DIAMETER_BITS."""
    cells = [(k, k, size, size) for k in w.shells for size in (shell_size(n, k),)]
    return tuple(Fraction(sum(v), 1 << DIAMETER_BITS) for v in _psi_cells(psi, cells, s, DIAMETER_BITS, 2))
