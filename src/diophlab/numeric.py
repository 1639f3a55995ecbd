"""Exact real scalars: rationals, quadratic irrationals and CF-defined reals.

Every strict inequality downstream is decided on these values either exactly
(rational / quadratic sign tests) or through certified convergent enclosures
(CF-defined reals).  Values are immutable; all functions are pure.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Iterator, Sequence, Union

from .errors import PrecisionExhausted, UnsupportedEntry

__all__ = [
    "CFReal",
    "ExactReal",
    "Ordering",
    "Quadratic",
    "Radical",
    "RatInterval",
    "compare",
    "convergents",
    "dec_str",
    "dist_to_int",
    "dist_to_int_vec",
    "enclose",
    "ex_abs",
    "ex_pow",
    "floor_exact",
    "format_exact",
    "nearest_int",
    "parse_exact",
    "quadratic",
    "sign",
    "sup_norm",
]

DEFAULT_CF_BUDGET = 64


class Ordering:
    """Result of a certified comparison: <, =, > or undecided-within-budget."""

    __slots__ = ("kind", "width")

    LESS: "Ordering"
    EQUAL: "Ordering"
    GREATER: "Ordering"

    def __init__(self, kind: str, width: Fraction | None = None):
        self.kind = kind
        self.width = width

    @classmethod
    def uncertain(cls, width: Fraction) -> "Ordering":
        return cls("uncertain", width)

    @property
    def decided(self) -> bool:
        return self.kind != "uncertain"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ordering) and self.kind == other.kind

    def __hash__(self) -> int:
        return hash(self.kind)

    def __repr__(self) -> str:
        if self.kind == "uncertain":
            return f"Ordering.uncertain({self.width!r})"
        return f"Ordering.{self.kind.upper()}"

    def reversed(self) -> "Ordering":
        """The ordering of (y, x) given this one of (x, y)."""
        return {"less": Ordering.GREATER, "greater": Ordering.LESS}.get(self.kind, self)


Ordering.LESS = Ordering("less")
Ordering.EQUAL = Ordering("equal")
Ordering.GREATER = Ordering("greater")


def _squarefree(d: int) -> bool:
    if d < 2:
        return False
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        p += 1
    return True


class Quadratic:
    """a + b*sqrt(d) with rational a, b != 0 and squarefree d >= 2."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        if b == 0:
            raise ValueError("use quadratic() which normalizes b == 0 to Fraction")
        if not _squarefree(d):
            raise ValueError(f"radicand {d} is not squarefree >= 2")
        self.a = _fraction(a)
        self.b = _fraction(b)
        self.d = d

    def _coerce(self, other) -> "Quadratic | None":
        if isinstance(other, Quadratic):
            if other.d != self.d:
                _field((self, other))  # raises: two radicands
            return other
        if isinstance(other, (int, Fraction)):
            return None  # rational operand, handled inline
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return quadratic(self.a + other, self.b, self.d)
        return quadratic(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Quadratic(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            r = Fraction(other)
            if r == 0:
                return Fraction(0)
            return quadratic(self.a * r, self.b * r, self.d)
        return quadratic(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "ExactReal":
        # (a + b sqrt d)^-1 = (a - b sqrt d) / (a^2 - b^2 d); denominator is
        # nonzero since sqrt(d) is irrational.
        nrm = self.a * self.a - self.b * self.b * self.d
        return quadratic(self.a / nrm, -self.b / nrm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return quadratic(self.a / Fraction(other), self.b / Fraction(other), self.d)
        return self * o.inverse()

    def __rtruediv__(self, other):
        inv = self.inverse()
        return inv * other

    def __pow__(self, k: int):
        if k < 0:
            base = self.inverse()
            k = -k
        else:
            base = self
        out: ExactReal = Fraction(1)
        while k:
            if k & 1:
                out = out * base if isinstance(out, Quadratic) else base * out
            k >>= 1
            if k:
                base = base * base  # type: ignore[operator]
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Quadratic):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return False  # b != 0 makes it irrational
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __repr__(self) -> str:
        return f"Quadratic({self.a!r}, {self.b!r}, {self.d})"

    def __float__(self) -> float:
        lo, hi = enclose(self, 80)
        return float((lo + hi) / 2)


def quadratic(a, b, d: int) -> "ExactReal":
    """Build a + b*sqrt(d), collapsing to Fraction when b == 0."""
    a, b = _fraction(a), _fraction(b)
    if b == 0:
        return a
    return Quadratic(a, b, d)


def _fraction(x) -> Fraction:
    """x as a Fraction; a Fraction itself, which Fraction(x) would rebuild."""
    return x if type(x) is Fraction else Fraction(x)


def convergents(quotients: Iterable[int]) -> Iterator[tuple[int, int]]:
    """(p_k, q_k) of [a_0; a_1, ...] for each partial quotient a_k in turn:
    p_k = a_k p_(k-1) + p_(k-2), and q_k likewise."""
    p0, q0, p1, q1 = 1, 0, 0, 1  # (p_(k-1), q_(k-1)), (p_(k-2), q_(k-2))
    for a in quotients:
        p0, q0, p1, q1 = a * p0 + p1, a * q0 + q1, p0, q0
        yield p0, q0


class CFReal:
    """A real specified by finitely many continued-fraction partial quotients.

    The value is only known to lie strictly between the last two convergents
    read, from at most the first DEFAULT_CF_BUDGET quotients; all derived
    quantities carry that enclosure.
    """

    __slots__ = ("pq", "_conv")

    def __init__(self, pq: Sequence[int]):
        pq = tuple(int(a) for a in pq)
        if not pq:
            raise ValueError("need at least a0")
        if any(a < 1 for a in pq[1:]):
            raise ValueError("partial quotients a_k must be >= 1 for k >= 1")
        self.pq = pq
        self._conv: list[tuple[int, int]] | None = None

    def convergents(self) -> list[tuple[int, int]]:
        """(p_k, q_k) for the first DEFAULT_CF_BUDGET partial quotients."""
        if self._conv is None:
            self._conv = list(convergents(self.pq[:DEFAULT_CF_BUDGET]))
        return self._conv

    def enclosure(self) -> tuple[Fraction, Fraction]:
        """Open interval (lo, hi) certified to contain the value."""
        conv = self.convergents()
        if len(conv) == 1:
            p, q = conv[0]
            return Fraction(p, q), Fraction(p + 1, q)
        (p0, q0), (p1, q1) = conv[-2], conv[-1]
        x, y = Fraction(p0, q0), Fraction(p1, q1)
        return (x, y) if x < y else (y, x)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CFReal):
            return self.pq == other.pq
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pq)

    def __repr__(self) -> str:
        return f"CFReal({list(self.pq)!r})"

    def __float__(self) -> float:
        lo, hi = self.enclosure()
        return float((lo + hi) / 2)


class RatInterval:
    """Certified rational enclosure of a derived quantity (CF arithmetic)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if type(lo) is not Fraction:
            lo = Fraction(lo)
        if type(hi) is not Fraction:
            hi = Fraction(hi)
        if hi < lo:
            raise ValueError("empty interval")
        self.lo = lo
        self.hi = hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __neg__(self) -> "RatInterval":
        return RatInterval(-self.hi, -self.lo)

    # the other operand, of any kind, is read through its view `_as_interval`
    def __add__(self, other):
        lo, hi, _ = _as_interval(other)
        return RatInterval(self.lo + lo, self.hi + hi)

    __radd__ = __add__

    def __sub__(self, other):
        lo, hi, _ = _as_interval(other)
        return RatInterval(self.lo - hi, self.hi - lo)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        lo, hi, _ = _as_interval(other)
        prods = [a * b for a in (self.lo, self.hi) for b in (lo, hi)]
        return RatInterval(min(prods), max(prods))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"RatInterval({self.lo!r}, {self.hi!r})"

    def __float__(self) -> float:
        return float((self.lo + self.hi) / 2)


ExactReal = Union[Fraction, Quadratic, CFReal]
Comparable = Union[Fraction, Quadratic, CFReal, RatInterval, int]


# ---------------------------------------------------------------------------
# signs, comparisons, floors
# ---------------------------------------------------------------------------


def _as_interval(x: Comparable | "Radical", bits: int = 160) -> tuple[Fraction, Fraction, bool]:
    """(lo, hi, open): the one view of every value, which `enclose`,
    `compare`, interval arithmetic and every reader of bounds take.  A
    rational x is (x, x) and a `RatInterval` its two ends, both closed; a
    quadratic or `Radical` is its enclosure of width at most 2^-bits,
    closed (at the default 160 bits, the one `compare` reads); a CF real
    lies in the open interval of its enclosure, for any number of
    quotients.  Anything else raises TypeError."""
    if isinstance(x, (int, Fraction)):
        x = _fraction(x)
        return x, x, False
    if isinstance(x, RatInterval):
        return x.lo, x.hi, False
    if isinstance(x, CFReal):
        return (*x.enclosure(), True)
    if isinstance(x, Quadratic):
        k = bits + max(x.b.numerator.bit_length() - x.b.denominator.bit_length(), 0) + 2
        s = isqrt(x.d << (2 * k))
        lo, hi = x.a + x.b * Fraction(s, 1 << k), x.a + x.b * Fraction(s + 1, 1 << k)
        return (lo, hi, False) if x.b > 0 else (hi, lo, False)
    if isinstance(x, Radical):
        return (*x.enclose(bits), False)
    raise TypeError(x)


def _field(xs: Iterable, d: int | None = None) -> int | None:
    """The one radicand rule: the radicand of every quadratic value of xs,
    and d when given, or None when there is none.  Rationals, CF reals and
    intervals have none; a `Radical` has its radicand's.  Two radicands
    a < b raise UnsupportedEntry("mixing radicands sqrt(a) and sqrt(b)")."""
    for x in xs:
        while isinstance(x, Radical):
            x = x.radicand
        if isinstance(x, Quadratic) and x.d != d:
            if d is not None:
                raise UnsupportedEntry("mixing radicands sqrt({}) and sqrt({})".format(*sorted((d, x.d))))
            d = x.d
    return d


def _surd(xs: Iterable[Fraction | Quadratic | int]) -> tuple[list[int], list[int], int]:
    """The integer model (P, W, D) of a vector xs of rationals and
    quadratics in one field sqrt(d): x_i = (P_i + W_i sqrt(d)) / D, D > 0
    the lcm of every denominator (W_i = 0 for a rational x_i).  One pass:
    the coordinates read so far are rescaled whenever D grows."""
    P, W, D = [], [], 1
    for x in xs:
        if isinstance(x, Quadratic):
            y, w = x.a, x.b
            e = lcm(D, y.denominator, w.denominator)
        else:
            y, w = x, 0
            e = lcm(D, y.denominator)
        if e != D:
            if P:
                k = e // D
                P = [p * k for p in P]
                W = [v * k for v in W]
            D = e
        P.append(y.numerator * (D // y.denominator))
        W.append(w.numerator * (D // w.denominator))
    return P, W, D


def sign(x: Comparable | "Radical") -> int:
    """Exact sign, raising PrecisionExhausted for straddling enclosures;
    a `Radical` has the sign of its radicand."""
    if isinstance(x, Radical):
        return sign(x.radicand)
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    if isinstance(x, Quadratic):
        (p,), (w,), _ = _surd((x,))
        return _sign_surd(p, w, x.d)
    lo, hi, open_ = _as_interval(x)
    if lo > 0 or (lo == 0 and open_):
        return 1
    if hi < 0 or (hi == 0 and open_):
        return -1
    if lo == hi == 0:
        return 0
    raise PrecisionExhausted(f"sign undecided (width {float(hi - lo):.3g})")


def compare(x: Comparable, y: Comparable) -> Ordering:
    """Certified three-way comparison; Uncertain only with CF-backed operands.
    Either operand may be a `Radical`.  Two rationals or quadratics compare
    by the exact sign of x - y; any other pair by their views
    (`_as_interval`), a quadratic closed at 160 bits.  Only a CF real's
    view is open, and a CF real equals one with the same quotients."""
    if isinstance(x, Radical):
        return x.compare(y)
    if isinstance(y, Radical):
        return y.compare(x).reversed()
    if isinstance(x, (int, Fraction, Quadratic)) and isinstance(y, (int, Fraction, Quadratic)):
        return (Ordering.LESS, Ordering.EQUAL, Ordering.GREATER)[sign(x - y) + 1]
    xlo, xhi, x_open = _as_interval(x)
    ylo, yhi, y_open = _as_interval(y)
    if xhi < ylo or (xhi == ylo and (x_open or y_open)):
        return Ordering.LESS
    if xlo > yhi or (xlo == yhi and (x_open or y_open)):
        return Ordering.GREATER
    if xlo == xhi == ylo == yhi or (x_open and x == y):
        return Ordering.EQUAL
    return Ordering.uncertain((xhi - xlo) + (yhi - ylo))


def _decided(c: Ordering) -> Ordering:
    """c itself, or PrecisionExhausted naming the undecided width."""
    if not c.decided:
        raise PrecisionExhausted(f"comparison undecided (width {float(c.width):.3g})")
    return c


def lt(x: Comparable, y: Comparable) -> bool:
    """Strict x < y; raises PrecisionExhausted on an undecided comparison."""
    return _decided(compare(x, y)) is Ordering.LESS


def le(x: Comparable, y: Comparable) -> bool:
    return _decided(compare(x, y)) is not Ordering.GREATER


def _floor_sqrt_mult(b_num: int, d: int) -> int:
    """floor(b_num * sqrt(d)) for integer b_num (either sign)."""
    t2 = b_num * b_num * d
    t = isqrt(t2)
    if b_num >= 0:
        return t
    return -t if t * t == t2 else -t - 1


def _sign_surd(p: int, w: int, d: int) -> int:
    """The exact sign of p + w*sqrt(d) for integers p, w and d >= 0."""
    sp, sw = (p > 0) - (p < 0), (w > 0) - (w < 0)
    if sp == sw or not sw:
        return sp
    if not sp:
        return sw
    # p and w of opposite sign: sign(p + w sqrt d) = sign(p) * sign(p^2 - w^2 d)
    p2, w2d = p * p, w * w * d
    return sp * ((p2 > w2d) - (p2 < w2d))


def _dist_surds(rows: Iterable[tuple[int, int]], E: int, d: int) -> Fraction | Quadratic:
    """The sup-norm distance to Z^m of the vector x_i = (p_i + w_i sqrt(d)) / E
    for the pairs (p_i, w_i) of rows, E > 0 (d = 0 when every w_i is 0), as
    one Fraction or Quadratic.  Each nearest integer floor(x_i + 1/2), the
    upper one on ties, is one integer floor after one isqrt; the residue's
    sign and the sup, the first coordinate kept on ties, are sign tests of
    p + w sqrt(d)."""
    E2 = 2 * E
    best = None
    for p, w in rows:
        p -= E * ((2 * p + E + _floor_sqrt_mult(2 * w, d)) // E2)
        if _sign_surd(p, w, d) < 0:
            p, w = -p, -w
        if best is None or _sign_surd(p - best[0], w - best[1], d) > 0:
            best = p, w
    return quadratic(Fraction(best[0], E), Fraction(best[1], E), d)


def floor_exact(x: Comparable) -> int:
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    if isinstance(x, Quadratic):
        (p,), (w,), D = _surd((x,))
        # floor((p + y) / D) = floor((p + floor(y)) / D) for integers p, D > 0
        return (p + _floor_sqrt_mult(w, x.d)) // D
    return _floor_between(*_as_interval(x))


def _floor_between(lo: Fraction, hi: Fraction, open_: bool) -> int:
    """The floor shared by every value between lo and hi (both ends open or
    both closed), or PrecisionExhausted when the values have two floors."""
    flo = lo.numerator // lo.denominator
    # below an open upper end, the floor is one less than its ceiling
    fhi = -(-hi.numerator // hi.denominator) - 1 if open_ else hi.numerator // hi.denominator
    if flo == fhi:
        return flo
    raise PrecisionExhausted("floor undecided by enclosure")


def nearest_int(x: Comparable | "Radical") -> int:
    """An integer minimizing |x - n| (upper one on exact ties); a value
    other than a rational or quadratic decides it on its view, or raises
    PrecisionExhausted when the view straddles a half-integer."""
    if isinstance(x, (int, Fraction, Quadratic)):
        return floor_exact(x + Fraction(1, 2))
    lo, hi, open_ = _as_interval(x)
    return _floor_between(lo + Fraction(1, 2), hi + Fraction(1, 2), open_)


def ex_abs(x: Comparable):
    """|x|: exact for a rational or quadratic; otherwise x itself when its
    view lies at or above 0, and else the closed interval of |v| over the
    view (a CF real, whose convergents lie in [a0, a0 + 1], never straddles
    0)."""
    if isinstance(x, (int, Fraction)):
        return abs(x)
    if isinstance(x, Quadratic):
        return x if sign(x) > 0 else -x
    lo, hi, _ = _as_interval(x)
    if lo >= 0:
        return x
    if hi <= 0:
        return RatInterval(-hi, -lo)
    return RatInterval(Fraction(0), max(-lo, hi))


def dist_to_int(x: Comparable | "Radical"):
    """Distance to the nearest integer, in [0, 1/2].  A rational p/d (an
    int has d = 1) is its one residue r = p mod d taken either way,
    min(r, d - r)/d, already in lowest terms, and a quadratic is exact.
    A CF real, an interval or a `Radical` gives the closed distances over
    its view, a rational when they meet in one value."""
    if isinstance(x, int):
        return 0
    if isinstance(x, Fraction):
        d = x.denominator
        r = x.numerator % d
        return Fraction(r if r + r <= d else d - r, d)
    if isinstance(x, Quadratic):
        return ex_abs(x - nearest_int(x))
    return _interval_dist_to_int(*_as_interval(x)[:2])


def _interval_dist_to_int(lo: Fraction, hi: Fraction) -> "Fraction | RatInterval":
    half = Fraction(1, 2)
    if hi - lo >= 1:
        return RatInterval(Fraction(0), half)
    dlo, dhi = dist_to_int(lo), dist_to_int(hi)

    def contains_integer(a: Fraction, b: Fraction) -> bool:
        return b.numerator // b.denominator >= -(-a.numerator // a.denominator)

    # an integer inside the interval pins the minimum at 0
    has_int = contains_integer(lo, hi)
    # a half-integer inside pins the maximum at 1/2
    has_half = contains_integer(lo - half, hi - half)
    dmin = Fraction(0) if has_int else min(dlo, dhi)
    dmax = half if has_half else max(dlo, dhi)
    if dmin == dmax:
        return dmin
    return RatInterval(dmin, dmax)


def sup_norm(v: Iterable[Comparable]):
    """max_i |v_i|, exact."""
    best = None
    for x in v:
        ax = ex_abs(x)
        if best is None or lt(best, ax):
            best = ax
    if best is None:
        raise ValueError("empty vector")
    return best


def dist_to_int_vec(v: Iterable[Comparable]):
    """Sup-norm distance to the integer lattice."""
    return sup_norm([dist_to_int(x) for x in v])


def ex_pow(x: Comparable, k: int):
    """x**k for integer k (k >= 0 unless x is invertible; an interval is
    invertible when it excludes 0); UnsupportedEntry for a CF real, which
    has no exact powers."""
    if isinstance(x, Quadratic):
        return x**k
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x**k
    if isinstance(x, RatInterval):
        if k < 0:
            if x.lo <= 0 <= x.hi:
                raise ValueError(f"negative power of an interval that reaches 0: {x!r}")
            x, k = RatInterval(1 / x.hi, 1 / x.lo), -k
        if k == 0:
            return RatInterval(Fraction(1), Fraction(1))
        out = x
        for _ in range(k - 1):
            out = out * x
        return out
    if isinstance(x, CFReal):
        raise UnsupportedEntry(f"no exact powers of the CF real {x!r}")
    raise TypeError(x)


# ---------------------------------------------------------------------------
# m-th roots represented implicitly
# ---------------------------------------------------------------------------


class Radical:
    """The nonnegative root-th root of a nonnegative exact value.

    Fractional powers t^(n/m) are only ever compared, never evaluated: all
    comparisons cross-multiply to integer powers in the underlying field.
    """

    __slots__ = ("radicand", "root")

    def __init__(self, radicand: Comparable, root: int):
        if root < 1:
            raise ValueError("root must be >= 1")
        if sign(radicand) < 0:
            raise ValueError("negative radicand")
        self.radicand = radicand
        self.root = root

    def compare(self, other: Comparable | "Radical") -> Ordering:
        if isinstance(other, Radical):
            l = lcm(self.root, other.root)
            return compare(
                ex_pow(self.radicand, l // self.root),
                ex_pow(other.radicand, l // other.root),
            )
        # only a certainly negative operand lies below every root; powers of
        # an enclosure reaching down to 0 (or below) still enclose its powers
        if (other.hi < 0) if isinstance(other, RatInterval) else sign(other) < 0:
            return Ordering.GREATER
        return compare(self.radicand, ex_pow(other, self.root))

    def enclose(self, bits: int) -> tuple[Fraction, Fraction]:
        lo, hi = enclose(self.radicand, 160)
        return (_nth_root_lower(lo, self.root, bits), _nth_root_upper(hi, self.root, bits))

    def __float__(self) -> float:
        lo, hi = self.enclose(60)
        return float((lo + hi) / 2)

    def __repr__(self) -> str:
        return f"Radical({self.radicand!r}, {self.root})"


def _inth_root(x: int, r: int) -> int:
    """floor(x**(1/r)) for x >= 0."""
    if x < 0:
        raise ValueError
    if x == 0 or r == 1:
        return x
    if r == 2:
        return isqrt(x)
    g = 1 << (-(-x.bit_length() // r))
    while True:
        nxt = ((r - 1) * g + x // g ** (r - 1)) // r
        if nxt >= g:
            return g
        g = nxt


def _floor_root(num: int, den: int, r: int) -> int:
    """floor((num / den)^(1/r)) for num >= 0 and den > 0: the floor of the
    root of a rational is the floor of the root of its floor."""
    return num // den if r == 1 else _inth_root(num // den, r)


def _ceil_root(num: int, den: int, r: int) -> int:
    """ceil((num / den)^(1/r)) for num >= 0 and den > 0."""
    x = -(-num // den)
    if r == 1:
        return x
    t = _inth_root(x, r)
    return t if t**r == x else t + 1


def _scaled_pow(lo: int, hi: int, e: Fraction, shift: int) -> tuple[int, int]:
    """Integers bounding x^e * 2^shift for every x with lo <= x * 2^shift
    <= hi, 0 <= lo, rational e >= 0: (x^e 2^shift)^r = X^p 2^(shift (r - p))
    for X = x 2^shift and e = p/r, so each end takes one integer power and
    one floored or ceiled integer root, x^e being nondecreasing."""
    p, r = e.numerator, e.denominator
    k = shift * (r - p)
    num, den = (1 << k, 1) if k >= 0 else (1, 1 << -k)
    return _floor_root(lo**p * num, den, r), _ceil_root(hi**p * num, den, r)


def _nth_root_lower(x: Fraction, r: int, bits: int) -> Fraction:
    if x <= 0:
        return Fraction(0)
    return Fraction(_floor_root(x.numerator << (bits * r), x.denominator, r), 1 << bits)


def _nth_root_upper(x: Fraction, r: int, bits: int) -> Fraction:
    if x <= 0:
        return Fraction(0)
    return Fraction(_ceil_root(x.numerator << (bits * r), x.denominator, r), 1 << bits)


# ---------------------------------------------------------------------------
# enclosures and display
# ---------------------------------------------------------------------------


def enclose(x: Comparable, bits: int) -> tuple[Fraction, Fraction]:
    """The two ends of x's view (`_as_interval`): a rational interval
    containing x, of width <= 2^-bits for a quadratic or `Radical`."""
    return _as_interval(x, bits)[:2]


def dec_str(x: Comparable, digits: int = 12) -> str:
    """Decimal rendering from a certified enclosure (midpoint, rounded)."""
    lo, hi = enclose(x, 4 * digits)
    mid = (lo + hi) / 2
    scaled = mid * 10**digits
    n = scaled.numerator
    d = scaled.denominator
    r = (2 * n + d) // (2 * d) if n >= 0 else -((2 * -n + d) // (2 * d))
    s = f"{abs(r):0{digits + 1}d}"
    txt = ("-" if r < 0 else "") + s[:-digits] + "." + s[-digits:]
    return txt


# ---------------------------------------------------------------------------
# text syntax
# ---------------------------------------------------------------------------

_QUAD_RE = re.compile(
    r"^\(\s*(-?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)\s*/\s*(-?\d+)$"
)
_CF_RE = re.compile(r"^cf:\[\s*(-?\d+)\s*(?:;\s*([\d\s,]*\d)\s*)?\]$")


def parse_exact(text: str) -> ExactReal:
    """Parse "p/q", "(a+b*sqrt(d))/c" or "cf:[a0;a1,a2,...]"."""
    text = text.strip().replace("−", "-")  # accept unicode minus
    m = _CF_RE.match(text)
    if m:
        pq = [int(m.group(1))]
        if m.group(2):
            pq.extend(int(t) for t in m.group(2).replace(",", " ").split())
        return CFReal(pq)
    m = _QUAD_RE.match(text)
    if m:
        a, sgn, b, d, c = m.groups()
        c_int = int(c)
        if c_int == 0:
            raise ValueError(f"zero denominator in {text!r}")
        b_signed = int(b) if sgn == "+" else -int(b)
        return quadratic(Fraction(int(a), c_int), Fraction(b_signed, c_int), int(d))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse exact literal {text!r}") from exc


def format_exact(x: ExactReal) -> str:
    """Canonical literal; parse_exact(format_exact(x)) == x."""
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Quadratic):
        (p,), (w,), D = _surd((x,))
        sgn = "+" if w >= 0 else "-"
        return f"({p}{sgn}{abs(w)}*sqrt({x.d}))/{D}"
    if isinstance(x, CFReal):
        head = str(x.pq[0])
        if len(x.pq) == 1:
            return f"cf:[{head}]"
        return f"cf:[{head};{','.join(str(a) for a in x.pq[1:])}]"
    raise TypeError(x)
