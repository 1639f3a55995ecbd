"""An enclosure of psi(q) independent of the library's: PowerLog.value_bounds
as it was before it became scaled_bounds at 2^-bits, with max(ln q, 1)
from mpmath's ln and rational powers from integer roots.  The tests that
compare the library against copies of its former loops take psi from here,
so that a fault in scaled_bounds cannot hide on both sides.  The library
uses mpmath only through libmp's raw tuples, so the converter from an mpf to
its exact rational lives here with its users."""

from fractions import Fraction

import mpmath

from diophlab.limsup import TablePsi
from diophlab.numeric import _nth_root_lower, _nth_root_upper


def mpf_to_fraction(v) -> Fraction:
    """The exact value of a finite mpmath mpf."""
    sgn, man, exp, _ = v._mpf_
    f = Fraction(-man if sgn else man)
    return f * (1 << exp) if exp >= 0 else f / (1 << -exp)


def old_value_bounds(psi, q, bits=80):
    """Rational bounds on psi(q); a table's value as the library gives it."""
    if isinstance(psi, TablePsi):
        return psi.value_bounds(q, bits)
    if q < 1:
        raise ValueError("q >= 1 required")
    p, r = psi.a.numerator, psi.a.denominator
    base = Fraction(1, q**p)
    if r == 1:
        lo = hi = psi.c * base
    else:
        lo = psi.c * _nth_root_lower(base, r, bits)
        hi = psi.c * _nth_root_upper(base, r, bits)
    if psi.beta != 0:
        llo, lhi = _log_bounds(q, bits)
        flo = _rat_pow_bounds(llo, lhi, -psi.beta, bits)
        lo, hi = lo * flo[0], hi * flo[1]
    return lo, hi


def _log_bounds(q, bits):
    """Rational bounds on max(ln q, 1)."""
    if q <= 2:  # ln 2 < 1, so the max clamps
        return Fraction(1), Fraction(1)
    with mpmath.workprec(bits + 16):
        f = mpf_to_fraction(mpmath.log(q))
    pad = Fraction(1, 1 << bits)
    one = Fraction(1)
    return max(f - pad, one), max(f + pad, one)


def _rat_pow_bounds(lo, hi, e, bits):
    """Bounds on x^e over x in [lo, hi] with lo >= 1 and rational e, from
    the two ends, since x^e is monotone there."""
    p, r = e.numerator, e.denominator
    if p >= 0:
        return _nth_root_lower(lo**p, r, bits), _nth_root_upper(hi**p, r, bits)
    return 1 / _nth_root_upper(hi**-p, r, bits), 1 / _nth_root_lower(lo**-p, r, bits)
