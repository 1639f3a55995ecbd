"""Seeded sampling and binomial confidence intervals.

Each sample index owns its own RNG stream, seeded from (seed, index), so a
sample does not depend on the order in which targets are tested."""

from __future__ import annotations

import _random
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence, TypeVar

from .numeric import _nth_root_upper

T = TypeVar("T")
U = TypeVar("U")

SAMPLE_DENOM_BITS = 53

_MIX1 = 0x9E3779B97F4A7C15
_MIX2 = 0xD1B54A32D192ED03
_MASK = (1 << 64) - 1


def _key(seed: int, index: int) -> int:
    """The seed of the stream of one sample index."""
    key = ((seed & _MASK) * _MIX1 + (index & _MASK) * _MIX2) & _MASK
    return key ^ (key >> 29)


def sample_point(seed: int, index: int, dim: int) -> tuple[Fraction, ...]:
    """Uniform rational point in [0,1)^dim with denominator 2^53.  It draws
    from the C generator `_random.Random` seeded with `_key(seed, index)`,
    the stream of `random.Random(_key(seed, index))` without the Python
    wrappers of random.Random's __init__ and seed."""
    rng = _random.Random(_key(seed, index))
    return tuple(
        Fraction(rng.getrandbits(SAMPLE_DENOM_BITS), 1 << SAMPLE_DENOM_BITS)
        for _ in range(dim)
    )


def grid_points(samples: int, dim: int) -> list[tuple[Fraction, ...]]:
    """Equally spaced low-discrepancy alternative to Monte Carlo sampling:
    the centres of the side^dim cells of [0,1)^dim, in lexicographic
    order, for side = round(samples^(1/dim))."""
    side = round(samples ** (1.0 / dim))
    return [tuple(Fraction(2 * i + 1, 2 * side) for i in idx) for idx in product(range(side), repeat=dim)]


def parallel_map(fn: Callable[[T], U], items: Sequence[T], threads: int | None = None) -> list[U]:
    """[fn(x) for x in items], in order.  Runs are serial: every target test
    is pure-Python exact arithmetic, which threads cannot run in parallel
    under the GIL.  threads is accepted and has no effect."""
    return [fn(x) for x in items]


# the normal quantile of a two-sided 95% interval
Z95 = Fraction(196, 100)


def binomial_ci(successes: int, samples: int) -> tuple[Fraction, Fraction]:
    """Wilson 95% interval with outward-rounded rational square roots."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    n = Fraction(samples)
    p = Fraction(successes, samples)
    z2 = Z95 * Z95
    center = p + z2 / (2 * n)
    rad2 = p * (1 - p) / n + z2 / (4 * n * n)
    rad_hi = _nth_root_upper(rad2, 2, 64)
    denom = 1 + z2 / n
    lo = (center - Z95 * rad_hi) / denom
    hi = (center + Z95 * rad_hi) / denom
    lo = max(Fraction(0), lo)
    hi = min(Fraction(1), hi)
    return lo, hi
