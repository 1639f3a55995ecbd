"""Constructive homogeneous-to-inhomogeneous transference with exact constants."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lattice import (
    DEFAULT_BUDGET,
    ApproxMatrix,
    IntVec,
    first_hits,
    in_return_sequence,
    within,
)
from .numeric import (
    Comparable,
    ExactReal,
    Radical,
    dec_str,
    ex_pow,
    floor_exact,
    format_exact,
    sign,
)


@dataclass
class TransferBounds:
    C: ExactReal
    X: int
    h: ExactReal
    C1: ExactReal
    X1: ExactReal


def transfer_bounds(C: ExactReal, X: int, m: int, n: int) -> TransferBounds:
    """h = X^-n C^-m, C1 = (h+1)C/2, X1 = (h+1)X/2, all exact in C's field."""
    if sign(C) <= 0 or X < 1:
        raise ValueError("need C > 0 and X >= 1")
    h = ex_pow(C, -m) * Fraction(1, X**n)
    scale = (h + 1) * Fraction(1, 2)
    return TransferBounds(C=C, X=X, h=h, C1=scale * C, X1=scale * X)


def solve_inhomogeneous(
    A: ApproxMatrix,
    b: Sequence[Fraction],
    C1: Comparable | Radical,
    X1: Comparable,
    budget: int = DEFAULT_BUDGET,
) -> Optional[IntVec]:
    """Minimal-norm, lexicographically-least q with ||q|| <= X1 and
    ||Aq - b||_Z <= C1 (non-strict), or None; C1 is an exact value or a
    `Radical`."""
    if sign(C1) <= 0:
        raise ValueError("C1 > 0 required")
    x_cap = floor_exact(X1)
    if x_cap < 0:
        raise ValueError("X1 >= 0 required")
    hit = next(within(A, range(x_cap + 1), budget, C1, b, closed=True), None)
    return None if hit is None else IntVec(hit[1])


@dataclass
class Cor33Target:
    b: tuple[ExactReal, ...]
    witness: Optional[IntVec]
    lhs_dec: str
    slack_dec: str
    ok: bool

    def to_json(self) -> dict:
        return {
            "b": [format_exact(x) for x in self.b],
            "witness_q": list(self.witness.coords) if self.witness else None,
            "lhs_value": self.lhs_dec,
            "slack": self.slack_dec,
            "ok": self.ok,
        }


@dataclass
class Cor33Report:
    epsilon: ExactReal
    ell: int
    m: int
    n: int
    C1_pow_m: ExactReal
    X1: ExactReal
    targets: list[Cor33Target]

    @property
    def successes(self) -> int:
        return sum(t.ok for t in self.targets)

    @property
    def all_ok(self) -> bool:
        return all(t.ok for t in self.targets)

    def to_json(self) -> dict:
        return {
            "epsilon": format_exact(self.epsilon),
            "ell": self.ell,
            "C1": {
                "pow_m_exact": format_exact(self.C1_pow_m),
                "dec": dec_str(Radical(self.C1_pow_m, self.m)),
            },
            "X1": {"exact": format_exact(self.X1), "dec": dec_str(self.X1)},
            "successes": self.successes,
            "targets": [t.to_json() for t in self.targets],
        }


def corollary_bounds(epsilon: Comparable, ell: int, m: int, n: int):
    """(C1^m exact, X1 exact) for the return-time specialization:
    C1 = (eps^-m + 1)/2 * eps * 2^(-(n/m) l), X1 = (eps^-m + 1)/2 * 2^l."""
    scale = (ex_pow(epsilon, -m) + 1) * Fraction(1, 2)
    C1_pow_m = ex_pow(scale, m) * ex_pow(epsilon, m) * Fraction(1, 1 << (n * ell))
    X1 = scale * (1 << ell)
    return C1_pow_m, X1


def verify_corollary_3_3(
    A: ApproxMatrix,
    epsilon: Comparable,
    ell: int,
    targets: Sequence[Sequence[Fraction]],
    budget: int = DEFAULT_BUDGET,
    check_level: bool = True,
) -> Cor33Report:
    """Every target must admit an inhomogeneous witness within the
    transferred bounds, q as `solve_inhomogeneous` finds it; a miss is
    flagged as a theorem violation.  The targets are one batch of
    `lattice.first_hits` over the window ||q|| <= X1."""
    if sign(epsilon) <= 0:
        raise ValueError("need eps > 0")
    if ell < 0:
        raise ValueError("ell >= 0 required")
    m, n = A.m, A.n
    if check_level and not in_return_sequence(A, ex_pow(epsilon, m), ell, budget):
        raise ValueError(f"level {ell} is not in the return sequence")
    C1_pow_m, X1 = corollary_bounds(epsilon, ell, m, n)
    C1 = Radical(C1_pow_m, m)
    c1_float = float(C1)
    out: list[Cor33Target] = []
    for b, hit in first_hits(A, range(floor_exact(X1) + 1), budget, C1, targets, closed=True):
        if hit is None:
            out.append(Cor33Target(b, None, "", "", False))
            continue
        q = IntVec(hit[1])
        d = A.dist(q, b)
        lhs = dec_str(d)
        slack = f"{c1_float - float(d):.12e}"
        out.append(Cor33Target(b, q, lhs, slack, True))
    return Cor33Report(epsilon, ell, m, n, C1_pow_m, X1, out)
