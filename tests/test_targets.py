"""The one target rule, `ApproxMatrix.target`: every entry point that takes
a target or a ball centre refuses a wrong length and a coordinate from a
second quadratic field before it decides anything, whatever its threshold;
and the sampled targets of every estimate come from `limsup._points`."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from diophlab.analysis import b_alpha_test, estimate_exponents, key_inequality_check, verify_prop_5_1
from diophlab.equidist import counting_report, estimate_equid_constant
from diophlab.errors import UnsupportedEntry
from diophlab.lattice import IntVec, ApproxMatrix, best_approximations, records, solve_homogeneous, within
from diophlab.limsup import (
    PowerLog,
    UbiquityLevel,
    UbiquityParams,
    Window,
    coverage,
    delta_membership,
    measure_W,
    psi_witness,
)
from diophlab.numeric import CFReal, Quadratic, Radical, lt, quadratic
from diophlab.sampling import grid_points, sample_point
from diophlab.transference import solve_inhomogeneous, verify_corollary_3_3

SQRT5 = quadratic(0, 1, 5)
GOLDEN = ApproxMatrix([[(SQRT5 - 1) / 2]])
Q21 = ApproxMatrix([[quadratic(0, 1, 2)], [quadratic(F(1, 7), 3, 2)]])
# two levels of one golden coverage run: a radius 1/100 walks the
# annulus, a radius 1 >= 1/2 covers the ball without a walk
PARAMS = UbiquityParams(
    F(2, 5), 1, 1, F(1, 64), F(1), F(4),
    [UbiquityLevel(1, F(40), F(2), F(1, 100)), UbiquityLevel(2, F(40), F(2), F(1))],
)
BEST = best_approximations(GOLDEN, 100)

# entry point -> calls of it on (A, b), one per threshold: the shortcut
# of delta_membership (rho > 1/2), of counting_report (radius 1/2) and of
# coverage (rho >= 1/2) included
ENTRY_POINTS = {
    "within": [lambda A, b, t=t: next(within(A, range(1, 9), 100, t, b)) for t in (F(1, 2), F(1, 100))],
    "records": [lambda A, b: next(records(A, range(1, 9), 100, lambda s, d: d, b))],
    "dist": [lambda A, b: A.dist((1,), b)],
    "dist_enclosure": [lambda A, b: A.dist_enclosure((1,), b)],
    "solve_inhomogeneous": [lambda A, b, C=C: solve_inhomogeneous(A, b, C, 30) for C in (F(1, 2), F(1, 100))],
    "psi_witness": [
        lambda A, b, c=c: psi_witness(A, b, PowerLog(c, F(1), F(0)), Window(1, 8)) for c in (F(1), F(1, 100))
    ],
    "delta_membership": [
        lambda A, b, r=r: delta_membership(A, b, r, Window(1, 8)) for r in (F(1, 100), F(3, 4))
    ],
    "verify_corollary_3_3": [
        lambda A, b, ell=ell: verify_corollary_3_3(A, F(2, 5), ell, [b], check_level=False) for ell in (1, 6)
    ],
    "verify_prop_5_1": [
        lambda A, b, a=a: verify_prop_5_1(A, b, a, BEST, Window(1, 8)) for a in (F(3, 2), F(5))
    ],
    "key_inequality_check": [lambda A, b: key_inequality_check(A, b, IntVec((3,)), BEST.entries[2].y)],
    "estimate_exponents": [lambda A, b: estimate_exponents(A, b, [2, 4, 8])],
    "counting_report": [lambda A, b, r=r: counting_report(A, (b, r), 20) for r in (F(1, 10), F(1, 2))],
    "estimate_equid_constant": [
        lambda A, b, r=r: estimate_equid_constant(A, [((F(0),), F(1, 8)), (b, r)], [4, 8]) for r in (F(1, 8), F(1))
    ],
    "coverage": [lambda A, b, i=i: coverage(A, PARAMS, (b, F(1, 8)), i, 20, seed=1) for i in (0, 1)],
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "b, error",
    [
        ((F(1, 3), F(1, 5)), ValueError),  # golden is 1 x 1: one coordinate
        ((), ValueError),
        ((quadratic(0, 1, 2),), UnsupportedEntry),  # sqrt 2 beside golden's sqrt 5
    ],
    ids=["long", "empty", "field"],
)
def test_every_entry_point_checks_its_target_first(entry, b, error):
    for call in ENTRY_POINTS[entry]:
        with pytest.raises(error):
            call(GOLDEN, b)


def test_b_alpha_test_checks_the_length_of_a_rational_target():
    # no matrix: a quadratic coordinate is kept and checked against the
    # field of the records' distances, sqrt(5) for the golden ratio
    for a in (F(11, 10), F(1, 10)):
        with pytest.raises(ValueError, match="target needs 1 coordinates, got 2"):
            b_alpha_test((F(1, 3), F(1, 5)), BEST, a, [1, 2])
    with pytest.raises(UnsupportedEntry, match=r"mixing radicands sqrt\(2\) and sqrt\(5\)"):
        b_alpha_test((quadratic(0, 1, 2),), BEST, F(1, 10), [1, 2])
    assert b_alpha_test((quadratic(0, F(1, 4), 5),), BEST, F(1, 10), [1, 2]) in (True, False)
    assert b_alpha_test((F(1, 3),), BEST, F(1, 10), [1, 2]) in (True, False)


def test_mixed_radicands_are_refused_whatever_the_threshold():
    # a rational matrix takes the radicand of its target, so only a target
    # mixing two of them is outside every field; before the rule the
    # threshold decided whether a point in the filter's margin noticed
    A, b = ApproxMatrix([[F(1, 3)], [F(1, 5)]]), (quadratic(0, 1, 3), quadratic(0, 1, 2))
    for C in (F(1, 2), F(1, 100)):
        with pytest.raises(UnsupportedEntry, match=r"mixing radicands sqrt\(2\) and sqrt\(3\)"):
            solve_inhomogeneous(A, b, C, 30)
    for call in ENTRY_POINTS["delta_membership"] + ENTRY_POINTS["dist"]:
        with pytest.raises(UnsupportedEntry):
            call(A, b)
    # one radicand is the matrix's field
    assert solve_inhomogeneous(A, (quadratic(0, 1, 3), quadratic(1, 1, 3)), F(1, 2), 30) is not None


SQRT2, SQRT3, SQRT7 = (quadratic(0, 1, d) for d in (2, 3, 7))
# every place a value meets a second quadratic field, as (call, the two
# radicands): the entries, a target, a threshold value or `Radical`, the
# records of b_alpha_test and Quadratic arithmetic, each either way round
SECOND_FIELDS = {
    "entries": [(lambda: ApproxMatrix([[SQRT2, SQRT3]]), (2, 3)), (lambda: ApproxMatrix([[SQRT3], [SQRT2]]), (2, 3))],
    "target": [
        (lambda: GOLDEN.target((SQRT2,)), (2, 5)),
        (lambda: GOLDEN.dist((1,), (SQRT7,)), (5, 7)),
        (lambda: ApproxMatrix([[F(1, 3)], [F(1, 5)]]).target((SQRT3, SQRT2)), (2, 3)),
    ],
    "threshold": [
        (lambda: next(within(GOLDEN, range(1, 9), 100, SQRT2 / 10)), (2, 5)),
        (lambda: solve_homogeneous(GOLDEN, SQRT7 / 10, 8), (5, 7)),
    ],
    "radical threshold": [
        (lambda: next(within(GOLDEN, range(1, 9), 100, Radical(SQRT2 / 100, 2))), (2, 5)),
        (lambda: next(within(Q21, range(1, 9), 100, Radical(Radical(SQRT3 / 100, 2), 3))), (2, 3)),
    ],
    "b_alpha_test": [
        (lambda: b_alpha_test((SQRT2,), BEST, F(1, 10), [1, 2]), (2, 5)),
        (lambda: b_alpha_test((SQRT7,), BEST, F(1, 10), [1, 2]), (5, 7)),
    ],
    "arithmetic": [
        (lambda: SQRT5 + SQRT2, (2, 5)),
        (lambda: SQRT2 * SQRT5, (2, 5)),
        (lambda: SQRT7 - SQRT5, (5, 7)),
        (lambda: SQRT3 / SQRT2, (2, 3)),
    ],
}


@pytest.mark.parametrize("where", sorted(SECOND_FIELDS))
def test_every_second_radicand_is_refused_in_one_wording(where):
    for call, (a, b) in SECOND_FIELDS[where]:
        with pytest.raises(UnsupportedEntry) as exc:
            call()
        assert str(exc.value) == f"mixing radicands sqrt({a}) and sqrt({b})"


def test_a_short_target_no_longer_drops_a_row():
    A = ApproxMatrix([[F(1, 3)], [F(1, 2)]])
    with pytest.raises(ValueError, match="target needs 2 coordinates, got 1"):
        A.dist((1,), (0,))
    with pytest.raises(ValueError, match="q needs 1 coordinates, got 2"):
        A.dist((1, 0), (0, 0))
    assert A.dist((1,), (0, 0)) == F(1, 2)
    # the upper end, an integer at line.shift, is at least the scaled 1/2
    assert A.dist_enclosure((1,), (0, 0))[1] >= A.line.mod // 2


def test_a_quadratic_target_in_the_field_is_taken_everywhere():
    b, psi = (SQRT5,), PowerLog(F(1), F(1), F(0))
    hit = psi_witness(GOLDEN, b, psi, Window(1, 8))
    first = next(
        (q,) for s in range(2, 9) for q in (-s, s) if lt(GOLDEN.dist((q,), b), F(1, s))
    )
    assert hit is not None and hit.coords == first
    assert solve_inhomogeneous(GOLDEN, b, F(1, 10), 50) == IntVec((2,))
    assert delta_membership(GOLDEN, b, F(1, 10), Window(1, 8))
    rep = verify_corollary_3_3(GOLDEN, F(2, 5), 4, [b], check_level=False)
    assert rep.to_json()["targets"][0]["b"] == ["(0+1*sqrt(5))/1"]
    # the orbit is counted mod 1
    count = counting_report(GOLDEN, (b, F(1, 10)), 50).count
    assert count == counting_report(GOLDEN, ((SQRT5 - 2,), F(1, 10)), 50).count
    # a quadratic ball centre on a 1 x 1 line: the union index hands each
    # target to the exact walk
    ce = coverage(GOLDEN, PARAMS, ((SQRT5 / 4,), F(1, 8)), 0, 12, seed=2)
    pts = [(SQRT5 / 4 + F(1, 8) * (2 * t - 1),) for (t,) in (sample_point(2, i, 1) for i in range(12))]
    assert ce.estimate.fraction == F(sum(delta_membership(GOLDEN, x, F(1, 100), Window(2, 40)) for x in pts), 12)


@given(
    kind=st.sampled_from(["rational", "sqrt2", "cf"]),
    coords=st.lists(
        st.one_of(
            st.integers(-5, 5),
            st.fractions(max_denominator=9),
            st.fractions(max_denominator=9).map(str),
            st.tuples(st.sampled_from([2, 3]), st.integers(1, 4)).map(lambda t: Quadratic(F(0), F(t[1]), t[0])),
        ),
        max_size=3,
    ),
)
def test_target_rule(kind, coords):
    A = {
        "rational": ApproxMatrix([[F(1, 3)], [F(2, 7)]]),
        "sqrt2": ApproxMatrix([[quadratic(0, 1, 2)], [F(2, 7)]]),
        "cf": ApproxMatrix([[CFReal((0, 1, 2, 3, 4))]]),
    }[kind]
    assert A.target(None) is None
    radicands = {x.d for x in coords if isinstance(x, Quadratic)}
    if len(coords) != A.m:
        error = ValueError
    elif (kind == "cf" and radicands) or len(radicands | ({2} if kind == "sqrt2" else set())) > 1:
        error = UnsupportedEntry
    else:
        b = A.target(coords)
        assert type(b) is tuple and len(b) == A.m
        for x, y in zip(coords, b):
            assert y is x if isinstance(x, Quadratic) else (type(y) is F and y == F(x))
        return
    with pytest.raises(error):
        A.target(coords)


def test_ball_radius_is_checked_once_for_every_ball():
    for r in (F(0), F(-1, 8), F(3, 5)):
        with pytest.raises(ValueError, match=r"ball radius must lie in \(0, 1/2\]"):
            GOLDEN.ball((F(0),), r)
        with pytest.raises(ValueError, match="ball radius"):
            counting_report(GOLDEN, ((F(0),), r), 10)
        with pytest.raises(ValueError, match="ball radius"):
            coverage(GOLDEN, PARAMS, ((F(0),), r), 0, 10, seed=1)
    assert GOLDEN.ball(("1/2",), "1/8") == ((F(1, 2),), F(1, 8))


@pytest.mark.parametrize("index", [0, 1], ids=["walk", "covered"])
def test_coverage_without_samples_is_refused(index):
    with pytest.raises(ValueError, match="samples >= 1 required"):
        coverage(GOLDEN, PARAMS, ((F(1, 2),), F(1, 8)), index, 0, seed=1)


def test_grid_counts_every_point_once():
    psi, w = PowerLog(F(1, 2), F(1, 2), F(0)), Window(1, 4)
    with pytest.raises(ValueError, match=r"grid mode needs samples = k\^2 for an integer k, got 15"):
        measure_W(Q21, psi, w, 15, 0, mode="grid")
    est = measure_W(Q21, psi, w, 16, 0, mode="grid")
    hits = sum(psi_witness(Q21, b, psi, w) is not None for b in grid_points(16, 2))
    assert (est.samples, est.fraction) == (16, F(hits, 16))
    # in one dimension every count is a grid
    assert measure_W(GOLDEN, psi, w, 15, 0, mode="grid").samples == 15
