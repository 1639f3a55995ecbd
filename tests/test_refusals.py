"""Every input refusal of the public entry points: the error type and the
start of its message, one row per check."""

from fractions import Fraction as F

import pytest

from diophlab.analysis import classify_return_series, classify_series, key_inequality_check
from diophlab.equidist import estimate_equid_constant
from diophlab.errors import InsufficientData, InvalidWindow, UnsupportedEntry
from diophlab.lattice import (
    ApproxMatrix,
    IntVec,
    ReturnSequence,
    bad_witness,
    best_approximations,
    continued_fraction,
    return_sequence,
    solve_homogeneous,
)
from diophlab.limsup import (
    PowerLog,
    TablePsi,
    UbiquityLevel,
    UbiquityParams,
    _points,
    check_u_regular,
    coverage,
    ubiquity_params,
)
from diophlab.numeric import CFReal, Radical, parse_exact, quadratic, sup_norm
from diophlab.sampling import binomial_ci
from diophlab.transference import solve_inhomogeneous

GOLDEN = ApproxMatrix([[quadratic(F(1, 2), F(1, 2), 5)]])
PSI = PowerLog(F(1), F(1), F(0))


def returns(*levels):
    return ReturnSequence(F(1, 4), 8, list(levels), 1, 1)


# one hand-built level whose annulus holds no integer: floor(9/4) = floor(5/2)
EMPTY_ANNULUS = UbiquityParams(F(1, 4), 1, 1, F(1, 2), F(1, 4), F(1), [UbiquityLevel(1, F(5, 2), F(9, 4), F(1, 16))])

REFUSALS = [
    pytest.param(lambda: ApproxMatrix([[F(1), F(2)], [F(1)]]), ValueError, "matrix must be rectangular", id="ragged-rows"),
    pytest.param(lambda: ApproxMatrix([[0.5]]), TypeError, "bad entry 0.5", id="float-entry"),
    pytest.param(
        lambda: ApproxMatrix([[CFReal((0, 1, 2)), F(1)]]), UnsupportedEntry, "CF entries only supported", id="cf-1x2"
    ),
    pytest.param(lambda: ApproxMatrix.from_text("\n \n"), ValueError, "empty matrix file", id="empty-file"),
    pytest.param(lambda: ApproxMatrix.from_text("2 1\n1/2\n"), ValueError, "expected 2 rows, got 1", id="row-count"),
    pytest.param(
        lambda: ApproxMatrix.from_text("1 2\n1/2\n"), ValueError, "expected 2 entries per row, got 1", id="entry-count"
    ),
    pytest.param(lambda: parse_exact("(1+1*sqrt(2))/0"), ValueError, "zero denominator in", id="zero-denominator"),
    pytest.param(lambda: parse_exact("(1+1*sqrt(8))/2"), ValueError, "radicand 8 is not squarefree", id="radicand-8"),
    pytest.param(lambda: CFReal(()), ValueError, "need at least a0", id="cf-no-quotients"),
    pytest.param(lambda: CFReal((1, 2, 0)), ValueError, "partial quotients a_k must be >= 1", id="cf-zero-quotient"),
    pytest.param(lambda: Radical(F(2), 0), ValueError, "root must be >= 1", id="radical-root-0"),
    pytest.param(lambda: Radical(F(-1, 3), 2), ValueError, "negative radicand", id="radical-negative"),
    pytest.param(lambda: sup_norm([]), ValueError, "empty vector", id="sup-norm-empty"),
    pytest.param(lambda: solve_homogeneous(GOLDEN, F(0), 8), ValueError, "need C > 0 and X >= 1", id="homogeneous-C"),
    pytest.param(lambda: solve_homogeneous(GOLDEN, F(1, 4), 0), ValueError, "need C > 0 and X >= 1", id="homogeneous-X"),
    pytest.param(lambda: return_sequence(GOLDEN, F(0), 4), ValueError, "need eps > 0 and ell_max >= 1", id="return-eps"),
    pytest.param(lambda: return_sequence(GOLDEN, F(1, 4), 0), ValueError, "need eps > 0 and ell_max >= 1", id="return-ell"),
    pytest.param(lambda: bad_witness(GOLDEN, 0), ValueError, "Q >= 1 required", id="bad-witness-Q"),
    pytest.param(lambda: best_approximations(GOLDEN, 0), ValueError, "Y_max >= 1 required", id="best-approx-Y"),
    pytest.param(lambda: continued_fraction(F(3, 7), 0), ValueError, "k >= 1 required", id="cf-expansion-k"),
    pytest.param(
        lambda: continued_fraction(CFReal((0, 1, 2)), 2), UnsupportedEntry, "continued_fraction needs", id="cf-expansion-cf"
    ),
    pytest.param(lambda: solve_inhomogeneous(GOLDEN, (F(1, 3),), F(0), 8), ValueError, "C1 > 0 required", id="C1"),
    pytest.param(lambda: solve_inhomogeneous(GOLDEN, (F(1, 3),), F(1, 4), F(-1, 2)), ValueError, "X1 >= 0", id="X1"),
    pytest.param(lambda: binomial_ci(0, 0), ValueError, "samples must be positive", id="binomial-ci"),
    pytest.param(lambda: _points(1, 4, 0, "sobol"), ValueError, "unknown sampling mode 'sobol'", id="sampling-mode"),
    pytest.param(
        lambda: PowerLog(F(1), F(1, 100), F(-1)), ValueError, "psi must be nonincreasing: a >= 0 and a + beta >= 0",
        id="powerlog-increasing",
    ),
    pytest.param(lambda: TablePsi([(2, F(1))]), ValueError, "table must start at q <= 1", id="table-start"),
    pytest.param(lambda: TablePsi([(1, F(1)), (4, F(0))]), ValueError, "table values must be positive", id="table-zero"),
    pytest.param(
        lambda: list(PowerLog(F(1), F(1), F(1)).scaled_bounds([0], 10)), ValueError, "q >= 1 required", id="powerlog-q0"
    ),
    pytest.param(lambda: ubiquity_params(returns(), F(1)), InvalidWindow, "empty return sequence", id="ubiquity-levels"),
    pytest.param(lambda: ubiquity_params(returns(3), F(0)), ValueError, "equidistribution constant", id="ubiquity-C"),
    pytest.param(
        lambda: check_u_regular(ubiquity_params(returns(3), F(1)), F(1)), InvalidWindow, "need at least two levels",
        id="u-regular-one-level",
    ),
    pytest.param(
        lambda: coverage(GOLDEN, EMPTY_ANNULUS, ((F(1, 2),), F(1, 4)), 0, 4, 0), InvalidWindow,
        "need 0 <= l < u, got (2, 2)", id="coverage-empty-annulus",
    ),
    pytest.param(lambda: classify_series(PSI, F(0), 1), ValueError, "s > 0 required", id="series-s"),
    pytest.param(lambda: classify_return_series(PSI, F(1), 1, returns()), InsufficientData, "empty return", id="return-series"),
    pytest.param(
        lambda: key_inequality_check(GOLDEN, (F(1, 3),), IntVec((1, 2)), IntVec((1,))), ValueError, "dimension mismatch",
        id="key-inequality-dims",
    ),
    pytest.param(lambda: estimate_equid_constant(GOLDEN, [], [4]), ValueError, "need at least one ball", id="equid-family"),
]


@pytest.mark.parametrize("call, error, start", REFUSALS)
def test_refusal(call, error, start):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value).startswith(start)
