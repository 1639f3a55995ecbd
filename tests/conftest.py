import sys
from fractions import Fraction as F

import pytest

from diophlab.numeric import CFReal, Quadratic, quadratic
from diophlab.lattice import ApproxMatrix


# acceptance lines collected by tests/test_acceptance.py::report; echoed in
# the terminal summary so they survive output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def golden():
    # (sqrt(5) - 1) / 2
    return quadratic(F(-1, 2), F(1, 2), 5)


@pytest.fixture
def sqrt2():
    return Quadratic(F(0), F(1), 2)


@pytest.fixture
def A_golden(golden):
    return ApproxMatrix([[golden]])


@pytest.fixture
def A_sqrt2(sqrt2):
    return ApproxMatrix([[sqrt2]])


@pytest.fixture
def cf_fast():
    # partial quotients a_k = 2^(2^k), extremely well approximable
    return CFReal((0, 4, 16, 256, 65536, 2**32, 2**64, 2**128))


@pytest.fixture
def A_cf(cf_fast):
    return ApproxMatrix([[cf_fast]])
