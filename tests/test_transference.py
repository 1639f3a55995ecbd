"""Homogeneous-to-inhomogeneous transference: exact constants, witness
search, level verification."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from diophlab.lattice import ApproxMatrix
from diophlab.numeric import Quadratic, Radical, dist_to_int, ex_pow, le, lt
from diophlab.sampling import sample_point
from diophlab.transference import (
    corollary_bounds,
    solve_inhomogeneous,
    transfer_bounds,
    verify_corollary_3_3,
)


class TestTransferBounds:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1)])
    @pytest.mark.parametrize("eps", [F(1, 4), F(2, 5), F(1)])
    def test_h_equals_eps_pow_minus_m(self, m, n, eps):
        # C = eps 2^(-(n/m) l) chosen with m | n*l so C stays rational
        ell = 2 * m
        C = eps * F(1, 2 ** (n * ell // m))
        tb = transfer_bounds(C, 2**ell, m, n)
        assert tb.h == ex_pow(eps, -m)

    def test_scaling_identities(self):
        tb = transfer_bounds(F(1, 10), 16, 1, 1)
        scale = (tb.h + 1) / 2
        assert tb.C1 == scale * F(1, 10)
        assert tb.X1 == scale * 16

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            transfer_bounds(F(0), 4, 1, 1)


class TestSolveInhomogeneous:
    def test_trivial_big_radius(self, A_golden):
        # C1 = 1/2 is satisfied by q = 0 for every target
        q = solve_inhomogeneous(A_golden, [F(1, 2)], F(1, 2), F(1))
        assert q is not None and q.coords == (0,)

    def test_known_witness(self, A_golden, golden):
        q = solve_inhomogeneous(A_golden, [F(1, 2)], F(1, 10), F(20))
        assert q is not None
        d = dist_to_int(golden * q.coords[0] - F(1, 2))
        assert le(d, F(1, 10))
        assert q.norm == 4  # smallest shell with a witness

    def test_non_strict_boundary(self):
        # rational matrix, target exactly C1 away
        A = ApproxMatrix([[F(1, 4)]])
        q = solve_inhomogeneous(A, [F(1, 8)], F(1, 8), F(1))
        assert q is not None and q.coords == (0,)

    def test_fastpath_agrees_with_generic(self, A_golden, golden):
        # the 1D scaled-integer prefilter must agree with a plain scan
        for i in range(40):
            b = sample_point(17, i, 1)[0]
            got = solve_inhomogeneous(A_golden, (b,), Radical(F(1, 12), 1), 15, 1 << 20)
            want = None
            for s in range(0, 16):
                for qq in ((0,) if s == 0 else (-s, s)):
                    if le(dist_to_int(golden * qq - b), F(1, 12)):
                        want = (qq,)
                        break
                if want:
                    break
            assert (got.coords if got else None) == want


    def test_budget_honoured_for_1x1(self, A_golden):
        # the 1 x 1 search charges the budget like every other shape
        from diophlab.errors import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            solve_inhomogeneous(A_golden, (F(1, 3),), F(1, 10**6), 2000, budget=10)
        with pytest.raises(BudgetExceeded):
            solve_inhomogeneous(ApproxMatrix([[F(1, 7), F(2, 7)]]), (F(1, 3),), F(1, 10**6), 2000, budget=10)


class TestCorollary33:
    def test_bounds_match_paper_shape(self):
        C1m, X1 = corollary_bounds(F(2, 5), 4, 1, 1)
        scale = (F(5, 2) + 1) / 2  # (eps^-1 + 1)/2
        assert X1 == scale * 16
        assert C1m == scale * F(2, 5) / 16

    def test_golden_all_targets_hit(self, A_golden):
        targets = [sample_point(5, i, 1) for i in range(50)]
        rep = verify_corollary_3_3(A_golden, F(2, 5), 6, targets)
        assert rep.successes == 50 and rep.all_ok

    def test_level_check_rejects_non_member(self):
        # rational entry: only level 1 is in L(2/5), so ell = 3 must refuse
        A = ApproxMatrix([[F(1, 2)]])
        with pytest.raises(ValueError):
            verify_corollary_3_3(A, F(2, 5), 3, [(F(1, 3),)])

    def test_target_without_witness_is_a_miss(self):
        # q/2 - 1/4 is 1/4 from Z for every q, above C1 = 7/80: b = 1/4 has
        # no witness and is reported as a miss beside b = 0, hit at q = 0
        rep = verify_corollary_3_3(ApproxMatrix([[F(1, 2)]]), F(2, 5), 3, [(F(1, 4),), (F(0),)], check_level=False)
        missed, hit = rep.to_json()["targets"]
        assert missed == {"b": ["1/4"], "witness_q": None, "lhs_value": "", "slack": "", "ok": False}
        assert hit["witness_q"] == [0] and hit["ok"]
        assert rep.successes == 1 and not rep.all_ok

    def test_level_check_on_lines(self, A_cf, A_golden):
        # L(2/5) of cf_fast is [1, 2, 5, 6, 13] up to 13, and golden's L(1/2)
        # misses level 8 but holds 9; the records route decides both
        for A, eps, outside, inside in ((A_cf, F(2, 5), 3, 5), (A_golden, F(1, 2), 8, 9)):
            with pytest.raises(ValueError, match=f"level {outside} is not in the return sequence"):
                verify_corollary_3_3(A, eps, outside, [(F(1, 3),)])
            rep = verify_corollary_3_3(A, eps, inside, [(F(1, 3),), (F(5, 7),)])
            assert rep.ell == inside and rep.all_ok

    @pytest.mark.parametrize("eps", [F(0), F(-1, 2), F(-2)])
    def test_rejects_nonpositive_epsilon(self, eps):
        # Corollary 3.3 needs eps > 0: unchecked, eps = -1/2 reads as a
        # theorem violation (every target missed) and eps = 0 divides by zero
        for A in (ApproxMatrix([[F(1, 3)]]), ApproxMatrix([[F(1, 4)], [F(2, 3)]])):
            with pytest.raises(ValueError, match="need eps > 0"):
                verify_corollary_3_3(A, eps, 2, [(F(1, 3),) * A.m], check_level=False)
            with pytest.raises(ValueError, match="need eps > 0"):
                verify_corollary_3_3(A, eps, 2, [(F(1, 3),) * A.m])

    def test_report_json_shape(self, A_golden):
        rep = verify_corollary_3_3(A_golden, F(2, 5), 4, [(F(1, 3),)])
        j = rep.to_json()
        assert j["successes"] == 1
        assert j["targets"][0]["witness_q"] is not None

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=15, deadline=None)
    def test_witness_always_within_bounds(self, seed):
        from diophlab.numeric import quadratic

        golden = quadratic(F(-1, 2), F(1, 2), 5)
        A_golden = ApproxMatrix([[golden]])
        b = sample_point(seed, 0, 1)
        rep = verify_corollary_3_3(A_golden, F(2, 5), 5, [b])
        (t,) = rep.targets
        assert t.ok
        q = t.witness.coords[0]
        C1m, X1 = corollary_bounds(F(2, 5), 5, 1, 1)
        assert F(abs(q)) <= X1
        assert le(dist_to_int(golden * q - b[0]), C1m)
