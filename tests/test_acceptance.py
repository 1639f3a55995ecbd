"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line with the measured quantity and its stated tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines."""

import math
import time
from fractions import Fraction as F

import pytest

from diophlab.lattice import (
    ApproxMatrix,
    IntVec,
    best_approximations,
    continued_fraction,
    return_sequence,
)
from diophlab.limsup import PowerLog, Window, check_u_regular, coverage, measure_Bad, measure_W, ubiquity_params
from diophlab.numeric import CFReal, Quadratic, dist_to_int, ex_pow, lt, quadratic
from diophlab.sampling import sample_point
from diophlab.transference import transfer_bounds, verify_corollary_3_3
from diophlab.equidist import counting_report, estimate_equid_constant
from diophlab.analysis import (
    b_alpha_test,
    classify_series,
    gamma_sequence,
    key_inequality_check,
    verify_prop_5_1,
)

GOLDEN = quadratic(F(-1, 2), F(1, 2), 5)
A_GOLDEN = ApproxMatrix([[GOLDEN]])
SQRT2 = Quadratic(F(0), F(1), 2)
A_SQRT2 = ApproxMatrix([[SQRT2]])


def report(num, ok, detail):
    import conftest

    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, detail


def test_criterion_01_return_sequence_golden():
    t0 = time.time()
    ret = return_sequence(A_GOLDEN, F(2, 5), 12)
    dt = time.time() - t0
    # independent brute-force oracle (off the clock): one exact distance per q
    dists = [dist_to_int(GOLDEN * q) for q in range(1, 1 << 12)]
    oracle = []
    for ell in range(1, 13):
        thr = F(2, 5) * F(1, 1 << ell)
        if not any(lt(d, thr) for d in dists[: (1 << ell) - 1]):
            oracle.append(ell)
    ok = ret.levels == list(range(1, 13)) == oracle and dt < 5
    report(1, ok, f"levels={ret.levels} oracle-match={ret.levels == oracle} in {dt:.2f}s (< 5 s)")


def test_criterion_02_transference_1000_of_1000():
    t0 = time.time()
    results = {}
    for ell in (4, 6, 8, 10):
        targets = [sample_point(1000 + ell, i, 1) for i in range(1000)]
        rep = verify_corollary_3_3(A_GOLDEN, F(2, 5), ell, targets)
        results[ell] = rep.successes
    dt = time.time() - t0
    ok = all(v == 1000 for v in results.values()) and dt < 30
    report(2, ok, f"witnesses {results} (need 1000 each) in {dt:.1f}s (< 30 s)")


def test_criterion_03_h_identity():
    bad = []
    for m, n in ((1, 1), (1, 2), (2, 1)):
        for eps in (F(1, 4), F(2, 5), F(1)):
            ell = 2 * m  # keeps (n/m) ell integral so C is rational
            C = eps * F(1, 2 ** (n * ell // m))
            tb = transfer_bounds(C, 2**ell, m, n)
            if tb.h != ex_pow(eps, -m):
                bad.append((m, n, eps))
    report(3, not bad, f"h == eps^-m exactly for all 9 cases (failures: {bad})")


def test_criterion_04_counting_ratio_sqrt2():
    t0 = time.time()
    rep = counting_report(A_SQRT2, ((F(0),), F(1, 10)), 10**4)
    dt = time.time() - t0
    err = abs(float(rep.ratio) - 0.2)
    ok = err <= 0.01 and dt < 10
    report(4, ok, f"ratio={float(rep.ratio):.6f} |err|={err:.6f} (<= 0.01) in {dt:.1f}s (< 10 s)")


import functools


@functools.lru_cache(maxsize=1)
def _coverage_setup():
    ret = return_sequence(A_GOLDEN, F(2, 5), 12)
    fam = [((F(i, 16),), F(1, 8)) for i in range(16)]
    C = estimate_equid_constant(A_GOLDEN, fam, [2**j for j in range(4, 10)]).recommended
    return ubiquity_params(ret, C)


def test_criterion_05_ubiquity_coverage():
    t0 = time.time()
    params = _coverage_setup()
    samples = 10**4
    worst = None
    for idx in range(len(params.levels) - 3, len(params.levels)):
        ce = coverage(A_GOLDEN, params, ((F(1, 2),), F(1, 8)), idx, samples, seed=55)
        p = float(ce.estimate.fraction)
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / samples)
        lower = float(ce.estimate.ci_low)
        margin = lower - (0.5 - 3 * sigma)
        if worst is None or margin < worst[1]:
            worst = (ce.ell, margin, lower)
    dt = time.time() - t0
    ok = worst[1] >= 0 and dt < 60
    report(5, ok, f"min CI lower bound {worst[2]:.4f} at level {worst[0]} vs 0.5-3sigma, margin {worst[1]:.4f}, in {dt:.1f}s (< 60 s)")


def test_criterion_06_u_regularity():
    params = _coverage_setup()
    ok = check_u_regular(params, F(1, 2))  # lambda = 2^(-n/m) = 1/2
    report(6, ok, "check_u_regular(lambda = 1/2) exact on full golden levels")


def test_criterion_07_kurzweil_dichotomy():
    t0 = time.time()
    div = measure_W(A_GOLDEN, PowerLog(F(1, 2), F(1), F(0)), Window(1, 2**16), 2000, seed=77)
    t1 = time.time()
    conv = measure_W(A_GOLDEN, PowerLog(F(1), F(2), F(0)), Window(2**6, 2**16), 2000, seed=77)
    t2 = time.time()
    p = float(conv.fraction)
    sigma = math.sqrt(max(p * (1 - p), 1e-12) / 2000)
    bound = 4 * 2**-6 + 3 * sigma
    ok = div.fraction >= F(9, 10) and p <= bound and (t1 - t0) < 120 and (t2 - t1) < 120
    report(7, ok, f"divergent psi: {float(div.fraction):.4f} (>= 0.9); convergent psi: {p:.4f} (<= {bound:.4f}); {t1-t0:.0f}s/{t2-t1:.0f}s (< 120 s each)")


def test_criterion_08_bad_shrinkage():
    fracs = {}
    for j in (8, 10, 12, 14, 16):
        est = measure_Bad(A_GOLDEN, F(1, 100), Window(1, 2**j), 2000, seed=88)
        fracs[j] = float(est.fraction)
    ok = True
    js = sorted(fracs)
    for a, b in zip(js, js[1:]):
        p = fracs[a]
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / 2000)
        if fracs[b] > fracs[a] + 2 * sigma:
            ok = False
    report(8, ok, f"fractions {fracs} nonincreasing within 2 sigma on the fixed sample set")


def test_criterion_09_best_approx_cf():
    phi_y = [e.Y for e in best_approximations(A_GOLDEN, 21).entries]
    r2_y = [e.Y for e in best_approximations(A_SQRT2, 12).entries]
    # cross-check against convergent denominators of the CF expansion
    cf = continued_fraction(SQRT2, 8)
    p0, q0, p1, q1 = 1, 0, 0, 1
    dens = []
    for a in cf.quotients:
        p0, q0, p1, q1 = a * p0 + p1, a * q0 + q1, p0, q0
        dens.append(q0)
    ok = (
        phi_y == [1, 2, 3, 5, 8, 13, 21]
        and r2_y == [1, 2, 5, 12]
        and r2_y == [d for d in dens if d <= 12]
    )
    report(9, ok, f"phi Y={phi_y}, sqrt2 Y={r2_y}, CF denominators agree")


def test_criterion_10_counterpart_machinery():
    # golden half: K = 10 horizon, checks exact, gamma bounded below by 1/4
    best = best_approximations(A_GOLDEN, 144)  # 11 record entries
    rep = gamma_sequence(best, 1, 1)
    golden_ok = rep.all_checks and all(
        not lt(e.gamma_pow, F(1, 16)) for e in rep.entries  # gamma^2 >= 1/16
    )

    # CFReal half, a_k = 2^(2^k), horizon K = 6
    cf = CFReal((0, 4, 16, 256, 65536, 2**32, 2**64, 2**128))
    A_cf = ApproxMatrix([[cf]])
    best_cf = best_approximations(A_cf, 2**63)
    rep_cf = gamma_sequence(best_cf, 1, 1)
    gammas = [float(e.gamma_dec) for e in rep_cf.entries]
    decreasing = all(a > b for a, b in zip(gammas, gammas[1:]))
    g_last_small = gammas[-1] < 1e-3 if gammas else False

    # 100 sampled b passing b_alpha_test at alpha = 11/10, zero violations
    alpha = F(11, 10)
    ks = list(range(1, len(best_cf.entries) - 1))
    passing = [
        b for b in (sample_point(10, i, 1) for i in range(2000))
        if b_alpha_test(b, best_cf, alpha, ks)
    ][:100]
    prop_ok = False
    if len(passing) == 100:
        try:
            prop_ok = all(
                not verify_prop_5_1(A_cf, b, alpha, best_cf, Window(4, 64)).violations
                for b in passing
            )
        except Exception:
            prop_ok = False

    ok = golden_ok and decreasing and g_last_small and prop_ok
    report(
        10,
        ok,
        f"golden checks+gamma>=1/4: {golden_ok}; CF gammas {gammas} "
        f"(decreasing: {decreasing}, last < 1e-3: {g_last_small}); "
        f"passing b found: {len(passing)}/100, prop 5.1 clean: {prop_ok} "
        f"[note: in 1D, Y_k M_(k-1) > 1/2 forces gamma_k > 0.7 and "
        f"alpha*gamma_k > 1/2 >= ||b y||_Z, so the stated CF expectations "
        f"are unsatisfiable; see README]",
    )


def test_criterion_11_key_inequality_property():
    best = best_approximations(A_GOLDEN, 21)  # k <= 7
    failures = 0
    trials = 10**4
    for i in range(trials):
        pt = sample_point(11, i, 3)
        b = (pt[0],)
        q = IntVec((int(pt[1] * 400) - 200,))
        k = min(int(pt[2] * len(best.entries)), len(best.entries) - 1)
        if not key_inequality_check(A_GOLDEN, b, q, best.entries[k].y):
            failures += 1
    report(11, failures == 0, f"{failures} failures in {trials} randomized instances (need 0)")


SERIES_CASES = [
    # (n, s, a, beta) spanning all four regimes of the criterion
    (1, F(1), F(1, 2), F(0), "Diverges"),   # a s < n
    (1, F(1), F(1, 2), F(9), "Diverges"),   # a s < n, logs irrelevant
    (2, F(1), F(1), F(0), "Diverges"),      # a s < n
    (1, F(1), F(1), F(0), "Diverges"),      # a s = n, beta s = 0
    (1, F(1), F(1), F(1), "Diverges"),      # a s = n, beta s = 1
    (2, F(2), F(1), F(1, 2), "Diverges"),   # a s = n, beta s = 1
    (1, F(1), F(1), F(2), "Converges"),     # a s = n, beta s = 2
    (1, F(2), F(1, 2), F(1), "Converges"),  # a s = n, beta s = 2
    (2, F(2), F(1), F(3, 4), "Converges"),  # a s = n, beta s = 3/2
    (1, F(1), F(2), F(0), "Converges"),     # a s > n
    (2, F(1), F(3), F(0), "Converges"),     # a s > n
    (1, F(2), F(1), F(-1, 4), "Converges"), # a s > n... a s = 2 > 1
]


def test_criterion_12_series_truth_table():
    bad = []
    trend_bad = []
    for n, s, a, beta, want in SERIES_CASES:
        psi = PowerLog(F(1), a, beta)
        v = classify_series(psi, s, n, horizons=(10**4, 10**5, 10**6))
        if v.status != want:
            bad.append((n, s, a, beta, v.status))
            continue
        (_, (lo1, hi1)), _, (_, (lo3, hi3)) = v.partial_sums
        if want == "Diverges":
            # certified strict growth across two decades
            if not lo3 > hi1:
                trend_bad.append((n, s, a, beta))
        else:
            # certified flattening: the whole tail beyond 10^4, enclosure
            # slack included, is smaller than the head
            if not hi3 - lo1 < lo1:
                trend_bad.append((n, s, a, beta))
    ok = not bad and not trend_bad
    report(12, ok, f"12-case truth table (verdict misses: {bad}); partial-sum trend at Q = 10^6 (misses: {trend_bad})")


def test_criterion_13_thread_determinism():
    psi = PowerLog(F(1, 2), F(1), F(0))
    outs = []
    for t in (1, 4, 8):
        w = measure_W(A_GOLDEN, psi, Window(1, 2**10), 500, seed=13, threads=t)
        b = measure_Bad(A_GOLDEN, F(1, 100), Window(1, 2**10), 500, seed=13, threads=t)
        params = _coverage_setup()
        c = coverage(A_GOLDEN, params, ((F(1, 2),), F(1, 8)), len(params.levels) - 1, 500, seed=13, threads=t)
        outs.append((w.to_json(), b.to_json(), c.to_json()))
    ok = outs[0] == outs[1] == outs[2]
    report(13, ok, "bit-identical measure_W / measure_Bad / coverage reports across 1, 4, 8 threads")
