"""Layer probes: direct calls into one layer's public functions on inputs
drawn from the workload (its matrices and its seed).

Per-call probes report `.p50`, `.p99` and `.calls`; rate and ratio probes
report one value.  Probes run with the tracer's wrappers removed, so their
timings carry no span overhead; each probe batch is recorded as one span of
the layer it calls into.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction as F

from diophlab import analysis, equidist, fastpath, lattice, limsup, numeric, sampling, transference

from jobs import EPS, MATRICES

# per workload: the quadratic matrix for exact distances, the 1D entry for
# fastpath probes, the matrix and level for the transference probe, and the
# matrix whose best approximations feed b_alpha_test
SOURCES = {
    "golden-1d": {"quad": "golden", "line": "golden", "transfer": ("golden", 8), "best": ("golden", 21)},
    "quad-mxn": {"quad": "q12", "line": "q12", "transfer": ("q21", 6), "best": ("q12", 400)},
    "cf-series": {"quad": "golden", "line": "cf", "transfer": ("cf", 6), "best": ("cf", 2**63)},
}
WINDOW = limsup.Window(1, 2**13)
CALLS = 2000


def _pcts(name: str, times_ns: list[int], scale: float, out: dict) -> None:
    ts = sorted(times_ns)
    out[f"{name}.p50"] = statistics.median(ts) / scale
    out[f"{name}.p99"] = ts[max(0, -(-99 * len(ts) // 100) - 1)] / scale
    out[f"{name}.calls"] = len(ts)


def _per_call(fn, args_list) -> list[int]:
    times = []
    clock = time.perf_counter_ns
    for args in args_list:
        t0 = clock()
        fn(*args)
        times.append(clock() - t0)
    return times


def _median_time(fn, repeats: int) -> float:
    ts = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return statistics.median(ts)


def run_probes(workload: str, ctx) -> dict:
    src = SOURCES[workload]
    mats, seed, tracer = ctx.mats, ctx.seed, ctx.tracer
    rng = random.Random(f"{seed}:probes")
    out: dict = {}
    us, ms = 1e3, 1e6

    def pts(n, dim=1):
        return [sampling.sample_point(seed, i, dim) for i in range(n)]

    A = mats[src["quad"]]
    qs = [tuple(rng.randint(-(1 << 12), 1 << 12) or 1 for _ in range(A.n)) for _ in range(CALLS)]
    with tracer.span("numeric", "probe:dist"):
        _pcts("numeric.dist_quadratic_us",
              _per_call(lambda q: numeric.dist_to_int_vec(A.apply(q)), [(q,) for q in qs]), us, out)
        cf = mats["cf"]
        _pcts("numeric.dist_cf_us",
              _per_call(lambda q: numeric.dist_to_int_vec(cf.apply(q)), [(q[:1],) for q in qs]), us, out)
        alpha = mats[src["line"]].rows[0][0]
        _pcts("numeric.enclose_us", _per_call(numeric.enclose, [(alpha, 104)] * CALLS), us, out)

    with tracer.span("lattice", "probe:iter_shell"):
        for n, S in ((1, 20000), (2, 100)):
            npts = sum(lattice.shell_size(n, s) for s in range(1, S + 1))
            t = _median_time(lambda: [sum(1 for _ in lattice.iter_shell(n, s)) for s in range(1, S + 1)], 3)
            out[f"lattice.iter_shell_pts_per_s.n{n}"] = npts / t
        texts = [(ctx.root / "perfbench" / "inputs" / f).read_text() for f in MATRICES.values()]
        _pcts("cli.parse_matrix_us", _per_call(lattice.ApproxMatrix.from_text,
                                               [(texts[i % len(texts)],) for i in range(CALLS // 2)]), us, out)

    psi_bad = limsup.PowerLog(F(1, 100), F(1), F(0))
    targets = pts(CALLS)
    with tracer.span("fastpath", "probe:index"):
        line = fastpath.Line1D(alpha)
        radii = [(s, psi_bad.value_bounds(s)[0]) for s in WINDOW.shells]
        fallbacks = [0]
        line_matrix = lattice.ApproxMatrix([[alpha]])

        def exact(b):
            fallbacks[0] += 1
            return limsup.psi_witness(line_matrix, (b,), psi_bad, WINDOW) is not None

        out["fastpath.index_build_s"] = _median_time(lambda: fastpath.UnionIndex1D(line, radii, exact), 3)
        index = fastpath.UnionIndex1D(line, radii, exact)
        _pcts("fastpath.contains_us", _per_call(index.contains, [(b[0],) for b in targets]), us, out)
        out["fastpath.fallback_ratio"] = fallbacks[0] / len(targets)
        scaled = [fastpath.scale_fraction(b[0]) for b in targets]
        _pcts("fastpath.dist_bounds_us",
              _per_call(line.dist_bounds, [(q[0], b) for q, b in zip(qs, scaled)]), us, out)

    key, ell = src["transfer"]
    with tracer.span("transference", "probe:corollary_3_3"):
        T = mats[key]
        rep = transference.verify_corollary_3_3(T, EPS, ell, pts(20, T.m), check_level=False)
        out["transference.witness_ratio"] = rep.successes / len(rep.targets)

    with tracer.span("limsup", "probe:limsup"):
        psi_log = limsup.PowerLog(F(1), F(1, 2), F(1))
        ds = [(numeric.dist_to_int(alpha * q[0] - b[0]) if not isinstance(alpha, numeric.CFReal)
               else numeric.dist_to_int_vec(mats["cf"].apply(q[:1])), abs(q[0]))
              for q, b in zip(qs[: CALLS // 2], targets)]
        _pcts("limsup.lt_value_us", _per_call(psi_log.lt_value, ds), us, out)
        q12, w8 = mats["q12"], limsup.Window(1, 8)
        psi12 = limsup.PowerLog(F(1, 100), F(2), F(0))
        _pcts("limsup.psi_witness_ms",
              _per_call(lambda b: limsup.psi_witness(q12, b, psi12, w8), [(b,) for b in pts(12)]), ms, out)

    with tracer.span("equidist", "probe:counting"):
        E = mats[src["line"]] if src["line"] != "q12" else mats["q21"]
        N = 1000
        out["equidist.count_pts_per_s"] = (2 * N + 1) ** E.n / _median_time(
            lambda: equidist.counting_report(E, ((F(1, 3),) * E.m, F(1, 10)), N), 3)

    with tracer.span("analysis", "probe:analysis"):
        G = mats["golden"]
        gbest = lattice.best_approximations(G, 21)
        ki_args = [((b[0],), lattice.IntVec((q[0],)), gbest.entries[i % len(gbest.entries)].y)
                   for i, (q, b) in enumerate(zip(qs[: CALLS // 2], targets))]
        _pcts("analysis.key_inequality_us",
              _per_call(lambda b, q, y: analysis.key_inequality_check(G, b, q, y), ki_args), us, out)
        bkey, y_max = src["best"]
        B = mats[bkey]
        best = lattice.best_approximations(B, y_max)
        ks = list(range(1, len(best.entries) - 1))
        _pcts("analysis.b_alpha_test_us",
              _per_call(lambda b: analysis.b_alpha_test(b, best, F(11, 10), ks, B.m, B.n),
                        [(b[: B.m],) for b in pts(CALLS // 2, B.m)]), us, out)

    with tracer.span("sampling", "probe:sampling"):
        _pcts("sampling.sample_point_us",
              _per_call(sampling.sample_point, [(seed, i, 2) for i in range(CALLS)]), us, out)
        _pcts("sampling.binomial_ci_us",
              _per_call(sampling.binomial_ci, [(rng.randint(0, 2000), 2000) for _ in range(CALLS // 2)]), us, out)
        if workload == "quad-mxn":
            items = pts(8)
            pred = lambda b: limsup.psi_witness(q12, b, psi12, w8) is not None  # noqa: E731
        else:
            items = targets
            pred = lambda b: index.contains(b[0])  # noqa: E731
        t1 = _median_time(lambda: sampling.parallel_map(pred, items, 1), 3)
        t2 = _median_time(lambda: sampling.parallel_map(pred, items, 2), 3)
        out["sampling.parallel_speedup_2w"] = t1 / t2
    return out
