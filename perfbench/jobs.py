"""The three workloads: job lists, their work counts and correctness checks.

A job calls diophlab's public entry points the way the acceptance gate does,
through module attributes so that the tracer's wrappers see the calls.  Each
job returns a verdict: the JSON-able fields that decide its mathematical
result.  `expect` holds the expectations that hold at every seed; jobs whose
inputs do not depend on the seed are also compared with the committed
references at every seed, the seeded ones at the default seed only, and the
seeded target jobs re-decide a subset of their targets with the generic exact
predicate off the clock.

Sizes are the acceptance-gate sizes scaled down so that a pass of the job
list takes a few seconds; each job keeps roughly its share of the pass.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable, Optional

from diophlab import analysis, cli, equidist, fastpath, lattice, limsup, numeric, sampling, transference

EPS = F(2, 5)
MATRICES = {
    "golden": "golden.mat",
    "sqrt2": "sqrt2.mat",
    "q12": "q12.mat",
    "q21": "q21.mat",
    "cf": "cf_fast.mat",
}

# criterion 12: (n, s, a, beta, verdict)
SERIES_CASES = [
    (1, "1", "1/2", "0", "Diverges"),
    (1, "1", "1/2", "9", "Diverges"),
    (2, "1", "1", "0", "Diverges"),
    (1, "1", "1", "0", "Diverges"),
    (1, "1", "1", "1", "Diverges"),
    (2, "2", "1", "1/2", "Diverges"),
    (1, "1", "1", "2", "Converges"),
    (1, "2", "1/2", "1", "Converges"),
    (2, "2", "1", "3/4", "Converges"),
    (1, "1", "2", "0", "Converges"),
    (2, "1", "3", "0", "Converges"),
    (1, "2", "1", "-1/4", "Converges"),
]


@dataclass
class Ctx:
    """Per-run state shared by the jobs of one workload."""

    root: Path
    seed: int
    mats: dict[str, Any]
    tmp: Path
    tracer: Any
    state: dict = field(default_factory=dict)


@dataclass
class Job:
    name: str
    cls: str  # "S" scan (counts points), "T" target (counts targets), "-" neither
    run: Callable[[Ctx], dict]  # returns the verdict
    work: int  # points (S) or targets (T), computed from the inputs
    expect: Callable[[dict], Optional[str]] = lambda v: None
    seeded: bool = False
    threads: int = 1
    redecide: Optional[Callable[[Ctx, dict], Optional[str]]] = None


def load_matrices(root: Path) -> tuple[dict, dict]:
    """Parse the committed matrix files (part of the measured set-up)."""
    mats, paths = {}, {}
    for key, fname in MATRICES.items():
        rel = f"perfbench/inputs/{fname}"
        mats[key] = lattice.ApproxMatrix.from_text((root / rel).read_text(encoding="utf-8"))
        paths[key] = rel
    return mats, paths


# ---------------------------------------------------------------------------
# work counts: sizes of the search spaces the jobs decide
# ---------------------------------------------------------------------------


def ball_points(n: int, N: int) -> int:
    """#{q in Z^n : ||q|| <= N}."""
    return (2 * N + 1) ** n


def return_points(n: int, ell_max: int) -> int:
    """Sum over levels of #{0 < ||q|| < 2^l}."""
    return sum(ball_points(n, (1 << ell) - 1) - 1 for ell in range(1, ell_max + 1))


def exponent_points(n_inhom: int, n_hom: Optional[int], xs: list[int]) -> int:
    """Inhomogeneous scan over 0 < ||q|| < X plus the transpose scan; 1x1
    inputs replace the transpose scan by CF records (n_hom None)."""
    return sum(ball_points(n_inhom, X - 1) - 1 + (ball_points(n_hom, X - 1) - 1 if n_hom else 0)
               for X in xs)


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def _estimate(est) -> dict:
    return {"fraction": str(est.fraction), "ci_low": str(est.ci_low),
            "ci_high": str(est.ci_high), "samples": est.samples}


def _estimate_ok(v: dict) -> Optional[str]:
    f, lo, hi = F(v["fraction"]), F(v["ci_low"]), F(v["ci_high"])
    if not 0 <= lo <= f <= hi <= 1:
        return f"confidence interval [{lo}, {hi}] does not hold {f}"
    return None


def _run_cli(ctx: Ctx, name: str, args: list[str], threads: Optional[int] = None) -> tuple[int, str]:
    """diophlab.cli.main in-process, with --out in the run's temporary directory."""
    out = ctx.tmp / f"{name}.json"
    if threads is not None:
        os.environ["DIOPHLAB_THREADS"] = str(threads)
    try:
        with ctx.tracer.span("cli", args[0]):
            try:
                cli.main.main(args=args + ["--out", str(out)], prog_name="diophlab")
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        os.environ.pop("DIOPHLAB_THREADS", None)
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    ctx.state["report_bytes"] = ctx.state.get("report_bytes", 0) + len(text.encode())
    return code, text


def _index_test(A, w, radii, exact):
    """Certified 1D membership built from fastpath's public classes, as an
    independent rebuild of the library's indexed predicate: inner/outer
    union indices over the per-shell radius enclosures, exact fallback."""
    line = fastpath.Line1D(A.rows[0][0])
    shells = list(w.shells)
    if all(lo == hi for lo, hi in radii):
        ix = fastpath.UnionIndex1D(line, [(s, lo) for s, (lo, _) in zip(shells, radii)], exact)
        return ix.contains
    inner = fastpath.UnionIndex1D(line, [(s, lo) for s, (lo, _) in zip(shells, radii)], exact)
    outer = fastpath.UnionIndex1D(line, [(s, hi) for s, (_, hi) in zip(shells, radii)], exact)
    return lambda b: inner.contains(b) or (outer.contains(b) and exact(b))


def _subset(ctx: Ctx, tag: str, verdicts: list[bool]) -> list[int]:
    """Seeded choice of two target indices with a positive verdict and one
    with a negative verdict, which costs a full generic scan of the window."""
    rng = random.Random(f"{ctx.seed}:{tag}")
    pos = [i for i, v in enumerate(verdicts) if v]
    neg = [i for i, v in enumerate(verdicts) if not v]
    return sorted(rng.sample(pos, min(2, len(pos))) + rng.sample(neg, min(1, len(neg))))


def _redecide_1d(ctx: Ctx, tag: str, A, w, radii, generic, pts, hits: int) -> Optional[str]:
    """Indexed verdicts over all targets must sum to the job's hit count, and
    a seeded subset must agree with the generic exact predicate."""
    test = _index_test(A, w, radii, generic)
    verdicts = [test(p[0]) for p in pts]
    if sum(verdicts) != hits:
        return f"{tag}: indexed rebuild finds {sum(verdicts)} hits, job reported {hits}"
    for i in _subset(ctx, tag, verdicts):
        if generic(pts[i][0]) != verdicts[i]:
            return f"{tag}: target {i} generic verdict differs from the indexed one"
    return None


def _measure_job(name, A, psi, w, samples, bad: bool, expect=None) -> Job:
    def run(ctx: Ctx) -> dict:
        if bad:
            est = limsup.measure_Bad(A, psi.c, w, samples, ctx.seed)
        else:
            est = limsup.measure_W(A, psi, w, samples, ctx.seed)
        return _estimate(est)

    def check(v):
        return _estimate_ok(v) or (expect(v) if expect else None)

    def redecide(ctx: Ctx, v: dict) -> Optional[str]:
        pts = [sampling.sample_point(ctx.seed, i, A.m) for i in range(samples)]
        k = int(F(v["fraction"]) * samples)
        radii = [psi.value_bounds(s) for s in w.shells]

        def generic(b):
            return limsup.psi_witness(A, (b,), psi, w) is not None

        return _redecide_1d(ctx, name, A, w, radii, generic, pts, samples - k if bad else k)

    return Job(name, "T", run, samples, check, seeded=True, redecide=redecide)


def _return_job(name, A, ell_max, levels) -> Job:
    def run(ctx):
        ret = lattice.return_sequence(A, EPS, ell_max)
        ctx.state["ret"] = ret
        return {"levels": ret.levels}

    def check(v):
        return None if v["levels"] == levels else f"levels {v['levels']}, expected {levels}"

    return Job(name, "S", run, return_points(A.n, ell_max), check)


def _counting_job(name, A, center, radius, N, ratio, tol) -> Job:
    def run(ctx):
        rep = equidist.counting_report(A, (center, radius), N)
        return {"count": rep.count, "total": rep.total, "boundary_hits": rep.boundary_hits}

    def check(v):
        r = F(v["count"], v["total"])
        return None if abs(r - ratio) <= tol else f"ratio {float(r):.6f} not within {tol} of {ratio}"

    return Job(name, "S", run, ball_points(A.n, N), check)


def _weyl_job(name, A, N) -> Job:
    def run(ctx):
        res = equidist.weyl_sum(A, (1,), N)
        return {"count": res.count, "normalized": [str(x) for x in res.normalized]}

    def check(v):
        # the certified interval must hold a float evaluation of the sum
        alphas = [float(e) for e in A.rows[0]]
        qs = [()]
        for _ in alphas:
            qs = [q + (c,) for q in qs for c in range(-N, N + 1)]
        s = sum(cmath.exp(2j * math.pi * math.fsum(a * c for a, c in zip(alphas, q))) for q in qs)
        val = abs(s) / len(qs)
        lo, hi = (float(F(x)) for x in v["normalized"])
        if not lo - 1e-6 <= val <= hi + 1e-6:
            return f"float |S|/count = {val:.3e} outside certified [{lo:.3e}, {hi:.3e}]"
        return None

    return Job(name, "S", run, ball_points(A.n, N), check)


def _round(x):
    return None if x is None else float(f"{x:.9g}") if isinstance(x, float) else str(x)


def _exponents_job(name, A, b, xs, n_hom) -> Job:
    def run(ctx):
        est = analysis.estimate_exponents(A, b, xs)
        return {"w_hat": _round(est.w_hat), "what_hat": _round(est.what_hat),
                "table": [{k: _round(x) if k != "X" else x for k, x in row.items()} for row in est.table]}

    def check(v):
        return None if isinstance(v["w_hat"], float) and v["w_hat"] > 0 else f"w_hat {v['w_hat']}"

    return Job(name, "S", run, exponent_points(A.n, n_hom, xs), check)


# ---------------------------------------------------------------------------
# golden-1d
# ---------------------------------------------------------------------------


def golden_1d(mats: dict, paths: dict) -> list[Job]:
    G, S2 = mats["golden"], mats["sqrt2"]
    ell_max, ell_t, n_transfer = 10, 10, 250
    balls = [((F(i, 16),), F(1, 8)) for i in range(16)]
    horizons = [2**j for j in range(4, 8)]
    cov_samples, cov_ball = 2500, ((F(1, 2),), F(1, 8))
    # measure_Bad's window is smaller: re-deciding a target without a witness
    # scans the whole window generically, off the clock
    w_W, w_Bad = limsup.Window(1, 2**13), limsup.Window(1, 2**12)
    jobs = [_return_job("return_sequence", G, ell_max, list(range(1, ell_max + 1)))]

    def equid(ctx):
        est = equidist.estimate_equid_constant(G, balls, horizons)
        ctx.state["C"] = est.recommended
        return {"c_hat": str(est.c_hat), "table": [[l, c, str(r)] for l, c, r in est.table]}

    jobs.append(Job("equid_constant", "S", equid,
                    len(balls) * sum(ball_points(1, l) for l in horizons),
                    lambda v: None if F(v["c_hat"]) > 0 else "c_hat not positive"))

    def transfer(ctx):
        code, text = _run_cli(ctx, "transfer", [
            "transfer", "--matrix", paths["golden"], "--epsilon", str(EPS),
            "--ell", str(ell_t), "--targets", str(n_transfer), "--seed", str(ctx.seed)])
        rep = json.loads(text) if text else {}
        return {"exit": code, "successes": rep.get("successes"),
                "C1": rep.get("C1", {}).get("pow_m_exact"), "X1": rep.get("X1", {}).get("exact"),
                "witnesses": [t["witness_q"] for t in rep.get("targets", [])]}

    def transfer_ok(v):
        if v["exit"] != 0 or v["successes"] != n_transfer:
            return f"exit {v['exit']}, {v['successes']}/{n_transfer} witnesses"
        return None

    def transfer_redecide(ctx, v):
        C1, x_cap = F(v["C1"]), math.floor(F(v["X1"]))
        # every witness must satisfy the exact bound; a seeded subset must
        # also be the first one in the generic scan order
        for i, q in enumerate(v["witnesses"]):
            b = sampling.sample_point(ctx.seed, i, 1)[0]
            if abs(q[0]) > x_cap or not numeric.le(numeric.dist_to_int(G.rows[0][0] * q[0] - b), C1):
                return f"target {i}: witness {q} misses the bound C1"
        psi = limsup.TablePsi([(1, C1)])
        rng = random.Random(f"{ctx.seed}:transfer")
        for i in sorted(rng.sample(range(n_transfer), 3)):
            b = sampling.sample_point(ctx.seed, i, 1)
            if numeric.le(numeric.dist_to_int(b[0]), C1):
                q = [0]
            else:
                # ||q alpha - b|| is irrational for q != 0, so < and <= agree
                hit = limsup.psi_witness(G, b, psi, limsup.Window(0, x_cap))
                q = list(hit.coords) if hit else None
            if q != v["witnesses"][i]:
                return f"target {i}: generic witness {q}, CLI reported {v['witnesses'][i]}"
        return None

    jobs.append(Job("cli_transfer", "T", transfer, n_transfer, transfer_ok, seeded=True,
                    redecide=transfer_redecide))

    def cover(ctx):
        params = limsup.ubiquity_params(ctx.state["ret"], ctx.state["C"])
        ctx.state["params"] = params
        out = []
        for idx in range(len(params.levels) - 3, len(params.levels)):
            ce = limsup.coverage(G, params, cov_ball, idx, cov_samples, ctx.seed, threads=2)
            out.append({"ell": ce.ell, **_estimate(ce.estimate)})
        return {"levels": out}

    def cover_ok(v):
        for lv in v["levels"]:
            bad = _estimate_ok(lv)
            if bad or F(lv["ci_high"]) < F(1, 2):
                return bad or f"coverage below 1/2 at level {lv['ell']}"
        return None

    def cover_redecide(ctx, v):
        params = ctx.state["params"]
        (c,), r = cov_ball
        unit = (sampling.sample_point(ctx.seed, i, 1)[0] for i in range(cov_samples))
        pts = [(c + r * (2 * t - 1),) for t in unit]
        for lv_v, idx in zip(v["levels"], range(len(params.levels) - 3, len(params.levels))):
            lv = params.levels[idx]
            w_l = limsup.Window(numeric.floor_exact(lv.l), numeric.floor_exact(lv.u))
            rho = lv.rho(1)
            rr = rho.enclose(fastpath.SHIFT) if isinstance(rho, numeric.Radical) else (rho, rho)

            def generic(b, rho=rho, w_l=w_l):
                return limsup.delta_membership(G, (b,), rho, w_l)

            hits = int(F(lv_v["fraction"]) * cov_samples)
            bad = _redecide_1d(ctx, f"coverage {lv.ell}", G, w_l, [rr] * len(w_l.shells), generic, pts, hits)
            if bad:
                return bad
        return None

    jobs.append(Job("coverage", "T", cover, 3 * cov_samples, cover_ok, seeded=True, threads=2,
                    redecide=cover_redecide))
    jobs.append(_measure_job("measure_W", G, limsup.PowerLog(F(1, 2), F(1), F(0)), w_W, 2000, False,
                             lambda v: None if F(v["fraction"]) >= F(9, 10) else "divergent psi below 0.9"))
    jobs.append(_measure_job("measure_Bad", G, limsup.PowerLog(F(1, 100), F(1), F(0)), w_Bad, 2000, True))
    jobs.append(_counting_job("counting_report", S2, (F(0),), F(1, 10), 2500, F(1, 5), F(1, 100)))
    jobs.append(_weyl_job("weyl_sum", G, 2500))
    return jobs


# ---------------------------------------------------------------------------
# quad-mxn
# ---------------------------------------------------------------------------


def quad_mxn(mats: dict, paths: dict) -> list[Job]:
    q12, q21 = mats["q12"], mats["q21"]
    # many cheap targets: a target's witness search cost varies about as
    # much as its mean, so a job's time varies by ~1/sqrt(n) between seeds
    n_cor, ell = 250, 6
    bad_w, bad_samples, delta = limsup.Window(1, 4), 80, F(1, 100)
    jobs = [_return_job("return_sequence", q21, 10, [1, 2, 5, 6, 10])]

    def cor33(ctx):
        pts = [sampling.sample_point(ctx.seed, i, 2) for i in range(n_cor)]
        rep = transference.verify_corollary_3_3(q21, EPS, ell, pts)
        ctx.state["cor33"] = rep
        return {"successes": rep.successes,
                "witnesses": [list(t.witness.coords) if t.witness else None for t in rep.targets]}

    def cor33_redecide(ctx, v):
        rep = ctx.state["cor33"]
        for t in rep.targets:
            if t.witness is None:
                return f"target {t.b} has no witness"
            d = numeric.dist_to_int_vec([x - y for x, y in zip(q21.apply(t.witness.coords), t.b)])
            if t.witness.norm > rep.X1 or not numeric.le(numeric.ex_pow(d, q21.m), rep.C1_pow_m):
                return f"witness {t.witness.coords} fails the exact bound for {t.b}"
        return None

    jobs.append(Job("corollary_3_3", "T", cor33, n_cor,
                    lambda v: None if v["successes"] == n_cor else f"{v['successes']}/{n_cor} witnesses",
                    seeded=True, redecide=cor33_redecide))

    def measure_bad(ctx):
        code, text = _run_cli(ctx, "measure_bad", [
            "measure-bad", "--matrix", paths["q12"], "--delta", str(delta),
            "--window-l", str(bad_w.l), "--window-u", str(bad_w.u),
            "--samples", str(bad_samples), "--seed", str(ctx.seed)], threads=2)
        rep = json.loads(text) if text else {}
        return {"exit": code, **{k: rep.get(k) for k in ("fraction", "samples")},
                "ci": [rep.get("ci_low"), rep.get("ci_high")]}

    def measure_bad_redecide(ctx, v):
        # the job runs the generic scan already; re-decide every target
        psi = limsup.PowerLog(delta, F(q12.n, q12.m), F(0))
        bad = sum(limsup.psi_witness(q12, sampling.sample_point(ctx.seed, i, 1), psi, bad_w) is None
                  for i in range(bad_samples))
        if F(bad, bad_samples) != F(v["fraction"]):
            return f"generic re-decision gives {bad}/{bad_samples}, CLI reported {v['fraction']}"
        return None

    jobs.append(Job("cli_measure_bad", "T", measure_bad, bad_samples,
                    lambda v: None if v["exit"] == 0 and 0 <= F(v["fraction"]) <= 1 else f"exit {v['exit']}",
                    seeded=True, threads=2, redecide=measure_bad_redecide))

    def best(ctx):
        seq = lattice.best_approximations(q12, 250)
        return {"entries": [[list(e.y.coords), e.Y, numeric.format_exact(e.M)] for e in seq.entries]}

    jobs.append(Job("best_approximations", "S", best, 2 * 250,
                    lambda v: None if [e[1] for e in v["entries"]][:4] == [1, 2, 5, 70] else "records differ"))
    jobs.append(_exponents_job("estimate_exponents", q12, (F(1, 3),), [4, 8, 16], 1))
    jobs.append(_counting_job("counting_report", q21, (F(1, 2), F(1, 2)), F(1, 10), 1200, F(1, 25), F(1, 200)))
    jobs.append(_weyl_job("weyl_sum", q12, 30))
    return jobs


# ---------------------------------------------------------------------------
# cf-series
# ---------------------------------------------------------------------------


def cf_series(mats: dict, paths: dict) -> list[Job]:
    cf, G = mats["cf"], mats["golden"]
    n_balpha, n_key = 800, 1500
    jobs = [
        _return_job("return_sequence", cf, 13, [1, 2, 5, 6, 13]),
        _measure_job("measure_W", cf, limsup.PowerLog(F(1), F(1, 2), F(1)), limsup.Window(1, 4096), 800, False),
        _measure_job("measure_Bad", cf, limsup.PowerLog(F(1, 100), F(1), F(0)), limsup.Window(1, 2**12), 800, True),
    ]
    cf_records = [1, 4, 65, 16644, 1090781249, 4684869791545049348]

    def counterpart(ctx):
        best = lattice.best_approximations(cf, 2**63)
        rep = analysis.gamma_sequence(best, 1, 1)
        ks = list(range(1, len(best.entries) - 1))
        alpha = F(11, 10)
        passing = sum(analysis.b_alpha_test(sampling.sample_point(ctx.seed, i, 1), best, alpha, ks)
                      for i in range(n_balpha))
        return {"Y": [e.Y for e in best.entries], "gamma": [e.gamma_dec for e in rep.entries],
                "all_checks": rep.all_checks, "passing": passing}

    def counterpart_ok(v):
        # README obstruction: alpha * gamma_k > 1/2 >= ||b y_k||, so none pass
        if v["Y"] != cf_records or not v["all_checks"] or v["passing"] != 0:
            return f"records {v['Y']}, checks {v['all_checks']}, {v['passing']} passing b"
        return None

    jobs.append(Job("counterpart_b_alpha", "T", counterpart, n_balpha, counterpart_ok, seeded=True))

    def key_ineq(ctx):
        best = lattice.best_approximations(G, 21)
        ents = best.entries
        failures = 0
        for i in range(n_key):
            t0, t1, t2 = sampling.sample_point(ctx.seed, i, 3)
            q = lattice.IntVec((int(t1 * 400) - 200,))
            k = min(int(t2 * len(ents)), len(ents) - 1)
            failures += not analysis.key_inequality_check(G, (t0,), q, ents[k].y)
        return {"failures": failures}

    jobs.append(Job("key_inequality", "T", key_ineq, n_key,
                    lambda v: None if v["failures"] == 0 else f"{v['failures']} failures", seeded=True))

    def series(ctx):
        out = []
        for n, s, a, beta, _ in SERIES_CASES:
            code, text = _run_cli(ctx, "series", [
                "series", "--psi-a", a, "--psi-beta", beta, "--s", s, "--n", str(n)])
            out.append([code, json.loads(text)["status"] if text else None])
        return {"verdicts": out}

    def series_ok(v):
        want = [[0, case[-1]] for case in SERIES_CASES]
        return None if v["verdicts"] == want else f"series verdicts {v['verdicts']}"

    jobs.append(Job("cli_series", "-", series, 0, series_ok))
    jobs.append(_exponents_job("estimate_exponents", cf, (F(1, 3),), [8, 64, 512, 1024], None))
    return jobs


WORKLOADS = {"golden-1d": golden_1d, "quad-mxn": quad_mxn, "cf-series": cf_series}
