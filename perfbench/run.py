"""diophlab benchmark: end-to-end rates per workload, layer probes, traces.

    python3 perfbench/run.py --workload golden-1d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --runs 3 --out perfbench/out/base.json
    python3 perfbench/run.py --compare perfbench/out/base.json perfbench/out/new.json

One run measures one workload in this process: it times set-up in fresh
interpreters, then runs the workload's job list back to back (a closed loop,
one job at a time) until --seconds are used, checks every job's result off
the clock, and prints the metrics named in BENCHMARK.json.  With --trace 1 it
alternates untraced and traced passes, then runs the layer probes, and
prints the per-layer metrics instead.  The last line of stdout is the JSON
result; a record with the machine, per-job times and verdicts is written to
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
REFERENCES = ROOT / "perfbench" / "references.json"
DEFAULT_SEED = 1
SETUP_SPAWNS = 7
MIN_PASSES = 3
# The calibration kernel's time on an uncontended core of the reference
# machine (Intel Xeon, Python 3.11.7); reported times are scaled to it.
CAL_NOMINAL_S = 0.020


def import_diophlab():
    """Import diophlab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import diophlab
    except ImportError as exc:
        sys.exit(f"error: cannot import diophlab from {ROOT / 'src'}: {exc}")
    if Path(diophlab.__file__).resolve().parent != ROOT / "src" / "diophlab":
        sys.exit(f"error: diophlab resolved to {diophlab.__file__}, not this checkout")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": model,
            "platform": platform.platform()}


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, as statistics.quantiles(n=4) gives the quartiles."""
    if len(values) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("nan")


def calibration_kernel() -> float:
    """Seconds for a fixed stdlib Fraction loop: the kind of arithmetic
    diophlab does, but none of its code.

    On a shared host the core's speed changes by up to 1.7x within seconds
    as neighbours come and go (README, "Calibration").  Each timed interval
    sits between two runs of this kernel and is reported as raw seconds x
    CAL_NOMINAL_S / (mean kernel time), that is, in seconds at the reference
    core speed; the raw seconds are kept in the record."""
    t0 = time.perf_counter()
    x, acc = Fraction(1, 3), Fraction(0)
    for i in range(1, 3000):
        acc += x * i / (i + 1)
    return time.perf_counter() - t0


def scaled(raw: float, c0: float, c1: float) -> float:
    """Raw seconds of an interval between kernel runs c0 and c1, in seconds
    at the reference core speed."""
    return raw * 2 * CAL_NOMINAL_S / (c0 + c1)


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


def setup_probe() -> None:
    """Child side of the set-up measurement: interpreter, import diophlab
    and its CLI, parse the matrix files, then report ready."""
    import_diophlab()
    import diophlab.cli  # noqa: F401
    from jobs import load_matrices

    load_matrices(ROOT)
    print("ready", flush=True)


def spawn_until_ready(env: dict) -> float:
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    t1 = time.perf_counter()
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe failed")
    return t1 - t0


def measure_setup(env: dict) -> list[tuple[float, float, float]]:
    """(scaled, raw, kernel) seconds per fresh-interpreter set-up."""
    out, c0 = [], calibration_kernel()
    for _ in range(SETUP_SPAWNS):
        raw = spawn_until_ready(env)
        c1 = calibration_kernel()
        out.append((scaled(raw, c0, c1), raw, (c0 + c1) / 2))
        c0 = c1
    return out


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_pass(ctx, jobs, pass_no: int) -> dict:
    """One pass of the job list; `times` are scaled seconds per job."""
    ctx.state["report_bytes"] = 0
    times, raw, verdicts, errors = [], [], [], []
    c0 = calibration_kernel()
    for job in jobs:
        ctx.tracer.job = (pass_no, job.name)
        verdict = err = None
        t0 = time.perf_counter()
        try:
            verdict = job.run(ctx)
        except Exception as exc:  # a raising job is a failed job, not a crashed run
            err = f"{type(exc).__name__}: {exc}"
        r = time.perf_counter() - t0
        c1 = calibration_kernel()
        times.append(scaled(r, c0, c1))
        raw.append(r)
        verdicts.append(verdict)
        errors.append(err)
        c0 = c1
    return {"times": times, "raw": raw, "verdicts": verdicts, "errors": errors,
            "report_bytes": ctx.state["report_bytes"]}


def job_medians(passes: list[dict], key: str = "times") -> list[float]:
    """Each job's median time over the passes."""
    return [statistics.median(p[key][k] for p in passes) for k in range(len(passes[0][key]))]


def rate(jobs, times: list[float], cls: str) -> float:
    """Work of the jobs of one class over their summed time."""
    work = sum(j.work for j in jobs if j.cls == cls)
    return work / sum(t for j, t in zip(jobs, times) if j.cls == cls)


def check_jobs(ctx, jobs, passes: list[dict], workload: str, refs: dict | None) -> list[str | None]:
    """Off-clock correctness per job; None when the job passed every check."""
    out = []
    for k, job in enumerate(jobs):
        errs = [p["errors"][k] for p in passes if p["errors"][k]]
        verdict = passes[-1]["verdicts"][k]
        if errs:
            out.append(errs[0])
        elif any(p["verdicts"][k] != verdict for p in passes):
            out.append("verdict differs between passes")
        else:
            err = job.expect(verdict)
            if err is None and refs is not None and (not job.seeded or ctx.seed == DEFAULT_SEED):
                if refs.get(workload, {}).get(job.name) != json.loads(json.dumps(verdict)):
                    err = "verdict differs from perfbench/references.json"
            if err is None and job.redecide and ctx.seed != DEFAULT_SEED:
                try:
                    err = job.redecide(ctx, verdict)
                except Exception as exc:
                    err = f"re-decision raised {type(exc).__name__}: {exc}"
            out.append(err)
    return out


def run_workload(args) -> int:
    from jobs import WORKLOADS, Ctx, load_matrices
    from probes import run_probes
    from tracer import LAYERS, NullTracer, Tracer

    os.environ.pop("DIOPHLAB_THREADS", None)
    benchmark = spec()
    setup = measure_setup(dict(os.environ))
    mats, paths = load_matrices(ROOT)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Ctx(ROOT, args.seed, mats, tmp, NullTracer())
        jobs = WORKLOADS[args.workload](mats, paths)
        plain, traced, tracer = [], [], Tracer()
        t_start = time.perf_counter()
        while True:
            plain.append(run_pass(ctx, jobs, len(plain) + len(traced)))
            if args.trace:
                ctx.tracer = tracer
                tracer.install()
                try:
                    traced.append(run_pass(ctx, jobs, len(plain) + len(traced)))
                finally:
                    tracer.uninstall()
                    ctx.tracer = NullTracer()
            elapsed = time.perf_counter() - t_start
            step = elapsed / len(plain)
            if len(plain) >= MIN_PASSES - args.trace and elapsed + step > args.seconds:
                break
        phase = {"passes": time.perf_counter() - t_start}
        probes = {}
        if args.trace:
            ctx.tracer, tracer.job = tracer, ("probe",)
            probes = run_probes(args.workload, ctx)
            ctx.tracer = NullTracer()
        phase["probes"] = time.perf_counter() - t_start - phase["passes"]
        refs = None if args.write_references else json.loads(REFERENCES.read_text(encoding="utf-8"))
        failures = check_jobs(ctx, jobs, plain + traced, args.workload, refs)
        phase["checks"] = time.perf_counter() - t_start - phase["passes"] - phase["probes"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    n_pass = len(plain) + len(traced)
    attempted = n_pass * len(jobs)
    failed = n_pass * sum(f is not None for f in failures)
    med, med_raw = job_medians(plain), job_medians(plain, "raw")
    metrics = {
        "wall_s": sum(med),
        "setup_s": statistics.median(t for t, _, _ in setup),
        "points_per_s": rate(jobs, med, "S"),
        "targets_per_s": rate(jobs, med, "T"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": failed / attempted,
    }
    if args.trace:
        probe_self = tracer.self_times({("probe",)})
        per_pass = [tracer.self_times({(i, j.name) for j in jobs}) for i in range(n_pass)]
        per_pass = [pp for pp in per_pass if any(pp.values())]
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = statistics.median(pp[layer] for pp in per_pass) + probe_self[layer]
        metrics.update(probes)
        metrics["cli.report_bytes"] = traced[-1]["report_bytes"]
        metrics["trace.overhead_ratio"] = sum(job_medians(traced)) / sum(med)

    listed = benchmark["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        sys.exit(f"error: metrics not produced: {missing}")
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    units["error_rate"] = "ratio"
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "machine": machine(), "passes": {"plain": len(plain), "traced": len(traced)},
        "setup_runs_s": [t for t, _, _ in setup], "phase_s": phase,
        "raw": {"wall_s": sum(med_raw),
                "setup_s": statistics.median(r for _, r, _ in setup),
                "points_per_s": rate(jobs, med_raw, "S"),
                "targets_per_s": rate(jobs, med_raw, "T"),
                "calibration_kernel_s": [c for _, _, c in setup]},
        "jobs": [{"name": j.name, "class": j.cls, "threads": j.threads, "work": j.work,
                  "times_s": [p["times"][k] for p in plain],
                  "raw_times_s": [p["raw"][k] for p in plain], "failure": failures[k],
                  "verdict": plain[-1]["verdicts"][k]} for k, j in enumerate(jobs)],
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
        "correct": failed == 0, "attempted": attempted, "failed": failed,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    out_path = Path(args.out) if args.out else OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.to_json(), default=str))
    if args.write_references:
        refs = json.loads(REFERENCES.read_text(encoding="utf-8")) if REFERENCES.exists() else {}
        refs[args.workload] = {j.name: plain[-1]["verdicts"][k] for k, j in enumerate(jobs)}
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={n_pass} "
          + " ".join(f"{k}={v:.1f}s" for k, v in phase.items()) + " "
          f"nproc={m['nproc']} python={m['python']} cpu={m['cpu_model']}")
    for k, j in enumerate(jobs):
        status = "ok" if failures[k] is None else f"FAIL {failures[k]}"
        print(f"#   {j.cls} {j.name:<22} threads={j.threads} work={j.work:<9} {med[k]:8.3f} s  {status}")
    for name in [m["name"] for m in benchmark["end_to_end"]] + ["error_rate"]:
        raw = record["raw"].get(name)
        print(f"# {name} = {metrics[name]:.6g} {units[name]}"
              + ("" if raw is None else f"  (raw {raw:.6g})"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in listed}}))
    return 0


# ---------------------------------------------------------------------------
# all workloads, and compare mode
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in a fresh process, --runs times with seeds seed, seed+1, ..."""
    names = [w["name"] for w in spec()["workloads"]]
    runs = []
    OUT.mkdir(parents=True, exist_ok=True)
    for name in names:
        for r in range(args.runs):
            tmp = OUT / f"run-{os.getpid()}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed + r), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(tmp)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            runs.append(json.loads(tmp.read_text(encoding="utf-8")))
            tmp.unlink()
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{name} seed={args.seed + r} correct={last['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()), flush=True)
    out = Path(args.out) if args.out else OUT / "all.json"
    out.write_text(json.dumps({"machine": machine(), "runs": runs}, indent=1, default=str) + "\n")
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    print(f"\n{'workload':<10} {'metric':<32} {'median':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        rs = [r for r in runs if r["workload"] == name]
        for metric in rs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in rs]
            b = bounds.get(metric)
            print(f"{name:<10} {metric:<32} {statistics.median(vals):12.6g} "
                  f"{quartile_spread(vals):8.3f} {'' if b is None else b:>6}")
    print(f"results: {out}")
    return 0


def load_runs(path: str) -> list[dict]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return data["runs"] if "runs" in data else [data]


def compare(base_path: str, new_path: str) -> int:
    """Per workload and metric: new median / base median, with the base
    named; a metric whose run-to-run spread exceeds its bound is unresolved."""
    base, new = load_runs(base_path), load_runs(new_path)
    benchmark = spec()
    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"]}
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    print(f"ratios are new / base; base = {base_path}, new = {new_path}")
    print(f"{'workload':<10} {'metric':<32} {'base':>12} {'new':>12} {'ratio':>7} {'spread':>7}  verdict")
    for workload in dict.fromkeys(r["workload"] for r in base):
        rb = [r for r in base if r["workload"] == workload]
        rn = [r for r in new if r["workload"] == workload]
        if not rn:
            continue
        for metric in rb[0]["metrics"]:
            vb = [r["metrics"][metric]["value"] for r in rb if metric in r["metrics"]]
            vn = [r["metrics"][metric]["value"] for r in rn if metric in r["metrics"]]
            if not vn:
                continue
            mb, mn = statistics.median(vb), statistics.median(vn)
            ratio = mn / mb if mb else float("nan")
            spread = max(quartile_spread(vb), quartile_spread(vn))
            bound = bounds.get(metric)
            if metric == "error_rate":
                verdict = "ok" if mn == 0 else "FAILED JOB RUNS"
            elif bound is None:
                verdict = "(no bound)"
            elif not spread <= bound:
                verdict = "unresolved (spread > bound)" if spread == spread else "unresolved (one run)"
            else:
                worse = ratio - 1 if better.get(metric) == "lower" else 1 - ratio
                verdict = "worse" if worse > bound else "better" if worse < -bound else "same"
            print(f"{workload:<10} {metric:<32} {mb:12.6g} {mn:12.6g} {ratio:7.3f} {spread:7.3f}  {verdict}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result file (default under perfbench/out/)")
    ap.add_argument("--runs", type=int, default=1, help="with --workload all: runs per workload")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two result files")
    ap.add_argument("--write-references", action="store_true",
                    help="store this run's verdicts as the references (use the default seed)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    os.chdir(ROOT)
    if args.setup_probe:
        setup_probe()
        return 0
    if args.compare:
        return compare(*args.compare)
    if args.workload == "all":
        return run_all(args)
    if args.workload is None:
        ap.error("--workload or --compare is required")
    import_diophlab()
    from jobs import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
