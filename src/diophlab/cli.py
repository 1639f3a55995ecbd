"""Batch experiment front door.

Every subcommand reads a matrix, runs one operation from the compute
modules, and writes a self-describing JSON or CSV report embedding the
config hash, seed, and package version.  Exit codes: 0 success, 2 invalid
input, 3 budget or precision exhaustion, 4 theorem-violation flag."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from fractions import Fraction

import click

from . import __version__
from .errors import (
    BudgetExceeded,
    CoverageGap,
    DiophlabError,
    InsufficientData,
    InvalidWindow,
    PrecisionExhausted,
    RankDeficient,
    UnsupportedEntry,
)
from .lattice import (
    DEFAULT_BUDGET,
    ApproxMatrix,
    best_approximations,
    return_sequence,
)
from .limsup import (
    PowerLog,
    Window,
    check_u_regular,
    coverage,
    measure_Bad,
    measure_W,
    ubiquity_params,
)
from .numeric import Radical, dec_str, format_exact, parse_exact
from .transference import verify_corollary_3_3
from .equidist import counting_report, estimate_equid_constant, weyl_sum
from .analysis import (
    classify_return_series,
    classify_series,
    estimate_exponents,
    gamma_sequence,
)
from .sampling import sample_point

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_THEOREM = 4

DEFAULT_SAMPLES = 10**4


def _load_matrix(path: str) -> ApproxMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return ApproxMatrix.from_text(fh.read())


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _emit(report: dict, config: dict, out: str | None, fmt: str, csv_rows=None):
    report = dict(report)
    report["config"] = config
    report["config_hash"] = _config_hash(config)
    report["version"] = __version__
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["# config_hash", report["config_hash"], "version", __version__])
        for row in csv_rows if csv_rows is not None else []:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _run(fn):
    """Map exceptions to the exit-code contract."""
    try:
        code = fn()
    except (BudgetExceeded, PrecisionExhausted) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_BUDGET)
    except (
        ValueError,
        OSError,
        InvalidWindow,
        UnsupportedEntry,
        RankDeficient,
        InsufficientData,
        CoverageGap,
        DiophlabError,
    ) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    sys.exit(code if code is not None else EXIT_OK)


def _common(fn):
    fn = click.option("--out", type=click.Path(), default=None, help="Report path (stdout default)")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")(fn)
    fn = click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True)(fn)
    return fn


@click.group()
@click.version_option(version=__version__)
def main():
    """Exact-arithmetic experiments in inhomogeneous Diophantine approximation."""


@main.command("return-seq")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@click.option("--epsilon", required=True, help="Exact literal, e.g. 2/5")
@click.option("--ell-max", type=int, required=True)
@_common
def return_seq(matrix_path, epsilon, ell_max, out, fmt, budget):
    def go():
        A = _load_matrix(matrix_path)
        eps = parse_exact(epsilon)
        ret = return_sequence(A, eps, ell_max, budget)
        cfg = {"command": "return-seq", "matrix": matrix_path, "epsilon": epsilon, "ell_max": ell_max}
        _emit(
            {"levels": list(ret.levels), "epsilon": format_exact(eps), "ell_max": ell_max},
            cfg, out, fmt, ret.csv_rows(),
        )

    _run(go)


@main.command("best-approx")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@click.option("--y-max", type=int, required=True)
@_common
def best_approx(matrix_path, y_max, out, fmt, budget):
    def go():
        A = _load_matrix(matrix_path)
        seq = best_approximations(A, y_max, budget)
        cfg = {"command": "best-approx", "matrix": matrix_path, "y_max": y_max}
        _emit(
            {
                "entries": [
                    {"y": list(e.y.coords), "Y": e.Y, "M": dec_str(e.M)} for e in seq.entries
                ]
            },
            cfg, out, fmt, seq.csv_rows(),
        )

    _run(go)


@main.command("transfer")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@click.option("--epsilon", required=True)
@click.option("--ell", type=int, required=True)
@click.option("--targets", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_common
def transfer(matrix_path, epsilon, ell, targets, seed, out, fmt, budget):
    """Verify the inhomogeneous transference guarantee at one level."""

    def go():
        A = _load_matrix(matrix_path)
        eps = parse_exact(epsilon)
        pts = [sample_point(seed, i, A.m) for i in range(targets)]
        rep = verify_corollary_3_3(A, eps, ell, pts, budget)
        cfg = {
            "command": "transfer", "matrix": matrix_path, "epsilon": epsilon,
            "ell": ell, "targets": targets, "seed": seed,
        }
        _emit(rep.to_json(), cfg, out, fmt)
        if not rep.all_ok:
            click.echo(
                f"theorem violation: {targets - rep.successes} targets without witness",
                err=True,
            )
            return EXIT_THEOREM
        return EXIT_OK

    _run(go)


def _psi_options(fn):
    fn = click.option("--psi-c", default="1", show_default=True, help="psi scale c (rational)")(fn)
    fn = click.option("--psi-a", default="1", show_default=True, help="power exponent a (rational)")(fn)
    fn = click.option("--psi-beta", default="0", show_default=True, help="log exponent beta (rational)")(fn)
    return fn


def _mk_psi(psi_c, psi_a, psi_beta) -> PowerLog:
    return PowerLog(Fraction(psi_c), Fraction(psi_a), Fraction(psi_beta))


@main.command("measure-w")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@_psi_options
@click.option("--window-l", type=int, required=True)
@click.option("--window-u", type=int, required=True)
@click.option("--samples", type=int, default=DEFAULT_SAMPLES, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--mode", type=click.Choice(["mc", "grid"]), default="mc", show_default=True)
@_common
def measure_w(matrix_path, psi_c, psi_a, psi_beta, window_l, window_u, samples, seed, mode, out, fmt, budget):
    def go():
        A = _load_matrix(matrix_path)
        psi = _mk_psi(psi_c, psi_a, psi_beta)
        est = measure_W(A, psi, Window(window_l, window_u), samples, seed, mode, budget)
        cfg = {
            "command": "measure-w", "matrix": matrix_path, "psi": psi.to_json(),
            "window": {"l": window_l, "u": window_u}, "samples": samples,
            "seed": seed, "mode": mode,
        }
        _emit(est.to_json(), cfg, out, fmt)

    _run(go)


@main.command("measure-bad")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@click.option("--delta", default="1/100", show_default=True)
@click.option("--window-l", type=int, required=True)
@click.option("--window-u", type=int, required=True)
@click.option("--samples", type=int, default=DEFAULT_SAMPLES, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--mode", type=click.Choice(["mc", "grid"]), default="mc", show_default=True)
@_common
def measure_bad(matrix_path, delta, window_l, window_u, samples, seed, mode, out, fmt, budget):
    def go():
        A = _load_matrix(matrix_path)
        est = measure_Bad(A, Fraction(delta), Window(window_l, window_u), samples, seed, mode, budget)
        cfg = {
            "command": "measure-bad", "matrix": matrix_path, "delta": delta,
            "window": {"l": window_l, "u": window_u}, "samples": samples,
            "seed": seed, "mode": mode,
        }
        _emit(est.to_json(), cfg, out, fmt)

    _run(go)


@main.command("coverage")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@click.option("--epsilon", required=True)
@click.option("--ell-max", type=int, required=True)
@click.option("--equid-constant", default=None, help="Rational C; estimated (x2 safety) if omitted")
@click.option("--ball-center", default="1/2", show_default=True, help="Comma-separated rationals")
@click.option("--ball-radius", default="1/8", show_default=True)
@click.option("--levels", default="3", show_default=True, help="How many of the largest levels to test")
@click.option("--samples", type=int, default=DEFAULT_SAMPLES, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_common
def coverage_cmd(matrix_path, epsilon, ell_max, equid_constant, ball_center, ball_radius, levels, samples, seed, out, fmt, budget):
    """Covered fraction of a ball by resonant neighborhoods, largest levels."""

    def go():
        A = _load_matrix(matrix_path)
        eps = parse_exact(epsilon)
        ret = return_sequence(A, eps, ell_max, budget)
        if equid_constant is None:
            fam = [((Fraction(i, 8),) * A.m, Fraction(1, 8)) for i in range(8)]
            C = estimate_equid_constant(A, fam, [2**j for j in range(4, 9)], budget).recommended
        else:
            C = Fraction(equid_constant)
        params = ubiquity_params(ret, C)
        center = tuple(Fraction(x) for x in ball_center.split(","))
        entries = []
        lam_ok = check_u_regular(params, Radical(Fraction(1, 1 << A.n), A.m))
        below_half = []
        for idx in range(max(0, len(params.levels) - int(levels)), len(params.levels)):
            ce = coverage(A, params, (center, Fraction(ball_radius)), idx, samples, seed, budget)
            entries.append(ce.to_json())
            if ce.estimate.ci_high < Fraction(1, 2):
                below_half.append(ce.ell)
        cfg = {
            "command": "coverage", "matrix": matrix_path, "epsilon": epsilon,
            "ell_max": ell_max, "equid_constant": str(C),
            "ball": {"center": ball_center, "radius": ball_radius},
            "levels": levels, "samples": samples, "seed": seed,
        }
        _emit(
            {"params": params.to_json(), "u_regular": lam_ok, "levels": entries},
            cfg, out, fmt,
        )
        if below_half:
            click.echo(f"theorem violation: coverage below 1/2 at levels {below_half}", err=True)
            return EXIT_THEOREM
        return EXIT_OK

    _run(go)


@main.command("equidist")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@click.option("--op", type=click.Choice(["weyl", "count", "constant"]), required=True)
@click.option("--c", "freq", default="1", show_default=True, help="Weyl frequency vector, comma-separated")
@click.option("--n-horizon", "N", type=int, default=1000, show_default=True)
@click.option("--ball-center", default="0", show_default=True)
@click.option("--ball-radius", default="1/10", show_default=True)
@click.option("--l-values", default="16,64,256", show_default=True)
@_common
def equidist_cmd(matrix_path, op, freq, N, ball_center, ball_radius, l_values, out, fmt, budget):
    def go():
        A = _load_matrix(matrix_path)
        cfg = {"command": "equidist", "matrix": matrix_path, "op": op, "N": N}
        if op == "weyl":
            c = tuple(int(x) for x in freq.split(","))
            res = weyl_sum(A, c, N, budget)
            cfg["c"] = list(c)
            _emit(res.to_json(), cfg, out, fmt, res.csv_rows())
        elif op == "count":
            center = tuple(Fraction(x) for x in ball_center.split(","))
            rep = counting_report(A, (center, Fraction(ball_radius)), N, budget)
            cfg["ball"] = {"center": ball_center, "radius": ball_radius}
            _emit(rep.to_json(), cfg, out, fmt)
        else:
            ls = [int(x) for x in l_values.split(",")]
            fam = [((Fraction(i, 8),) * A.m, Fraction(1, 8)) for i in range(8)]
            est = estimate_equid_constant(A, fam, ls, budget)
            cfg["l_values"] = ls
            _emit(est.to_json(), cfg, out, fmt)

    _run(go)


@main.command("series")
@_psi_options
@click.option("--s", "s_str", default="1", show_default=True)
@click.option("--n", type=int, default=1, show_default=True)
@click.option("--matrix", "matrix_path", default=None, type=click.Path(exists=True),
              help="With --epsilon/--ell-max: classify the return-level series instead")
@click.option("--epsilon", default=None)
@click.option("--ell-max", type=int, default=None)
@_common
def series(psi_c, psi_a, psi_beta, s_str, n, matrix_path, epsilon, ell_max, out, fmt, budget):
    def go():
        psi = _mk_psi(psi_c, psi_a, psi_beta)
        s = Fraction(s_str)
        cfg = {"command": "series", "psi": psi.to_json(), "s": s_str, "n": n}
        if matrix_path is not None:
            if epsilon is None or ell_max is None:
                raise ValueError("--epsilon and --ell-max required with --matrix")
            A = _load_matrix(matrix_path)
            ret = return_sequence(A, parse_exact(epsilon), ell_max, budget)
            cfg |= {"matrix": matrix_path, "epsilon": epsilon, "ell_max": ell_max}
            verdict = classify_return_series(psi, s, n, ret)
        else:
            verdict = classify_series(psi, s, n)
        _emit(verdict.to_json(), cfg, out, fmt)

    _run(go)


@main.command("counterpart")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@click.option("--y-max", type=int, required=True)
@_common
def counterpart(matrix_path, y_max, out, fmt, budget):
    """Best-approximation counterpart sequences gamma_k, U_k, V_k."""

    def go():
        A = _load_matrix(matrix_path)
        seq = best_approximations(A, y_max, budget)
        rep = gamma_sequence(seq, A.m, A.n)
        cfg = {"command": "counterpart", "matrix": matrix_path, "y_max": y_max}
        _emit(rep.to_json(), cfg, out, fmt, rep.csv_rows())
        if not rep.all_checks:
            click.echo("theorem violation: U/V interval checks failed", err=True)
            return EXIT_THEOREM
        return EXIT_OK

    _run(go)


@main.command("exponents")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@click.option("--b", "b_str", default=None, help="Target vector, comma-separated rationals")
@click.option("--x-schedule", default="8,16,32,64,128,256", show_default=True)
@_common
def exponents(matrix_path, b_str, x_schedule, out, fmt, budget):
    def go():
        A = _load_matrix(matrix_path)
        b = None if b_str is None else tuple(Fraction(x) for x in b_str.split(","))
        xs = [int(x) for x in x_schedule.split(",")]
        est = estimate_exponents(A, b, xs, budget)
        cfg = {
            "command": "exponents", "matrix": matrix_path,
            "b": b_str, "x_schedule": xs,
        }
        _emit(est.to_json(), cfg, out, fmt)

    _run(go)


if __name__ == "__main__":
    main()
