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
from .errors import BudgetExceeded, DiophlabError, PrecisionExhausted
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


def _emit(report: dict, config: dict, out: str | None, fmt: str, csv_rows):
    report = dict(report)
    report["config"] = config
    report["config_hash"] = _config_hash(config)
    report["version"] = __version__
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["# config_hash", report["config_hash"], "version", __version__])
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _theorem_violation(msg: str) -> int:
    click.echo(f"theorem violation: {msg}", err=True)
    return EXIT_THEOREM


def _ball_family(m: int) -> list:
    """Eight balls of radius 1/8 centred at (i/8, ..., i/8), i = 0..7."""
    return [((Fraction(i, 8),) * m, Fraction(1, 8)) for i in range(8)]


def _mk_psi(psi_c, psi_a, psi_beta) -> PowerLog:
    return PowerLog(Fraction(psi_c), Fraction(psi_a), Fraction(psi_beta))


def _ints(ctx, param, value: str) -> list[int]:
    """The click callback of the comma-separated integer options."""
    try:
        return [int(x) for x in value.split(",")]
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {value!r}") from None


# options that several subcommands take alike; a tuple is listed in help order
MATRIX = click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
EPSILON = click.option("--epsilon", required=True)
ELL_MAX = click.option("--ell-max", type=int, required=True)
Y_MAX = click.option("--y-max", type=int, required=True)
PSI = (
    click.option("--psi-beta", default="0", show_default=True, help="log exponent beta (rational)"),
    click.option("--psi-a", default="1", show_default=True, help="power exponent a (rational)"),
    click.option("--psi-c", default="1", show_default=True, help="psi scale c (rational)"),
)
WINDOW = (
    click.option("--window-l", type=int, required=True),
    click.option("--window-u", type=int, required=True),
)
SAMPLES = click.option("--samples", type=int, default=DEFAULT_SAMPLES, show_default=True)
SEED = click.option("--seed", type=int, default=0, show_default=True)
MODE = click.option("--mode", type=click.Choice(["mc", "grid"]), default="mc", show_default=True)
REPORT = (
    click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True),
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json"),
    click.option("--out", type=click.Path(), default=None, help="Report path (stdout default)"),
)


@click.group()
@click.version_option(version=__version__)
def main():
    """Exact-arithmetic experiments in inhomogeneous Diophantine approximation."""


def _subcommand(name: str, *options, matrix: bool = True):
    """Register the decorated body as `diophlab <name>`.

    Its options are --matrix (unless matrix=False), then `options`, then
    --budget, --format and --out.  The body is called as body(emit, A=...,
    **options) with the loaded matrix as A (no A when matrix=False), and
    emit(report, rows=None, **config) writes the report under a config
    that starts with the command and the matrix path; rows are the CSV
    rows, and a report without them under --format csv is invalid input.
    The body's return value is the exit code; budget or precision
    exhaustion exits 3 and invalid input 2."""

    def register(body):
        def command(out, fmt, **kwargs):
            head = {"command": name}
            if matrix:
                head["matrix"] = kwargs.pop("matrix_path")

            def emit(report, rows=None, **config):
                if fmt == "csv" and rows is None:
                    raise ValueError(f"{name} has no CSV report; use --format json")
                _emit(report, head | config, out, fmt, rows)

            try:
                if matrix:
                    kwargs["A"] = _load_matrix(head["matrix"])
                code = body(emit, **kwargs)
            except (ValueError, OSError, DiophlabError) as exc:
                click.echo(f"error: {exc}", err=True)
                exhausted = isinstance(exc, (BudgetExceeded, PrecisionExhausted))
                sys.exit(EXIT_BUDGET if exhausted else EXIT_VALIDATION)
            sys.exit(code or EXIT_OK)

        for option in reversed(((MATRIX,) if matrix else ()) + options + REPORT):
            command = option(command)
        return main.command(name, help=body.__doc__)(command)

    return register


@_subcommand("return-seq", click.option("--epsilon", required=True, help="Exact literal, e.g. 2/5"), ELL_MAX)
def return_seq(emit, A, epsilon, ell_max, budget):
    eps = parse_exact(epsilon)
    ret = return_sequence(A, eps, ell_max, budget)
    emit(
        {"levels": list(ret.levels), "epsilon": format_exact(eps), "ell_max": ell_max},
        ret.csv_rows(), epsilon=epsilon, ell_max=ell_max,
    )


@_subcommand("best-approx", Y_MAX)
def best_approx(emit, A, y_max, budget):
    seq = best_approximations(A, y_max, budget)
    entries = [{"y": list(e.y.coords), "Y": e.Y, "M": dec_str(e.M)} for e in seq.entries]
    emit({"entries": entries}, seq.csv_rows(), y_max=y_max)


@_subcommand(
    "transfer", EPSILON,
    click.option("--ell", type=int, required=True),
    click.option("--targets", type=int, default=1000, show_default=True),
    SEED,
)
def transfer(emit, A, epsilon, ell, targets, seed, budget):
    """Verify the inhomogeneous transference guarantee at one level."""
    if targets < 0:
        raise ValueError("--targets must be >= 0")
    eps = parse_exact(epsilon)
    pts = [sample_point(seed, i, A.m) for i in range(targets)]
    rep = verify_corollary_3_3(A, eps, ell, pts, budget)
    emit(rep.to_json(), epsilon=epsilon, ell=ell, targets=targets, seed=seed)
    if not rep.all_ok:
        return _theorem_violation(f"{targets - rep.successes} targets without witness")


@_subcommand("measure-w", *PSI, *WINDOW, SAMPLES, SEED, MODE)
def measure_w(emit, A, psi_c, psi_a, psi_beta, window_l, window_u, samples, seed, mode, budget):
    psi = _mk_psi(psi_c, psi_a, psi_beta)
    est = measure_W(A, psi, Window(window_l, window_u), samples, seed, mode, budget)
    emit(
        est.to_json(), psi=psi.to_json(), window={"l": window_l, "u": window_u},
        samples=samples, seed=seed, mode=mode,
    )


@_subcommand(
    "measure-bad", click.option("--delta", default="1/100", show_default=True), *WINDOW, SAMPLES, SEED, MODE,
)
def measure_bad(emit, A, delta, window_l, window_u, samples, seed, mode, budget):
    est = measure_Bad(A, Fraction(delta), Window(window_l, window_u), samples, seed, mode, budget)
    emit(
        est.to_json(), delta=delta, window={"l": window_l, "u": window_u},
        samples=samples, seed=seed, mode=mode,
    )


@_subcommand(
    "coverage", EPSILON, ELL_MAX,
    click.option("--equid-constant", default=None, help="Rational C; estimated (x2 safety) if omitted"),
    click.option("--ball-center", default="1/2", show_default=True, help="Comma-separated rationals"),
    click.option("--ball-radius", default="1/8", show_default=True),
    click.option("--levels", type=int, default=3, show_default=True, help="How many of the largest levels to test"),
    SAMPLES, SEED,
)
def coverage_cmd(
    emit, A, epsilon, ell_max, equid_constant, ball_center, ball_radius, levels, samples, seed, budget,
):
    """Covered fraction of a ball by resonant neighborhoods, largest levels."""
    if levels < 0:
        raise ValueError("--levels must be >= 0")
    eps = parse_exact(epsilon)
    ball = A.ball(ball_center.split(","), ball_radius)
    ret = return_sequence(A, eps, ell_max, budget)
    if equid_constant is None:
        C = estimate_equid_constant(A, _ball_family(A.m), [2**j for j in range(4, 9)], budget).recommended
    else:
        C = Fraction(equid_constant)
    params = ubiquity_params(ret, C)
    entries = []
    lam_ok = check_u_regular(params, Radical(Fraction(1, 1 << A.n), A.m))
    below_half = []
    for idx in range(max(0, len(params.levels) - levels), len(params.levels)):
        ce = coverage(A, params, ball, idx, samples, seed, budget)
        entries.append(ce.to_json())
        if ce.estimate.ci_high < Fraction(1, 2):
            below_half.append(ce.ell)
    emit(
        {"params": params.to_json(), "u_regular": lam_ok, "levels": entries},
        epsilon=epsilon, ell_max=ell_max, equid_constant=str(C),
        ball={"center": ball_center, "radius": ball_radius},
        levels=str(levels), samples=samples, seed=seed,
    )
    if below_half:
        return _theorem_violation(f"coverage below 1/2 at levels {below_half}")


@_subcommand(
    "equidist",
    click.option("--op", type=click.Choice(["weyl", "count", "constant"]), required=True),
    click.option("--c", "freq", default="1", show_default=True, callback=_ints,
                 help="Weyl frequency vector, comma-separated"),
    click.option("--n-horizon", "N", type=int, default=1000, show_default=True),
    click.option("--ball-center", default="0", show_default=True),
    click.option("--ball-radius", default="1/10", show_default=True),
    click.option("--l-values", default="16,64,256", show_default=True, callback=_ints),
)
def equidist_cmd(emit, A, op, freq, N, ball_center, ball_radius, l_values, budget):
    if op == "weyl":
        res = weyl_sum(A, tuple(freq), N, budget)
        emit(res.to_json(), res.csv_rows(), op=op, N=N, c=freq)
    elif op == "count":
        rep = counting_report(A, (ball_center.split(","), ball_radius), N, budget)
        emit(rep.to_json(), op=op, N=N, ball={"center": ball_center, "radius": ball_radius})
    else:
        if min(l_values) < 1:
            raise ValueError("--l-values must be >= 1")
        est = estimate_equid_constant(A, _ball_family(A.m), l_values, budget)
        emit(est.to_json(), op=op, N=N, l_values=l_values)


@_subcommand(
    "series", *PSI,
    click.option("--s", "s_str", default="1", show_default=True),
    click.option("--n", type=int, default=1, show_default=True),
    click.option("--matrix", "matrix_path", default=None, type=click.Path(exists=True),
                 help="With --epsilon/--ell-max: classify the return-level series instead"),
    click.option("--epsilon", default=None),
    click.option("--ell-max", type=int, default=None),
    matrix=False,
)
def series(emit, psi_c, psi_a, psi_beta, s_str, n, matrix_path, epsilon, ell_max, budget):
    psi = _mk_psi(psi_c, psi_a, psi_beta)
    s = Fraction(s_str)
    config = {"psi": psi.to_json(), "s": s_str, "n": n}
    if matrix_path is not None:
        if epsilon is None or ell_max is None:
            raise ValueError("--epsilon and --ell-max required with --matrix")
        ret = return_sequence(_load_matrix(matrix_path), parse_exact(epsilon), ell_max, budget)
        config |= {"matrix": matrix_path, "epsilon": epsilon, "ell_max": ell_max}
        verdict = classify_return_series(psi, s, n, ret)
    else:
        verdict = classify_series(psi, s, n)
    emit(verdict.to_json(), **config)


@_subcommand("counterpart", Y_MAX)
def counterpart(emit, A, y_max, budget):
    """Best-approximation counterpart sequences gamma_k, U_k, V_k."""
    rep = gamma_sequence(best_approximations(A, y_max, budget), A.m, A.n)
    emit(rep.to_json(), rep.csv_rows(), y_max=y_max)
    if not rep.all_checks:
        return _theorem_violation("U/V interval checks failed")


@_subcommand(
    "exponents",
    click.option("--b", "b_str", default=None, help="Target vector, comma-separated rationals"),
    click.option("--x-schedule", default="8,16,32,64,128,256", show_default=True, callback=_ints),
)
def exponents(emit, A, b_str, x_schedule, budget):
    b = None if b_str is None else b_str.split(",")
    emit(estimate_exponents(A, b, x_schedule, budget).to_json(), b=b_str, x_schedule=x_schedule)


if __name__ == "__main__":
    main()
