"""CLI contract: exit codes, report shape, reproducibility."""

import hashlib
import json
import os
from dataclasses import replace

import pytest
from click.testing import CliRunner

from diophlab.cli import main
from diophlab.limsup import MeasureEstimate
from diophlab.transference import Cor33Target

GOLDEN = "1 1\n(-1+1*sqrt(5))/2\n"
SQRT2 = "1 1\n(0+1*sqrt(2))/1\n"
HALF = "1 1\n1/2\n"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def golden_mat(tmp_path):
    p = tmp_path / "golden.mat"
    p.write_text(GOLDEN)
    return str(p)


@pytest.fixture
def half_mat(tmp_path):
    p = tmp_path / "half.mat"
    p.write_text(HALF)
    return str(p)


def test_return_seq_golden(runner, golden_mat):
    res = runner.invoke(main, ["return-seq", "--matrix", golden_mat, "--epsilon", "2/5", "--ell-max", "12"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["levels"] == list(range(1, 13))
    assert "config_hash" in rep and "version" in rep


def test_return_seq_deep_levels_need_a_budget(runner, tmp_path):
    # [0; 1, 2, ..., 60] to level 100: a miss there costs the walk
    # 2 (2^100 - 1) points, which the records route charges in closed form
    p = tmp_path / "a_k_k.mat"
    p.write_text("1 1\ncf:[0;" + ",".join(map(str, range(1, 61))) + "]\n")
    args = ["return-seq", "--matrix", str(p), "--epsilon", "1/4", "--ell-max", "100"]
    res = runner.invoke(main, [*args, "--budget", str(2**101)])
    assert res.exit_code == 0
    assert len(json.loads(res.output)["levels"]) == 53
    assert runner.invoke(main, args).exit_code == 3


def test_series_diverges(runner):
    res = runner.invoke(main, ["series", "--psi-a", "1", "--s", "1", "--n", "1"])
    assert res.exit_code == 0
    assert json.loads(res.output)["status"] == "Diverges"


def test_missing_matrix_exit_2(runner, tmp_path):
    res = runner.invoke(main, ["measure-w", "--matrix", str(tmp_path / "nope.mat"), "--window-l", "1", "--window-u", "4"])
    assert res.exit_code == 2


def test_invalid_window_exit_2(runner, golden_mat):
    res = runner.invoke(main, ["measure-w", "--matrix", golden_mat, "--window-l", "9", "--window-u", "4", "--samples", "5"])
    assert res.exit_code == 2


def test_budget_exit_3(runner, golden_mat):
    res = runner.invoke(main, [
        "transfer", "--matrix", golden_mat, "--epsilon", "2/5", "--ell", "10",
        "--targets", "1", "--budget", "3",
    ])
    assert res.exit_code == 3


def test_transfer_ok(runner, golden_mat, tmp_path):
    out = tmp_path / "t.json"
    res = runner.invoke(main, [
        "transfer", "--matrix", golden_mat, "--epsilon", "2/5", "--ell", "4",
        "--targets", "10", "--seed", "1", "--out", str(out),
    ])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["successes"] == 10


def test_transfer_invalid_level_exit_2(runner, half_mat):
    res = runner.invoke(main, ["transfer", "--matrix", half_mat, "--epsilon", "2/5", "--ell", "3", "--targets", "2"])
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["return-seq", "--ell-max", "4"],
        ["transfer", "--ell", "3", "--targets", "2"],
        ["coverage", "--ell-max", "4", "--samples", "2"],
        ["series", "--ell-max", "4"],
    ],
    ids=lambda args: args[0],
)
def test_cf_epsilon_exit_2(runner, golden_mat, args):
    # a CF real has no exact powers, which every return level compares
    res = runner.invoke(main, args + ["--matrix", golden_mat, "--epsilon", "cf:[0;2,3]"])
    assert res.exit_code == 2
    assert res.output.startswith("error: ")
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_measure_w_reproducible(runner, golden_mat):
    args = ["measure-w", "--matrix", golden_mat, "--window-l", "1", "--window-u", "64",
            "--samples", "50", "--seed", "7"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_csv_format(runner, golden_mat, tmp_path):
    out = tmp_path / "r.csv"
    res = runner.invoke(main, [
        "return-seq", "--matrix", golden_mat, "--epsilon", "2/5", "--ell-max", "4",
        "--format", "csv", "--out", str(out),
    ])
    assert res.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config_hash")


def test_counterpart_checks_pass(runner, golden_mat):
    res = runner.invoke(main, ["counterpart", "--matrix", golden_mat, "--y-max", "100"])
    assert res.exit_code == 0
    assert json.loads(res.output)["all_checks"] is True


# (arguments, library call, report made to fail, stderr line, the failure
# read off the written report) of each subcommand that flags a theorem
# violation
VIOLATIONS = {
    "transfer": (
        ["--epsilon", "2/5", "--ell", "4", "--targets", "3"],
        "verify_corollary_3_3",
        lambda rep: replace(rep, targets=[Cor33Target(rep.targets[0].b, None, "", "", False), *rep.targets[1:]]),
        "theorem violation: 1 targets without witness",
        lambda rep: rep["successes"] == 2,
    ),
    "coverage": (
        ["--epsilon", "2/5", "--ell-max", "8", "--equid-constant", "4", "--samples", "10", "--levels", "1"],
        "coverage",
        lambda ce: replace(ce, estimate=MeasureEstimate.from_hits(0, 10, ce.estimate.seed, ce.estimate.window)),
        "theorem violation: coverage below 1/2 at levels [8]",
        lambda rep: rep["levels"][0]["covered_fraction"]["fraction"] == "0",
    ),
    "counterpart": (
        ["--y-max", "100"],
        "gamma_sequence",
        lambda rep: replace(rep, entries=[replace(rep.entries[0], U_lt_V=False), *rep.entries[1:]]),
        "theorem violation: U/V interval checks failed",
        lambda rep: rep["all_checks"] is False,
    ),
}


@pytest.mark.parametrize("command", sorted(VIOLATIONS))
def test_theorem_violation_exits_4(runner, golden_mat, monkeypatch, command):
    # the library's report is made to fail: the report is still written,
    # and the violation is named on stderr
    from diophlab import cli

    args, call, fail, line, failed = VIOLATIONS[command]
    monkeypatch.setattr(cli, call, lambda *a, fn=getattr(cli, call): fail(fn(*a)))
    res = runner.invoke(main, [command, "--matrix", golden_mat, *args])
    assert (res.exit_code, res.stderr) == (4, line + "\n")
    rep = json.loads(res.stdout)
    assert rep["config"]["command"] == command and failed(rep)


def test_equidist_count(runner, tmp_path):
    p = tmp_path / "s.mat"
    p.write_text(SQRT2)
    res = runner.invoke(main, [
        "equidist", "--matrix", str(p), "--op", "count", "--n-horizon", "500",
        "--ball-radius", "1/10",
    ])
    assert res.exit_code == 0
    ratio = float(json.loads(res.output)["ratio_dec"])
    assert abs(ratio - 0.2) < 0.05


def test_exponents(runner, golden_mat):
    res = runner.invoke(main, ["exponents", "--matrix", golden_mat, "--x-schedule", "8,16,32"])
    assert res.exit_code == 0
    assert json.loads(res.output)["what_hat"] == pytest.approx(1.0, abs=0.3)


def test_config_hash_stable_across_runs(runner, golden_mat):
    args = ["series", "--psi-a", "2", "--s", "1", "--n", "1"]
    h1 = json.loads(runner.invoke(main, args).output)["config_hash"]
    h2 = json.loads(runner.invoke(main, args).output)["config_hash"]
    assert h1 == h2


def test_coverage_quadratic_epsilon_1x1(runner, golden_mat, monkeypatch):
    # a quadratic epsilon gives a quadratic radius in 1 x 1; the union index
    # takes it by enclosure, and each target agrees with delta_membership
    from diophlab import limsup

    calls = []
    hits = limsup._hits

    def recording_hits(A, w, thr, targets, budget):
        targets = list(targets)
        calls.append((lambda b: hits(A, w, thr, [b], budget) == 1, targets))
        return hits(A, w, thr, targets, budget)

    monkeypatch.setattr(limsup, "_hits", recording_hits)
    res = runner.invoke(main, [
        "coverage", "--matrix", golden_mat, "--epsilon", "(0+1*sqrt(5))/4",
        "--ell-max", "8", "--equid-constant", "4", "--samples", "60",
    ])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert len(rep["levels"]) == 3 and len(calls) == 3
    from diophlab.lattice import ApproxMatrix, return_sequence
    from diophlab.numeric import floor_exact, parse_exact

    A = ApproxMatrix.from_text(GOLDEN)
    params = limsup.ubiquity_params(return_sequence(A, parse_exact("(0+1*sqrt(5))/4"), 8), 4)
    for (test, pts), lv in zip(calls, params.levels[-3:]):
        w = limsup.Window(floor_exact(lv.l), floor_exact(lv.u))
        assert [test(b) for b in pts] == [limsup.delta_membership(A, b, lv.rho(1), w) for b in pts]


def test_exponents_exact_homogeneous_hit(runner, tmp_path):
    p = tmp_path / "third.mat"
    p.write_text("1 1\n1/3\n")
    res = runner.invoke(main, ["exponents", "--matrix", str(p), "--x-schedule", "4,8,16"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["what_hat"] == "exact_hit"
    assert [row["what"] for row in rep["table"]] == ["exact_hit"] * 3


def test_undecided_width_is_short(runner, tmp_path):
    # a CF entry too short to decide the coverage radius comparison; the
    # width is printed as a short decimal, not a 100-digit rational
    p = tmp_path / "cf.mat"
    p.write_text("1 1\ncf:[0;1,2]\n")
    res = runner.invoke(main, [
        "coverage", "--matrix", str(p), "--epsilon", "(0+1*sqrt(5))/4",
        "--ell-max", "6", "--equid-constant", "4",
    ])
    assert res.exit_code == 3
    lines = res.stderr.splitlines()
    assert lines and all(len(line) < 80 for line in lines)
    assert "undecided (width " in res.stderr


# (exit code, sha256 of stdout) of reports on the benchmark's input
# matrices; a report may change only together with its digest here
REPORTS = {
    "best-approx": ["best-approx", "--y-max", "1000"],
    "counterpart": ["counterpart", "--y-max", "1000"],
    # records to 2^63: cf_fast's three structural U_(k+1) <= V_k obligations
    "counterpart-far": ["counterpart", "--y-max", str(2**63)],
    "exponents": ["exponents", "--x-schedule", "8,16,32,64"],
    "exponents-b": ["exponents", "--x-schedule", "8,16,32,64", "--b", "1/3"],
    "weyl": ["equidist", "--op", "weyl", "--n-horizon", "20"],
    "weyl-far": ["equidist", "--op", "weyl", "--n-horizon", "2000"],
    # a frequency with a negative component, so c^T A mixes both rows
    "weyl-c": ["equidist", "--op", "weyl", "--c", "1,-2", "--n-horizon", "20"],
    "return-seq": ["return-seq", "--epsilon", "2/5", "--ell-max", "12"],
    "return-seq-csv": ["return-seq", "--epsilon", "2/5", "--ell-max", "12", "--format", "csv"],
    "transfer": ["transfer", "--epsilon", "2/5", "--ell", "5", "--targets", "20", "--seed", "1"],
    "measure-w": ["measure-w", "--window-l", "1", "--window-u", "64", "--samples", "50", "--seed", "7"],
    "measure-w-grid": [
        "measure-w", "--window-l", "1", "--window-u", "64", "--samples", "50", "--mode", "grid",
        "--psi-c", "1/2", "--psi-beta", "1",
    ],
    "measure-bad": ["measure-bad", "--window-l", "1", "--window-u", "8", "--samples", "20", "--seed", "3"],
    "coverage": ["coverage", "--epsilon", "2/5", "--ell-max", "8", "--equid-constant", "4", "--samples", "40"],
    # the equidistribution constant estimated from the ball family
    "coverage-est": ["coverage", "--epsilon", "2/5", "--ell-max", "8", "--samples", "40"],
    "count": ["equidist", "--op", "count", "--n-horizon", "200"],
    # a centre with one coordinate per row (ratio 3/41 on q21)
    "count-center": ["equidist", "--op", "count", "--n-horizon", "20", "--ball-center", "0,0"],
    "constant": ["equidist", "--op", "constant", "--l-values", "16,32"],
    "series-matrix": ["series", "--epsilon", "2/5", "--ell-max", "10"],
    "best-approx-csv": ["best-approx", "--y-max", "1000", "--format", "csv"],
    "counterpart-csv": ["counterpart", "--y-max", "1000", "--format", "csv"],
    "weyl-csv": ["equidist", "--op", "weyl", "--n-horizon", "20", "--format", "csv"],
}
REPORT_DIGESTS = {
    ("best-approx", "golden"): (0, "b276752bcff5c15b144a77e50e8260f1bbb7eac8b5bd0968073319d2c3660a05"),
    ("counterpart", "golden"): (0, "b42824199cf83c5d32b961b9c79c41e0a075a94afe06087765e4ca6af899abc9"),
    ("exponents", "golden"): (0, "11c539f6bc23127b59a2abc947c19a89cf9f9753e73f487215881251538fea9b"),
    ("exponents-b", "golden"): (0, "397e6fc94bb17be5332b1b62e7ae5519e87cd28f08b3b5898c1c01611d3f5cc2"),
    ("best-approx", "sqrt2"): (0, "800458964fe8332ad1aaa93476a11863dfb4cb65b3195703b53cca2d466ee6cd"),
    ("counterpart", "sqrt2"): (0, "4b74e11743be8f7fe13f3a7e9bc5e3c796f7c249f9e6e5d8febcc05d84a5f767"),
    ("exponents", "sqrt2"): (0, "a45809560964ba88a310adf2caa65b008d1a09301d8b1ea77c55dee8ab703ae2"),
    ("exponents-b", "sqrt2"): (0, "909d0a393b9ba26a52a0fd5224fbdb25ce99e85ab69001586f73d68a7785c051"),
    ("best-approx", "q12"): (0, "3fa3798bf8236b182e53b645d9325cc35d2d15731816e131a5dc3fb4298dd8bc"),
    ("counterpart", "q12"): (0, "6ed27148b3363ca7642cce76ea6add5a747846f7d9ebf0c387f8b29ce31742dd"),
    ("exponents", "q12"): (0, "2810bf41cf59787a83f9ec9c251fdf401f07cd3a864ba97550353cb77e0c334f"),
    ("exponents-b", "q12"): (0, "1ba410ec498e7e86c00891f4089af05eb7787c95d89d39c7b1d8ead804d4430c"),
    ("best-approx", "cf_fast"): (0, "ba6f5fcf63565978a12b2144915780427c41dda62a6d248655e5de3f663354c9"),
    ("counterpart", "cf_fast"): (0, "b33d4659c47f7f4dca3749a642e4f009409a974dde71d12d4940673459b363f4"),
    ("counterpart-far", "cf_fast"): (0, "429ca5d61ad8c50474dace8506e26046551de830a6490db0bdd77beab0883df6"),
    ("exponents", "cf_fast"): (0, "6f00f2699fab64d1c944e5be8feeff364d8315de4efe259661df1efa41e3a1b5"),
    ("exponents-b", "cf_fast"): (0, "8fc0df707f4027e1dee3978ed914e0ec6113d67424eddc380d953b291c944539"),
    ("weyl", "golden"): (0, "8b9968ac6e6a766f484f71a0829a898685b3e566a95233e4e9458d3062089d15"),
    ("weyl", "sqrt2"): (0, "befece5baffad7c9cec5b6b4562005c7ef52ba56ee26e5d3c4301b38a8636378"),
    ("weyl", "q12"): (0, "785f2c7b11d6237ba473d20e76912355b1cec4d76d8e184efed40c39c126a586"),
    ("weyl", "cf_fast"): (0, "3c34bbf502caaed5c9fa185a00f4b47b6276f5f08058e3c7abb6f1c2250f6971"),
    ("weyl-c", "q21"): (0, "2b592d943367bd9834aee0c555a41422e64a2a29678d60801a99f412067ee708"),
    ("weyl-far", "golden"): (0, "db4f247b9fddadec288275552c9a14538ce0167fcd1c01aa195adb26b554270a"),
    ("weyl-far", "sqrt2"): (0, "5601c8f6c8056ec920dda73b87af9b2a4ffeadb1f81c0bb3a28aa1299cb20abc"),
    ("weyl-far", "cf_fast"): (0, "77a22f65b27dc6420dc40a82f42bfb1cad9aa6da7acfb2d1e0974701191911f5"),
    ("series", "n1-s1-a1-b0"): (0, "ea94ffb21430980c6dd1f073bdcaf8871b04e5282abff78601c3df6adc11a9e9"),
    ("series", "n1-s1-a1/2-b9"): (0, "46c33a1f8a4b8b80e6d9f865442489e98dafbb55bf09a68052c132162797a6b6"),
    ("series", "n2-s2-a1-b1/2"): (0, "15cb159a6a3159abffac3c9a79680964e937b680c8592a1dd6b6ac8a2506ee54"),
    ("series", "n1-s2-a1-b-1/4"): (0, "aabe708bbedc8e0186325a515ca8a7cd927516e3323791bea2b1a373b20e7ca3"),
    ("return-seq", "golden"): (0, "f59786e4802fd38095e6178ee886353110e1a49ab8e5aa1e2791b64b447c0b93"),
    ("return-seq-csv", "golden"): (0, "5af644c9d56cb33bc4fdedd42c13a0c4f58e3003ed408519079bbe681161b345"),
    ("transfer", "golden"): (0, "ab286bda21bd515f54cf19f3a6b480160b82ebf5ee4de07cc5ae6c123c685225"),
    ("transfer", "q21"): (0, "a61852943da654dc236dfc2811dc89a07c63bf98ec60b9341b671e04abc869a0"),
    ("measure-w", "golden"): (0, "5370cec03c59e4ff95403699ce9dbe7065fcdd19363bb6ec707ee1cce36f8637"),
    ("measure-w-grid", "golden"): (0, "7c45b0a68d6007c6b5858303ddd8ba7ab20f190ba36f9ed19bce3ffa6a868e32"),
    ("measure-bad", "q12"): (0, "bdee17f684d2aa8fd490f6ecd80a452677b286bbe0013f29e15ba507188920e6"),
    ("coverage", "golden"): (0, "38e9867d532998ceccfad474dc472d43f69169e2f5a537a3b07bb4a203246636"),
    ("coverage-est", "golden"): (0, "dae7adef1034b342fe7dc4b063977007607a584485565e66e5f4f350cbc3f539"),
    ("count", "sqrt2"): (0, "e8dc2b67221ac3853ec330e58b48f004b454990f79f956f3b4b7c0896ab28209"),
    ("count-center", "q21"): (0, "e23302aff8090ab2baaa4b1c06a094c4bc81a813e9c5589845b78f467c4a05a8"),
    ("constant", "golden"): (0, "adfb181315f0457cee35baacde254c06094790005fd0abaafe8e6b83eb6aaca3"),
    ("series-matrix", "golden"): (0, "b4d0b55f15f3b00366cdb3c631da7ff7980997b5eff09c5fa8181fa07c78c11d"),
    ("best-approx-csv", "golden"): (0, "c84e3d9b7e7140c1be865c61d50ffc8c3b8bb41265cdf7dabd8afde67affffe0"),
    ("counterpart-csv", "golden"): (0, "79ed5822b5656c95f831eaf70a9e0813cf518b13a35fe954c6d8ad45dd7b1f2a"),
    ("weyl-csv", "golden"): (0, "8891cacd0abc8870bec232319d7296942836f28195b2998969bac2b87b3e1e06"),
}


def report_args(report, name):
    """A series report takes no matrix: its name is its case n-s-a-beta."""
    if report == "series":
        n, s, a, beta = (part[1:] for part in name.split("-", 3))
        return ["series", "--n", n, "--s", s, "--psi-a", a, "--psi-beta", beta]
    return [*REPORTS[report], "--matrix", f"perfbench/inputs/{name}.mat"]


@pytest.mark.parametrize("report, name", sorted(REPORT_DIGESTS))
def test_reports_match_recorded_digests(runner, monkeypatch, report, name):
    # the matrix path is part of the report, so it is given relative to the
    # repository root
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), os.pardir))
    res = runner.invoke(main, report_args(report, name))
    assert (res.exit_code, hashlib.sha256(res.stdout_bytes).hexdigest()) == REPORT_DIGESTS[report, name]


# (exit code, first stderr line) of invalid input and of an exhausted budget
ERRORS = {
    "series-without-epsilon": (
        ["series", "--matrix", "perfbench/inputs/golden.mat"],
        (2, "error: --epsilon and --ell-max required with --matrix"),
    ),
    "cf-epsilon": (
        ["return-seq", "--matrix", "perfbench/inputs/golden.mat", "--epsilon", "cf:[0;2,3]", "--ell-max", "4"],
        (2, "error: no exact powers of the CF real CFReal([0, 2, 3])"),
    ),
    "transfer-level-outside": (
        ["transfer", "--matrix", "perfbench/inputs/q21.mat", "--epsilon", "2/5", "--ell", "3", "--targets", "2"],
        (2, "error: level 3 is not in the return sequence"),
    ),
    "exponents-budget": (
        ["exponents", "--matrix", "perfbench/inputs/q12.mat", "--budget", "100"],
        (3, "error: enumeration of 102 points exceeds 100"),
    ),
    # a report without CSV rows is refused, not written as a bare header
    "measure-w-csv": (
        ["measure-w", "--matrix", "perfbench/inputs/golden.mat", "--window-l", "1", "--window-u", "8",
         "--samples", "10", "--format", "csv"],
        (2, "error: measure-w has no CSV report; use --format json"),
    ),
    # a centre or target needs one coordinate per row: the default centres
    # 0 and 1/2 are not broadcast to a 2 x 1 matrix
    "count-center-short": (
        ["equidist", "--op", "count", "--matrix", "perfbench/inputs/q21.mat", "--n-horizon", "20"],
        (2, "error: target needs 2 coordinates, got 1"),
    ),
    "coverage-center-short": (
        ["coverage", "--matrix", "perfbench/inputs/q21.mat", "--epsilon", "2/5", "--ell-max", "4",
         "--equid-constant", "4", "--samples", "10"],
        (2, "error: target needs 2 coordinates, got 1"),
    ),
    # the centre is checked before any work, even when no level is tested
    "coverage-center-no-levels": (
        ["coverage", "--matrix", "perfbench/inputs/golden.mat", "--epsilon", "2/5", "--ell-max", "8",
         "--samples", "10", "--equid-constant", "4", "--levels", "0", "--ball-center", "1,2,3"],
        (2, "error: target needs 1 coordinates, got 3"),
    ),
    # 15 is not a square: a 4 x 4 grid would be counted over 15 samples
    "measure-w-grid-count": (
        ["measure-w", "--matrix", "perfbench/inputs/q21.mat", "--window-l", "1", "--window-u", "8",
         "--samples", "15", "--mode", "grid", "--psi-a", "1/2"],
        (2, "error: grid mode needs samples = k^2 for an integer k, got 15"),
    ),
    "coverage-no-samples": (
        ["coverage", "--matrix", "perfbench/inputs/golden.mat", "--epsilon", "2/5", "--ell-max", "8",
         "--samples", "0", "--equid-constant", "4"],
        (2, "error: samples >= 1 required"),
    ),
    # a negative count is refused, not read as an empty run
    "transfer-negative-targets": (
        ["transfer", "--matrix", "perfbench/inputs/golden.mat", "--epsilon", "2/5", "--ell", "4",
         "--targets", "-3"],
        (2, "error: --targets must be >= 0"),
    ),
    "coverage-negative-levels": (
        ["coverage", "--matrix", "perfbench/inputs/golden.mat", "--epsilon", "2/5", "--ell-max", "8",
         "--samples", "10", "--equid-constant", "4", "--levels", "-2"],
        (2, "error: --levels must be >= 0"),
    ),
    "constant-negative-l-values": (
        ["equidist", "--op", "constant", "--matrix", "perfbench/inputs/golden.mat", "--l-values", "-4,8"],
        (2, "error: --l-values must be >= 1"),
    ),
    # the series runs over q >= 1 in dimension n >= 1, with or without a
    # matrix, and a level is a power 2^ell with ell >= 0
    "series-n-zero": (["series", "--n", "0"], (2, "error: n >= 1 required")),
    "series-matrix-n-zero": (
        ["series", "--matrix", "perfbench/inputs/golden.mat", "--epsilon", "2/5", "--ell-max", "4", "--n", "0"],
        (2, "error: n >= 1 required"),
    ),
    "transfer-negative-ell": (
        ["transfer", "--matrix", "perfbench/inputs/golden.mat", "--epsilon", "2/5", "--ell", "-1", "--targets", "2"],
        (2, "error: ell >= 0 required"),
    ),
}


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_error_exits_match_recorded(runner, monkeypatch, case):
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), os.pardir))
    args, want = ERRORS[case]
    res = runner.invoke(main, args)
    assert (res.exit_code, res.stderr.splitlines()[0]) == want
    assert res.stdout == ""


# each integer option, given a malformed value, and the start of click's message:
# the comma-separated lists share one callback, --levels is a plain click integer
BAD_LISTS = {
    "--levels": (["coverage", "--epsilon", "2/5", "--ell-max", "8", "--levels", "x"],
                 "'x' is not a valid integer."),
    "--c": (["equidist", "--op", "weyl", "--c", "1,a"], "expected comma-separated integers, got "),
    "--l-values": (["equidist", "--op", "constant", "--l-values", "16,x"],
                   "expected comma-separated integers, got "),
    "--x-schedule": (["exponents", "--x-schedule", "4,a"], "expected comma-separated integers, got "),
}


@pytest.mark.parametrize("option", sorted(BAD_LISTS))
def test_integer_lists_are_usage_errors(runner, golden_mat, option):
    args, message = BAD_LISTS[option]
    res = runner.invoke(main, [args[0], "--matrix", golden_mat, *args[1:]])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr.splitlines()[0].startswith("Usage: ")
    assert f"Invalid value for '{option}': {message}" in res.stderr


def test_levels_takes_one_integer(runner, golden_mat):
    # --levels is a click integer: a list is click's usage error too
    res = runner.invoke(main, ["coverage", "--matrix", golden_mat, "--epsilon", "2/5", "--ell-max", "8",
                               "--levels", "3,4"])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr.splitlines()[0].startswith("Usage: ")
    assert "Invalid value for '--levels': '3,4' is not a valid integer." in res.stderr
