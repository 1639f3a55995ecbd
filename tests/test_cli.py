"""CLI contract: exit codes, report shape, reproducibility."""

import json
import os

import pytest
from click.testing import CliRunner

from diophlab.cli import main

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

    def recording_map(fn, items, threads=None):
        calls.append((fn, list(items)))
        return [fn(x) for x in items]

    monkeypatch.setattr(limsup, "parallel_map", recording_map)
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
