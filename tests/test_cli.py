"""Command-line interface: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

from qtau import algebra_core, bethe, cli, fock_oracle, qboson_model, symfunc
from qtau.cli import main
from qtau.phase_model import scalar_product
from qtau.suites import SUITES, CheckResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scalar(capsys):
    code, out, _ = run(capsys, "scalar", "--n", "2", "--m", "2",
                       "--x", "1/2,1/3", "--y", "1/5,1/7")
    assert code == 0
    assert "det       = 29521/22050" in out
    assert "schur_sum = 29521/22050" in out
    code, out, _ = run(capsys, "scalar", "--n", "1", "--m", "2",
                       "--x", "1/2", "--y", "1/3", "--mode", "det")
    assert code == 0 and out.strip() == "43/36"


def test_qscalar(capsys):
    code, out, _ = run(capsys, "qscalar", "--n", "1", "--m", "2",
                       "--q", "1/3", "--x", "1/2", "--y", "1/5",
                       "--mode", "hl_sum")
    assert code == 0 and out.strip() == "161/150"
    code, out, _ = run(capsys, "qscalar", "--n", "2", "--m", "2",
                       "--q", "1/4", "--x", "1/2,1/3", "--y", "1/5,1/7")
    assert code == 0
    assert "graded agreement through degree 2: all modes" in out


def test_qscalar_repeated_points(capsys):
    code, out, _ = run(capsys, "qscalar", "--n", "2", "--m", "2",
                       "--q", "1/4", "--x", "1/2,1/2", "--y", "1/5,1/7")
    assert code == 0
    assert "hl_sum        = 46799/35840" in out
    assert "det_quotient  = 7121152/5471041" in out
    assert "graded agreement through degree 2: all modes" in out


def test_qscalar_det_quotient_mode_at_repeated_points(capsys):
    code, out, err = run(capsys, "qscalar", "--n", "2", "--m", "2",
                         "--q", "1/4", "--x", "1/2,1/2", "--y", "1/5,1/7",
                         "--mode", "det_quotient")
    assert code == 0 and not err
    assert out.strip() == "7121152/5471041"


def test_qscalar_vanishing_denominator(capsys):
    # S(x, Qy) = 0 here: the sums are still printed
    code, out, _ = run(capsys, "qscalar", "--n", "1", "--m", "3",
                       "--q", "2", "--x=-1/2", "--y", "1")
    assert code == 0
    assert "hl_sum        = 11/8" in out
    assert ("det_quotient  = n/a (denominator determinant vanishes)"
            in out)
    assert "graded agreement through degree 3: all modes" in out


def test_qscalar_det_quotient_undefined_is_usage_error(capsys):
    # asked for alone, the undefined quotient is a usage error, not a
    # failed comparison
    code, out, err = run(capsys, "qscalar", "--n", "1", "--m", "3",
                         "--q", "2", "--x=-1/2", "--y", "1",
                         "--mode", "det_quotient")
    assert code == 2
    assert out == ""
    assert "denominator determinant vanishes" in err


def test_det_routes_at_repeated_points(capsys):
    # both det routes are defined at coincident points and match the sums
    code, out, _ = run(capsys, "scalar", "--n", "2", "--m", "2",
                       "--x", "1/2,1/2", "--y", "1/5,1/7")
    assert code == 0
    assert "det       = 27817/19600" in out
    assert "schur_sum = 27817/19600" in out
    code, out, _ = run(capsys, "corr", "--n", "2", "--m", "2", "--site", "1",
                       "--x", "1/2,1/2", "--y", "1/5")
    assert code == 0
    assert "det      = 121/100" in out and "skew_sum = 121/100" in out


def test_corr(capsys):
    code, out, _ = run(capsys, "corr", "--n", "2", "--m", "3", "--site", "1",
                       "--x", "2,3", "--y", "5")
    assert code == 0
    assert "det      = 16755" in out and "skew_sum = 16755" in out


def test_corr_odd_parity(capsys):
    # M+N-1 = 3 is odd; both routes still answer and agree
    code, out, _ = run(capsys, "corr", "--n", "2", "--m", "2", "--site", "1",
                       "--x", "1/2,1/3", "--y", "1/5")
    assert code == 0
    det = out.split("det      = ")[1].split()[0]
    assert f"skew_sum = {det}" in out


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "--model", "qboson", "--n", "2",
                       "--m", "2", "--q", "1/4", "--x", "1/2,1/3",
                       "--y", "1/5,1/7")
    assert code == 0 and "agreement: yes" in out
    assert "33553/26880" in out
    # the oracle is defined at Q = 1 and Q = -1 too
    for q in ("1", "-1"):
        code, out, _ = run(capsys, "oracle", "--model", "qboson", "--n", "2",
                           "--m", "2", f"--q={q}", "--x", "1/2,1/3",
                           "--y", "1/5,1/7")
        assert code == 0 and "agreement: yes" in out
    # insertions are a phase-model comparison only
    code, _, err = run(capsys, "oracle", "--model", "qboson", "--n", "2",
                       "--m", "2", "--q", "1/4", "--x", "1/2,1/3",
                       "--y", "1/5", "--site", "0")
    assert code == 2 and "error" in err


def test_bethe(capsys):
    code, out, _ = run(capsys, "bethe", "--model", "phase", "--n", "2",
                       "--m", "3", "--qn", "0,1")
    assert code == 0
    data = json.loads(out)
    assert data["model"] == "phase" and len(data["roots"]) == 2
    assert data["residual"] < 1e-10
    code, out, _ = run(capsys, "bethe", "--model", "qboson", "--n", "2",
                       "--m", "3", "--qn", "0,1", "--q", "0.2",
                       "--format", "text")
    assert code == 0 and "residual" in out


def test_bethe_rational_q(capsys):
    code, out, _ = run(capsys, "bethe", "--model", "qboson", "--n", "2",
                       "--m", "3", "--qn", "0,1", "--q", "1/5")
    assert code == 0 and json.loads(out)["q"] == 0.2
    for bad in ("inf", "nan", "1/0"):
        code, _, err = run(capsys, "bethe", "--model", "qboson", "--n", "2",
                           "--m", "3", "--qn", "0,1", "--q", bad)
        assert code == 2 and "not a finite rational" in err


def test_bethe_q_beyond_float_range_is_usage_error(capsys):
    # the solver runs on floats; a Q it cannot hold is a usage error
    code, out, err = run(capsys, "bethe", "--model", "qboson", "--n", "1",
                         "--m", "1", "--qn", "0", "--q", "1e400")
    assert code == 2 and out == ""
    assert "too large" in err


def test_bethe_far_q_returns_promptly():
    # a continuation plan linear in |Q| would run 2*10^7 Newton stages
    # here; the command must end in seconds, with roots or a named error
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "qtau.cli", "bethe", "--model", "qboson",
         "--n", "1", "--m", "1", "--qn", "0", "--q", "-1000000"],
        env=env, capture_output=True, text=True, timeout=10)
    if proc.returncode == 0:
        assert len(json.loads(proc.stdout)["roots"]) == 1
    else:
        # a solver failure is a usage error; exit 1 is a failed comparison
        assert proc.returncode == 2 and proc.stderr.startswith("error: ")


def test_bethe_vanishing_pair_is_usage_error(capsys):
    # at Q = -1 these roots tend to y_0 = -y_1: no Bethe vector, exit 2
    code, out, err = run(capsys, "bethe", "--model", "qboson", "--n", "2",
                         "--m", "3", "--qn", "0,3", "--q", "-1")
    assert code == 2 and out == ""
    assert "roots 0 and 1" in err


def test_bethe_without_root_set_is_usage_error(capsys):
    # Newton stops with residual 1.3e-10 here, above its target: no root
    # set is an unanswerable query (exit 2), not a failed comparison
    code, out, err = run(capsys, "bethe", "--model", "qboson", "--n", "2",
                         "--m", "2", "--qn", "0,1", "--q", "10000")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_phase_model_rejects_nonzero_q(capsys):
    size = ("--n", "1", "--m", "2")
    for argv in (("bethe", "--model", "phase", *size, "--qn", "0"),
                 ("oracle", "--model", "phase", *size, "--x", "1/2",
                  "--y", "1/3"),
                 ("expand", "--model", "phase", *size, "--u", "1/2")):
        code, _, err = run(capsys, *argv, "--q", "1/4")
        assert code == 2 and "phase model" in err
        code, _, _ = run(capsys, *argv, "--q", "0")
        assert code == 0


@pytest.mark.parametrize("argv", [
    ("scalar", "--n", "1", "--m", "1", "--x", "-1/2", "--y", "1/3"),
    ("scalar", "--n", "1", "--m", "1", "--x", "1/2", "--y", "-1/3"),
    ("scalar", "--n", "2", "--m", "1", "--x", "-1/2,1/3", "--y", "1/5,1/7"),
    ("qscalar", "--n", "1", "--m", "2", "--q", "-1/2", "--x", "1/2",
     "--y", "1/5", "--mode", "hl_sum"),
    ("expand", "--model", "phase", "--n", "1", "--m", "2", "--u", "-1/2"),
], ids=["x", "y", "list", "q", "u"])
def test_negative_rational_after_space(capsys, argv):
    # `--x -1/2` reads the same as `--x=-1/2`
    joined = []
    for token in argv:
        if token[0] == "-" and token[1].isdigit():
            joined[-1] += "=" + token
        else:
            joined.append(token)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert (code, out) == run(capsys, *joined)[:2]


def test_kostka(capsys):
    code, out, _ = run(capsys, "kostka", "--cutoff", "2")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == [[2], [1, 1]]
    assert data["K"][0][1] == ["0", "1"]


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "--model", "phase", "--n", "1",
                       "--m", "2", "--u", "1/2")
    assert code == 0
    data = json.loads(out)
    # coefficients are Schur values s_(k)(y) = y^k at y = 1/4
    values = {tuple(row["partition"]): row["value"]
              for row in data["coefficients"]}
    assert values[()] == "1"
    assert values[(1,)] == "1/4"
    assert values[(2,)] == "1/16"


def test_verify_deterministic(capsys):
    args = ("verify", "--suite", "bethe", "--seed", "9")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["all_pass"] is True
    assert {"name", "paper_ref", "pass", "detail"} == set(
        data["checks"][0])


def test_verify_failure_exit_code(capsys, monkeypatch):
    def toy(cfg, rng):
        return [CheckResult("always-fails", "toy/none", False, "by design")]

    monkeypatch.setitem(SUITES, "toy", toy)
    code, out, _ = run(capsys, "verify", "--suite", "toy")
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def test_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2 and "unknown suite" in err
    code, _, err = run(capsys, "scalar", "--n", "9", "--m", "2",
                       "--x", "1", "--y", "1")
    assert code == 2 and "desk-scale caps" in err
    code, _, _ = run(capsys, "scalar", "--n", "1", "--m", "1",
                     "--x", "1/2", "--y", "1/3,1/4")
    assert code == 2
    code, _, err = run(capsys, "kostka", "--cutoff", "9")
    assert code == 2 and "desk-scale caps" in err
    # two spellings of one Q would repeat every per-Q check name
    code, _, err = run(capsys, "verify", "--suite", "hl-cauchy",
                       "--q", "1/4,2/8")
    assert code == 2 and "Q value 1/4 is repeated" in err
    # a zero denominator is a usage error, not a failed comparison
    code, _, err = run(capsys, "scalar", "--n", "1", "--m", "1",
                       "--x", "1/0", "--y", "1/3")
    assert code == 2 and "not a finite rational" in err
    code, _, err = run(capsys, "qscalar", "--n", "1", "--m", "1",
                       "--q", "1/0", "--x", "1/2", "--y", "1/3")
    assert code == 2 and "not a finite rational" in err
    # argparse rejections surface as exit code 2 as well
    assert main(["scalar", "--n", "1"]) == 2
    assert main([]) == 2


def test_verify_rejects_empty_q_list(capsys):
    # an empty --q is a usage error, not a run at the default Q values
    code, out, err = run(capsys, "verify", "--suite", "hl-cauchy", "--q", "")
    assert code == 2 and out == ""
    assert "need at least one Q value" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "matrix-integral",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["all_pass"] is True
    bad = tmp_path / "missing" / "report.json"
    code, _, err = run(capsys, "verify", "--suite", "matrix-integral",
                       "--out", str(bad))
    assert code == 2 and "cannot write" in err


def test_oracle_site_compares_with_the_one_point_function(capsys):
    argv = ("--n", "2", "--m", "3", "--site", "1", "--x", "2,3", "--y", "5")
    code, out, _ = run(capsys, "oracle", "--model", "phase", *argv)
    assert code == 0 and "agreement: yes" in out
    assert "oracle  = 16755" in out and "formula = 16755" in out
    code, out, _ = run(capsys, "corr", *argv, "--mode", "skew_sum")
    assert code == 0 and out.strip() == "16755"


def test_route_mismatch_exits_1(capsys, monkeypatch):
    def off_by_one(xs, ys, box, mode="det"):
        value = scalar_product(xs, ys, box, mode=mode)
        return value + 1 if mode == "det" else value

    monkeypatch.setattr(cli, "scalar_product", off_by_one)
    code, out, _ = run(capsys, "scalar", "--n", "2", "--m", "2",
                       "--x", "1/2,1/3", "--y", "1/5,1/7")
    assert code == 1
    assert "det       = 51571/22050" in out
    assert "schur_sum = 29521/22050" in out
    assert out.rstrip().endswith("MISMATCH")


@pytest.mark.parametrize("argv", [
    ("scalar", "--x", "1/2", "--y", "1/5,1/7"),
    ("qscalar", "--q", "1/4", "--x", "1/2,1/3", "--y", "1/5"),
    ("corr", "--site", "1", "--x", "1/2,1/3", "--y", "1/5,1/7"),
    ("oracle", "--model", "phase", "--x", "1/2", "--y", "1/5"),
    ("oracle", "--model", "qboson", "--q", "1/4", "--x", "1/2,1/3",
     "--y", "1/5"),
    ("oracle", "--model", "phase", "--site", "0", "--x", "1/2,1/3",
     "--y", "1/5,1/7"),
], ids=["scalar", "qscalar", "corr", "oracle", "oracle-grading",
        "oracle-site"])
def test_point_counts_are_usage_errors(capsys, monkeypatch, argv):
    # the counts are read before any route runs, the oracle included
    def unreachable(*args, **kwargs):
        raise AssertionError("a route ran on a refused input")

    monkeypatch.setattr(fock_oracle, "oracle_pairing", unreachable)
    code, out, err = run(capsys, argv[0], "--n", "2", "--m", "2", *argv[1:])
    assert code == 2 and out == ""
    assert "need N = 2 points in --x" in err


@pytest.fixture
def cold_kostka_tables():
    """Empty the tables that a corrupted matrix product would feed, before
    the test and after it."""
    tables = (symfunc.kostka_tables, qboson_model.c_tilde_matrix)
    for table in tables:
        table.cache_clear()
    yield
    for table in tables:
        table.cache_clear()


def _corrupt_products(monkeypatch, rows=3):
    """Raise entry (0, 0) of every product of ``rows`` or more rows by one,
    so every Kostka table with that many partitions (weight d >= rows, for
    rows 2 and 3) fails its K K^-1 = I check."""
    def corrupted(a, b):
        out = algebra_core.mat_mul_ring(a, b)
        if len(out) >= rows:
            out[0][0] = out[0][0] + 1
        return out

    monkeypatch.setattr(symfunc, "mat_mul_ring", corrupted)


def _kostka_report(capsys):
    """Exit code and {check name: PASS or FAIL} of the kostka suite's text
    report; empty when no report was printed."""
    code, out, _ = run(capsys, "verify", "--suite", "kostka",
                       "--format", "text")
    return code, {line.split()[0]: line.split()[2]
                  for line in out.splitlines()[:-1]}


def test_verify_kostka_reports_a_failed_inverse(capsys, monkeypatch,
                                                cold_kostka_tables):
    _corrupt_products(monkeypatch)
    code, status = _kostka_report(capsys)
    assert code == 1
    for d in range(7):
        expect = "PASS" if d < 3 else "FAIL"
        assert status[f"kostka-inverse-d{d}"] == expect
        assert status[f"kostka-ctilde-identity-d{d}"] == expect
    assert status["kostka-example-weight2"] == "PASS"


def test_verify_kostka_reports_a_failed_weight_2_table(capsys, monkeypatch,
                                                       cold_kostka_tables):
    # the weight-2 example reads the table that failed, so it fails too,
    # and the report is still printed
    _corrupt_products(monkeypatch, rows=2)
    code, status = _kostka_report(capsys)
    assert code == 1 and status
    for d in range(7):
        expect = "PASS" if d < 2 else "FAIL"
        assert status[f"kostka-inverse-d{d}"] == expect
        assert status[f"kostka-ctilde-identity-d{d}"] == expect
    assert status["kostka-example-weight2"] == "FAIL"


def test_kostka_table_that_fails_verification_exits_1(capsys, monkeypatch,
                                                      cold_kostka_tables):
    _corrupt_products(monkeypatch)
    code, out, err = run(capsys, "kostka", "--cutoff", "3")
    assert code == 1 and out == ""
    assert "Kostka inverse failed verification" in err


def test_verify_bethe_reports_a_missed_continuation(capsys, monkeypatch):
    solve = bethe.solve_qboson_continued

    def missing_one(n, m, q, qn, **kwargs):
        if (n, m) == (2, 4):
            raise ArithmeticError("stage missed its residual target")
        return solve(n, m, q, qn, **kwargs)

    monkeypatch.setattr(bethe, "solve_qboson_continued", missing_one)
    code, out, _ = run(capsys, "verify", "--suite", "bethe")
    assert code == 1
    checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
    assert checks["bethe-qboson-continuation"] is False
    assert sum(not ok for ok in checks.values()) == 1
