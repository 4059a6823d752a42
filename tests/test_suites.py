"""Verification-suite runner: registration, determinism, serialization."""

import dataclasses
import json
import random
import sys
import types
from fractions import Fraction

import pytest

from qtau import suites
from qtau.cli import main
from qtau.suites import (CheckResult, Report, SuiteConfig, SUITES,
                         _ssyt_count, check_caps, desk_caps, emit_report,
                         run_suite)


def test_all_registered_suites_pass():
    for name in sorted(SUITES):
        report = run_suite(SuiteConfig(suite=name, seed=11, trials=2))
        failed = [c.name for c in report.checks if not c.passed]
        assert report.all_pass, f"{name}: {failed}"
        assert report.suite == name and report.checks


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(suite="nope"))


def test_config_caps():
    # suites run fixed sizes; only the single-value commands take sizes
    assert [f.name for f in dataclasses.fields(SuiteConfig)] == [
        "suite", "q_values", "seed", "trials"]
    with pytest.raises(ValueError):
        check_caps(n=9)
    with pytest.raises(ValueError):
        check_caps(degree=40)
    with pytest.raises(ValueError):
        SuiteConfig(suite="kostka", trials=0)
    caps = desk_caps()
    assert caps[0] >= 4 and caps[1] >= 6 and caps[2] >= 8


def test_caps_override(monkeypatch):
    monkeypatch.setenv("QTAU_MAX_SIZE", "10")
    assert desk_caps() == (10, 10, 10)
    check_caps(n=9)     # no longer rejected


def test_caps_reject_malformed_override(monkeypatch, capsys):
    monkeypatch.setenv("QTAU_MAX_SIZE", "abc")
    with pytest.raises(ValueError, match="QTAU_MAX_SIZE must be an integer"):
        desk_caps()
    assert main(["kostka", "--cutoff", "2"]) == 2
    assert "QTAU_MAX_SIZE must be an integer" in capsys.readouterr().err


def test_repeated_q_values_rejected():
    # 2/8 normalises to 1/4, so the per-Q check names would repeat
    with pytest.raises(ValueError, match="Q value 1/4 is repeated"):
        SuiteConfig(suite="hl-cauchy", q_values=(Fraction(1, 4), "2/8"))


def test_empty_q_values_rejected():
    # with no Q value the per-Q checks vanish and a report would pass
    # vacuously
    with pytest.raises(ValueError, match="need at least one Q value"):
        SuiteConfig(suite="hl-cauchy", q_values=())


def test_kostka_inverse_failure_is_reported(monkeypatch):
    # kostka_tables verifies K * K_inv itself; the suite reports its refusal
    real = suites.kostka_tables

    def refuse_d3(d):
        if d == 3:
            raise ArithmeticError("Kostka inverse failed verification")
        return real(d)

    monkeypatch.setattr(suites, "kostka_tables", refuse_d3)
    report = run_suite(SuiteConfig(suite="kostka", seed=0))
    assert [c.name for c in report.checks if not c.passed] == [
        "kostka-inverse-d3"]


def test_corr_skew_vacuum_check_can_fail(monkeypatch):
    # the vacuum case is checked against the det route, so a wrong det
    # value must fail it
    real = suites.scalar_product

    def det_off_by_one(xs, ys, box, mode):
        value = real(xs, ys, box, mode=mode)
        return value + 1 if mode == "det" else value

    monkeypatch.setattr(suites, "scalar_product", det_off_by_one)
    report = run_suite(SuiteConfig(suite="phase-corr", seed=0))
    assert [c.name for c in report.checks if not c.passed] == [
        "corr-skew-empty-equals-scalar"]


def test_grading_check_reads_the_oracle_sector_guard(monkeypatch):
    # build_monodromy writes each block's sector labels itself, so the
    # check reads the oracle's own guard: an AssertionError raised when
    # a block leaves its sector fails this one check and nothing else
    clean = run_suite(SuiteConfig(suite="oracle-cross", seed=0))

    def impure(*args):
        raise AssertionError("result is not pure in particle number")

    monkeypatch.setattr(suites.oracle, "build_monodromy", impure)
    report = run_suite(SuiteConfig(suite="oracle-cross", seed=0))
    assert clean.all_pass
    assert [c.name for c in report.checks if not c.passed] == [
        "oracle-grading-structure"]
    assert ([(c.name, c.paper_ref, c.detail) for c in report.checks]
            == [(c.name, c.paper_ref, c.detail) for c in clean.checks])


def test_supersym_builds_one_generator_list_per_route(monkeypatch):
    # each trial builds its three generator lists once
    calls = {"h_from_times": 0, "q_coeff_list": 0}
    for name in calls:
        real = getattr(suites, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(suites, name, counted)
    report = run_suite(SuiteConfig(suite="supersym", seed=0))
    trials = len(report.checks)
    assert report.all_pass and trials == 10
    assert calls == {"h_from_times": 2 * trials, "q_coeff_list": trials}


def test_qmode_detail_names_an_undefined_mode(monkeypatch):
    # where S(x, Qy) = 0 the report leaves det_quotient out; the detail
    # then says so instead of claiming all four modes, and drops it from
    # the full-sum disagreements as the report does; nothing else moves
    clean = run_suite(SuiteConfig(suite="qboson-modes", seed=0))
    real = suites.mode_agreement_report

    def without_det_quotient(*args):
        rep = real(*args)
        for key in ("values", "graded_equal_hl", "exact_equal_hl"):
            del rep[key]["det_quotient"]
        return rep

    monkeypatch.setattr(suites, "mode_agreement_report",
                        without_det_quotient)
    report = run_suite(SuiteConfig(suite="qboson-modes", seed=0))
    assert ([(c.name, c.paper_ref, c.passed) for c in report.checks]
            == [(c.name, c.paper_ref, c.passed) for c in clean.checks])
    moved = 0
    for a, b in zip(clean.checks, report.checks):
        if a.name.startswith("qmode-graded-window-"):
            moved += 1
            assert a.detail.startswith("all four modes agree through")
            head, tags = a.detail[:-1].split("[")
            tags = ",".join(t for t in tags.split(",")
                            if t and t != "det_quotient")
            assert b.detail == head.replace(
                "all four modes agree",
                "every mode but det_quotient (undefined) agrees"
            ) + f"[{tags}]"
        else:
            assert b.detail == a.detail
    assert moved == 9


# one entry c_k (k <= 6) of a generator source, or one time t_k (k >= 1)
SUPERSYM_SOURCES = {"q_coeff_list": range(7),
                    "supersymmetric_times": range(1, 7),
                    "twist": range(1, 7)}


@pytest.mark.parametrize("source,k", [
    (source, k) for source, ks in SUPERSYM_SOURCES.items() for k in ks])
def test_supersym_fails_on_one_perturbed_entry(monkeypatch, source, k):
    # the verdict compares the three lists c_0..c_6, and a time t_k
    # moves h_k by the same amount, so any one wrong entry fails every
    # trial while names, tags and details stay
    clean = run_suite(SuiteConfig(suite="supersym", seed=0))
    real = getattr(suites, source)
    at = k if source == "q_coeff_list" else k - 1

    def perturbed(*args):
        entries = list(real(*args))
        entries[at] += Fraction(1, 3)
        return entries

    monkeypatch.setattr(suites, source, perturbed)
    report = run_suite(SuiteConfig(suite="supersym", seed=0))
    assert clean.all_pass
    assert not any(c.passed for c in report.checks)
    assert ([(c.name, c.paper_ref, c.detail) for c in report.checks]
            == [(c.name, c.paper_ref, c.detail) for c in clean.checks])


def test_seed_determinism():
    a = emit_report(run_suite(SuiteConfig(suite="phase-scalar", seed=5)))
    b = emit_report(run_suite(SuiteConfig(suite="phase-scalar", seed=5)))
    assert a == b
    c = emit_report(run_suite(SuiteConfig(suite="phase-scalar", seed=6)))
    assert a != c


def test_emit_report_json_schema():
    report = Report("toy", 0, (
        CheckResult("first", "tag/one", True, "fine"),
        CheckResult("second", "tag/two", False, "broken"),
    ))
    data = json.loads(emit_report(report, fmt="json"))
    assert data["suite"] == "toy" and data["seed"] == 0
    assert data["checks"][0] == {"name": "first", "paper_ref": "tag/one",
                                 "pass": True, "detail": "fine"}
    assert data["all_pass"] is False


def test_emit_report_empty():
    data = json.loads(emit_report(Report("toy", 0, ())))
    assert data["checks"] == [] and data["all_pass"] is True


def test_emit_report_text_alignment():
    report = Report("toy", 0, (
        CheckResult("a", "t", True, "x"),
        CheckResult("longer-name", "tag", False, "y"),
    ))
    text = emit_report(report, fmt="text")
    lines = text.splitlines()
    assert lines[0].index("PASS") == lines[1].index("FAIL")
    assert lines[-1].endswith("FAILURES")
    with pytest.raises(ValueError):
        emit_report(report, fmt="yaml")


def test_ssyt_counter():
    assert _ssyt_count((), ()) == 1
    assert _ssyt_count((2, 1), (1, 1, 1)) == 2
    assert _ssyt_count((1, 1), (2,)) == 0
    assert _ssyt_count((3,), (1, 1, 1)) == 1
    # weight of content must land in the shape for a nonzero count
    assert _ssyt_count((2,), (1, 1)) == 1


# every check a wrong det value must fail, at seed 0 of the default config
DET_DEPENDENT = {
    "scalar_product": (
        {f"scalar-det-vs-sum-N{n}-M{m}" for n in range(1, 4)
         for m in range(1, 5)}
        | {f"oracle-scalar-N{n}-M{m}" for n in range(1, 4)
           for m in range(1, 4)}
        | {f"qmode-q0-reduction-N{n}-M{m}" for n, m in ((1, 2), (2, 2),
                                                        (2, 3))}
        | {"scalar-det-at-repeated-points", "corr-skew-empty-equals-scalar"}),
    "correlation_Am": (
        {f"corr-Am-three-routes-m{site}" for site in range(4)}
        | {"oracle-correlation-insertion"}),
}


def _run_all_but_bethe(monkeypatch):
    """Every check but bethe's at seed 0, with every rng draw recorded."""
    draws = []

    class Recording(random.Random):
        def sample(self, population, k):
            drawn = super().sample(population, k)
            draws.append(tuple(drawn))
            return drawn

    monkeypatch.setattr(suites, "random", types.SimpleNamespace(
        Random=Recording))
    checks = [c for name in sorted(SUITES) if name != "bethe"
              for c in run_suite(SuiteConfig(suite=name, seed=0)).checks]
    return checks, draws


@pytest.mark.parametrize("route", sorted(DET_DEPENDENT))
def test_sampled_checks_fail_on_a_wrong_det(monkeypatch, route):
    # a folded trial loop over an empty or spent draw list would pass
    # vacuously; a failing trial must not change any later draw either
    base, base_draws = _run_all_but_bethe(monkeypatch)
    real = getattr(suites, route)

    def det_off_by_one(*args, mode):
        value = real(*args, mode=mode)
        return value + 1 if mode == "det" else value

    monkeypatch.setattr(suites, route, det_off_by_one)
    bad, bad_draws = _run_all_but_bethe(monkeypatch)
    assert {c.name for c in bad if not c.passed} == DET_DEPENDENT[route]
    assert bad_draws == base_draws
    assert len(bad) == len(base)
    changed = [(a.name, a.detail, b.detail) for a, b in zip(base, bad)
               if (a.name, a.paper_ref, a.detail)
               != (b.name, b.paper_ref, b.detail)]
    if route == "correlation_Am":
        # this check prints the det value at its pinned point
        assert changed == [("corr-power-column-variant-measured",
                            "power-column determinant is a distinct "
                            "quantity: 116965 vs 8626 at a pinned point",
                            "power-column determinant is a distinct "
                            "quantity: 116965 vs 8627 at a pinned point")]
    else:
        assert changed == []


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="from 3.12 Fraction arithmetic builds its results "
                           "without calling Fraction.__new__")
def test_hl_cauchy_fraction_constructions_are_pinned():
    # every Fraction the suite makes, arithmetic results included: series
    # results skip the constructor's Fraction(c) per term, and the kernel
    # makes one series product per pair.  Coefficients, Q and the report's
    # labels go through the exact-input gate, which passes a Fraction as it
    # is, so what is left are the products and sums of the series
    new = Fraction.__new__.__code__
    made = 0

    def count(frame, event, arg):
        nonlocal made
        if event == "call" and frame.f_code is new:
            made += 1

    sys.setprofile(count)
    try:
        run_suite(SuiteConfig(suite="hl-cauchy", seed=0))
    finally:
        sys.setprofile(None)
    assert made == 2136


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="from 3.12 Fraction arithmetic builds its results "
                           "without calling Fraction.__new__")
def test_giambelli_fraction_constructions_are_pinned():
    # both determinants of every shape are ints (D^|lam| times their
    # values), so the check makes no Fraction, and the pool points and
    # the Q values are Fractions already, which the exact-input gate
    # passes as they are when the suite reads and formats them; with a
    # Fraction per determinant the suite made 733
    new = Fraction.__new__.__code__
    made = 0

    def count(frame, event, arg):
        nonlocal made
        if event == "call" and frame.f_code is new:
            made += 1

    sys.setprofile(count)
    try:
        run_suite(SuiteConfig(suite="giambelli", seed=0))
    finally:
        sys.setprofile(None)
    assert made == 0


def test_giambelli_suite_fails_on_a_wrong_kernel(monkeypatch):
    # the Giambelli identity holds on every input the suite draws, so a
    # check that can fail at all must fail when its determinant is wrong
    from qtau import phase_model
    real = phase_model.det_int

    def off_by_one_on_2x2(rows):
        value = real(rows)
        return value + 1 if len(rows) == 2 else value

    monkeypatch.setattr(phase_model, "det_int", off_by_one_on_2x2)
    report = run_suite(SuiteConfig(suite="giambelli", seed=0))
    assert report.checks and not any(c.passed for c in report.checks)
