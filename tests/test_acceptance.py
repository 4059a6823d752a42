"""End-to-end acceptance checks.

One test per shipped guarantee, in order; each prints a single
pass/fail line (visible with -s, and implicit in the -v test status).
Every equality here is exact rational arithmetic unless a numeric
tolerance is stated in the test itself.
"""

import cmath
import json
import math
import random
import time
from fractions import Fraction as F

from qtau.algebra_core import TruncatedSeries, h_from_times, jacobi_trudi
from qtau.bethe import residual, solve_phase, solve_qboson
from qtau.miwa import from_points, twist
from qtau.partitions import (b_lambda, enumerate_in_box, partitions_of,
                             weight)
from qtau.phase_model import (BoxSpec, correlation_Am,
                              matrix_integral_constant_term, scalar_product,
                              schur_pair_sum_miwa, giambelli_check)
from qtau.qboson_model import (MODES, QBosonSpec, graded_components,
                               scalar_product_q)
from qtau.suites import SUITES, SuiteConfig, _ssyt_count, emit_report, run_suite
from qtau.symfunc import (cauchy_kernel_series, hl_series, kostka_tables,
                          q_coeff_list, supersymmetric_times, vandermonde,
                          xy_names)
from qtau import fock_oracle as oracle
from symfunc_reference import schur_value

_POOL = sorted({F(p, q) for p in range(1, 12) for q in range(1, 12)})
Q_VALUES = (F(1, 4), F(1, 3), F(2, 5))


def _sample(rng, n):
    return rng.sample(_POOL, n)


def _report(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} - {text}")
    assert ok, text


def test_criterion_01_det_vs_schur_sum():
    # exact equality for N <= 3, M <= 4, 20 random pairs per size, < 30 s
    rng = random.Random(101)
    t0 = time.monotonic()
    checked = 0
    ok = True
    for n in range(1, 4):
        for m in range(1, 5):
            box = BoxSpec(n, m)
            for _ in range(20):
                xs, ys = _sample(rng, n), _sample(rng, n)
                if (scalar_product(xs, ys, box, mode="det")
                        != scalar_product(xs, ys, box, mode="schur_sum")):
                    ok = False
                checked += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30
    _report(1, ok, f"determinant = box Schur sum on {checked} point pairs "
            f"(N<=3, M<=4) in {elapsed:.1f}s")


def test_criterion_02_oracle_equivalence_phase():
    rng = random.Random(102)
    ok = True
    for n in range(1, 4):
        for m in range(1, 4):
            box = BoxSpec(n, m)
            for _ in range(3):
                xs, ys = _sample(rng, n), _sample(rng, n)
                val = oracle.oracle_pairing("phase", box, xs, ys)
                if (val != scalar_product(xs, ys, box, mode="det")
                        or val != scalar_product(xs, ys, box,
                                                 mode="schur_sum")):
                    ok = False
    # Bethe-state coefficients are exactly the Schur values
    us = _sample(rng, 3)
    ys = [u * u for u in us]
    box = BoxSpec(3, 3)
    coeffs = oracle.bethe_state("phase", box, us)
    for lam in box.partitions():
        if coeffs[lam] != schur_value(lam, ys):
            ok = False
    _report(2, ok, "occupation-basis pairing = scalar product (N<=3, M<=3, "
            "both modes); string coefficients = Schur values")


def test_criterion_03_correlation_insertion():
    rng = random.Random(103)
    box = BoxSpec(2, 3)
    ok = True
    ratios = set()
    for _ in range(10):
        xs, ys = _sample(rng, 2), _sample(rng, 1)
        for site in range(4):
            det = correlation_Am(xs, ys, site, box, mode="det")
            orc = oracle.oracle_pairing("phase", box, xs, ys, insertion=site)
            if det != orc:
                ok = False
            sk = correlation_Am(xs, ys, site, box, mode="skew_sum")
            if sk != 0:
                ratios.add(det / sk)
    # recorded proportionality factor between det and skew-sum routes: 1
    ok = ok and ratios == {F(1)}
    _report(3, ok, "A_m determinant = oracle insertion (N=2, M=3, all m); "
            "skew-sum factor constant = 1 across 10 point sets")


def test_criterion_04_hl_cauchy_window():
    ok = True
    for n in range(1, 4):
        for m in range(1, 4):
            window = min(m, 6)
            names = xy_names(n, n)
            for q in Q_VALUES:
                total = TruncatedSeries.zero(names, 2 * window)
                for lam in enumerate_in_box(n, m):
                    if weight(lam) > window:
                        continue
                    px = hl_series(lam, names, 2 * window, q,
                                   positions=range(n))
                    py = hl_series(lam, names, 2 * window, q,
                                   positions=range(n, 2 * n))
                    total = total + (px * py).scale(b_lambda(lam)(q))
                kernel = cauchy_kernel_series(n, n, 2 * window, q=q)
                # zero discrepancy in every graded component of the window
                if not kernel.agrees_through(total, 2 * window):
                    ok = False
    _report(4, ok, "box sum = deformed Cauchy kernel through total degree "
            "min(M,6), N<=3, Q in {1/4, 1/3, 2/5}, every component")


def test_criterion_05_qboson_cross_mode():
    rng = random.Random(105)
    ok = True
    for q in Q_VALUES:
        for n in range(1, 3):
            for m in range(1, 4):
                spec = QBosonSpec(BoxSpec(n, m), q)
                xs, ys = _sample(rng, n), _sample(rng, n)
                # occupation pairing = Hall-Littlewood box sum
                if (oracle.oracle_pairing("qboson", spec, xs, ys)
                        != scalar_product_q(xs, ys, spec, mode="hl_sum")):
                    ok = False
                # the other three modes agree with hl_sum through degree M
                base = graded_components(xs, ys, spec, "hl_sum", m)
                for mode in MODES:
                    if graded_components(xs, ys, spec, mode, m) != base:
                        ok = False
    # Q = 0 reduces every mode to the undeformed value
    for n, m in ((1, 3), (2, 2), (2, 3)):
        spec0 = QBosonSpec(BoxSpec(n, m), F(0))
        xs, ys = _sample(rng, n), _sample(rng, n)
        target = scalar_product(xs, ys, BoxSpec(n, m), mode="det")
        for mode in MODES:
            if scalar_product_q(xs, ys, spec0, mode) != target:
                ok = False
    _report(5, ok, "hl_sum = oracle (N<=2, M<=3); all modes "
            "agree gradedly through M; Q=0 reduction exact")


def test_criterion_06_kostka_suite():
    t0 = time.monotonic()
    ok = True
    from qtau.qboson_model import c_tilde_matrix
    for d in range(0, 7):
        tables = kostka_tables(d)
        size = len(tables.order)
        for i in range(size):
            if tables.K[i][i] != 1:
                ok = False
            for j in range(i):
                if not tables.K[i][j].is_zero():
                    ok = False
        for i in range(size):
            for j in range(size):
                acc = tables.K[i][0] * tables.K_inv[0][j]
                for k in range(1, size):
                    acc = acc + tables.K[i][k] * tables.K_inv[k][j]
                if acc != (1 if i == j else 0):
                    ok = False
        for i, lam in enumerate(tables.order):
            for j, mu in enumerate(tables.order):
                if tables.K[i][j](F(1)) != _ssyt_count(lam, mu):
                    ok = False
        try:
            c_tilde_matrix(d)   # verifies its own defining identities
        except ArithmeticError:
            ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    _report(6, ok, "unitriangularity, exact inverse, classical tableau "
            f"counts, and coefficient-matrix identity, weights <= 6, "
            f"in {elapsed:.1f}s")


def test_criterion_07_supersymmetric_identification():
    rng = random.Random(107)
    q_pool = [F(1, 4), F(1, 3), F(2, 5), F(3, 7), F(5, 9),
              F(1, 6), F(2, 7), F(4, 9), F(1, 8), F(5, 11)]
    shapes = [lam for d in range(7) for lam in partitions_of(d)]
    ok = True
    for trial in range(10):
        ys = _sample(rng, 3)
        q = q_pool[trial]
        big = q_coeff_list(ys, q, 6)
        hook = h_from_times(supersymmetric_times(ys, [-q * y for y in ys], 6),
                            6)
        twisted = h_from_times(twist(from_points(ys, 6), q), 6)
        for lam in shapes:
            if not (jacobi_trudi(big, lam) == jacobi_trudi(hook, lam)
                    == jacobi_trudi(twisted, lam)):
                ok = False
    _report(7, ok, "deformed Schur = hook Schur on (y, -Qy) = Schur in "
            "twisted times, all |lam| <= 6, 10 random (y, Q)")


def test_criterion_08_giambelli():
    rng = random.Random(108)
    shapes = [lam for d in range(9) for lam in partitions_of(d)]
    ok = True
    for _ in range(20):
        ys = _sample(rng, 3)
        if not giambelli_check(ys, shapes):
            ok = False
    _report(8, ok, "hook-minor determinant identity for all |lam| <= 8 "
            "on 20 random point sets")


def test_criterion_09_matrix_integral():
    rng = random.Random(109)
    t0 = time.monotonic()
    ok = True
    den = [2, 3, 5, 7, 4, 9]
    t = [F(rng.choice((-1, 1)), den[k]) for k in range(6)]
    tp = [F(rng.choice((-1, 1)), den[5 - k]) for k in range(6)]
    for n in (1, 2):
        target = schur_pair_sum_miwa(n, t, tp, 6)
        plus = matrix_integral_constant_term(n, t, tp, 6,
                                             sign_convention="plus")
        minus = matrix_integral_constant_term(n, t, tp, 6,
                                              sign_convention="minus")
        # exactly one sign convention reproduces the Schur pair sum;
        # the matching one is recorded as "plus"
        if not (plus == target and minus != target):
            ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    _report(9, ok, "constant term = row-bounded Schur pair sum at cutoff 6 "
            f"(N=1,2) under the recorded convention only, in {elapsed:.1f}s")


def test_criterion_10_bethe_solver():
    ok = True
    for m in range(0, 7):
        for k in range(m + 1):
            br = solve_phase(1, m, [k])
            expect = cmath.exp(2j * math.pi * k / (m + 1))
            if abs(br.roots[0] - expect) > 1e-12:
                ok = False
    worst = 0.0
    for n in range(1, 4):
        for m in range(0, 7):
            br = solve_phase(n, m, list(range(n)))
            worst = max(worst, br.residual)
    ok = ok and worst < 1e-10
    state = solve_phase(2, 4, [0, 1])
    q = 0.0
    while q < 0.3 - 1e-12:
        q = min(0.3, q + 0.05)
        state = solve_qboson(2, 4, q, state)
        if state.residual >= 1e-10:
            ok = False
        if residual(4, q, state.roots) >= 1e-10:
            ok = False
    _report(10, ok, "N=1 roots exact to 1e-12; residuals < 1e-10 for "
            f"N<=3, M<=6 (worst {worst:.1e}); continuation to Q=0.3 holds")


def test_criterion_11_vandermonde_scaling():
    rng = random.Random(111)
    ok = True
    for n in range(1, 5):
        for q in (F(1, 3), F(2, 7), F(5, 4)):
            ys = _sample(rng, n)
            if (vandermonde([q * y for y in ys])
                    != q ** (n * (n - 1) // 2) * vandermonde(ys)):
                ok = False
    _report(11, ok, "Delta(Qy) = Q^(N(N-1)/2) Delta(y) exactly, N <= 4")


def test_criterion_12_report_determinism():
    ok = True
    for name in sorted(SUITES):
        cfg = SuiteConfig(suite=name, seed=42, trials=2)
        first = emit_report(run_suite(cfg), fmt="json")
        second = emit_report(run_suite(cfg), fmt="json")
        if first != second:
            ok = False
        parsed = json.loads(first)
        if not parsed["all_pass"]:
            ok = False
    _report(12, ok, "fixed seed gives byte-identical JSON reports for all "
            "registered suites (and every suite passes)")
