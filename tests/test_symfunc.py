"""Symmetric-function evaluations and deformation tables."""

from fractions import Fraction as F

from qtau.algebra_core import QPoly, h_from_times, jacobi_trudi
from qtau.partitions import partitions_of
from qtau.suites import _ssyt_count
from qtau.symfunc import (cauchy_kernel_series, hall_littlewood_evaluator,
                          hl_series, homogeneous_list, kostka_tables,
                          kostka_tables_json, q_coeff_list,
                          supersymmetric_times, vandermonde, xy_names)
from symfunc_reference import monomial_eval, schur_bialternant, schur_value


def test_schur_eval():
    xs = [F(1, 2), F(1, 3)]
    assert schur_value((), xs) == 1
    assert schur_value((2, 1), xs) == xs[0] * xs[1] * (xs[0] + xs[1])
    assert schur_value((1, 1, 1), xs) == 0
    # the bialternant reference agrees for all |lam| <= 5, including
    # shapes with more rows than points, where both give zero
    ys = [F(2, 3), F(1, 5), F(3, 4)]
    for d in range(1, 6):
        for lam in partitions_of(d):
            assert schur_bialternant(lam, ys) == schur_value(lam, ys)


def test_skew_schur_eval():
    xs = [F(1, 2), F(2, 3)]
    assert schur_value((1,), xs, (1,)) == 1
    assert schur_value((1,), xs, (2,)) == 0
    # two skew cells in different rows and columns: value is h_1^2
    a, b = xs
    assert schur_value((2, 1), xs, (1,)) == (a + b) ** 2
    # branching: s_lam(x ∪ y) = sum_mu s_mu(x) s_lam/mu(y)
    lam = (3, 2)
    left, right = [F(1, 2)], [F(1, 3), F(1, 5)]
    total = sum(
        schur_value(mu, left) * schur_value(lam, right, mu)
        for d in range(6) for mu in partitions_of(d))
    assert total == schur_value(lam, left + right)


def test_monomial_eval():
    xs = [F(2), F(3)]
    assert monomial_eval((1,), xs) == 5
    assert monomial_eval((2, 1), xs) == 4 * 3 + 9 * 2
    assert monomial_eval((1, 1, 1), xs) == 0


def test_hall_littlewood_eval():
    a, b = F(1, 2), F(1, 3)
    p = hall_littlewood_evaluator([a, b], F(1, 4))
    assert p((1,)) == a + b
    assert p((1, 1)) == a * b
    assert (hall_littlewood_evaluator([a, b], F(0))((2,))
            == a * a + a * b + b * b)
    # Q = 0 reduces to Schur for all |lam| <= 4
    ys = [F(2, 5), F(1, 7), F(1, 2)]
    p = hall_littlewood_evaluator(ys, F(0))
    for d in range(5):
        for lam in partitions_of(d):
            assert p(lam) == schur_value(lam, ys)


def test_hall_littlewood_eval_at_q_minus_one():
    # v_(2)(-1) = 0 for three variables, so the symmetrization formula
    # divides by zero here; P_(2)(x; -1) = m_2 + 2 m_11 = (x1+x2+x3)^2
    xs = [F(1, 2), F(1, 3), F(1, 5)]
    assert hall_littlewood_evaluator(xs, -1)((2,)) == F(961, 900)


def test_kostka_tables():
    q = QPoly.gen()
    t2 = kostka_tables(2)
    i, j = t2.order.index((2,)), t2.order.index((1, 1))
    assert t2.K[i][j] == q
    assert t2.K[j][i].is_zero()
    for d in range(7):
        tables = kostka_tables(d)
        size = len(tables.order)
        for r in range(size):
            assert tables.K[r][r] == 1
            for c in range(size):
                acc = QPoly.zero()
                for k in range(size):
                    acc = acc + tables.K[r][k] * tables.K_inv[k][c]
                assert acc == (1 if r == c else 0)


def test_kostka_classical_specialization():
    # Q = 1 must reproduce the tableau count, checked brute force
    for d in range(6):
        tables = kostka_tables(d)
        for i, lam in enumerate(tables.order):
            for j, mu in enumerate(tables.order):
                assert tables.K[i][j](F(1)) == _ssyt_count(lam, mu)
    assert _ssyt_count((2, 1), (1, 1, 1)) == 2


def test_kostka_tables_json():
    data = kostka_tables_json(kostka_tables(2))
    assert data["weight"] == 2
    assert data["order"] == [[2], [1, 1]]
    assert data["K"][0][1] == ["0", "1"]


def test_q_coeff_list():
    a = F(2, 3)
    q = F(1, 5)
    assert q_coeff_list([a], q, 1) == [1, (1 - q) * a]
    xs = [F(1, 2), F(1, 7)]
    for m in range(4):
        assert q_coeff_list(xs, F(0), m) == homogeneous_list(xs, m)


def test_big_schur_eval():
    a, b = F(1, 3), F(2, 5)
    q = F(1, 4)
    assert jacobi_trudi(q_coeff_list([a, b], q, 0), ()) == 1
    assert jacobi_trudi(q_coeff_list([a, b], q, 1), (1,)) == (1 - q) * (a + b)
    assert jacobi_trudi(q_coeff_list([a], F(0), 2), (2,)) == a * a


def test_supersymmetric_schur_eval():
    alpha = [F(1, 2), F(1, 3)]
    beta = [F(1, 5)]
    hook = h_from_times(supersymmetric_times(alpha, beta, 1), 1)
    assert jacobi_trudi(hook, (1,)) == sum(alpha) + sum(beta)
    hs = h_from_times(supersymmetric_times(alpha, [], 3), 3)
    for lam in ((2,), (1, 1), (2, 1)):
        assert jacobi_trudi(hs, lam) == schur_value(lam, alpha)


def test_vandermonde_scaling():
    ys = [F(1, 2), F(1, 3), F(2, 5), F(3, 7)]
    q = F(2, 9)
    for n in range(1, 5):
        pts = ys[:n]
        assert (vandermonde([q * y for y in pts])
                == q ** (n * (n - 1) // 2) * vandermonde(pts))


def test_series_match_point_evaluation():
    # classical Cauchy kernel through degree 4 equals the Schur pair sum;
    # P_lam(x; 0) = s_lam(x), so the Schur series are HL series at Q = 0
    names = xy_names(2, 2)
    cutoff = 4
    kernel = cauchy_kernel_series(2, 2, cutoff)
    from qtau.algebra_core import TruncatedSeries
    acc = TruncatedSeries.zero(names, cutoff)
    for d in range(cutoff + 1):
        for lam in partitions_of(d):
            if len(lam) > 2:
                continue
            sx = hl_series(lam, names, cutoff, 0, positions=(0, 1))
            sy = hl_series(lam, names, cutoff, 0, positions=(2, 3))
            acc = acc + sx * sy
    assert kernel.agrees_through(acc, cutoff)


def test_hl_series_consistency():
    # series coefficients of P_lam match the evaluator's structure:
    # evaluate the series formally against the monomial expansion
    q = F(1, 3)
    names = ("x1", "x2")
    s = hl_series((2,), names, 3, q)
    # P_(2)(x; Q) = m_(2) + (1-Q) m_(11)
    assert s.terms[(2, 0)] == 1
    assert s.terms[(1, 1)] == 1 - q
    assert homogeneous_list([F(1, 2)], 2)[2] == F(1, 4)
