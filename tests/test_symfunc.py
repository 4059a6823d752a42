"""Symmetric-function evaluations and deformation tables."""

from fractions import Fraction as F

import pytest

from qtau.algebra_core import QPoly, TruncatedSeries, h_from_times, jacobi_trudi
from qtau.partitions import partitions_of
from qtau.suites import _ssyt_count
from qtau.symfunc import (_strips, cauchy_kernel_series, hall_littlewood_ints,
                          hl_series, kostka_tables, kostka_tables_json,
                          q_coeff_list,
                          supersymmetric_times, vandermonde, xy_names)
from symfunc_reference import (cauchy_kernel_two_factor, monomial_eval,
                               schur_bialternant, schur_value)

KERNEL_QS = (0, 1, -1, 2, F(-3, 7), F(1, 4))


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
    # P_lam(x; Q) = V(lam) / (L^{|lam|} B): L = 6 and B = 4 at Q = 1/4
    a, b = F(1, 2), F(1, 3)
    V, L, B = hall_littlewood_ints([a, b], F(1, 4))
    assert (L, B) == (6, 4)
    assert V((1,)) == (a + b) * L * B
    assert V((1, 1)) == a * b * L ** 2 * B
    V, L, B = hall_littlewood_ints([a, b], F(0))
    assert B == 1 and V((2,)) == (a * a + a * b + b * b) * L ** 2
    # Q = 0 reduces to Schur for all |lam| <= 4
    ys = [F(2, 5), F(1, 7), F(1, 2)]
    V, L, B = hall_littlewood_ints(ys, F(0))
    for d in range(5):
        for lam in partitions_of(d):
            assert F(V(lam), L ** d * B) == schur_value(lam, ys)


def test_hall_littlewood_eval_at_q_minus_one():
    # v_(2)(-1) = 0 for three variables, so the symmetrization formula
    # divides by zero here; P_(2)(x; -1) = m_2 + 2 m_11 = (x1+x2+x3)^2,
    # which is 961/900 over L^2 B = 30^2
    xs = [F(1, 2), F(1, 3), F(1, 5)]
    V, L, B = hall_littlewood_ints(xs, -1)
    assert (V((2,)), L, B) == (961, 30, 1)


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
    # at Q = 0 the coefficients are h_k of the points
    a, b = F(1, 2), F(1, 7)
    assert q_coeff_list([a, b], 0, 2) == [1, a + b, a * a + a * b + b * b]


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
    acc = TruncatedSeries.zero(names, cutoff)
    for d in range(cutoff + 1):
        for lam in partitions_of(d):
            if len(lam) > 2:
                continue
            sx = hl_series(lam, names, cutoff, 0, positions=(0, 1))
            sy = hl_series(lam, names, cutoff, 0, positions=(2, 3))
            acc = acc + sx * sy
    assert kernel.agrees_through(acc, cutoff)


@pytest.mark.parametrize("nx,ny", [(1, 3), (3, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("q", KERNEL_QS)
def test_cauchy_kernel_matches_the_two_factor_reference(nx, ny, q):
    # one factor 1 + (1 - Q)(u + u^2 + ...) per pair is the product of
    # 1/(1 - u) and 1 - Q u, through the cutoff; at Q = 1 it is 1
    kernel = cauchy_kernel_series(nx, ny, 6, q)
    assert kernel == cauchy_kernel_two_factor(nx, ny, 6, q)
    if q == 1:
        assert kernel == TruncatedSeries.one(xy_names(nx, ny), 6)


def test_cauchy_kernel_makes_one_product_per_pair(monkeypatch):
    calls = []
    product = TruncatedSeries.__mul__

    def counted(self, other):
        calls.append(other)
        return product(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    for n in (1, 2, 3):
        for cutoff in (0, 1, 4):
            for q in KERNEL_QS:
                calls.clear()
                cauchy_kernel_series(n, n, cutoff, q)
                assert len(calls) == n * n, (n, cutoff, q)


def test_hl_series_consistency():
    # series coefficients of P_lam match the evaluator's structure:
    # evaluate the series formally against the monomial expansion
    q = F(1, 3)
    names = ("x1", "x2")
    s = hl_series((2,), names, 3, q)
    # P_(2)(x; Q) = m_(2) + (1-Q) m_(11)
    assert s.terms[(2, 0)] == 1
    assert s.terms[(1, 1)] == 1 - q
    assert q_coeff_list([F(1, 2)], 0, 2)[2] == F(1, 4)


def test_strips_of_the_empty_shape():
    # the empty shape has one horizontal strip, ()/(), of size 0, psi = 1
    assert _strips(()) == (((), 0, ()),)
    assert _strips((1,)) == (((1,), 0, ()), ((), 1, ()))
