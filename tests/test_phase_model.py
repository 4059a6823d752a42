"""Scalar products, one-point functions, skew expansions, matrix integrals."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtau.miwa import from_points
from qtau.partitions import partitions_of
from qtau.phase_model import (BoxSpec, correlation_Am,
                              correlation_Am_power_column, correlation_skew,
                              factorization_report, giambelli_check,
                              matrix_integral_constant_term, scalar_product,
                              schur_pair_sum_miwa)
from symfunc_reference import schur_value


def test_scalar_product_small():
    assert scalar_product([], [], BoxSpec(0, 3)) == 1
    a, b = F(1, 2), F(1, 5)
    box = BoxSpec(1, 3)
    expect = sum((a * b) ** k for k in range(4))
    assert scalar_product([a], [b], box, mode="det") == expect
    assert scalar_product([a], [b], box, mode="schur_sum") == expect


def test_scalar_product_pinned():
    # frozen cross-check value, confirmed independently by the Fock route
    box = BoxSpec(2, 2)
    xs, ys = [F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]
    assert scalar_product(xs, ys, box, mode="det") == F(29521, 22050)
    assert scalar_product(xs, ys, box, mode="schur_sum") == F(29521, 22050)


def test_scalar_product_repeated_points():
    box = BoxSpec(2, 2)
    xs = [F(1, 2), F(1, 2)]
    ys = [F(1, 5), F(1, 7)]
    value = scalar_product(xs, ys, box, mode="schur_sum")
    assert value == sum(
        schur_value(mu, xs) * schur_value(mu, ys) for mu in box.partitions())
    # the divided-difference determinant is defined at coincident points
    assert value == F(27817, 19600)
    assert scalar_product(xs, ys, box, mode="det") == value
    assert scalar_product(ys, xs, box, mode="det") == value


def test_correlation_pinned_values():
    # frozen from the occupation-basis computation at x=(2,3), y=(5)
    box = BoxSpec(2, 3)
    xs, ys = [F(2), F(3)], [F(5)]
    expected = [F(8626), F(16755), F(26744), F(32135)]
    for site in range(4):
        assert correlation_Am(xs, ys, site, box, mode="det") == expected[site]
        assert (correlation_Am(xs, ys, site, box, mode="skew_sum")
                == expected[site])


def test_correlation_det_on_odd_parity_cells():
    # M+N-1 odd: the Cauchy-Binet determinant needs no parity condition
    from qtau import fock_oracle as oracle
    for n, m in ((2, 2), (3, 3)):
        box = BoxSpec(n, m)
        xs = [F(1, 2), F(2, 3), F(1, 5)][:n]
        for ys in ([F(1, 3), F(3, 4)][:n - 1], [F(-1, 3), F(-3, 4)][:n - 1]):
            for site in range(m + 1):
                det = correlation_Am(xs, ys, site, box, mode="det")
                assert det == correlation_Am(xs, ys, site, box,
                                             mode="skew_sum")
                assert det == oracle.oracle_pairing("phase", box, xs, ys,
                                                    insertion=site)


def test_correlation_empty_y():
    # one particle created over the vacuum: only mu = (m) survives
    box = BoxSpec(1, 3)
    a = F(2, 7)
    for site in range(4):
        assert correlation_Am([a], [], site, box, mode="skew_sum") == a ** site


def test_correlation_site_zero_is_skewless_sum():
    box = BoxSpec(2, 3)
    xs, ys = [F(1, 2), F(1, 3)], [F(1, 5)]
    expect = sum(
        schur_value(mu, ys) * schur_value(mu, xs) for mu in box.partitions())
    assert correlation_Am(xs, ys, 0, box, mode="skew_sum") == expect


def test_power_column_variant():
    box = BoxSpec(2, 3)
    xs, ys = [F(2), F(3)], [F(5)]
    # the exponent (M+N-1-2m)/2 goes negative past m=(M+N-1)/2
    with pytest.raises(ValueError):
        correlation_Am_power_column(xs, ys, 3, box)
    # at a pinned point the variant is a different quantity (kept as a
    # measured exhibit, not an equivalent route)
    assert (correlation_Am_power_column(xs, ys, 0, box)
            != correlation_Am(xs, ys, 0, box, mode="det"))


def test_correlation_skew():
    box = BoxSpec(2, 3)
    xs, ys = [F(1, 2), F(1, 3)], [F(1, 5), F(2, 7)]
    assert (correlation_skew((), (), xs, ys, box)
            == scalar_product(xs, ys, box, mode="schur_sum"))
    # containment vanishing: a first shape sticking out of the box
    assert correlation_skew((4,), (), xs, ys, box) == 0
    manual = sum(
        schur_value(mu, xs, (1,)) * schur_value(mu, ys, (2,))
        for mu in box.partitions())
    assert correlation_skew((1,), (2,), xs, ys, box) == manual


def test_factorization_report_flags():
    # measured finite-size behavior: the product form only holds for the
    # trivial pair of shapes at desk scale
    box = BoxSpec(2, 3)
    xs, ys = [F(1, 2), F(1, 3)], [F(1, 5), F(2, 7)]
    assert factorization_report((), (), xs, ys, box)["equal"] is True
    assert factorization_report((1,), (2,), xs, ys, box)["equal"] is False
    assert factorization_report((2, 1), (1, 1), xs, ys, box)["equal"] is False


def test_giambelli():
    ys = [F(1, 2), F(1, 3), F(2, 5)]
    assert giambelli_check(ys, [(1,), (3, 1), (2, 2), (3, 3, 1)])


def test_matrix_integral():
    t = [F(1, 2), F(-1, 3), F(1, 5), F(1, 7)]
    tp = [F(1, 3), F(1, 4), F(-1, 2), F(1, 9)]
    for n in (1, 2):
        target = schur_pair_sum_miwa(n, t, tp, 4)
        assert matrix_integral_constant_term(
            n, t, tp, 4, sign_convention="plus") == target
        assert matrix_integral_constant_term(
            n, t, tp, 4, sign_convention="minus") != target
    assert matrix_integral_constant_term(1, [], [], 3) == 1


TIMES = st.lists(st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-2, 3),
                                  F(3, 7), F(-5, 4)]), max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), TIMES, TIMES, st.integers(0, 6))
def test_matrix_integral_is_row_bounded_schur_sum(n, t, tp, cutoff):
    # one constant-term formula for every n, under both conventions; the
    # minus convention is the plus one at -t'
    assert (matrix_integral_constant_term(n, t, tp, cutoff)
            == schur_pair_sum_miwa(n, t, tp, cutoff))
    assert (matrix_integral_constant_term(n, t, tp, cutoff, "minus")
            == schur_pair_sum_miwa(n, t, [-v for v in tp], cutoff))


@pytest.mark.parametrize("route", [schur_pair_sum_miwa,
                                   matrix_integral_constant_term])
def test_tau_routes_refuse_negative_n(route):
    t, tp = [F(1, 2), F(-1, 3)], [F(1, 5)]
    with pytest.raises(ValueError):
        route(-1, t, tp, 3)
    with pytest.raises(ValueError):
        route(1, t, tp, -1)


def test_schur_pair_sum_definition():
    # row-bounded diagonal sum in Miwa variables matches point evaluation
    pts_x, pts_y = [F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]
    cutoff = 4
    t = from_points(pts_x, cutoff)
    tp = from_points(pts_y, cutoff)
    expect = sum(
        schur_value(lam, pts_x) * schur_value(lam, pts_y)
        for d in range(cutoff + 1) for lam in partitions_of(d)
        if len(lam) <= 2)
    assert schur_pair_sum_miwa(2, t, tp, cutoff) == expect
