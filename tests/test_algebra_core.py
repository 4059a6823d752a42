"""Exact scalars, deformation polynomials, truncated series, ring linalg."""

from fractions import Fraction as F

import pytest

from qtau.algebra_core import (QPoly, TruncatedSeries, det_rational,
                               format_rational, h_from_times, jacobi_trudi,
                               jacobi_trudi_box, mat_mul_ring, maximal_minors,
                               parse_rational, power_series_div)
from qtau.miwa import from_points


def test_parse_format_round_trip():
    assert parse_rational("3/7") == F(3, 7)
    assert parse_rational("-2") == F(-2)
    assert format_rational(F(3, 7)) == "3/7"
    assert format_rational(F(4)) == "4"
    assert parse_rational(format_rational(F(-22, 7))) == F(-22, 7)


def test_qpoly_eval_examples():
    one_minus = QPoly([1, -1])          # 1 - Q
    assert one_minus(F(0)) == 1
    assert one_minus(-1) == 2
    assert QPoly.gen()(F(1, 3)) == F(1, 3)
    p = QPoly([1, -1]) * QPoly([1, 0, -1])   # (1-Q)(1-Q^2)
    assert p(F(1, 2)) == F(3, 8)


def test_qpoly_arithmetic():
    q = QPoly.gen()
    assert (1 - q) * (1 + q) == 1 - q * q
    assert (q - q).is_zero()
    assert QPoly([0, 1, 2]).coefficient(2) == 2
    assert QPoly([0, 1, 2]).coefficient(9) == 0
    assert hash(QPoly([1])) == hash(QPoly.one())
    assert QPoly([5]) == 5


def test_series_product_examples():
    names = ("x",)
    one = TruncatedSeries.one(names, 2)
    x = TruncatedSeries(names, 2, {(1,): 1})
    assert (one + x) * (one - x) == one - x * x
    # cutoff 1 drops the quadratic term
    one1 = TruncatedSeries.one(names, 1)
    x1 = TruncatedSeries(names, 1, {(1,): 1})
    sq = (one1 + x1) * (one1 + x1)
    assert sq == one1 + x1 + x1

    # geometric series 1/(1 - z/2): multiplying back gives 1
    z = TruncatedSeries(("z",), 3, {(1,): 1})
    geo = TruncatedSeries.one(("z",), 3)
    zpow = TruncatedSeries.one(("z",), 3)
    for k in range(1, 4):
        zpow = zpow * z
        geo = geo + zpow.scale(F(1, 2) ** k)
    assert geo.terms[(3,)] == F(1, 8)
    assert ((TruncatedSeries.one(("z",), 3) - z.scale(F(1, 2))) * geo
            == TruncatedSeries.one(("z",), 3))


def test_series_mismatched_variables():
    a = TruncatedSeries.one(("x",), 2)
    b = TruncatedSeries.one(("y",), 2)
    with pytest.raises(ValueError):
        a * b


def test_h_from_times_matches_points():
    from qtau.symfunc import homogeneous_list
    # exp(z) = 1 + z + z^2/2 + z^3/6
    assert h_from_times([F(1), F(0), F(0)], 3) == [1, 1, F(1, 2), F(1, 6)]
    assert h_from_times([], 2) == [1, 0, 0]
    pts = [F(1, 2), F(1, 3), F(2, 5)]
    times = from_points(pts, 5)
    assert h_from_times(times, 5) == homogeneous_list(pts, 5)


def test_det_rational():
    assert det_rational([[F(1), F(2)], [F(3), F(4)]]) == -2
    assert det_rational([[F(5)]]) == 5
    assert det_rational([]) == 1


def test_jacobi_trudi():
    from qtau.symfunc import homogeneous_list
    a, b = F(1, 2), F(1, 3)
    hs = homogeneous_list([a, b], 4)
    assert jacobi_trudi(hs, ()) == 1
    assert jacobi_trudi(hs, (2, 1)) == a * b * (a + b)
    assert jacobi_trudi(hs, (1, 1, 1)) == 0
    assert jacobi_trudi(hs, (2, 1), (1,)) == (a + b) ** 2
    # zero unless mu is contained in lam, also when mu has more rows
    assert jacobi_trudi(hs, (1,), (2,)) == 0
    assert jacobi_trudi(hs, (1,), (1, 1)) == 0


def test_maximal_minors():
    rows = [[F(1), F(2), F(0)], [F(3), F(4), F(1)]]
    assert maximal_minors(rows) == {(0, 1): -2, (0, 2): 1, (1, 2): 2}
    square = [[F(1), F(2), F(0)], [F(3), F(4), F(1)], [F(0), F(1), F(2)]]
    assert maximal_minors(square) == {(0, 1, 2): det_rational(square)}
    assert maximal_minors([]) == {(): 1}
    assert maximal_minors([[F(1)], [F(2)]]) == {}


def test_jacobi_trudi_box():
    a, b = F(1, 2), F(1, 3)
    hs = [F(1), a + b, a * a + a * b + b * b,
          a ** 3 + a * a * b + a * b * b + b ** 3]
    table = jacobi_trudi_box(hs, 2, 1)
    assert table == {(): 1, (1,): a + b, (1, 1): a * b}
    assert jacobi_trudi_box(hs, 2, 1, (1,)) == {(): 0, (1,): 1, (1, 1): a + b}
    assert jacobi_trudi_box(hs, 1, 2, (1, 1)) == {(): 0, (1,): 0, (2,): 0}


def test_power_series_div():
    # 1 / (1 - z) = 1 + z + z^2 + ...
    quot = power_series_div([F(1)], [F(1), F(-1)], 4)
    assert quot == [F(1)] * 5
    with pytest.raises(ZeroDivisionError):
        power_series_div([F(1)], [F(0), F(1)], 2)


def test_mat_mul_ring():
    a = [[QPoly.one(), QPoly.gen()], [QPoly.zero(), QPoly.one()]]
    b = [[QPoly.one(), -QPoly.gen()], [QPoly.zero(), QPoly.one()]]
    prod = mat_mul_ring(a, b)
    assert prod[0][0] == 1 and prod[0][1].is_zero()
    assert prod[1][0].is_zero() and prod[1][1] == 1
