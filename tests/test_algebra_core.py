"""Exact scalars, deformation polynomials, truncated series, ring linalg."""

from fractions import Fraction as F
from itertools import combinations

import pytest

from qtau.algebra_core import (QPoly, TruncatedSeries, box_minors,
                               det_rational, format_rational, h_from_times,
                               jacobi_trudi, mat_mul_ring, parse_rational,
                               power_series_div)
from qtau.miwa import from_points
from qtau.symfunc import q_coeff_list


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


@pytest.mark.parametrize("make, name", [
    (lambda: QPoly([0.5, 1]), "float"),
    (lambda: QPoly([1, 1.0]), "float"),
    (lambda: QPoly(["1/2"]), "str"),
    (lambda: QPoly([F(1, 2)]), "Fraction"),
    (lambda: QPoly.one() + 0.25, "float"),
    (lambda: QPoly([1, -1])(0.5), "float"),
    (lambda: QPoly([1, -1])(1.0), "float"),
    (lambda: QPoly([1, -1])("1/2"), "str"),
], ids=["float-coefficient", "integral-float-coefficient", "str-coefficient",
        "fraction-coefficient", "float-constant", "eval-at-float",
        "eval-at-integral-float", "eval-at-str"])
def test_qpoly_takes_only_ints_and_fractions(make, name):
    # a polynomial in Z[Q] stores only ints, evaluates at ints and
    # Fractions, never at a binary float, and the error names the type
    # it was given
    with pytest.raises(TypeError, match=name):
        make()


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


@pytest.mark.parametrize("operation", [
    lambda s: s + 1,
    lambda s: s - 1,
    lambda s: s + F(1, 2),
    lambda s: s * 1.5,
    lambda s: 1.5 * s,
    lambda s: s * "2",
    lambda s: s.scale(0.1),
    lambda s: s.scale(1.0),
], ids=["add-int", "sub-int", "add-fraction", "mul-float", "rmul-float",
        "mul-str", "scale-float", "scale-integral-float"])
def test_series_reject_non_series_operands_and_inexact_scalars(operation):
    # + and - take a series; * and scale take an int, a Fraction or (for
    # *) a series, so no binary float slips into an exact coefficient
    x = TruncatedSeries(("x",), 2, {(1,): 1})
    with pytest.raises(TypeError):
        operation(x)


def test_h_from_times_matches_points():
    # exp(z) = 1 + z + z^2/2 + z^3/6
    assert h_from_times([F(1), F(0), F(0)], 3) == [1, 1, F(1, 2), F(1, 6)]
    assert h_from_times([], 2) == [1, 0, 0]
    pts = [F(1, 2), F(1, 3), F(2, 5)]
    times = from_points(pts, 5)
    assert h_from_times(times, 5) == q_coeff_list(pts, 0, 5)


def test_det_rational():
    assert det_rational([[F(1), F(2)], [F(3), F(4)]]) == -2
    assert det_rational([[F(5)]]) == 5
    assert det_rational([]) == 1


def test_jacobi_trudi():
    a, b = F(1, 2), F(1, 3)
    hs = q_coeff_list([a, b], 0, 4)
    assert jacobi_trudi(hs, ()) == 1
    assert jacobi_trudi(hs, (2, 1)) == a * b * (a + b)
    assert jacobi_trudi(hs, (1, 1, 1)) == 0
    assert jacobi_trudi(hs, (2, 1), (1,)) == (a + b) ** 2
    # zero unless mu is contained in lam, also when mu has more rows
    assert jacobi_trudi(hs, (1,), (2,)) == 0
    assert jacobi_trudi(hs, (1,), (1, 1)) == 0


def test_box_minors():
    a, b = F(1, 2), F(1, 3)
    hs = [F(1), a + b, a * a + a * b + b * b,
          a ** 3 + a * a * b + a * b * b + b ** 3]

    def table(*shape):
        minors, scale = box_minors(hs, 1, *shape)
        return {lam: F(v, scale) for lam, v in minors.items()}

    assert table(2, 1) == {(): 1, (1,): a + b, (1, 1): a * b}
    assert table(2, 1, (1,)) == {(): 0, (1,): 1, (1, 1): a + b}
    assert table(1, 2, (1, 1)) == {(): 0, (1,): 0, (2,): 0}
    # int generators: h_k(1/2, 1/3) = [1, 5, 19, 65][k] / 6^k
    assert box_minors([1, 5, 19, 65], 6, 2, 1) == (
        {(): 216, (1,): 180, (1, 1): 36}, 216)


def _column_order(n, m):
    """The box partitions in the combinations order of their columns
    lam_{n-1-k} + k, the order box_minors lists them in."""
    return [tuple(cols[k] - k for k in reversed(range(n)) if cols[k] > k)
            for cols in combinations(range(n + m), n)]


def test_box_minors_key_order():
    hs = [1, 5, 19, 65, 211, 665]
    assert list(box_minors(hs, 6, 2, 2)[0]) == [
        (), (1,), (2,), (1, 1), (2, 1), (2, 2)]
    for n, m in [(0, 0), (0, 3), (1, 4), (3, 2), (2, 3), (4, 1)]:
        for mu in ((), (1,), (2, 1), (1,) * (n + 1)):
            table, scale = box_minors(hs, 6, n, m, mu)
            assert list(table) == _column_order(n, m)
    # n = 0: the one empty minor, or zero for any nonempty mu
    assert box_minors([1], 6, 0, 0) == ({(): 1}, 1)
    assert box_minors([1, 5, 19], 6, 0, 3, (1,)) == ({(): 0}, 1)
    # mu longer than n: every value is 0 over scale 1
    assert box_minors(hs, 6, 2, 2, (1, 1, 1)) == (
        dict.fromkeys(_column_order(2, 2), 0), 1)


def test_box_minors_rejects_a_zero_denominator():
    # c_k = gens[k] / 0^k is undefined; the table would read 0 / 0
    with pytest.raises(ValueError, match="denominator"):
        box_minors([1, 5, 19, 65], 0, 2, 1)


def test_box_minors_rejects_a_short_generator_list():
    with pytest.raises(ValueError, match=r"c_0\.\.c_3"):
        box_minors([1, 5, 19], 6, 2, 2)
    with pytest.raises(ValueError, match=r"c_0\.\.c_0"):
        box_minors([], 1, 0, 0)


def test_box_minors_rejects_a_negative_part_in_mu():
    # row mu_j + n-1-j would start left of column 0 and read past c_{n+m-1}
    with pytest.raises(ValueError, match="negative part"):
        box_minors([1, 2, 3], 1, 1, 2, (-1,))
    with pytest.raises(ValueError, match="negative part"):
        box_minors([1, 2, 3, 4], 1, 2, 2, (1, -1))


def test_box_minors_rejects_a_mu_that_is_not_weakly_decreasing():
    # dropping the zero part of (0, 1) would read mu = (1,): the table
    # was s_{lam/(1)}, while jacobi_trudi at mu = (0, 1) is 0 for every lam
    hs = [1, 5, 19, 65, 211]
    assert all(jacobi_trudi(hs, lam, (0, 1)) == 0
               for lam in _column_order(2, 2))
    with pytest.raises(ValueError, match="weakly decreasing"):
        box_minors(hs, 6, 2, 2, (0, 1))
    with pytest.raises(ValueError, match="weakly decreasing"):
        box_minors(hs, 6, 2, 2, (1, 2))
    # trailing zero parts are a partition still
    assert box_minors(hs, 6, 2, 2, (1, 0)) == box_minors(hs, 6, 2, 2, (1,))


def test_jacobi_trudi_rejects_a_negative_part_in_mu():
    # det(c_{lam_i - mu_j - i + j}) at a negative mu_j is no skew Schur
    # value: these read c_2 = 3 and 2 before mu went through the gate
    with pytest.raises(ValueError, match="negative part"):
        jacobi_trudi([1, 2, 3], (1,), (-1,))
    with pytest.raises(ValueError, match="negative part"):
        jacobi_trudi([1, 2, 3, 4], (1, 1), (0, -1))


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


@pytest.mark.parametrize("b", [
    [[QPoly([2])], [QPoly([3]), QPoly([1])]],
    [[QPoly([2]), QPoly([1])], [QPoly([3])]],
    [[QPoly([2]), QPoly([1])], [QPoly([3]), QPoly([4])], [QPoly([5])]],
], ids=["second-row-long", "second-row-short", "three-rows"])
def test_mat_mul_ring_rejects_a_ragged_or_mismatched_right_matrix(b):
    a = [[QPoly.one(), QPoly.one()]]
    with pytest.raises(ValueError, match="inner dimensions do not match"):
        mat_mul_ring(a, b)
