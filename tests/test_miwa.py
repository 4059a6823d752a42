"""Miwa time coordinates and Schur evaluation in times."""

from fractions import Fraction as F

import pytest

from qtau.algebra_core import h_from_times, jacobi_trudi
from qtau.miwa import from_points, twist
from qtau.partitions import partitions_of
from qtau.symfunc import schur_eval


def test_from_points():
    assert from_points([], 3) == (0, 0, 0)
    assert from_points([F(1)], 3) == (1, F(1, 2), F(1, 3))
    a = F(2, 7)
    assert from_points([a, -a], 2) == (0, a * a)


def test_twist():
    t = from_points([F(1, 2), F(1, 3)], 4)
    assert twist(t, F(0)) == t
    assert twist(t, F(1)) == (0, 0, 0, 0)
    a = F(3, 5)
    q = F(1, 4)
    assert twist(from_points([a], 1), q) == ((1 - q) * a,)
    assert twist([1, 2], 2) == (-1, -6)


def test_schur_in_miwa():
    def schur(lam, t):
        return jacobi_trudi(h_from_times(t, len(t)), lam)

    assert schur((), (0,)) == 1
    assert schur((1,), (F(5, 7), F(0), F(0))) == F(5, 7)
    a, b = F(1, 2), F(1, 3)
    assert schur((2, 1), from_points([a, b], 3)) == a * b * (a + b)
    # matches the point evaluation for every shape of weight <= 4
    pts = [F(2, 3), F(1, 5)]
    for d in range(5):
        for lam in partitions_of(d):
            assert (schur(lam, from_points(pts, max(1, d)))
                    == schur_eval(lam, pts))
    # generators built at the tuple's own length refuse a longer shape
    with pytest.raises(IndexError):
        schur((3,), from_points(pts, 2))
