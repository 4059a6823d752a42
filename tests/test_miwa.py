"""Miwa time coordinates and Schur evaluation in times."""

from fractions import Fraction as F

import pytest

from qtau.miwa import MiwaCoords, from_points, schur_in_miwa, twist
from qtau.symfunc import schur_eval


def test_from_points():
    assert from_points([], 3) == MiwaCoords((0, 0, 0))
    assert from_points([F(1)], 3).values == (1, F(1, 2), F(1, 3))
    a = F(2, 7)
    assert from_points([a, -a], 2).values == (0, a * a)


def test_twist():
    t = from_points([F(1, 2), F(1, 3)], 4)
    assert twist(t, F(0)) == t
    assert twist(t, F(1)) == MiwaCoords((0, 0, 0, 0))
    a = F(3, 5)
    q = F(1, 4)
    assert twist(from_points([a], 1), q).time(1) == (1 - q) * a


def test_coords_arithmetic():
    t = MiwaCoords((F(1), F(2)))
    s = MiwaCoords((F(3), F(4)))
    assert (t + s).values == (4, 6)
    assert (s - t).values == (2, 2)
    assert t.time(2) == 2 and t.time(5) == 0
    with pytest.raises(ValueError):
        t.time(0)


def test_schur_in_miwa():
    assert schur_in_miwa((), MiwaCoords((0,))) == 1
    t = MiwaCoords((F(5, 7), F(0), F(0)))
    assert schur_in_miwa((1,), t) == F(5, 7)
    a, b = F(1, 2), F(1, 3)
    t = from_points([a, b], 3)
    assert schur_in_miwa((2, 1), t) == a * b * (a + b)
    # matches the point evaluation for every shape of weight <= 4
    from qtau.partitions import partitions_of
    pts = [F(2, 3), F(1, 5)]
    for d in range(5):
        for lam in partitions_of(d):
            assert (schur_in_miwa(lam, from_points(pts, max(1, d)))
                    == schur_eval(lam, pts))
