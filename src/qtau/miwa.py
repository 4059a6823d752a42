"""Generalized times (Miwa coordinates) of point sets, as plain tuples.

The times of a point set are t_n = (1/n) * sum_j x_j^n for n = 1..n_max,
returned as a tuple with t_1 first.  ``twist`` applies the deformation
T_n = (1 - Q^n) t_n used to move between the ordinary and deformed
expansions; a float point, time or Q is refused by ``algebra_core._exact``.
A Schur value in times is ``jacobi_trudi`` over the one-row generators
``h_from_times(t, n)``, as for every other Schur-type value.

One rule keeps that value faithful: build the generators of point times
at the tuple's own length, n = len(t).  ``h_from_times`` reads missing
times as zero, so a longer list would silently stand for different
points.  At the tuple's own length, a shape that needs a later h_k
raises inside ``jacobi_trudi`` instead.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

from .algebra_core import _exact, _over_lcm, as_points


def from_points(points: Sequence, n_max: int) -> Tuple[Fraction, ...]:
    """t_n = (1/n) sum_j x_j^n = sum_j X_j^n / (n L^n) for n = 1..n_max,
    on ints X_j = L x_j, L the lcm of the point denominators."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    ints, den = _over_lcm(as_points(points))
    values, powers = [], ints
    for n in range(1, n_max + 1):
        values.append(Fraction(sum(powers), n * den ** n))
        powers = [p * x for p, x in zip(powers, ints)]
    return tuple(values)


def twist(t: Sequence, q) -> Tuple[Fraction, ...]:
    """T_n = (1 - Q^n) t_n for every given time."""
    qv = _exact(q)
    return tuple((1 - qv ** n) * _exact(v) for n, v in enumerate(t, 1))
