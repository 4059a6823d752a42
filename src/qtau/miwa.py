"""Generalized times (Miwa coordinates) and Schur values built from them.

``MiwaCoords`` holds the times t_1..t_{n_max} of a point set,
t_n = (1/n) * sum_j x_j^n.  Keeping them as an explicit finite tuple
makes the faithfulness requirement checkable: a Schur value computed
from times is only guaranteed to match the point-set Schur value when
n_max covers the weight of the partition, so ``schur_in_miwa`` refuses
smaller supports.  Each instance builds its one-row generators
h_0..h_{n_max} once, so every Schur value read from the same times
shares them.

``twist`` applies the deformation T_n = (1 - Q^n) t_n used to move
between the ordinary and deformed expansions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Tuple

from .algebra_core import ZERO, h_from_times, jacobi_trudi
from .partitions import Partition, normalize, weight


@dataclass(frozen=True)
class MiwaCoords:
    """Times t_1..t_{n_max}, exact rationals, index 1 stored first.

    ``generators`` is h_0..h_{n_max} of exp(sum t_k z^k), computed on
    first use and kept with the instance.
    """

    values: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "values", tuple(Fraction(v) for v in self.values))

    @property
    def n_max(self) -> int:
        return len(self.values)

    @cached_property
    def generators(self) -> Tuple[Fraction, ...]:
        return tuple(h_from_times(self.values, self.n_max))

    def time(self, n: int) -> Fraction:
        """t_n, one-indexed; zero beyond the stored support."""
        if n < 1:
            raise ValueError("times are indexed from 1")
        if n <= len(self.values):
            return self.values[n - 1]
        return ZERO

    def __add__(self, other: "MiwaCoords") -> "MiwaCoords":
        n = max(self.n_max, other.n_max)
        return MiwaCoords(tuple(
            self.time(k) + other.time(k) for k in range(1, n + 1)))

    def __sub__(self, other: "MiwaCoords") -> "MiwaCoords":
        n = max(self.n_max, other.n_max)
        return MiwaCoords(tuple(
            self.time(k) - other.time(k) for k in range(1, n + 1)))


def from_points(points: Sequence, n_max: int) -> MiwaCoords:
    """t_n = (1/n) sum_j x_j^n for n = 1..n_max."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    xs = [Fraction(x) for x in points]
    values = []
    powers = list(xs)
    for n in range(1, n_max + 1):
        values.append(Fraction(sum(powers), n) if xs else ZERO)
        powers = [p * x for p, x in zip(powers, xs)]
    return MiwaCoords(tuple(values))


def twist(t: MiwaCoords, q) -> MiwaCoords:
    """T_n = (1 - Q^n) t_n, componentwise on the stored support."""
    qv = Fraction(q)
    return MiwaCoords(tuple(
        (1 - qv ** n) * t.values[n - 1] for n in range(1, t.n_max + 1)))


def schur_in_miwa(lam: Partition, t: MiwaCoords) -> Fraction:
    """Schur value in generalized times, by Jacobi-Trudi over h_k(t).

    h_k(t) is the z^k coefficient of exp(sum t_k z^k), and the value is
    ``jacobi_trudi`` over ``t.generators``, det(h_{lam_i - i + j}(t)).
    h_k depends only on t_1..t_k, so reading the instance's full list
    gives the same value as a list cut at |lam|.  Errors when the
    support is too small to be faithful (n_max < |lam|).
    """
    lam = normalize(lam)
    if t.n_max < weight(lam):
        raise ValueError(
            f"times support n_max={t.n_max} is insufficient for |lam|={weight(lam)}")
    return jacobi_trudi(t.generators, lam)
