"""Integer partitions, Young-diagram geometry, and occupation encodings.

A partition is a plain tuple of weakly decreasing positive ints; the
empty partition is ``()``.  Tuples give structural equality and
hashability for free, which the cached symmetric-function tables rely
on.  ``normalize`` turns any iterable of int parts (possibly with
trailing zeros, possibly unsorted) into the canonical form; its parts
pass the one shape gate, ``algebra_core._parts``, which refuses a part
that is not an int (a float or a bool) and a negative part.

Box enumeration follows graded order: weight ascending, and inside a
fixed weight decreasing lexicographic, so (2) comes before (1,1).  That
refinement is compatible with dominance, which the Kostka code needs for
its triangular solves.

Every prod (1 - Q^c) in Z[Q] comes from the cached ``_psi``: [n]! and
b_lam read it here, and the Hall-Littlewood strip weights in ``symfunc``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import prod
from typing import Iterable, List, Tuple

from .algebra_core import QPoly, _parts

Partition = Tuple[int, ...]


def normalize(parts: Iterable[int]) -> Partition:
    """Canonical partition tuple: sorted decreasing, zero parts dropped;
    the parts are read by ``algebra_core._parts``."""
    return tuple(sorted((p for p in _parts(parts) if p), reverse=True))


def weight(lam: Partition) -> int:
    return sum(lam)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram (column lengths)."""
    if not lam:
        return ()
    return tuple(
        sum(1 for p in lam if p > i) for i in range(lam[0])
    )


def contains(lam: Partition, mu: Partition) -> bool:
    """True when the diagram of mu fits inside the diagram of lam."""
    if len(mu) > len(lam):
        return False
    return all(mu[i] <= lam[i] for i in range(len(mu)))


def in_box(lam: Partition, n: int, m: int) -> bool:
    """True when lam fits in the n x m box (at most n parts, each <= m)."""
    return len(lam) <= n and (not lam or lam[0] <= m)


def frobenius(lam: Partition) -> Tuple[Tuple[int, int], ...]:
    """Frobenius coordinates ((a_1|b_1), ..., (a_d|b_d)).

    a_j = lam_j - j and b_j = lam'_j - j for j along the diagonal,
    counting from zero, so a single box is (0|0).
    """
    conj = conjugate(lam)
    coords = []
    for j in range(len(lam)):
        if lam[j] <= j:
            break
        coords.append((lam[j] - j - 1, conj[j] - j - 1))
    return tuple(coords)


def hook_partition(arm: int, leg: int) -> Partition:
    """The hook with Frobenius coordinates (arm|leg): (arm+1, 1^leg)."""
    if arm < 0 or leg < 0:
        raise ValueError("hook coordinates must be nonnegative")
    return (arm + 1,) + (1,) * leg


def partitions_of(d: int, max_len: int | None = None) -> List[Partition]:
    """Partitions of weight d, decreasing lex order; None is no bound."""
    if d < 0 or (max_len is not None and max_len < 0):
        raise ValueError("weight and bound must be nonnegative")
    rows = d if max_len is None else max_len

    def rec(remaining: int, largest: int, slots: int):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(largest, remaining), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    return list(rec(d, d, rows))


@lru_cache(maxsize=None)
def enumerate_in_box(n: int, m: int) -> Tuple[Partition, ...]:
    """All partitions inside the n x m box, graded order (see module doc).

    The box's partitions are the multisets of n parts from 0..m with the
    zeros dropped.  Sorting them decreasing-lex and then, stably, by
    weight gives the graded order: two partitions of one weight are
    never a proper prefix of each other, so tuple order is lex order
    there.  Built once per (n, m); the tuple is shared by every caller.
    """
    if n < 0 or m < 0:
        raise ValueError("box dimensions must be nonnegative")
    box = [tuple(p for p in reversed(parts) if p)
           for parts in combinations_with_replacement(range(m + 1), n)]
    box.sort(reverse=True)
    box.sort(key=sum)
    return tuple(box)


def multiplicities(lam: Partition) -> dict:
    """Map part value -> multiplicity (positive parts only)."""
    mult: dict = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    return mult


@lru_cache(maxsize=None)
def _psi(exps: Tuple[int, ...]) -> QPoly:
    """prod of (1 - Q^c) over the listed exponents c >= 1, in Z[Q]."""
    return prod((QPoly([1] + [0] * (c - 1) + [-1]) for c in exps),
                start=QPoly.one())


def qfactorial(n: int) -> QPoly:
    """[n]! = prod_{i=1..n} (1 - Q^i) as a polynomial in Q."""
    if n < 0:
        raise ValueError("q-factorial of a negative integer")
    return _psi(tuple(range(1, n + 1)))


def b_lambda(lam: Partition) -> QPoly:
    """b_lambda(Q) = prod over distinct parts i of [mult_i(lam)]!."""
    return prod(map(qfactorial, multiplicities(lam).values()),
                start=QPoly.one())


def _check_site(m) -> None:
    """Refuse a lattice site index that is not an int with one TypeError;
    a bool is refused too, so neither 1.0 nor True passes for site 1."""
    if isinstance(m, bool) or not isinstance(m, int):
        raise TypeError(f"a lattice site is an int, not {m!r}")


def occupation_from_partition(lam: Partition, n: int, m: int) -> Tuple[int, ...]:
    """Occupation numbers (n_0, ..., n_m) of the n-particle state for lam.

    Site i >= 1 holds mult_i(lam) particles and site 0 holds the rest,
    n_0 = n - len(lam).  Requires lam to fit in the n x m box.
    """
    if not in_box(lam, n, m):
        raise ValueError(f"partition {lam} does not fit in the {n}x{m} box")
    mult = multiplicities(lam)
    counts = [0] * (m + 1)
    counts[0] = n - len(lam)
    for part, c in mult.items():
        counts[part] = c
    return tuple(counts)
