"""Integer partitions, Young-diagram geometry, and occupation encodings.

A partition is a plain tuple of weakly decreasing positive ints; the
empty partition is ``()``.  Tuples give structural equality and
hashability for free, which the cached symmetric-function tables rely
on.  ``normalize`` turns any reasonable iterable (possibly with trailing
zeros, possibly unsorted-by-accident input from the CLI) into the
canonical form, rejecting negatives.

Box enumeration follows graded order: weight ascending, and inside a
fixed weight decreasing lexicographic, so (2) comes before (1,1).  That
refinement is compatible with dominance, which the Kostka code needs for
its triangular solves.

Every prod (1 - Q^c) in Z[Q] comes from the cached ``_psi``: [n]! and
b_lam read it here, and the Hall-Littlewood strip weights in ``symfunc``.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Iterable, List, Tuple

from .algebra_core import QPoly

Partition = Tuple[int, ...]


def normalize(parts: Iterable[int]) -> Partition:
    """Canonical partition tuple: sorted decreasing, zero parts dropped."""
    ps = [int(p) for p in parts]
    if any(p < 0 for p in ps):
        raise ValueError(f"negative part in partition {ps}")
    ps = sorted((p for p in ps if p > 0), reverse=True)
    return tuple(ps)


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


def partitions_of(d: int, max_part: int | None = None,
                  max_len: int | None = None) -> List[Partition]:
    """Partitions of weight d, decreasing lex order; None is no bound."""
    if d < 0 or any(b is not None and b < 0 for b in (max_part, max_len)):
        raise ValueError("weight and bounds must be nonnegative")
    cap = d if max_part is None else min(max_part, d)
    rows = d if max_len is None else max_len

    def rec(remaining: int, largest: int, slots: int):
        if remaining == 0:
            yield ()
            return
        if slots == 0 or largest == 0:
            return
        for first in range(min(largest, remaining), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    return list(rec(d, cap, rows))


@lru_cache(maxsize=None)
def enumerate_in_box(n: int, m: int) -> Tuple[Partition, ...]:
    """All partitions inside the n x m box, graded order (see module doc).

    Built once per (n, m); the tuple is shared by every caller.
    """
    if n < 0 or m < 0:
        raise ValueError("box dimensions must be nonnegative")
    return tuple(lam for d in range(n * m + 1)
                 for lam in partitions_of(d, max_part=m, max_len=n))


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
