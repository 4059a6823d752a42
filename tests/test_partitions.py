"""Partition combinatorics: diagrams, boxes, occupation encoding, norms."""

import math

import pytest

from qtau.algebra_core import QPoly
from qtau.partitions import (b_lambda, conjugate, contains,
                             enumerate_in_box, frobenius, hook_partition,
                             in_box, normalize, occupation_from_partition,
                             partitions_of, qfactorial, weight)


def _dominates(lam, mu):
    """lam >= mu in dominance order (equal weights): partial sums never fall behind."""
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l < total_m:
            return False
    return True


def test_conjugate():
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((3, 3, 1)) == (3, 2, 2)
    for lam in partitions_of(6):
        assert conjugate(conjugate(lam)) == lam


def test_frobenius_coordinates():
    assert frobenius(()) == ()
    assert frobenius((1,)) == ((0, 0),)
    coords = frobenius((3, 3, 1))
    assert coords == ((2, 2), (1, 0))
    # weight identity: |lam| = sum(arms) + sum(legs) + diagonal
    assert 7 == sum(a for a, _ in coords) + sum(b for _, b in coords) + 2
    assert frobenius((4, 2, 2, 1)) == ((3, 3), (0, 1))
    for lam in partitions_of(7):
        coords = frobenius(lam)
        assert weight(lam) == sum(a + b + 1 for a, b in coords)
    assert hook_partition(2, 2) == (3, 1, 1)


def test_enumerate_in_box():
    assert enumerate_in_box(0, 5) == ((),)
    assert set(enumerate_in_box(2, 2)) == {(), (1,), (2,), (1, 1), (2, 1),
                                           (2, 2)}
    assert len(enumerate_in_box(2, 2)) == math.comb(4, 2) == 6
    assert enumerate_in_box(1, 4) == ((), (1,), (2,), (3,), (4,))
    for lam in enumerate_in_box(3, 4):
        assert in_box(lam, 3, 4)
    assert not in_box((5,), 3, 4)
    assert not in_box((1, 1, 1, 1), 3, 4)


def test_partition_counts():
    assert len(partitions_of(6)) == 11
    assert partitions_of(0) == [()]
    assert partitions_of(3, max_len=0) == []
    assert partitions_of(0, max_len=0) == [()]


def test_partitions_of_refuses_negative_bounds():
    # a negative bound used to mean "no bound" and list every partition
    for d in (0, 3):
        with pytest.raises(ValueError):
            partitions_of(d, max_len=-1)
    with pytest.raises(ValueError):
        partitions_of(-1)
    assert weight((3, 2, 1)) == 6
    assert normalize([0, 3, 1, 0, 2]) == (3, 2, 1)


def test_containment_and_dominance():
    assert contains((3, 2), (2, 2))
    assert not contains((3, 2), (1, 1, 1))
    assert _dominates((4,), (2, 2))
    assert not _dominates((2, 2), (4,))
    # decreasing-lex order refines dominance: no later partition strictly
    # dominates an earlier one, which the triangular Kostka solves need
    for d in range(8):
        order = partitions_of(d)
        for i, lam in enumerate(order):
            for mu in order[i + 1:]:
                assert not _dominates(mu, lam)


def test_qfactorial_and_b_lambda():
    q = QPoly.gen()
    assert qfactorial(0) == 1
    assert qfactorial(2) == (1 - q) * (1 - q * q)
    assert b_lambda(()) == 1
    assert b_lambda((1, 1)) == (1 - q) * (1 - q * q)
    assert b_lambda((2, 1)) == (1 - q) * (1 - q)
    # multiplicative over multiplicities: (2,2,1,1,1)
    assert b_lambda((2, 2, 1, 1, 1)) == qfactorial(2) * qfactorial(3)


def test_occupation_encoding():
    assert occupation_from_partition((), 2, 2) == (2, 0, 0)
    assert occupation_from_partition((2, 1), 2, 3) == (0, 1, 1, 0)
    assert occupation_from_partition((2, 2), 3, 2) == (1, 0, 2)
    with pytest.raises(ValueError):
        occupation_from_partition((4,), 2, 3)
    box = enumerate_in_box(3, 4)
    occs = [occupation_from_partition(lam, 3, 4) for lam in box]
    assert all(sum(occ) == 3 for occ in occs)
    # the encoding is injective on the box
    assert len(set(occs)) == len(box)
