"""The oracle's Q-independent tables against slower rebuilds.

``enumerate_in_box`` sorts multisets of parts, ``sector_basis`` extends
the basis of one particle bound by the next sector, and ``_site_layout``
finds its targets by adding to int codes.  Each must give the same
tuples in the same order as the direct construction: one
``partitions_of`` call per weight, ``occupation_from_partition`` of
every partition of every sector, and the tuple-slicing layout of
``oracle_reference``.
"""

from qtau import fock_oracle as oracle
from qtau.partitions import (enumerate_in_box, occupation_from_partition,
                             partitions_of)

import oracle_reference as reference

# every cell of the desk caps N <= 4, M <= 6
DESK = [(n, m) for n in range(5) for m in range(7)]


def test_box_order_is_one_partitions_of_call_per_weight():
    for n in range(6):
        for m in range(8):
            assert enumerate_in_box(n, m) == tuple(
                lam for d in range(n * m + 1)
                for lam in partitions_of(d, max_part=m, max_len=n))


def test_sector_basis_converts_every_partition_of_every_sector():
    for n, m in DESK:
        for bound in (n, n + 1):
            states, offsets = [], [0]
            for s in range(bound + 1):
                states.extend(occupation_from_partition(lam, s, m)
                              for lam in enumerate_in_box(s, m))
                offsets.append(len(states))
            basis = oracle.sector_basis(bound, m)
            assert basis.states == tuple(states)
            assert basis.offsets == tuple(offsets)


def test_site_layout_matches_the_slicing_rebuild():
    # the layout lives on the bound-(N+1) extension of each desk cell
    for n, m in DESK:
        assert oracle._site_layout(n, m) == reference.site_layout(n, m)

