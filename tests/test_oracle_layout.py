"""The oracle's Q-independent tables against slower rebuilds.

``enumerate_in_box`` sorts multisets of parts, ``sector_basis`` extends
the basis of one particle bound by the next sector, and ``_site_layout``
finds its targets by adding to int codes.  Each must give the same
tuples in the same order as the direct construction: one
``partitions_of`` call per weight, ``occupation_from_partition`` of
every partition of every sector, and the tuple-slicing layout of
``oracle_reference``.  The strings read the bound-N basis and only
``build_monodromy`` reads bound N+1; a string that would leave its
basis raises instead of dropping the escaped part.
"""

from fractions import Fraction as F

import pytest

from qtau import fock_oracle as oracle
from qtau.partitions import (enumerate_in_box, occupation_from_partition,
                             partitions_of)
from qtau.phase_model import BoxSpec
from qtau.qboson_model import QBosonSpec

import oracle_reference as reference

# every cell of the desk caps N <= 4, M <= 6
DESK = [(n, m) for n in range(5) for m in range(7)]


def test_box_order_is_one_partitions_of_call_per_weight():
    for n in range(6):
        for m in range(8):
            assert enumerate_in_box(n, m) == tuple(
                lam for d in range(n * m + 1)
                for lam in partitions_of(d, max_len=n)
                if not lam or lam[0] <= m)


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
    # the strings read the bound-N layout of each desk cell and
    # build_monodromy the bound-(N+1) one
    for n, m in DESK:
        for bound in (n, n + 1):
            assert (oracle._site_layout(bound, m)
                    == reference.site_layout(bound, m))


def _bounds_read(monkeypatch, call):
    """The particle bounds of every basis and layout that `call` reads."""
    bounds = set()
    for name in ("sector_basis", "_site_layout"):
        def recording(bound, m, _inner=getattr(oracle, name)):
            bounds.add(bound)
            return _inner(bound, m)
        monkeypatch.setattr(oracle, name, recording)
    call()
    monkeypatch.undo()
    return bounds


def test_strings_read_no_bound_n_plus_one_basis(monkeypatch):
    xs, ys = [F(1, 2), F(-2, 3), F(0)], [F(3, 5), F(3, 5), F(-4)]
    for q in (F(0), F(1), F(-1), F(2, 7)):
        spec = QBosonSpec(BoxSpec(3, 2), q)
        for call in (
                lambda: oracle.oracle_pairing("qboson", spec, xs, ys),
                lambda: oracle.oracle_pairing("qboson", spec, xs, ys[:2],
                                              insertion=1),
                lambda: oracle.bethe_state("qboson", spec, ys),
                lambda: oracle.commutation_check("qboson", spec, *ys[1:])):
            assert max(_bounds_read(monkeypatch, call)) == 3
    # the D block on sector N is the one route through sector N+1
    assert max(_bounds_read(monkeypatch, lambda: oracle.build_monodromy(
        "qboson", QBosonSpec(BoxSpec(3, 2), F(2, 7)), F(1, 2)))) == 4


def test_a_string_pushed_past_sector_n_escapes_loudly():
    for n, m in ((1, 0), (2, 2), (3, 1)):
        for q in (F(0), F(-1), F(1, 3)):
            tables = (oracle._site_layout(n, m),
                      *oracle._symbolic_blocks(n, q))
            basis = oracle.sector_basis(n, m)
            for j in basis.sector_indices(n):
                with pytest.raises(AssertionError, match="operator escaped"):
                    oracle._strings(tables, basis, {j: 1}, 1, n, [F(2, 5)])
