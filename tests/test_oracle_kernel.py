"""The oracle's int-numerator transfer against its Fraction reference.

``fock_oracle`` keeps int numerators over one shared denominator from
the site tables to the returned values.  ``oracle_reference`` is the same
brute force over Fractions, so every value here must agree exactly, on
signed, zero and repeated points and on Q at 0, +-1, 2 and random signed
rationals.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from qtau import fock_oracle as oracle
from qtau.phase_model import BoxSpec
from qtau.qboson_model import QBosonSpec

import oracle_reference as reference

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=7)
QS = st.one_of(st.sampled_from([F(0), F(1), F(-1), F(2)]), RATIONALS)
SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def points(draw, size):
    """`size` points from a small pool, so repeats and zeros come up often."""
    pool = draw(st.lists(RATIONALS, min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool + [F(0)]), min_size=size,
                         max_size=size))


@st.composite
def models(draw):
    """(model, spec) on a box with N <= 3 and M <= 3."""
    box = BoxSpec(draw(st.integers(1, 3)), draw(st.integers(0, 3)))
    if draw(st.booleans()):
        return "phase", box
    return "qboson", QBosonSpec(box, draw(QS))


def _box(spec):
    return spec if isinstance(spec, BoxSpec) else spec.box


@SETTINGS
@given(st.data(), models())
def test_pairing_matches_reference(data, model):
    n, m = _box(model[1]).n, _box(model[1]).m
    size = data.draw(st.integers(0, n))
    xs, ys = data.draw(points(size)), data.draw(points(size))
    assert (oracle.oracle_pairing(*model, xs, ys)
            == reference.oracle_pairing(*model, xs, ys))
    if size:
        site = data.draw(st.integers(0, m))
        assert (oracle.oracle_pairing(*model, xs, ys[1:], insertion=site)
                == reference.oracle_pairing(*model, xs, ys[1:],
                                            insertion=site))


@SETTINGS
@given(st.data(), models())
def test_bethe_state_matches_reference(data, model):
    roots = data.draw(points(data.draw(st.integers(0, _box(model[1]).n))))
    state = oracle.bethe_state(*model, roots)
    expect = reference.bethe_state(*model, roots)
    assert list(state.items()) == list(expect.items())


@SETTINGS
@given(st.data(), models())
def test_monodromy_matches_reference(data, model):
    u = data.draw(RATIONALS.filter(lambda v: v != 0))
    assert oracle.build_monodromy(*model, u) == reference.build_monodromy(
        *model, u)


@SETTINGS
@given(st.data(), models())
def test_commutation_check_matches_reference(data, model):
    y1, y2 = data.draw(points(2))
    assert (oracle.commutation_check(*model, y1, y2)
            == reference.commutation_check(*model, y1, y2))


def test_site_tables_are_ints_over_one_denominator():
    for n, m in ((1, 0), (2, 2), (3, 3)):
        for q in (F(0), F(1), F(-1), F(2), F(-7, 5), F(1, 4)):
            deformed, den = oracle._symbolic_blocks(n, q)
            assert type(den) is int and den == q.denominator ** (n + 2)
            assert len(deformed) == n + 2
            assert all(type(c) is int for c in deformed)
            # the strings read bound n and build_monodromy bound n+1; on
            # either, each element over den is the reference's element
            bare = (den,) * (n + 2)
            for bound in (n, n + 1):
                layout = oracle._site_layout(bound, m)
                ref = reference.site_tables(bound, m, q)
                assert len(layout) == len(ref) == m + 1
                for site, (layout_site, ref_site) in enumerate(zip(layout,
                                                                   ref)):
                    raises, occupancies, lowers = layout_site
                    ref_raise, ref_lower = ref_site
                    for targets, coeffs, missing, ref_table in (
                            (raises, deformed if site else bare,
                             oracle._FORBIDDEN, ref_raise),
                            (lowers, bare, None, ref_lower)):
                        assert (len(targets) == len(occupancies)
                                == len(ref_table))
                        for dst, k, ref_entry in zip(targets, occupancies,
                                                     ref_table):
                            if ref_entry is None:
                                assert dst == missing
                            else:
                                assert (dst, F(coeffs[k], den)) == ref_entry
