"""Property tests: every formula route against the occupation-basis oracle.

Points are signed rationals, zero and repeats included, on boxes with
N <= 3 and M <= 3.  Q is drawn from 0, 1, -1, 2 and random signed
rationals.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from qtau.fock_oracle import oracle_pairing
from qtau.phase_model import (BoxSpec, correlation_Am, correlation_skew,
                              scalar_product)
from qtau.qboson_model import QBosonSpec, scalar_product_q

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=7)
QS = st.one_of(st.sampled_from([F(0), F(1), F(-1), F(2)]), RATIONALS)
BOXES = st.builds(BoxSpec, st.integers(1, 3), st.integers(0, 3))
SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def points(draw, size):
    """`size` points from a small pool, so repeats and zeros come up often."""
    pool = draw(st.lists(RATIONALS, min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool + [F(0)]), min_size=size,
                         max_size=size))


@SETTINGS
@given(st.data(), BOXES)
def test_phase_oracle_matches_formulas(data, box):
    xs, ys = data.draw(points(box.n)), data.draw(points(box.n))
    value = oracle_pairing("phase", box, xs, ys)
    assert value == scalar_product(xs, ys, box, mode="schur_sum")
    assert value == scalar_product(xs, ys, box, mode="det")


@SETTINGS
@given(st.data(), BOXES)
def test_insertion_oracle_matches_formulas(data, box):
    xs, ys = data.draw(points(box.n)), data.draw(points(box.n - 1))
    site = data.draw(st.integers(0, box.m))
    value = oracle_pairing("phase", box, xs, ys, insertion=site)
    assert value == correlation_Am(xs, ys, site, box, mode="skew_sum")
    assert value == correlation_Am(xs, ys, site, box, mode="det")
    assert value == correlation_skew((), (site,), xs, ys, box)


@SETTINGS
@given(st.data(), BOXES, QS)
def test_qboson_oracle_matches_hl_sum(data, box, q):
    xs, ys = data.draw(points(box.n)), data.draw(points(box.n))
    spec = QBosonSpec(box, q)
    assert (oracle_pairing("qboson", spec, xs, ys)
            == scalar_product_q(xs, ys, spec, mode="hl_sum"))
