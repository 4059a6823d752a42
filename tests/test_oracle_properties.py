"""Property tests: every formula route against the occupation-basis oracle.

Points are signed rationals, zero and repeats included, on boxes with
N <= 4 and M <= 6.  Q is drawn from 0, 1, -1, 2 and random signed
rationals.  One deterministic sweep also arbitrates every cell the
desk caps admit.
"""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from qtau.fock_oracle import oracle_pairing
from qtau.phase_model import (BoxSpec, correlation_Am, correlation_skew,
                              scalar_product)
from qtau.qboson_model import QBosonSpec, scalar_product_q
from qtau.suites import desk_caps

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=7)
QS = st.one_of(st.sampled_from([F(0), F(1), F(-1), F(2)]), RATIONALS)
BOXES = st.builds(BoxSpec, st.integers(1, 4), st.integers(0, 6))
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


DESK_QS = (F(0), F(1), F(-1), F(2), F(1, 4), F(-3, 7), F(7, 3))


def _desk_draws(rng, n):
    """Three (xs, ys) of n points each: plain, with a zero point in both,
    and with a repeated point in both (plain again at n = 1)."""
    def draw():
        return [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
    plain, zero, repeated = (draw(), draw()), (draw(), draw()), (draw(), draw())
    for pts in zero:
        pts[0] = F(0)
    for pts in repeated:
        pts[min(1, n - 1)] = pts[0]
    return plain, zero, repeated


def test_the_oracle_arbitrates_every_desk_cell():
    # every (N, M) with 1 <= N and 0 <= M under the desk caps: the phase
    # pairing, the phase one-point function at every site (y drops its
    # last point) and the q-boson hl_sum at each of DESK_QS
    rng = random.Random(0)
    cap_n, cap_m, _ = desk_caps()
    for n in range(1, cap_n + 1):
        for m in range(cap_m + 1):
            box = BoxSpec(n, m)
            for xs, ys in _desk_draws(rng, n):
                value = oracle_pairing("phase", box, xs, ys)
                assert value == scalar_product(xs, ys, box, mode="det")
                assert value == scalar_product(xs, ys, box, mode="schur_sum")
                for site in range(m + 1):
                    one = oracle_pairing("phase", box, xs, ys[:-1],
                                         insertion=site)
                    assert one == correlation_Am(xs, ys[:-1], site, box,
                                                 mode="det")
                    assert one == correlation_Am(xs, ys[:-1], site, box,
                                                 mode="skew_sum")
                for q in DESK_QS:
                    spec = QBosonSpec(box, q)
                    assert (oracle_pairing("qboson", spec, xs, ys)
                            == scalar_product_q(xs, ys, spec, mode="hl_sum")
                            ), (n, m, q, xs, ys)
