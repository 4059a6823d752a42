"""Property tests: the int pairing routes against their Fraction versions.

Every pairing route runs on Python ints over known denominators and
makes one Fraction per returned value or graded piece.  Each route is
compared here with the same algorithm written on Fractions
(``pairing_reference``): h-lists and deformed coefficients, the box
sweep and the box sums, the scalar-product determinant, the correlation
determinant and its power-column variant, and the graded pieces of the
sum modes.  Points are signed, zero and repeated, with small and large
denominators; N runs from 0, the correlation routes take N = 1 with an
empty y set, and Q takes 0, 1, -1, 2, -3/7 and 5/3.  A last test counts
the Fractions two box-sum routes make, so that per-term Fractions do
not come back.
"""

import sys
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from qtau.algebra_core import box_minors, jacobi_trudi_box
from qtau.phase_model import (BoxSpec, correlation_Am,
                              correlation_Am_power_column, correlation_skew,
                              scalar_product)
from qtau.qboson_model import QBosonSpec, graded_components
from qtau.symfunc import homogeneous_list, q_coeff_ints, q_coeff_list

from pairing_reference import (correlation_Am_det_fraction,
                               correlation_skew_fraction,
                               graded_components_fraction,
                               homogeneous_fraction, jacobi_trudi_box_fraction,
                               power_column_fraction, q_coeff_fraction,
                               scalar_product_det_fraction)

RATIONALS = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.fractions(min_value=-2, max_value=2, max_denominator=10 ** 4))
QS = st.sampled_from([F(0), F(1), F(-1), F(2), F(-3, 7), F(5, 3)])
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def points(draw, size):
    """`size` points from a small pool, so repeats and zeros come up often."""
    pool = draw(st.lists(RATIONALS, min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool + [F(0)]), min_size=size,
                         max_size=size))


@SETTINGS
@given(st.data(), st.integers(0, 4), st.integers(0, 9), QS)
def test_generator_lists_match_fraction_recurrence(data, size, kmax, q):
    pts = data.draw(points(size))
    assert homogeneous_list(pts, kmax) == homogeneous_fraction(pts, kmax)
    assert q_coeff_list(pts, q, kmax) == q_coeff_fraction(pts, q, kmax)
    gs, den = q_coeff_ints(pts, q, kmax)
    assert all(type(g) is int for g in gs) and type(den) is int
    assert [F(g, den ** k) for k, g in enumerate(gs)] == q_coeff_fraction(
        pts, q, kmax)


@SETTINGS
@given(st.data(), st.integers(0, 4), st.integers(0, 4), QS)
def test_box_sweep_matches_fraction_sweep(data, n, m, q):
    pts = data.draw(points(data.draw(st.integers(0, 4))))
    gens, den = q_coeff_ints(pts, q, n + m)
    for mu in ((), (m,), (m + 1,), (1,) * (n + 1)):
        expect = jacobi_trudi_box_fraction(q_coeff_fraction(pts, q, n + m),
                                           n, m, mu)
        minors, scale = box_minors(gens, den, n, m, mu)
        assert all(type(v) is int for v in minors.values())
        assert {lam: F(v, scale) for lam, v in minors.items()} == expect
        assert jacobi_trudi_box(q_coeff_list(pts, q, n + m), n, m,
                                mu) == expect


@SETTINGS
@given(st.data(), st.integers(0, 4), st.integers(0, 4))
def test_box_sums_match_fraction_sums(data, n, m):
    box = BoxSpec(n, m)
    xs, ys = data.draw(points(n)), data.draw(points(n))
    assert (scalar_product(xs, ys, box, "schur_sum")
            == correlation_skew_fraction((), (), xs, ys, box))
    lam1 = data.draw(st.sampled_from([(), (1,), (m, 1), (2, 2)]))
    lam2 = data.draw(st.sampled_from([(), (m,), (1, 1), (m + 1,)]))
    assert (correlation_skew(lam1, lam2, xs, ys, box)
            == correlation_skew_fraction(lam1, lam2, xs, ys, box))


@SETTINGS
@given(st.data(), st.integers(0, 4), st.integers(0, 4))
def test_scalar_product_det_matches_fraction_det(data, n, m):
    box = BoxSpec(n, m)
    xs, ys = data.draw(points(n)), data.draw(points(n))
    assert (scalar_product(xs, ys, box, "det")
            == scalar_product_det_fraction(xs, ys, box))


@SETTINGS
@given(st.data(), st.integers(1, 4), st.integers(0, 5))
def test_correlation_dets_match_fraction_dets(data, n, m):
    # n = 1 leaves the ket side with an empty point set
    box = BoxSpec(n, m)
    xs, ys = data.draw(points(n)), data.draw(points(n - 1))
    site = data.draw(st.integers(0, m))
    value = correlation_Am(xs, ys, site, box, "det")
    assert value == correlation_Am_det_fraction(xs, ys, site, box)
    assert value == correlation_Am(xs, ys, site, box, "skew_sum")
    if (m + n - 1) % 2 == 0 and 2 * site <= m + n - 1:
        assert (correlation_Am_power_column(xs, ys, site, box)
                == power_column_fraction(xs, ys, site, box))


@SETTINGS
@given(st.data(), st.integers(0, 3), st.integers(0, 3), QS,
       st.sampled_from(["hl_sum", "big_schur", "twisted_schur"]))
def test_graded_pieces_match_fraction_terms(data, n, m, q, mode):
    spec = QBosonSpec(BoxSpec(n, m), q)
    xs, ys = data.draw(points(n)), data.draw(points(n))
    degree = data.draw(st.integers(0, n * m + 1))
    assert (graded_components(xs, ys, spec, mode, degree)
            == graded_components_fraction(xs, ys, spec, mode, degree))


def _fractions_made(route) -> int:
    """How many Fractions route() makes, counted at Fraction.__new__.

    Python 3.12 and later build arithmetic results in
    ``_from_coprime_ints`` instead, so those calls count too.
    """
    made = {F.__new__.__code__}
    if hasattr(F, "_from_coprime_ints"):
        made.add(F._from_coprime_ints.__func__.__code__)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in made:
            count += 1

    sys.setprofile(profile)
    try:
        route()
    finally:
        sys.setprofile(None)
    return count


def test_box_sums_make_one_fraction_per_value():
    # a (3, 3) box has 20 partitions and its hl_sum 10 graded pieces.
    # The routes make 15 and 24 Fractions: the points are read as
    # Fractions twice a side (at the route and at its generator list),
    # then Q, then one per returned value.  One Fraction per term would
    # add at least 20 to either count.
    box = BoxSpec(3, 3)
    xs, ys = [F(1, 2), F(-1, 3), F(2, 5)], [F(1, 5), F(2, 7), F(0)]
    assert _fractions_made(
        lambda: scalar_product(xs, ys, box, "schur_sum")) <= 18
    spec = QBosonSpec(box, F(-3, 7))
    assert _fractions_made(
        lambda: graded_components(xs, ys, spec, "hl_sum", 9)) <= 28
