"""Property tests: the int pairing routes against their Fraction versions.

Every pairing route runs on Python ints over known denominators and
makes one Fraction per returned value or graded piece.  Each route is
compared here with the same algorithm written on Fractions
(``pairing_reference``): h-lists and deformed coefficients, the box
sweep and the box sums, the scalar-product determinant, the correlation
determinant and its power-column variant, and the graded pieces of the
sum modes, and a sum mode's full value, divided once, with the sum of
its pieces.  The mode report is checked against hl_sum through degree
M in every mode it holds, and it leaves out det_quotient exactly where
S(x, Qy) = 0.  Points are signed, zero and repeated, with small and large
denominators; N runs from 0, the correlation routes take N = 1 with an
empty y set, and Q takes 0, 1, -1, 2, -3/7 and 5/3.  Int points and an
int Q read as the equal Fractions, "p/q" strings are still accepted, and
a float point or Q raises TypeError on every route, the oracle's too,
and so does a float time, series coefficient, suite Q value, or
determinant entry, generator or generator denominator.
A last test counts the Fractions each route makes: one for an input
that is not already a Fraction and one for the value it returns, so
that per-term and per-layer Fractions do not come back.
"""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtau import fock_oracle
from qtau.algebra_core import (TruncatedSeries, box_minors, det_rational,
                               h_from_times, jacobi_trudi, power_series_div)
from qtau.miwa import from_points, twist
from qtau.partitions import enumerate_in_box
from qtau.phase_model import (BoxSpec, correlation_Am,
                              correlation_Am_power_column, correlation_skew,
                              factorization_report,
                              matrix_integral_constant_term, scalar_product,
                              schur_pair_sum_miwa)
from qtau.qboson_model import (MODES, SUM_MODES, QBosonSpec,
                               graded_components, mode_agreement_report,
                               scalar_product_q)
from qtau.suites import SuiteConfig
from qtau.symfunc import (cauchy_kernel_series, hall_littlewood_ints,
                          hl_series, q_coeff_ints, q_coeff_list,
                          supersymmetric_times, xy_names)

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
    assert q_coeff_list(pts, 0, kmax) == homogeneous_fraction(pts, kmax)
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
        # Fraction generators over den = 1 are cleared row by row
        minors, scale = box_minors(q_coeff_list(pts, q, n + m), 1, n, m, mu)
        assert {lam: F(v, scale) for lam, v in minors.items()} == expect


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


@SETTINGS
@given(st.data(), st.integers(0, 3), st.integers(0, 3), QS,
       st.sampled_from(SUM_MODES))
def test_sum_mode_value_is_sum_of_pieces(data, n, m, q, mode):
    spec = QBosonSpec(BoxSpec(n, m), q)
    xs, ys = data.draw(points(n)), data.draw(points(n))
    assert scalar_product_q(xs, ys, spec, mode) == sum(
        graded_components(xs, ys, spec, mode, n * m))


@SETTINGS
@given(st.data(), st.integers(1, 3), st.integers(0, 3),
       st.one_of(QS, RATIONALS))
def test_mode_report_agrees_with_hl_sum_through_degree_m(data, n, m, q):
    # det_quotient's pieces divide the int pieces of big_schur at Q = 0;
    # it is the one mode the report can leave out, where S(x, Qy) = 0
    box = BoxSpec(n, m)
    spec = QBosonSpec(box, q)
    xs, ys = data.draw(points(n)), data.draw(points(n))
    rep = mode_agreement_report(xs, ys, spec)
    hl = graded_components(xs, ys, spec, "hl_sum", m)
    for mode in rep["values"]:
        assert graded_components(xs, ys, spec, mode, m) == hl
        assert rep["graded_equal_hl"][mode]
    assert set(rep["graded_equal_hl"]) == set(rep["values"])
    undefined = scalar_product(xs, [q * y for y in ys], box, "det") == 0
    assert ("det_quotient" not in rep["values"]) == undefined
    assert set(rep["values"]) | {"det_quotient"} == set(MODES)


@SETTINGS
@given(st.lists(st.integers(-4, 4), max_size=4), st.integers(-3, 3),
       st.integers(0, 6))
def test_int_inputs_read_as_fractions(ints, q, kmax):
    fracs = [F(v) for v in ints]
    assert q_coeff_ints(ints, q, kmax) == q_coeff_ints(fracs, F(q), kmax)
    v_int, *rest_int = hall_littlewood_ints(ints, q)
    v_frac, *rest_frac = hall_littlewood_ints(fracs, F(q))
    assert rest_int == rest_frac
    for lam in enumerate_in_box(len(ints), 3):
        assert v_int(lam) == v_frac(lam)


def test_public_routes_accept_rational_strings():
    box = BoxSpec(2, 2)
    xs, ys, q = ["1/2", "-1/3"], ["2/5", "0"], "-3/7"
    fx, fy, fq = [F(v) for v in xs], [F(v) for v in ys], F(q)
    for mode in ("det", "schur_sum"):
        assert (scalar_product(xs, ys, box, mode)
                == scalar_product(fx, fy, box, mode))
    for mode in ("det", "skew_sum"):
        assert (correlation_Am(xs, ys[:1], 1, box, mode)
                == correlation_Am(fx, fy[:1], 1, box, mode))
    for mode in ("hl_sum", "det_quotient", "big_schur", "twisted_schur"):
        assert (scalar_product_q(xs, ys, QBosonSpec(box, q), mode)
                == scalar_product_q(fx, fy, QBosonSpec(box, fq), mode))
    assert q_coeff_list(ys, q, 4) == q_coeff_list(fy, fq, 4)
    assert q_coeff_ints(ys, q, 4) == q_coeff_ints(fy, fq, 4)
    v_str, *rest_str = hall_littlewood_ints(xs, q)
    v_frac, *rest_frac = hall_littlewood_ints(fx, fq)
    assert rest_str == rest_frac and v_str((2, 1)) == v_frac((2, 1))


_BOX = BoxSpec(2, 3)
_XS, _YS = [F(1, 2), 0.1], [F(1, 5), F(2, 7)]
_SPEC = QBosonSpec(_BOX, F(-3, 7))
FLOAT_INPUTS = {
    "scalar_product-det": lambda: scalar_product(_XS, _YS, _BOX, "det"),
    "scalar_product-schur_sum": lambda: scalar_product(
        _XS, _YS, _BOX, "schur_sum"),
    "correlation_Am-det": lambda: correlation_Am(_XS, _YS[:1], 1, _BOX,
                                                 "det"),
    "correlation_Am-skew_sum": lambda: correlation_Am(
        _XS, _YS[:1], 1, _BOX, "skew_sum"),
    "correlation_Am_power_column": lambda: correlation_Am_power_column(
        _XS, _YS[:1], 1, _BOX),
    "correlation_skew": lambda: correlation_skew((1,), (), _XS, _YS, _BOX),
    "factorization_report": lambda: factorization_report(
        (1,), (1,), _XS, _YS, _BOX),
    **{f"scalar_product_q-{mode}": (
        lambda mode=mode: scalar_product_q(_YS, _XS, _SPEC, mode))
       for mode in MODES},
    "graded_components": lambda: graded_components(
        _XS, _YS, _SPEC, "hl_sum", 2),
    "mode_agreement_report": lambda: mode_agreement_report(_XS, _YS, _SPEC),
    "QBosonSpec-q": lambda: QBosonSpec(_BOX, 0.1),
    "q_coeff_ints-q": lambda: q_coeff_ints(_YS, 0.1, 3),
    "hall_littlewood_ints-q": lambda: hall_littlewood_ints(_YS, 0.1),
    "oracle_pairing-phase": lambda: fock_oracle.oracle_pairing(
        "phase", _BOX, _XS, _YS),
    "oracle_pairing-qboson": lambda: fock_oracle.oracle_pairing(
        "qboson", _SPEC, _YS, _XS),
    "bethe_state": lambda: fock_oracle.bethe_state("phase", _BOX, _XS),
    "build_monodromy": lambda: fock_oracle.build_monodromy(
        "qboson", _SPEC, 0.5),
    "commutation_check": lambda: fock_oracle.commutation_check(
        "phase", _BOX, F(1, 2), 0.1),
    # the times and series routes
    "TruncatedSeries-coefficient": lambda: TruncatedSeries(
        ("x",), 2, {(1,): 0.1}),
    "h_from_times": lambda: h_from_times([0.1], 2),
    "power_series_div": lambda: power_series_div([0.1], [1], 2),
    "from_points": lambda: from_points(_XS, 2),
    "twist-t": lambda: twist([F(1, 2), 0.1], F(1, 3)),
    "twist-q": lambda: twist([F(1, 2)], 0.1),
    "supersymmetric_times-alpha": lambda: supersymmetric_times(
        _XS, [F(1, 3)], 2),
    "supersymmetric_times-beta": lambda: supersymmetric_times(
        [F(1, 3)], _XS, 2),
    "hl_series-q": lambda: hl_series((1,), xy_names(1, 1), 2, 0.1),
    "cauchy_kernel_series-q": lambda: cauchy_kernel_series(1, 1, 2, 0.1),
    "schur_pair_sum_miwa": lambda: schur_pair_sum_miwa(
        1, [0.1], [F(1, 2)], 2),
    "matrix_integral_constant_term": lambda: matrix_integral_constant_term(
        1, [F(1, 2)], [0.1], 2, "minus"),
    "SuiteConfig-q_values": lambda: SuiteConfig("kostka", q_values=(0.1,)),
    # the determinant kernels
    "jacobi_trudi": lambda: jacobi_trudi([1, 0.5], (1,)),
    "det_rational": lambda: det_rational([[0.5]]),
    "box_minors-gens": lambda: box_minors([1, 0.5, 0.25], 1, 1, 2),
    "box_minors-den": lambda: box_minors([1, 3, 9], 2.0, 1, 2),
    # n = 0 has no row to clear, so den must be refused on its own
    "box_minors-den-empty": lambda: box_minors([1], 2.0, 0, 0),
    "box_minors-den-n0": lambda: box_minors([1, 3, 9], 2.0, 0, 3),
}


@pytest.mark.parametrize("route", FLOAT_INPUTS.values(), ids=FLOAT_INPUTS)
def test_every_route_rejects_a_float(route):
    # a float is read as its binary value (0.1 would be
    # 3602879701896397/36028797018963968), which is not the rational it
    # was written as, so an exact route refuses it
    with pytest.raises(TypeError, match="float"):
        route()


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
    # Points that are Fractions and Q are read as they are, so a route
    # makes one Fraction, for the value it returns.  The correlation
    # determinants make a second when they flip its sign; det_quotient
    # makes the three Q*y, its two determinants and their quotient; and
    # graded_components makes one per piece.  mode_agreement_report makes
    # one per sum-mode value and one per piece in its window (its
    # twisted_schur y-list runs on ints, Newton's identity on int power
    # sums over the lcm of the point denominators); its det_quotient
    # series division reads the Fraction Q^d c_d as they are, through the
    # exact-input gate.  One Fraction per term would add at least 20 to
    # any count.
    box = BoxSpec(3, 3)
    xs, ys = [F(1, 2), F(-1, 3), F(2, 5)], [F(1, 5), F(2, 7), F(0)]
    spec = QBosonSpec(box, F(-3, 7))
    counts = {
        "schur_sum": (lambda: scalar_product(xs, ys, box, "schur_sum"), 1),
        "det": (lambda: scalar_product(xs, ys, box, "det"), 1),
        "skew_sum": (
            lambda: correlation_Am(xs, ys[:2], 1, box, "skew_sum"), 1),
        "correlation det": (
            lambda: correlation_Am(xs, ys[:2], 1, box, "det"), 2),
        "power column": (lambda: correlation_Am_power_column(
            xs, ys[:2], 1, BoxSpec(3, 4)), 2),
        "hl_sum": (lambda: scalar_product_q(xs, ys, spec, "hl_sum"), 1),
        "big_schur": (lambda: scalar_product_q(xs, ys, spec, "big_schur"),
                      1),
        "det_quotient": (
            lambda: scalar_product_q(xs, ys, spec, "det_quotient"), 6),
        "hl_sum pieces": (
            lambda: graded_components(xs, ys, spec, "hl_sum", 9), 10),
        "mode report": (lambda: mode_agreement_report(xs, ys, spec), 51),
    }
    assert {name: _fractions_made(route)
            for name, (route, _) in counts.items()} == {
        name: made for name, (_, made) in counts.items()}
