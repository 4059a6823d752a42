"""Property tests: each library route against its reference in tests/.

Points are signed rationals, zero and repeats included; Q is drawn from
0, 1, -1, 2 and random signed rationals.  Sizes stay at N <= 4 and
|lam| <= 6 so the run stays short.
"""

from fractions import Fraction as F
from math import lcm

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtau.algebra_core import det_rational, h_from_times, jacobi_trudi
from qtau.miwa import from_points, twist
from qtau.partitions import b_lambda, contains, partitions_of, weight
from qtau.phase_model import BoxSpec, giambelli_check
from qtau.qboson_model import QBosonSpec, scalar_product_q
from qtau.symfunc import hall_littlewood_ints, q_coeff_list
from symfunc_reference import (big_schur_matrix, det_fraction,
                               giambelli_fraction, hall_littlewood_fraction,
                               hl_symmetrization, hl_via_monomials,
                               schur_bialternant, schur_in_miwa_matrix,
                               schur_value, v_lambda)

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=7)
QS = st.one_of(st.sampled_from([F(0), F(1), F(-1), F(2)]), RATIONALS)
PARTITIONS = st.integers(0, 6).flatmap(
    lambda d: st.sampled_from(partitions_of(d)))
DISTINCT_POINTS = st.lists(RATIONALS, min_size=1, max_size=4, unique=True)


@st.composite
def points(draw, min_size=1):
    """min_size-4 points from a small pool, so repeats and zeros come up
    often."""
    pool = draw(st.lists(RATIONALS, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool + [F(0)]), min_size=min_size,
                         max_size=4))


SETTINGS = settings(max_examples=30, deadline=None)


def hl_value(xs, q):
    """lam -> P_lam(x; Q), one Fraction from ``hall_littlewood_ints``."""
    V, L, B = hall_littlewood_ints(xs, q)
    return lambda lam: F(V(lam), L ** weight(lam) * B)


@SETTINGS
@given(PARTITIONS, points(), QS)
def test_hall_littlewood_matches_monomial_table(lam, xs, q):
    assert hl_value(xs, q)(lam) == hl_via_monomials(lam, xs, q)


@SETTINGS
@given(PARTITIONS, DISTINCT_POINTS, QS)
def test_hall_littlewood_matches_symmetrization(lam, xs, q):
    assume(v_lambda(lam, len(xs), q) != 0)
    assert hl_value(xs, q)(lam) == hl_symmetrization(lam, xs, q)


SHAPES = [lam for d in range(7) for lam in partitions_of(d)]


@SETTINGS
@given(st.one_of(st.just([]), points()), QS)
def test_hall_littlewood_matches_fraction_branching(xs, q):
    # every |lam| <= 6, so shapes longer than the point set come up too;
    # and the kernel's stated bound: V(lam) = P_lam(x; Q) L^{|lam|} B is
    # an int, for L the lcm of the point denominators, Q = a/b and
    # B = b^{N(N-1)/2}
    V, L, B = hall_littlewood_ints(xs, q)
    assert L == lcm(*(F(x).denominator for x in xs))
    assert B == F(q).denominator ** (len(xs) * (len(xs) - 1) // 2)
    ref = hall_littlewood_fraction(xs, q)
    for lam in SHAPES:
        value = V(lam)
        assert isinstance(value, int)
        assert value == ref(lam) * L ** weight(lam) * B


@SETTINGS
@given(points(), points(), st.integers(0, 3), QS)
def test_hl_sum_matches_fraction_branching(xs, ys, m, q):
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    spec = QBosonSpec(BoxSpec(n, m), q)
    px, py = hall_littlewood_fraction(xs, q), hall_littlewood_fraction(ys, q)
    expect = sum((b_lambda(lam)(q) * px(lam) * py(lam)
                  for lam in spec.box.partitions()), F(0))
    assert scalar_product_q(xs, ys, spec, "hl_sum") == expect


@SETTINGS
@given(PARTITIONS, DISTINCT_POINTS)
def test_schur_matches_bialternant(lam, xs):
    assert schur_value(lam, xs) == schur_bialternant(lam, xs)


@SETTINGS
@given(PARTITIONS, points(), points())
def test_skew_schur_branching(lam, xs, ys):
    # s_lam(x, y) = sum_mu s_mu(x) s_{lam/mu}(y)
    total = sum(schur_value(mu, xs) * schur_value(lam, ys, mu)
                for d in range(weight(lam) + 1) for mu in partitions_of(d))
    assert total == schur_value(lam, xs + ys)


@SETTINGS
@given(PARTITIONS, PARTITIONS, points())
def test_jacobi_trudi_vanishes_off_containment(lam, mu, ys):
    assume(not contains(lam, mu))
    hs = q_coeff_list(ys, 0, weight(lam) + weight(mu))
    assert jacobi_trudi(hs, lam, mu) == 0


@SETTINGS
@given(PARTITIONS, points(), QS)
def test_big_schur_matches_matrix(lam, ys, q):
    big = jacobi_trudi(q_coeff_list(ys, q, weight(lam)), lam)
    assert big == big_schur_matrix(lam, ys, q)


@SETTINGS
@given(PARTITIONS, points(), QS)
def test_schur_in_miwa_matches_matrix(lam, xs, q):
    t = twist(from_points(xs, max(1, weight(lam))), q)
    value = jacobi_trudi(h_from_times(t, len(t)), lam)
    assert value == schur_in_miwa_matrix(lam, t)
    assert value == jacobi_trudi(q_coeff_list(xs, q, weight(lam)), lam)


ENTRIES = st.one_of(st.integers(-5, 5), RATIONALS)


@st.composite
def square_matrices(draw):
    """n x n, n <= 6, of ints and signed Fractions.

    Each row may have up to n-1 leading entries zeroed, so the
    elimination has to swap; a third of the matrices then get a zero row
    and a third a repeated row, so singular matrices come up too.
    """
    n = draw(st.integers(0, 6))
    flat = draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))
    leads = draw(st.lists(st.integers(0, max(0, n - 1)), min_size=n,
                          max_size=n))
    rows = [[0] * k + flat[i * n + k:(i + 1) * n]
            for i, k in enumerate(leads)]
    if n:
        kind = draw(st.sampled_from(("as drawn", "zero row", "repeat row")))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "zero row":
            rows[i] = [0] * n
        elif kind == "repeat row":
            rows[i] = list(rows[j])
    return rows


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_det_rational_matches_fraction_elimination(rows):
    assert det_rational(rows) == det_fraction(rows)


@SETTINGS
@given(points(min_size=0),
       st.lists(st.integers(0, 8).flatmap(
           lambda d: st.sampled_from(partitions_of(d))), max_size=6))
def test_giambelli_ints_match_fractions(ys, shapes):
    # the int check compares D^|lam| times both sides; the reference
    # compares the Fraction values themselves
    assert giambelli_check(ys, shapes) == giambelli_fraction(ys, shapes)
