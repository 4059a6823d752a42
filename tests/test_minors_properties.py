"""Property tests: the one-sweep box kernel and the divided-difference
determinants against references.

``box_minors`` replaces one Gaussian elimination per partition with one
Laplace sweep over the whole box; each of its values is compared here
with the single ``jacobi_trudi`` determinant on signed, zero and
repeated points.  The generators come both as ints over a graded
denominator and as Fractions, which the sweep first clears of
denominators, and mu ranges over the empty shape, a row as wide as
the box, a column longer than it, and the rows m+1 and n+m+1 wider
than it, whose matrix rows lie past the last column; the scale is an
int in every case.  The determinant quotient and the
power-column determinant take divided differences instead of dividing
by Vandermondes.  Where the Vandermonde references of
``symfunc_reference`` are defined they must agree; at coincident points
the quotient's graded pieces are arbitrated by the branching-rule
``hl_sum``, and the power column by interpolating the reference in the
repeated point, since det C / Delta(x) is a polynomial in each point.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from qtau.algebra_core import box_minors, jacobi_trudi
from qtau.partitions import enumerate_in_box
from qtau.phase_model import BoxSpec, correlation_Am_power_column
from qtau.qboson_model import (QBosonSpec, graded_components,
                               scalar_product_q)
from qtau.symfunc import q_coeff_ints, q_coeff_list

from symfunc_reference import (det_quotient_components_reference,
                               det_quotient_reference, power_column_reference)

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=7)
QS = st.one_of(st.sampled_from([F(0), F(1), F(-1), F(2)]), RATIONALS)
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def points(draw, size):
    """`size` points from a small pool, so repeats and zeros come up often."""
    pool = draw(st.lists(RATIONALS, min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool + [F(0)]), min_size=size,
                         max_size=size))


@SETTINGS
@given(st.data(), st.integers(0, 4), st.integers(0, 5),
       st.sampled_from(["h", "q"]))
def test_box_minors_match_single_values(data, n, m, kind):
    pts = data.draw(points(data.draw(st.integers(0, 4))))
    q = F(0)
    if kind == "q":
        q = data.draw(st.one_of(st.sampled_from([F(0), F(1), F(-1)]),
                                RATIONALS))
    gens = q_coeff_list(pts, q, n + m)
    box = enumerate_in_box(n, m)
    # ints over a graded denominator, and Fractions over den 1 (the
    # twisted_schur y-list reaches box_minors as Fractions)
    for args in (q_coeff_ints(pts, q, n + m), (gens, 1)):
        for mu in ((), (m,), (m + 1,), (1,) * (n + 1), (n + m + 1,)):
            table, scale = box_minors(*args, n, m, mu)
            assert sorted(table) == sorted(box)
            assert type(scale) is int
            for lam in box:
                assert type(table[lam]) is int
                assert F(table[lam], scale) == jacobi_trudi(gens, lam, mu)
            if mu and mu[0] > m:
                # mu wider than the box, so no lam in it contains mu
                assert not any(table.values())


def _distinct(pts):
    return len(set(pts)) == len(pts)


@SETTINGS
@given(st.data(), st.integers(0, 3), st.integers(0, 4), QS)
def test_det_quotient_matches_reference(data, n, m, q):
    box = BoxSpec(n, m)
    xs, ys = data.draw(points(n)), data.draw(points(n))
    if not (_distinct(xs) and _distinct(ys)):
        return
    try:
        expect = det_quotient_reference(xs, ys, box, q)
    except ZeroDivisionError:  # det H(x, Qy) = 0
        return
    spec = QBosonSpec(box, q)
    assert scalar_product_q(xs, ys, spec, "det_quotient") == expect
    assert (graded_components(xs, ys, spec, "det_quotient", m)
            == det_quotient_components_reference(xs, ys, box, q, m))


@SETTINGS
@given(st.data(), st.integers(0, 3), st.integers(0, 4), QS)
def test_det_quotient_graded_equals_hl_sum(data, n, m, q):
    # at any points, repeated and zero ones included
    spec = QBosonSpec(BoxSpec(n, m), q)
    xs, ys = data.draw(points(n)), data.draw(points(n))
    assert (graded_components(xs, ys, spec, "det_quotient", m)
            == graded_components(xs, ys, spec, "hl_sum", m))


def _lagrange_at(nodes, values, a):
    total = F(0)
    for i, (t_i, v_i) in enumerate(zip(nodes, values)):
        term = v_i
        for j, t_j in enumerate(nodes):
            if j != i:
                term *= (a - t_j) / (t_i - t_j)
        total += term
    return total


@SETTINGS
@given(st.data(), st.integers(2, 4), st.integers(0, 5))
def test_power_column_interpolates_at_repeated_point(data, n, m):
    if (m + n - 1) % 2:
        m += 1
    site = data.draw(st.integers(0, (m + n - 1) // 2))
    box = BoxSpec(n, m)
    rest = data.draw(st.lists(RATIONALS, min_size=n - 1, max_size=n - 1,
                              unique=True))
    slot = data.draw(st.integers(0, n - 1))
    a = data.draw(st.sampled_from(rest))
    ys = data.draw(points(n - 1))

    def with_point(t):
        return rest[:slot] + [t] + rest[slot:]

    # the rest lie in [-3, 3], so these nodes are distinct from them
    nodes = [F(4 + k) for k in range(m + n + 1)]
    values = [power_column_reference(with_point(t), ys, site, box)
              for t in nodes]
    assert (correlation_Am_power_column(with_point(a), ys, site, box)
            == _lagrange_at(nodes, values, a))
