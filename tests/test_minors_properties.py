"""Property tests: the one-sweep minor kernel and the divided-difference
determinants against references.

``maximal_minors`` and ``box_minors`` replace one Gaussian elimination
per partition; each is compared here with ``det_rational``
on signed, zero and repeated inputs, and the sweep, which runs on rows
cleared of denominators, on rows that mix ints with Fractions of large
denominators.  The determinant quotient and the
power-column determinant take divided differences instead of dividing
by Vandermondes.  Where the Vandermonde references of
``symfunc_reference`` are defined they must agree; at coincident points
the quotient's graded pieces are arbitrated by the branching-rule
``hl_sum``, and the power column by interpolating the reference in the
repeated point, since det C / Delta(x) is a polynomial in each point.
"""

from fractions import Fraction as F
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from qtau.algebra_core import (box_minors, det_rational, jacobi_trudi,
                               maximal_minors)
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


# the sweep clears each row's denominators: rows mix plain ints with
# Fractions whose denominators reach 10**6
ENTRIES = st.one_of(st.just(F(0)), RATIONALS, st.integers(-9, 9),
                    st.fractions(min_value=-5, max_value=5,
                                 max_denominator=10 ** 6))


@st.composite
def matrices(draw):
    """n x K with n <= 4, K <= 8, rows drawn from a pool with a zero row."""
    n, width = draw(st.integers(0, 4)), draw(st.integers(0, 8))
    row = st.lists(ENTRIES, min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=3)) + [[F(0)] * width]
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@SETTINGS
@given(matrices())
def test_maximal_minors_match_elimination(rows):
    n = len(rows)
    width = len(rows[0]) if rows else 0
    minors, scale = maximal_minors(rows)
    subsets = list(combinations(range(width), n))
    assert list(minors) == subsets
    for cols in subsets:
        assert type(minors[cols]) is int
        assert F(minors[cols], scale) == det_rational([[row[c] for c in cols]
                                                       for row in rows])


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
    for mu in ((), (m,), (1,) * (n + 1)):
        table, scale = box_minors(*q_coeff_ints(pts, q, n + m), n, m, mu)
        box = enumerate_in_box(n, m)
        assert sorted(table) == sorted(box)
        for lam in box:
            assert F(table[lam], scale) == jacobi_trudi(gens, lam, mu)


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
