"""Property tests: the one-sweep minor kernel against elimination.

``maximal_minors`` and ``jacobi_trudi_box`` replace one Gaussian
elimination per partition, and ``_delta_det`` expands det H(x, delta y)
by Cauchy-Binet over them.  Each is compared here with ``det_rational``
on signed, zero and repeated inputs.
"""

from fractions import Fraction as F
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from qtau.algebra_core import (det_rational, jacobi_trudi, jacobi_trudi_box,
                               maximal_minors)
from qtau.partitions import enumerate_in_box
from qtau.phase_model import BoxSpec, h_matrix
from qtau.qboson_model import _delta_det
from qtau.symfunc import homogeneous_list, q_coeff_list

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=7)
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def points(draw, size):
    """`size` points from a small pool, so repeats and zeros come up often."""
    pool = draw(st.lists(RATIONALS, min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool + [F(0)]), min_size=size,
                         max_size=size))


@st.composite
def matrices(draw):
    """n x K with n <= 4, K <= 8, rows drawn from a pool with a zero row."""
    n, width = draw(st.integers(0, 4)), draw(st.integers(0, 8))
    row = st.lists(st.one_of(st.just(F(0)), RATIONALS), min_size=width,
                   max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=3)) + [[F(0)] * width]
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@SETTINGS
@given(matrices())
def test_maximal_minors_match_elimination(rows):
    n = len(rows)
    width = len(rows[0]) if rows else 0
    minors = maximal_minors(rows)
    subsets = list(combinations(range(width), n))
    assert list(minors) == subsets
    for cols in subsets:
        assert minors[cols] == det_rational([[row[c] for c in cols]
                                             for row in rows])


@SETTINGS
@given(st.data(), st.integers(0, 4), st.integers(0, 5),
       st.sampled_from(["h", "q"]))
def test_jacobi_trudi_box_matches_single_values(data, n, m, kind):
    pts = data.draw(points(data.draw(st.integers(0, 4))))
    if kind == "h":
        gens = homogeneous_list(pts, n + m)
    else:
        q = data.draw(st.one_of(st.sampled_from([F(0), F(1), F(-1)]),
                                RATIONALS))
        gens = q_coeff_list(pts, q, n + m)
    for mu in ((), (m,), (1,) * (n + 1)):
        table = jacobi_trudi_box(gens, n, m, mu)
        box = enumerate_in_box(n, m)
        assert sorted(table) == sorted(box)
        for lam in box:
            assert table[lam] == jacobi_trudi(gens, lam, mu)


@SETTINGS
@given(st.data(), st.integers(0, 3), st.integers(0, 4))
def test_delta_det_matches_scaled_kernel(data, n, m):
    box = BoxSpec(n, m)
    xs, ys = data.draw(points(n)), data.draw(points(n))
    poly = _delta_det(xs, ys, box)
    for delta in (F(1, 2), F(-3), F(2, 7)):
        assert poly(delta) == det_rational(
            h_matrix(xs, [delta * y for y in ys], box))
