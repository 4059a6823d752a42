"""Property tests: QPoly ring operations and mat_mul_ring against dense
references that multiply every coefficient and every matrix entry, zero
or not.

Coefficients are ints drawn from a small pool that holds zero and both
signs, so zero coefficients, cancelling sums and cancelling leading
terms come up often.  ``mat_mul_ring`` packs each polynomial into one
int at a width proven from its inputs, so it is also tested on wide
coefficients and high degrees, and on one product that reaches the
proven bound.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtau.algebra_core import QPoly, mat_mul_ring

INTS = st.sampled_from([0, 0, 1, -1, 2, -3])
COEFF_LISTS = st.lists(INTS, max_size=6)
CONSTANTS = INTS
SETTINGS = settings(max_examples=60, deadline=None)


def trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def dense_add(a, b):
    n = max(len(a), len(b))
    return trimmed((a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
                   for k in range(n))


def dense_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] += a[i] * b[j]
    return trimmed(out)


def same(p: QPoly, coeffs) -> bool:
    """Equal coefficients, every one an int."""
    return p.coeffs == coeffs and all(type(c) is int for c in p.coeffs)


@SETTINGS
@given(COEFF_LISTS, COEFF_LISTS)
def test_ring_operations_match_the_dense_reference(a, b):
    p, q = QPoly(a), QPoly(b)
    neg_b = [-c for c in b]
    assert same(p, trimmed(a))
    assert same(p + q, dense_add(a, b))
    assert same(p - q, dense_add(a, neg_b))
    assert same(-q, trimmed(neg_b))
    assert same(p * q, dense_mul(a, b))
    assert same(q * p, dense_mul(b, a))


@SETTINGS
@given(COEFF_LISTS, CONSTANTS)
def test_constants_on_either_side(a, c):
    p = QPoly(a)
    assert same(p + c, dense_add(a, [c])) and same(c + p, dense_add([c], a))
    assert same(p - c, dense_add(a, [-c]))
    assert same(c - p, dense_add([c], [-x for x in a]))
    assert same(p * c, dense_mul(a, [c])) and same(c * p, dense_mul([c], a))


@SETTINGS
@given(COEFF_LISTS, COEFF_LISTS)
def test_cancelling_results_are_the_zero_polynomial(a, b):
    p, q = QPoly(a), QPoly(b)
    zero = QPoly(())
    for r in (p - p, p + -p, -p + p, p * 0, 0 * p, p * zero,
              (p + q) - q - p, p * q - q * p):
        assert r == zero and r.coeffs == ()
        assert hash(r) == hash(zero)
        assert not r and r.is_zero()
    assert bool(p) == bool(trimmed(a))
    # a sum whose top coefficients cancel drops them
    assert (p + q) - q == p


@st.composite
def matrix_pair(draw):
    """(A, B) of QPoly entries with a zero row of A, a zero column of B
    and entries drawn so that row-by-column sums often cancel."""
    rows, mid, cols = (draw(st.integers(1, 4)) for _ in range(3))
    pool = [QPoly(()), QPoly((1,)), QPoly((-1,)), QPoly((0, 1)),
            QPoly((0, -1)), QPoly((1, -1)), QPoly((3, 0, 2))]
    entry = st.sampled_from(pool)
    a = [[draw(entry) for _ in range(mid)] for _ in range(rows)]
    b = [[draw(entry) for _ in range(cols)] for _ in range(mid)]
    a[draw(st.integers(0, rows - 1))] = [QPoly(())] * mid
    zero_col = draw(st.integers(0, cols - 1))
    for row in b:
        row[zero_col] = QPoly(())
    return a, b


@SETTINGS
@given(matrix_pair())
def test_mat_mul_ring_matches_the_dense_triple_loop(pair):
    a, b = pair
    dense = [[sum((a[i][k] * b[k][j] for k in range(len(b))), QPoly(()))
              for j in range(len(b[0]))] for i in range(len(a))]
    product = mat_mul_ring(a, b)
    assert product == dense
    assert all(type(x) is QPoly for row in product for x in row)


def dense_mat_mul(a, b):
    """Coefficient tuples of every row-by-column sum, each term added."""
    return [[dense_sum([dense_mul(x.coeffs, b[k][j].coeffs)
                        for k, x in enumerate(row)])
             for j in range(len(b[0]))] for row in a]


def dense_sum(polys):
    acc = ()
    for p in polys:
        acc = dense_add(acc, p)
    return acc


WIDE_INTS = st.integers(-2 ** 60, 2 ** 60)


@st.composite
def wide_matrix_pair(draw):
    """(A, B) with int coefficients up to 2^60 in size and degrees up to
    40.  Some entries are flat (one coefficient repeated), whose products
    pile |.|_1-sized sums onto the middle degrees.  Sometimes column 1 of
    A repeats column 0 while row 1 of B negates row 0, so those two terms
    of every row-by-column sum cancel (all of it when mid = 2)."""
    rows, mid, cols = (draw(st.integers(1, 3)) for _ in range(3))
    cancel = draw(st.booleans())
    mid = max(mid, 2) if cancel else mid

    def matrix(nrows, ncols):
        entry = st.one_of(
            st.lists(WIDE_INTS, max_size=41).map(QPoly),
            st.builds(lambda c, n: QPoly([c] * n), WIDE_INTS,
                      st.integers(0, 41)))
        return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]

    a, b = matrix(rows, mid), matrix(mid, cols)
    if cancel:
        for row in a:
            row[1] = row[0]
        b[1] = [-x for x in b[0]]
    return a, b


def assert_matches_dense(a, b):
    product = mat_mul_ring(a, b)
    assert [[p.coeffs for p in row] for row in product] == dense_mat_mul(a, b)
    assert all(type(p) is QPoly for row in product for p in row)
    assert all(type(c) is int for row in product for p in row
               for c in p.coeffs)
    return product


@settings(max_examples=80, deadline=None)
@given(wide_matrix_pair())
def test_mat_mul_ring_on_wide_coefficients_and_denominators(pair):
    assert_matches_dense(*pair)


@pytest.mark.parametrize("sign", [1, -1])
def test_mat_mul_ring_reaches_the_proven_width_bound(sign):
    # Every entry of a has |.|_1 = c and every entry of b has |.|_1 = |d|,
    # so the bound is mid * c * |d|, and entry (0, 0) is exactly
    # sign * mid * c * |d| Q^3; the bound is odd, so a width one bit
    # narrower misreads that coefficient with either sign.
    c, d, mid = 2 ** 60 + 3, sign * (2 ** 60 - 5), 3
    a = [[QPoly([0, 0, c])] * mid, [QPoly([1, -(c - 1)])] * mid]
    b = [[QPoly([0, d]), QPoly([d // 2, d - d // 2])] for _ in range(mid)]
    product = assert_matches_dense(a, b)
    assert product[0][0].coeffs == (0, 0, 0, sign * mid * c * abs(d))
