"""Property tests: TruncatedSeries arithmetic against dense references.

The references add and multiply every pair of terms, with no
truncation and no zero test of their own, and hand the result to the
validating public constructor, which truncates it and drops zeros.  The
arithmetic builds its results without that validation, so each result
must come out equal to the reference and hold the invariants itself:
nonzero Fraction coefficients and no term past its cutoff.

Operands have cutoffs drawn independently, so sums and products mix
cutoffs, and coefficients come from a pool of ints and Fractions of
both signs, so terms cancel often; the second operand of a pair also
negates some of the first operand's terms, so whole sums cancel, and
(a + b)(a - b) makes products whose cross terms cancel.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtau.algebra_core import TruncatedSeries

VARS = ("x", "y")
EXPONENTS = st.tuples(st.integers(0, 3), st.integers(0, 3))
COEFFS = st.sampled_from([0, 1, -1, 2, F(1, 2), F(-1, 2), F(2, 3)])
SCALARS = st.sampled_from([0, 1, -1, 3, F(0), F(1, 2), F(-2, 3)])
SETTINGS = settings(max_examples=80, deadline=None)


@st.composite
def series_pair(draw):
    a = TruncatedSeries(VARS, draw(st.integers(0, 5)),
                        draw(st.dictionaries(EXPONENTS, COEFFS, max_size=6)))
    terms = draw(st.dictionaries(EXPONENTS, COEFFS, max_size=6))
    for expo in draw(st.lists(st.sampled_from(sorted(a.terms) or [(0, 0)]),
                              max_size=4)):
        terms[expo] = -a.terms.get(expo, 0)
    return a, TruncatedSeries(VARS, draw(st.integers(0, 5)), terms)


def dense_sum(a, b, sign):
    terms = {e: a.terms.get(e, 0) + sign * b.terms.get(e, 0)
             for e in set(a.terms) | set(b.terms)}
    return TruncatedSeries(VARS, min(a.cutoff, b.cutoff), terms)


def dense_product(a, b):
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            expo = tuple(i + j for i, j in zip(e1, e2))
            terms[expo] = terms.get(expo, 0) + c1 * c2
    return TruncatedSeries(VARS, min(a.cutoff, b.cutoff), terms)


def dense_scale(a, scalar):
    return TruncatedSeries(VARS, a.cutoff,
                           {e: c * scalar for e, c in a.terms.items()})


def assert_matches(result, reference):
    assert result.variables == reference.variables
    assert result.cutoff == reference.cutoff
    assert result.terms == reference.terms
    assert all(type(c) is F and c != 0 for c in result.terms.values())
    assert all(sum(e) <= result.cutoff for e in result.terms)
    with pytest.raises(AttributeError):
        result.cutoff = 0


@SETTINGS
@given(series_pair())
def test_sums_and_products_match_the_dense_reference(pair):
    a, b = pair
    assert_matches(a + b, dense_sum(a, b, 1))
    assert_matches(b + a, dense_sum(b, a, 1))
    assert_matches(a - b, dense_sum(a, b, -1))
    assert_matches(-b, dense_scale(b, -1))
    assert_matches(a * b, dense_product(a, b))
    assert_matches(b * a, dense_product(b, a))
    # (a + b)(a - b): the cross terms ab and ba cancel term by term
    assert_matches((a + b) * (a - b), dense_product(a + b, a - b))


@SETTINGS
@given(series_pair())
def test_cancelling_sums_are_the_zero_series(pair):
    a, b = pair
    for zero in (a - a, a + -a, -a + a, (a + b) - b - a):
        assert_matches(zero, TruncatedSeries.zero(VARS, zero.cutoff))
        assert zero.terms == {}
    assert zero.cutoff == min(a.cutoff, b.cutoff)


@SETTINGS
@given(series_pair(), SCALARS)
def test_int_and_fraction_scalars_match_the_dense_reference(pair, scalar):
    a, _ = pair
    reference = dense_scale(a, scalar)
    assert_matches(a.scale(scalar), reference)
    assert_matches(a * scalar, reference)
    assert_matches(scalar * a, reference)
    if scalar == 0:
        assert a.scale(scalar).terms == {}
