"""Exact arithmetic carriers used everywhere else in the package.

Scalars are plain ``fractions.Fraction`` values, and a caller's number
enters through one gate, ``_exact``, which the other modules import: a
float raises TypeError.  A caller's shape enters through ``_parts``,
which reads its parts as ints and refuses any other type or a negative
part.  The two carriers below hold exact coefficients,
so that every computation downstream is exact:

  * ``QPoly`` -- a univariate polynomial in Z[Q], the deformation
    parameter, stored densely as a tuple of Python int coefficients,
    constant term first, with no trailing zeros.  The zero polynomial is
    the empty tuple.  Every table it carries lives in Z[Q] (b_lam, [n]!,
    Kostka-Foulkes, c-tilde), so the constructor and the ring operations
    take ints only and raise ``TypeError`` on a Fraction or a float;
    evaluation takes an int or a Fraction.  Zero is falsy.  Products
    skip zero coefficients.
  * ``TruncatedSeries`` -- a multivariate power series truncated at a
    fixed total degree.  Terms live in a dict mapping exponent tuples to
    nonzero Fraction coefficients.  The public constructor validates what
    it is given (arity, cutoff, coefficients read by ``_exact``, no
    zeros); sums, products and scalings truncate at the cutoff and drop
    cancelled terms as they go, so their results skip that validation.
    Scalars are ints or Fractions, never floats.

``mat_mul_ring`` multiplies matrices of ``QPoly`` entries by Kronecker
substitution: each entry is packed into one Python int at a width proven
from the inputs, so each term is one int product.  Terms with a zero
factor are skipped; every verification over the sparse Kostka-Foulkes
and c-tilde tables (K K^-1 = I, both c-tilde identities) runs in full.

The module also carries the small amount of exact linear algebra the
rest of the package needs (determinants by fraction-free elimination on
ints, and power-series division), the coefficients h_k(t) of
exp(sum_k t_k z^k) that the Miwa-coordinate code builds Schur values
from, and the one Jacobi-Trudi matrix that every Schur-type value is
built from: ``jacobi_trudi`` takes its determinant as a Fraction, and
the int Giambelli check of ``phase_model`` takes ``det_int`` of the
same rows over an int h-list.

A box sum needs the Jacobi-Trudi value of every partition in the n x m
box.  Those are the maximal minors (Pluecker coordinates) of a single
n x (n+m) matrix of one-row generators, so ``box_minors`` reads them all
from one division-free Laplace sweep of that matrix, in which every
sub-minor is computed once and shared.  The sweep follows a plan cached
per box shape, ``_box_plan``: each level is a list of sub-minors in the
``combinations`` order of their columns, each sub-minor pulls its terms
from listed places of the level before it, and the last level lines up
with the box's partitions.  A level depends only on n+m and the row, so
``_laplace_level`` shares it among boxes of one width.  The matrix rows come from ``_column``, the
one helper that clears a graded generator list c_k = G_k / D^k to one
scale; it also makes the determinant rows and columns of
``phase_model``.  A box whose every value is zero (mu longer than n, or
wider than m) is settled before the sweep.  ``box_minors`` hands back ints over one
scale, as ``det_int`` hands back an int; a Fraction is made only by the
wrappers that return one (``det_rational``, ``jacobi_trudi``), by
``QPoly`` evaluation and by the series above.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm, prod
from operator import add, itemgetter
from typing import Dict, Iterable, List, Sequence, Tuple

ZERO = Fraction(0)
ONE = Fraction(1)
PointSet = Tuple[Fraction, ...]


def _exact(x) -> Fraction:
    """x as a Fraction, the one gate for a caller's number: a float raises
    TypeError, as its binary value is not the rational it was written as."""
    if isinstance(x, float):
        raise TypeError(f"exact routes take ints, Fractions or 'p/q' "
                        f"strings, not the float {x!r}")
    return x if isinstance(x, Fraction) else Fraction(x)


def _parts(parts: Iterable) -> Tuple[int, ...]:
    """The parts of a shape as a tuple of ints, the one gate for a caller's
    partition: a part that is not an int raises TypeError (a bool too, so
    neither 1.5 nor True passes for a part), and a negative part raises
    ValueError."""
    ps = tuple(parts)
    for p in ps:
        if isinstance(p, bool) or not isinstance(p, int):
            raise TypeError(f"a partition part is an int, not {p!r}")
        if p < 0:
            raise ValueError(f"negative part in partition {ps}")
    return ps


def as_points(xs: Sequence) -> PointSet:
    """The points as Fractions (see ``_exact``)."""
    return tuple(map(_exact, xs))


def _num_den(q) -> Tuple[int, int]:
    """Q = a/b in lowest terms; an int is read directly (see ``_exact``)."""
    q = q if isinstance(q, int) else _exact(q)
    return q.numerator, q.denominator


def _over_lcm(values: Sequence) -> Tuple[List[int], int]:
    """(X, L): exact values x_i = X_i / L as ints over the lcm L of their
    denominators; ints and Fractions are read as they are, and any other
    value, a float included, raises TypeError."""
    try:
        den = lcm(*(x.denominator for x in values))
    except AttributeError:  # a float has no denominator
        bad = next(x for x in values if not isinstance(x, (int, Fraction)))
        raise TypeError(f"exact values are ints or Fractions, not the "
                        f"{type(bad).__name__} {bad!r}") from None
    return [x.numerator * (den // x.denominator) for x in values], den


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational; ValueError if it is none."""
    try:
        return _exact(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a finite rational p/q: {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Render an exact rational as "p/q" (or "p" when the denominator is 1)."""
    return str(_exact(value))


# ---------------------------------------------------------------------------
# univariate polynomials in the deformation parameter
# ---------------------------------------------------------------------------


class QPoly:
    """Dense univariate polynomial with int coefficients.

    Coefficients are constant-term first.  The public constructor takes
    ints only and trims trailing zeros; ring results come from
    ``_trusted``, their coefficients being ints and trimmed already.
    Instances are immutable and hashable, so they can sit in cached tables.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"QPoly coefficients are ints, "
                                f"not {type(c).__name__}")
        object.__setattr__(self, "coeffs", _trimmed(cs))

    @classmethod
    def _trusted(cls, coeffs: Tuple) -> "QPoly":
        """A polynomial over exact coefficients with no trailing zero."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", coeffs)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "QPoly":
        return QPoly._trusted(())

    @staticmethod
    def one() -> "QPoly":
        return QPoly._trusted((1,))

    @staticmethod
    def gen() -> "QPoly":
        """The polynomial Q itself."""
        return QPoly._trusted((0, 1))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "QPoly":
        a, b = self.coeffs, _as_qpoly(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return QPoly._trusted(_trimmed(out))

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly._trusted(tuple([-c for c in self.coeffs]))

    def __sub__(self, other) -> "QPoly":
        return self + (-_as_qpoly(other))

    def __rsub__(self, other) -> "QPoly":
        return _as_qpoly(other) + (-self)

    def __mul__(self, other) -> "QPoly":
        a, b = self.coeffs, _as_qpoly(other).coeffs
        if not a or not b:
            return QPoly._trusted(())
        out = [0] * (len(a) + len(b) - 1)
        b_terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in b_terms:
                    out[i + j] += x * y
        # the top coefficient a[-1] * b[-1] is nonzero: nothing to trim
        return QPoly._trusted(tuple(out))

    __rmul__ = __mul__

    def __call__(self, q) -> Fraction:
        """Evaluate at an exact rational point (Horner)."""
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"QPoly evaluates at an int or a Fraction, not "
                            f"{type(q).__name__}")
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"QPoly({list(self.coeffs)!r})"

    def to_list(self):
        """Coefficients constant-first, as plain strings (JSON friendly)."""
        return [str(c) for c in self.coeffs]


def _trimmed(cs: List) -> Tuple:
    """The coefficient list without its trailing zeros, as a tuple."""
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _as_qpoly(value) -> QPoly:
    if isinstance(value, QPoly):
        return value
    if isinstance(value, int):
        return QPoly._trusted((value,) if value else ())
    raise TypeError(f"cannot coerce {type(value).__name__} to QPoly")


# ---------------------------------------------------------------------------
# truncated multivariate power series
# ---------------------------------------------------------------------------


class TruncatedSeries:
    """Multivariate power series, truncated at a fixed total degree.

    ``variables`` is an ordered tuple of names; ``terms`` maps exponent
    tuples (one slot per variable) to nonzero Fraction coefficients, none
    of total degree above ``cutoff``.  The public constructor validates
    what it is given: it checks the arity, drops terms past the cutoff,
    reads every coefficient through ``_exact`` and drops zeros.  The arithmetic
    keeps those invariants as it goes (a sum or product is truncated at
    the smaller cutoff, and cancelled terms are dropped), so its results
    skip the validation.  Scalars are ints or Fractions only.
    """

    __slots__ = ("variables", "cutoff", "terms")

    def __init__(self, variables: Sequence[str], cutoff: int,
                 terms: Dict[Tuple[int, ...], Fraction] | None = None):
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        vs = tuple(variables)
        kept: Dict[Tuple[int, ...], Fraction] = {}
        for expo, coeff in (terms or {}).items():
            if len(expo) != len(vs):
                raise ValueError("exponent arity does not match variables")
            if sum(expo) > cutoff:
                continue
            c = _exact(coeff)
            if c != 0:
                kept[tuple(expo)] = c
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "terms", kept)

    @classmethod
    def _trusted(cls, variables: Tuple[str, ...], cutoff: int,
                 terms: Dict[Tuple[int, ...], Fraction]) -> "TruncatedSeries":
        """A series over terms that already hold the invariants."""
        series = object.__new__(cls)
        object.__setattr__(series, "variables", variables)
        object.__setattr__(series, "cutoff", cutoff)
        object.__setattr__(series, "terms", terms)
        return series

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables: Sequence[str], cutoff: int) -> "TruncatedSeries":
        return TruncatedSeries(variables, cutoff, {})

    @staticmethod
    def one(variables: Sequence[str], cutoff: int) -> "TruncatedSeries":
        zero_expo = (0,) * len(tuple(variables))
        return TruncatedSeries(variables, cutoff, {zero_expo: ONE})

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries"):
        if self.variables != other.variables:
            raise ValueError("series are over different variable lists")

    def _items_through(self, cutoff: int):
        """The (exponent, coefficient) terms of total degree <= cutoff."""
        if cutoff >= self.cutoff:
            return self.terms.items()
        return [(e, c) for e, c in self.terms.items() if sum(e) <= cutoff]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        cutoff = min(self.cutoff, other.cutoff)
        terms = dict(self._items_through(cutoff))
        for expo, coeff in other._items_through(cutoff):
            acc = terms.get(expo)
            if acc is None:
                terms[expo] = coeff
                continue
            acc += coeff
            if acc:
                terms[expo] = acc
            else:
                del terms[expo]
        return TruncatedSeries._trusted(self.variables, cutoff, terms)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._trusted(
            self.variables, self.cutoff,
            {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        cutoff = min(self.cutoff, other.cutoff)
        # the right factor's terms by degree, so each row stops at the cutoff
        right = sorted(((sum(e), e, c) for e, c in other.terms.items()),
                       key=itemgetter(0))
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            room = cutoff - sum(e1)
            for d2, e2, c2 in right:
                if d2 > room:
                    break
                expo = tuple(map(add, e1, e2))
                acc = terms.get(expo)
                terms[expo] = c1 * c2 if acc is None else acc + c1 * c2
        return TruncatedSeries._trusted(
            self.variables, cutoff, {e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def scale(self, scalar) -> "TruncatedSeries":
        if not isinstance(scalar, (int, Fraction)):
            raise TypeError(
                f"a series scales by an int or a Fraction, not "
                f"{type(scalar).__name__}")
        terms = ({e: c * scalar for e, c in self.terms.items()}
                 if scalar else {})
        return TruncatedSeries._trusted(self.variables, self.cutoff, terms)

    def agrees_through(self, other: "TruncatedSeries", degree: int) -> bool:
        """True when the two series have identical terms of total degree <= degree."""
        self._check_compatible(other)
        if degree > min(self.cutoff, other.cutoff):
            raise ValueError("window exceeds a cutoff; comparison would be vacuous")
        for e, c in self.terms.items():
            if sum(e) <= degree and other.terms.get(e, ZERO) != c:
                return False
        for e, c in other.terms.items():
            if sum(e) <= degree and self.terms.get(e, ZERO) != c:
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.variables == other.variables
                and self.cutoff == other.cutoff
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.variables, self.cutoff,
                     tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return (f"TruncatedSeries(vars={self.variables!r}, "
                f"cutoff={self.cutoff}, nterms={len(self.terms)})")


# ---------------------------------------------------------------------------
# generating series of complete symmetric polynomials from generalized times
# ---------------------------------------------------------------------------


def h_from_times(times: Sequence, kmax: int):
    """Coefficients h_0..h_kmax of exp(sum_{k>=1} t_k z^k).

    ``times`` lists t_1, t_2, ... (missing entries are zero).  The
    recurrence j*h_j = sum_{k=1..j} k*t_k*h_{j-k} is the standard Newton
    identity once k*t_k is read as the k-th power sum.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    ts = [_exact(t) for t in times]
    hs = [ONE]
    for j in range(1, kmax + 1):
        acc = ZERO
        for k in range(1, j + 1):
            if k <= len(ts) and ts[k - 1] != 0:
                acc += k * ts[k - 1] * hs[j - k]
        hs.append(acc / j)
    return hs


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def _cleared_rows(rows: Sequence[Sequence]) -> Tuple[List[List[int]], int]:
    """Each row times the lcm of its entries' denominators, as ints, and
    the product of those lcms; int rows pass through with scale 1."""
    if all(type(x) is int for row in rows for x in row):
        return rows, 1
    scale, out = 1, []
    for row in rows:
        ints, den = _over_lcm(row)
        scale *= den
        out.append(ints)
    return out, scale


def _column(gs: Sequence, den, shift: int = 0) -> Tuple[List, int]:
    """sum_k gs[k] (x/den)^k times x^shift, as (coefficients, scale)."""
    col, scale = [0] * shift + list(gs), 1
    for p in range(len(col) - 2, shift - 1, -1):
        scale *= den
        col[p] *= scale
    return col, scale


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square int matrix, by fraction-free elimination.

    Bareiss (1968): the step a_rc <- (a_kk a_rc - a_rk a_kc) / p, with p
    the previous pivot, divides exactly, and a zero pivot is swapped with
    a row below it.  The last pivot is the determinant.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    a = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = a[k]
        pivot = pivot_row[k]
        for r in range(k + 1, n):
            row = a[r]
            lead = row[k]
            for c in range(k + 1, n):
                row[c] = (pivot * row[c] - lead * pivot_row[c]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def det_rational(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix of ints and Fractions: ``det_int``
    of the rows cleared of denominators, over the product of scales."""
    a, scale = _cleared_rows(rows)
    return Fraction(det_int(a), scale)


def jacobi_trudi(gens: Sequence, lam: Sequence[int],
                 mu: Sequence[int] = ()) -> Fraction:
    """det(c_{lam_i - mu_j - i + j}) over the one-row generators c_0, c_1, ...

    ``gens`` lists c_0..c_K with K >= max(lam) + l(lam) - 1; c_k is zero
    for k < 0.  lam may be any composition, zero parts included.  With
    c_k = h_k of a point set and lam a partition this is the skew Schur
    value s_{lam/mu}, which vanishes unless mu is contained in lam.
    """
    return det_rational(_jacobi_trudi_rows(gens, lam, mu))


def _jacobi_trudi_rows(gens: Sequence, lam: Sequence[int],
                       mu: Sequence[int] = ()) -> List[List]:
    """The matrix (c_{lam_i - mu_j - i + j}) over gens, with int 0 for
    c_k, k < 0, after padding lam and mu to the same length; mu is read
    by ``_parts``, so it has int parts, none negative."""
    mu = _parts(mu)
    ell = max(len(lam), len(mu))
    lam = tuple(lam) + (0,) * (ell - len(lam))
    mu += (0,) * (ell - len(mu))
    return [[gens[k] if (k := lam[i] - mu[j] - i + j) >= 0 else 0
             for j in range(ell)] for i in range(ell)]


def box_minors(gens: Sequence, den: int, n: int, m: int,
               mu: Sequence[int] = ()
               ) -> Tuple[Dict[Tuple[int, ...], int], int]:
    """({lam: D}, s) with jacobi_trudi(c, lam, mu) = D / s over the n x m box.

    The generators are c_k = gens[k] / den^k, with gens ints over a
    graded denominator (``symfunc.q_coeff_ints``) or any Fractions, and
    den a nonzero int or Fraction.  Every such determinant is a maximal
    minor of one n x (n+m) matrix: row r = mu_j + n-1-j and column
    p = lam_i + n-1-i hold c_{p-r}, zero for p < r.  Row r is
    ``_column(gens[:n+m-r], den, r)``, Fraction rows are then cleared by
    ``_cleared_rows``, and every maximal minor takes one entry from each
    row, so all share the product s of the row scales.  Padding lam and
    mu to n parts adds rows whose diagonal entry is c_0, so ``gens`` must
    start with c_0 = 1; it needs c_0..c_{n+m-1}, and mu is read by
    ``_parts`` and must be weakly decreasing (ValueError otherwise: a
    zero part before a nonzero one would be dropped, and the sweep would
    read another shape).  When mu has more than n nonzero parts, or
    mu_1 > m puts a row past the last column, every value is 0 over the
    scale 1, and no sweep runs.

    One Laplace sweep down the rows gives the whole box: the minors of
    the first k rows over every k-subset of columns extend, along row k,
    to those of the first k+1 rows, so each sub-minor is computed once
    and shared by every minor that contains it.  Each level is a list in
    the ``combinations`` order of its column subsets, and the plan,
    cached per (n, m) by ``_box_plan``, says which entries of row k and
    which sub-minors of the level before each (k+1)-subset S pulls: minor(S) is the sum
    over c in S of (-1)^(k + pos) a_kc minor(S - c), a_kc the entry of
    row k in column c and pos the number of columns of S left of c.
    Only +, - and * are used, and zero entries and zero sub-minors are
    skipped.  The last level lines up with the plan's box shapes, which
    are partitions as ``partitions.enumerate_in_box`` writes them, in
    the ``combinations`` order of their columns.
    """
    if not isinstance(den, (int, Fraction)):
        raise TypeError(f"the generator denominator is an int or a "
                        f"Fraction, not the {type(den).__name__} {den!r}")
    if den == 0:
        raise ValueError("the generator denominator must be nonzero")
    need = max(n + m, 1)
    if len(gens) < need:
        raise ValueError(f"box_minors needs the generators "
                         f"c_0..c_{need - 1}, got {len(gens)}")
    if gens[0] != 1:
        raise ValueError("one-row generators must start with c_0 = 1")
    mu = _parts(mu)
    if any(a < b for a, b in zip(mu, mu[1:])):
        raise ValueError(f"mu must be weakly decreasing, got {mu}")
    mu = tuple(p for p in mu if p)
    mu += (0,) * (n - len(mu))
    starts = [mu[n - 1 - t] + t for t in range(n)]
    levels, shapes = _box_plan(n, m)
    if len(mu) > n or any(r >= n + m for r in starts):
        return dict.fromkeys(shapes, 0), 1
    columns = [_column(gens[:n + m - r], den, r) for r in starts]
    rows, scale = _cleared_rows([row for row, _ in columns])
    minors = [1]
    for row, level in zip(rows, levels):
        grown = []
        for terms in level:
            acc = 0
            for c, sub, odd in terms:
                if (a := row[c]) and (v := minors[sub]):
                    if odd:
                        acc -= a * v
                    else:
                        acc += a * v
            grown.append(acc)
        minors = grown
    return (dict(zip(shapes, minors)),
            scale * prod(s for _, s in columns))


@lru_cache(maxsize=None)
def _box_plan(n: int, m: int):
    """(levels, shapes): the Laplace sweep of an n x (n+m) matrix, one
    ``_laplace_level`` per row, and the partition of each maximal minor.
    The shapes follow the n-subsets P_0 < ... < P_{n-1} of the columns,
    P_k = lam_{n-1-k} + k, in the ``combinations`` order of the last
    level."""
    shapes = tuple(tuple(cols[k] - k for k in reversed(range(n))
                         if cols[k] > k)
                   for cols in combinations(range(n + m), n))
    return tuple(_laplace_level(n + m, k) for k in range(n)), shapes


@lru_cache(maxsize=None)
def _laplace_level(width: int, k: int):
    """For each (k+1)-subset S of range(width), in ``combinations`` order,
    the terms (c, sub, odd) of minor(S) along row k: c a column of S, sub
    the index of S - c among the k-subsets in the same order, and odd
    the parity of k plus the number of columns of S left of c.  A level
    depends only on the width, so boxes with one n+m share it."""
    index = {s: i for i, s in enumerate(combinations(range(width), k))}
    return tuple(tuple((c, index[s[:pos] + s[pos + 1:]], (k + pos) & 1)
                       for pos, c in enumerate(s))
                 for s in combinations(range(width), k + 1))


def power_series_div(num: Sequence, den: Sequence, order: int):
    """Coefficients of num/den as power series, through the given order.

    Requires den[0] != 0.  Inputs are coefficient lists, constant first;
    missing trailing coefficients are treated as zero.
    """
    if not den or _exact(den[0]) == 0:
        raise ZeroDivisionError("series division needs a unit constant term")
    a = [_exact(num[k]) if k < len(num) else ZERO for k in range(order + 1)]
    b = [_exact(den[k]) if k < len(den) else ZERO for k in range(order + 1)]
    inv0 = 1 / b[0]
    out = []
    for k in range(order + 1):
        acc = a[k]
        for i in range(k):
            acc -= out[i] * b[k - i]
        out.append(acc * inv0)
    return out


def mat_mul_ring(a, b):
    """Product of two matrices of ``QPoly`` entries, one int product per term.

    Kronecker substitution: a polynomial sum_k c_k Q^k with int
    coefficients is packed as the int sum_k c_k 2^(w k), so each product
    of two entries, and each row-by-column sum, is Python int arithmetic
    in C, and every entry of the result is unpacked from one int into
    balanced base-2^w digits.  The width is proven from the inputs: an
    output coefficient is a sum of at most ``mid`` polynomial products,
    so its absolute value is at most B = mid * max|a_ik|_1 * max|b_kj|_1
    (|p|_1 the sum of the absolute coefficients of p), and w =
    bit_length(B) + 1 keeps every digit inside [-2^(w-1), 2^(w-1)).
    An entry may be a ``QPoly`` or an int; anything else raises
    ``TypeError``.  Only terms whose two factors are nonzero are added.
    Both operands must be rectangular, the columns of ``a`` matching the
    rows of ``b``.
    """
    if not a or not b:
        return []
    mid, cols = len(b), len(b[0])
    if (any(len(row) != mid for row in a)
            or any(len(row) != cols for row in b)):
        raise ValueError("inner dimensions do not match")
    a = [[_as_qpoly(x).coeffs for x in row] for row in a]
    b = [[_as_qpoly(x).coeffs for x in row] for row in b]
    bound = mid * _max_norm(a) * _max_norm(b)
    width = bound.bit_length() + 1
    a = [[_packed(p, width) for p in row] for row in a]
    # the nonzero entries of each row of b, as (column, packed entry)
    b = [[(j, _packed(p, width)) for j, p in enumerate(row) if p]
         for row in b]
    out = []
    for row in a:
        acc = [0] * cols
        for x, b_terms in zip(row, b):
            if x:
                for j, y in b_terms:
                    acc[j] += x * y
        out.append([_unpacked(v, width) for v in acc])
    return out


def _max_norm(rows) -> int:
    """The largest sum of absolute coefficients over a matrix's entries."""
    return max((sum(map(abs, p)) for row in rows for p in row), default=0)


def _packed(coeffs: Tuple[int, ...], width: int) -> int:
    """sum_k coeffs[k] 2^(width k), by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << width) + c
    return acc


def _unpacked(value: int, width: int) -> QPoly:
    """The polynomial whose balanced base-2^width digits ``value`` holds."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    digits = []
    while value:
        d = value & mask
        if d >= half:
            d -= mask + 1
        digits.append(d)
        value = (value - d) >> width
    return QPoly._trusted(tuple(digits))
