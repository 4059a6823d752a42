"""Exact arithmetic carriers used everywhere else in the package.

Scalars are plain ``fractions.Fraction`` values, and the two carriers
below hold exact coefficients, so that every computation downstream is
exact:

  * ``QPoly`` -- a univariate polynomial in the deformation parameter,
    stored densely as a tuple of coefficients, constant term first, with
    no trailing zeros.  The zero polynomial is the empty tuple.  It keeps
    the coefficients it is given: Python ints for the tables that live in
    Z[Q] (b_lam, [n]!, Kostka-Foulkes, c-tilde), Fractions where the
    coefficients are rational.
  * ``TruncatedSeries`` -- a multivariate power series truncated at a
    fixed total degree.  Terms live in a dict mapping exponent tuples to
    nonzero coefficients; anything past the cutoff is dropped on
    construction, so products re-truncate automatically.

The module also carries the small amount of exact linear algebra the
rest of the package needs (determinants of rational matrices, by
fraction-free elimination on ints, and power-series division), the
coefficients h_k(t) of exp(sum_k t_k z^k) that the Miwa-coordinate code
builds Schur values from, and the one Jacobi-Trudi determinant that
every Schur-type value is built from.

A box sum needs the Jacobi-Trudi value of every partition in the n x m
box.  Those are the maximal minors (Pluecker coordinates) of a single
n x (n+m) matrix of one-row generators, so ``jacobi_trudi_box`` reads
them all from one division-free Laplace sweep, ``maximal_minors``, in
which every sub-minor is computed once and shared.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Dict, Iterable, List, Sequence, Tuple

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational; ValueError if it is none."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a finite rational p/q: {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Render an exact rational as "p/q" (or "p" when the denominator is 1)."""
    return str(Fraction(value))


# ---------------------------------------------------------------------------
# univariate polynomials in the deformation parameter
# ---------------------------------------------------------------------------


class QPoly:
    """Dense univariate polynomial with int or Fraction coefficients.

    Coefficients are constant-term first and kept as given, so integer
    polynomials stay in Z[Q] with no gcd normalisation.  Instances are
    immutable and hashable so they can sit inside cached tables.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "QPoly":
        return QPoly(())

    @staticmethod
    def one() -> "QPoly":
        return QPoly((1,))

    @staticmethod
    def constant(c) -> "QPoly":
        return QPoly((c,))

    @staticmethod
    def gen() -> "QPoly":
        """The polynomial Q itself."""
        return QPoly((0, 1))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "QPoly":
        other = _as_qpoly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly(
            (self.coefficient(k) + other.coefficient(k) for k in range(n))
        )

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly((-c for c in self.coeffs))

    def __sub__(self, other) -> "QPoly":
        return self + (-_as_qpoly(other))

    def __rsub__(self, other) -> "QPoly":
        return _as_qpoly(other) + (-self)

    def __mul__(self, other) -> "QPoly":
        other = _as_qpoly(other)
        if not self.coeffs or not other.coeffs:
            return QPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __call__(self, q) -> Fraction:
        """Evaluate at an exact rational point (Horner)."""
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"QPoly({list(self.coeffs)!r})"

    def to_list(self):
        """Coefficients constant-first, as plain strings (JSON friendly)."""
        return [format_rational(c) for c in self.coeffs]


def _as_qpoly(value) -> QPoly:
    if isinstance(value, QPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return QPoly.constant(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to QPoly")


# ---------------------------------------------------------------------------
# truncated multivariate power series
# ---------------------------------------------------------------------------


class TruncatedSeries:
    """Multivariate power series, truncated at a fixed total degree.

    ``variables`` is an ordered tuple of names; ``terms`` maps exponent
    tuples (one slot per variable) to nonzero Fraction coefficients.
    Any term of total degree above ``cutoff`` is discarded.
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
            c = Fraction(coeff)
            if c != 0:
                kept[tuple(expo)] = c
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "terms", kept)

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

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        cutoff = min(self.cutoff, other.cutoff)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, ZERO) + coeff
        return TruncatedSeries(self.variables, cutoff, terms)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(
            self.variables, self.cutoff,
            {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        cutoff = min(self.cutoff, other.cutoff)
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > cutoff:
                    continue
                expo = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(expo)
                terms[expo] = c1 * c2 if acc is None else acc + c1 * c2
        return TruncatedSeries(self.variables, cutoff, terms)

    __rmul__ = __mul__

    def scale(self, scalar) -> "TruncatedSeries":
        s = Fraction(scalar)
        return TruncatedSeries(
            self.variables, self.cutoff,
            {e: c * s for e, c in self.terms.items()})

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
    ts = [Fraction(t) for t in times]
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
    the product of those lcms."""
    scale, out = 1, []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        scale *= den
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out, scale


def det_rational(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix of ints and Fractions, exactly.

    Fraction-free elimination (Bareiss 1968): each row is scaled by the
    lcm of its entries' denominators, so the work runs on Python ints.
    The step a_rc <- (a_kk a_rc - a_rk a_kc) / p, with p the previous
    pivot, divides exactly, and a zero pivot is swapped with a row
    below it.  The last pivot is the determinant of the scaled matrix,
    so the result is one Fraction(sign * last pivot, product of scales).
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 0:
        return ONE
    a, scale = _cleared_rows(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return ZERO
        pivot_row = a[k]
        pivot = pivot_row[k]
        for r in range(k + 1, n):
            row = a[r]
            lead = row[k]
            for c in range(k + 1, n):
                row[c] = (pivot * row[c] - lead * pivot_row[c]) // prev
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1], scale)


def jacobi_trudi(gens: Sequence, lam: Sequence[int],
                 mu: Sequence[int] = ()) -> Fraction:
    """det(c_{lam_i - mu_j - i + j}) over the one-row generators c_0, c_1, ...

    ``gens`` lists c_0..c_K with K >= lam_1 + l(lam) - 1; c_k is zero for
    k < 0.  With c_k = h_k of a point set this is the skew Schur value
    s_{lam/mu}, which vanishes unless mu is contained in lam.
    """
    ell = max(len(lam), len(mu))
    lam = tuple(lam) + (0,) * (ell - len(lam))
    mu = tuple(mu) + (0,) * (ell - len(mu))

    def c(k: int) -> Fraction:
        return gens[k] if k >= 0 else ZERO

    return det_rational([[c(lam[i] - mu[j] - i + j) for j in range(ell)]
                         for i in range(ell)])


def maximal_minors(
        rows: Sequence[Sequence]) -> Dict[Tuple[int, ...], Fraction]:
    """Every maximal minor of an n x K matrix, keyed by its sorted columns.

    One Laplace sweep down the rows: the minors of the first k rows over
    every k-subset of columns extend, along row k, to those of the first
    k+1 rows, so each sub-minor is computed once and shared by every
    minor that contains it.  Only +, - and * are used, and zero entries
    and zero sub-minors are skipped.  Every maximal minor takes exactly
    one entry from each row, so scaling row r by the lcm s_r of its
    entries' denominators scales every minor by the same s_0 ... s_{n-1};
    the sweep runs on the scaled rows in Python ints, and each minor is
    one Fraction(int minor, product of scales).  Subsets whose minor is
    zero map to 0; an n x K matrix with n > K has no maximal minors.
    """
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ValueError("rows have different lengths")
    int_rows, scale = _cleared_rows(rows)
    minors: Dict[Tuple[int, ...], int] = {(): 1}
    for k, row in enumerate(int_rows):
        grown: Dict[Tuple[int, ...], int] = {}
        for cols, minor in minors.items():
            # pos counts the columns of cols left of c, which fixes the
            # cofactor sign (-1)^(k + pos) of entry (k, c)
            pos = 0
            for c, a in enumerate(row):
                if pos < k and cols[pos] == c:
                    pos += 1
                    continue
                if a == 0:
                    continue
                term = a * minor if (k + pos) % 2 == 0 else -(a * minor)
                key = cols[:pos] + (c,) + cols[pos:]
                acc = grown.get(key)
                grown[key] = term if acc is None else acc + term
        minors = {cols: v for cols, v in grown.items() if v != 0}
    return {cols: Fraction(minors.get(cols, 0), scale)
            for cols in combinations(range(width), len(rows))}


def jacobi_trudi_box(gens: Sequence, n: int, m: int, mu: Sequence[int] = ()
                     ) -> Dict[Tuple[int, ...], Fraction]:
    """{lam: jacobi_trudi(gens, lam, mu)} for every lam in the n x m box.

    Every such determinant is a maximal minor of one n x (n+m) matrix:
    row r = mu_j + n-1-j and column p = lam_i + n-1-i hold c_{p-r}, which
    is zero for p < r.  So one ``maximal_minors`` sweep gives the whole
    box.  Padding lam and mu to n parts adds rows whose diagonal entry is
    c_0, so ``gens`` must start with c_0 = 1, as every one-row generator
    list does; it needs c_0..c_{n+m-1}.  Keys are partitions as
    ``partitions.enumerate_in_box`` writes them, every value is 0 when mu
    has more than n nonzero parts, and the dict's order is not the box
    order.
    """
    if gens[0] != 1:
        raise ValueError("one-row generators must start with c_0 = 1")
    mu = tuple(p for p in mu if p)
    if len(mu) <= n:
        mu += (0,) * (n - len(mu))
        rows = []
        for t in range(n):
            r = mu[n - 1 - t] + t
            rows.append([gens[p - r] if p >= r else ZERO
                         for p in range(n + m)])
        minors = maximal_minors(rows)
    else:
        minors = {}
    # sorted columns P_0 < ... < P_{n-1} are lam_{n-1-k} + k
    out = {}
    for cols in combinations(range(n + m), n):
        lam = tuple(cols[k] - k for k in reversed(range(n)) if cols[k] > k)
        out[lam] = minors.get(cols, ZERO)
    return out


def power_series_div(num: Sequence, den: Sequence, order: int):
    """Coefficients of num/den as power series, through the given order.

    Requires den[0] != 0.  Inputs are coefficient lists, constant first;
    missing trailing coefficients are treated as zero.
    """
    if not den or Fraction(den[0]) == 0:
        raise ZeroDivisionError("series division needs a unit constant term")
    a = [Fraction(num[k]) if k < len(num) else ZERO for k in range(order + 1)]
    b = [Fraction(den[k]) if k < len(den) else ZERO for k in range(order + 1)]
    inv0 = 1 / b[0]
    out = []
    for k in range(order + 1):
        acc = a[k]
        for i in range(k):
            acc -= out[i] * b[k - i]
        out.append(acc * inv0)
    return out


def mat_mul_ring(a, b):
    """Product of two matrices with ring-element entries (lists of lists)."""
    if not a or not b:
        return []
    rows, mid, cols = len(a), len(b), len(b[0])
    for row in a:
        if len(row) != mid:
            raise ValueError("inner dimensions do not match")
    out = []
    for i in range(rows):
        out_row = []
        for j in range(cols):
            acc = None
            for k in range(mid):
                term = a[i][k] * b[k][j]
                acc = term if acc is None else acc + term
            out_row.append(acc)
        out.append(out_row)
    return out
