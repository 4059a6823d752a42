"""Symmetric-function evaluation on exact rational point sets.

Everything here is exact, and every quantity has one route.  Schur,
skew Schur and deformed (big) Schur values are Jacobi-Trudi determinants
det(c_{lam_i - mu_j - i + j}) over one-row generators -- h_k of the
points, or the deformed coefficients q_k -- through
``algebra_core.jacobi_trudi``.  There is no per-shape wrapper: a caller
builds the generator list once per point set (``homogeneous_list``,
``q_coeff_list``, or ``h_from_times`` of a tuple of times) and reads
one shape from ``jacobi_trudi`` or a whole box from
``algebra_core.jacobi_trudi_box``.

Hall-Littlewood values and the monomial tables both come from the
horizontal-strip branching rule

    P_lam(x_1..x_r; Q) = sum_mu psi_{lam/mu}(Q) x_r^{|lam/mu|} P_mu(x_1..x_{r-1}; Q)

where psi picks up a factor (1 - Q^{m_j(mu)}) for every column length j
whose multiplicity grows when the strip is removed.  Evaluated at the
points, the recursion only multiplies and adds, so P_lam is defined at
every Q, including the roots of unity where the symmetrization formula
divides by zero.  It runs on Python ints: with x_i = X_i / L over the
lcm L of the point denominators and Q = a/b, P_mu(x_1..x_r) is an int
numerator over L^{|mu|} b^{r(r-1)/2} (the bound is argued at
``hall_littlewood_evaluator``), and a Fraction is made only for a
returned value.  Kept symbolic in Q, it gives the P-to-monomial table;
with every psi weight set to 1 it counts semistandard tableaux, which is
how the (classical) Kostka numbers are produced.  The tests check all of
these against independent routes kept in ``tests/``.

Kostka-Foulkes matrices are solved from the monomial tables: with
partitions of one weight ordered decreasing-lexicographically both the
s-to-m and P-to-m matrices are unitriangular against dominance, so the
change of basis s = K P needs nothing beyond ring operations in Z[Q].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Callable, Dict, List, Sequence, Tuple

from .algebra_core import ONE, ZERO, QPoly, TruncatedSeries, mat_mul_ring
from .miwa import from_points
from .partitions import (Partition, multiplicities, normalize, partitions_of,
                         weight)

PointSet = Tuple[Fraction, ...]


def as_points(xs: Sequence) -> PointSet:
    return tuple(Fraction(x) for x in xs)


def vandermonde(xs: Sequence) -> Fraction:
    """prod_{i<j} (x_i - x_j)."""
    xs = as_points(xs)
    acc = ONE
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            acc *= xs[i] - xs[j]
    return acc


# ---------------------------------------------------------------------------
# classical one-row bases
# ---------------------------------------------------------------------------


def homogeneous_list(xs: Sequence, kmax: int) -> List[Fraction]:
    """h_0..h_kmax of the point set, by absorbing one geometric factor per point."""
    xs = as_points(xs)
    hs = [ONE] + [ZERO] * kmax
    for x in xs:
        for k in range(1, kmax + 1):
            hs[k] += x * hs[k - 1]
    return hs


# ---------------------------------------------------------------------------
# horizontal-strip machinery and the cached monomial tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _strips(
        lam: Partition) -> Tuple[Tuple[Partition, int, Tuple[int, ...]], ...]:
    """Every mu with lam/mu a horizontal strip, as (mu, |lam/mu|, psi).

    Those mu are exactly the interlacing ones, lam_{i+1} <= mu_i <= lam_i,
    so every part but the last is positive and mu comes out sorted.
    psi_{lam/mu} = prod of (1 - Q^c) over the listed c, one c = m_j(mu)
    for every j with m_j(mu) = m_j(lam) + 1.  Nothing here depends on Q,
    so the table is built once per shape.
    """
    ell = len(lam)
    rows = [range(lam[i], (lam[i + 1] if i + 1 < ell else 0) - 1, -1)
            for i in range(ell)]
    total = weight(lam)
    ml = multiplicities(lam)
    out = []
    for mu in itertools.product(*rows):
        mu = mu if mu[-1] else mu[:-1]
        psi = tuple(count for j, count in multiplicities(mu).items()
                    if count == ml.get(j, 0) + 1)
        out.append((mu, total - sum(mu), psi))
    return tuple(out)


@lru_cache(maxsize=None)
def _chain_sum(shape: Partition, steps: Tuple[int, ...]) -> QPoly:
    if not steps:
        return QPoly.one() if not shape else QPoly.zero()
    acc = QPoly.zero()
    for mu, size, psi_exps in _strips(shape):
        if size == steps[-1]:
            psi = prod((QPoly([1] + [0] * (c - 1) + [-1]) for c in psi_exps),
                       start=QPoly.one())
            acc = acc + psi * _chain_sum(mu, steps[:-1])
    return acc


@lru_cache(maxsize=None)
def _chain_count(shape: Partition, steps: Tuple[int, ...]) -> int:
    """The chain sum at Q = 0, where every psi is 1: a tableau count."""
    return _chain_sum(shape, steps).coefficient(0)


@lru_cache(maxsize=None)
def hl_monomial_table(d: int) -> Dict[Partition, Dict[Partition, QPoly]]:
    """P_lam = sum_mu table[lam][mu](Q) m_mu, for all |lam| = |mu| = d."""
    lams = partitions_of(d)
    table: Dict[Partition, Dict[Partition, QPoly]] = {}
    for lam in lams:
        row: Dict[Partition, QPoly] = {}
        for mu in lams:
            c = _chain_sum(lam, mu)
            if not c.is_zero():
                row[mu] = c
        table[lam] = row
    return table


@lru_cache(maxsize=None)
def schur_monomial_table(d: int) -> Dict[Partition, Dict[Partition, int]]:
    """s_lam = sum_mu K_{lam mu} m_mu with classical Kostka numbers."""
    lams = partitions_of(d)
    table: Dict[Partition, Dict[Partition, int]] = {}
    for lam in lams:
        row: Dict[Partition, int] = {}
        for mu in lams:
            c = _chain_count(lam, mu)
            if c:
                row[mu] = c
        table[lam] = row
    return table


# ---------------------------------------------------------------------------
# Hall-Littlewood evaluation
# ---------------------------------------------------------------------------


def hall_littlewood_evaluator(xs: Sequence,
                              q) -> Callable[[Partition], Fraction]:
    """lam -> P_lam(x; Q) on one point set, by the branching rule.

    The recursion runs on Python ints.  Write x_i = X_i / L with L the
    lcm of the point denominators, and Q = a/b in lowest terms.  Then
    P_mu(x_1..x_r) is an int numerator V(mu, r) over L^{|mu|} b^{r(r-1)/2}:
    the strip mu -> lam at level r contributes

        psi_{lam/mu} x_r^{|lam/mu|} P_mu(x_1..x_{r-1})
          = prod_c (b^c - a^c) b^{r-1-sum c} X_r^{|lam/mu|} V(mu, r-1)
            / (L^{|lam|} b^{r(r-1)/2}),

    because each 1 - Q^c is (b^c - a^c)/b^c, the weights add up to
    |lam|, and (r-1)(r-2)/2 + r-1 = r(r-1)/2.  The exponent r-1-sum c is
    never negative: the c are multiplicities m_j(mu) of distinct parts,
    so sum c <= l(mu), and only mu with l(mu) < r contribute.  The base
    cases are V(mu, 1) = X_1^{mu_1} and V((), r) = b^{r(r-1)/2}.  No gcd
    is taken inside the recursion; each returned value is one Fraction,
    V(lam, N) / (L^{|lam|} b^{N(N-1)/2}), built when lam is asked for.

    V(mu, r) is memoised by (mu, r) for as long as the returned function
    lives, so a sum over a box of partitions reuses every value the
    recursion meets.
    """
    xs = as_points(xs)
    q = Fraction(q)
    n = len(xs)
    scale = lcm(*(x.denominator for x in xs))
    ints = [x.numerator * (scale // x.denominator) for x in xs]
    a, b = q.numerator, q.denominator
    # c = m_j(mu) <= l(mu) < n, and so is r - 1 - sum c
    one_minus = [b ** c - a ** c for c in range(n)]
    b_pow = [b ** k for k in range(n)]
    # psi exponents -> (prod_c (b^c - a^c), sum c)
    factors: Dict[Tuple[int, ...], Tuple[int, int]] = {}
    memo: Dict[Tuple[Partition, int], int] = {}

    def value(lam: Partition, r: int) -> int:
        if len(lam) > r:
            return 0
        if not lam:
            return b ** (r * (r - 1) // 2)
        if r == 1:
            return ints[0] ** lam[0]
        key = (lam, r)
        acc = memo.get(key)
        if acc is None:
            x = ints[r - 1]
            acc = 0
            for mu, size, psi_exps in _strips(lam):
                # zero terms: l(mu) >= r leaves too few variables for
                # P_mu, and x^size vanishes at x = 0 unless size = 0
                if len(mu) >= r or (size and not x):
                    continue
                factor = factors.get(psi_exps)
                if factor is None:
                    factor = factors[psi_exps] = (
                        prod(one_minus[c] for c in psi_exps), sum(psi_exps))
                psi, spent = factor
                if psi:
                    acc += (psi * b_pow[r - 1 - spent] * x ** size
                            * value(mu, r - 1))
            memo[key] = acc
        return acc

    den = b ** (n * (n - 1) // 2)

    def evaluate(lam: Partition) -> Fraction:
        lam = normalize(lam)
        return Fraction(value(lam, n), scale ** weight(lam) * den)

    return evaluate


# ---------------------------------------------------------------------------
# Kostka-Foulkes tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KostkaTables:
    """K and K^{-1} for one weight, rows and columns in ``order``."""

    weight: int
    order: Tuple[Partition, ...]
    K: Tuple[Tuple[QPoly, ...], ...]
    K_inv: Tuple[Tuple[QPoly, ...], ...]


@lru_cache(maxsize=None)
def kostka_tables(d: int) -> KostkaTables:
    """Kostka-Foulkes matrix s_lam = sum_mu K_{lam mu}(Q) P_mu and its inverse."""
    order = tuple(partitions_of(d))
    n = len(order)
    hl = hl_monomial_table(d)
    sm = schur_monomial_table(d)
    R = [[hl[order[i]].get(order[j], QPoly.zero()) for j in range(n)]
         for i in range(n)]
    S = [[QPoly.constant(sm[order[i]].get(order[j], 0)) for j in range(n)]
         for i in range(n)]
    # S = K R with R upper unitriangular, so back-substitute column by column.
    K = [[QPoly.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = S[i][j]
            for k in range(j):
                acc = acc - K[i][k] * R[k][j]
            K[i][j] = acc
    K_inv = [[QPoly.one() if i == j else QPoly.zero() for j in range(n)]
             for i in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            acc = QPoly.zero()
            for k in range(i + 1, j + 1):
                acc = acc + K[i][k] * K_inv[k][j]
            K_inv[i][j] = -acc
    check = mat_mul_ring(K, K_inv)
    if any(check[i][j] != (QPoly.one() if i == j else QPoly.zero())
           for i in range(n) for j in range(n)):
        raise ArithmeticError("Kostka inverse failed verification")
    return KostkaTables(
        weight=d,
        order=order,
        K=tuple(tuple(row) for row in K),
        K_inv=tuple(tuple(row) for row in K_inv),
    )


def kostka_tables_json(tables: KostkaTables) -> dict:
    return {
        "weight": tables.weight,
        "order": [list(lam) for lam in tables.order],
        "K": [[p.to_list() for p in row] for row in tables.K],
        "K_inv": [[p.to_list() for p in row] for row in tables.K_inv],
    }


# ---------------------------------------------------------------------------
# deformed one-row coefficients and the associated determinant family
# ---------------------------------------------------------------------------


def q_coeff_list(ys: Sequence, q, mmax: int) -> List[Fraction]:
    """Coefficients q_0..q_mmax of prod_j (1 - Q y_j z)/(1 - y_j z)."""
    ys = as_points(ys)
    q = Fraction(q)
    cs = [ONE] + [ZERO] * mmax
    for y in ys:
        qy = q * y
        for k in range(mmax, 0, -1):
            cs[k] -= qy * cs[k - 1]
        for k in range(1, mmax + 1):
            cs[k] += y * cs[k - 1]
    return cs


def supersymmetric_times(alpha: Sequence, beta: Sequence,
                         n_max: int) -> Tuple[Fraction, ...]:
    """Times of the hook (supersymmetric) Schur functions s_lam(alpha/beta).

    T_n = (1/n)(sum alpha_i^n - sum (-beta_i)^n) for n = 1..n_max,
    assembled from two from_points calls so there is a single code path
    for the negated contribution.  ``jacobi_trudi`` over
    ``h_from_times(T, n_max)`` is then the hook Schur value for every
    |lam| <= n_max.
    """
    t_alpha = from_points(alpha, n_max)
    t_beta = from_points([-Fraction(b) for b in beta], n_max)
    return tuple(a - b for a, b in zip(t_alpha, t_beta))


# ---------------------------------------------------------------------------
# formal-variable series for the graded identity checks
# ---------------------------------------------------------------------------


def xy_names(nx: int, ny: int) -> Tuple[str, ...]:
    return tuple(f"x{i+1}" for i in range(nx)) + tuple(f"y{j+1}" for j in range(ny))


def monomial_series(mu: Partition, names: Sequence[str], cutoff: int,
                    positions: Sequence[int] | None = None) -> TruncatedSeries:
    """m_mu as a series in the variables at the given positions."""
    names = tuple(names)
    slots = tuple(positions) if positions is not None else tuple(range(len(names)))
    if len(mu) > len(slots):
        return TruncatedSeries.zero(names, cutoff)
    padded = tuple(mu) + (0,) * (len(slots) - len(mu))
    terms: Dict[Tuple[int, ...], Fraction] = {}
    for perm in set(itertools.permutations(padded)):
        expo = [0] * len(names)
        for slot, e in zip(slots, perm):
            expo[slot] = e
        terms[tuple(expo)] = ONE
    return TruncatedSeries(names, cutoff, terms)


def hl_series(lam: Partition, names: Sequence[str], cutoff: int, q,
              positions: Sequence[int] | None = None) -> TruncatedSeries:
    lam = normalize(lam)
    names = tuple(names)
    q = Fraction(q)
    if not lam:
        return TruncatedSeries.one(names, cutoff)
    acc = TruncatedSeries.zero(names, cutoff)
    for mu, coeff in hl_monomial_table(weight(lam))[lam].items():
        value = coeff(q)
        if value != 0:
            acc = acc + monomial_series(mu, names, cutoff, positions).scale(value)
    return acc


def cauchy_kernel_series(nx: int, ny: int, cutoff: int, q=ZERO) -> TruncatedSeries:
    """prod_{j,k} (1 - Q x_j y_k)/(1 - x_j y_k) through the cutoff."""
    names = xy_names(nx, ny)
    q = Fraction(q)
    acc = TruncatedSeries.one(names, cutoff)
    for j in range(nx):
        for k in range(ny):
            geom: Dict[Tuple[int, ...], Fraction] = {}
            for p in range(cutoff // 2 + 1):
                expo = [0] * (nx + ny)
                expo[j] = p
                expo[nx + k] = p
                geom[tuple(expo)] = ONE
            acc = acc * TruncatedSeries(names, cutoff, geom)
            if q != 0:
                expo = [0] * (nx + ny)
                expo[j] = 1
                expo[nx + k] = 1
                factor = TruncatedSeries(
                    names, cutoff,
                    {(0,) * (nx + ny): ONE, tuple(expo): -q})
                acc = acc * factor
    return acc
