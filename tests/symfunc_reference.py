"""Second evaluation routes, kept only as references for the tests.

The library evaluates each symmetric function one way: Schur-type values
by the Jacobi-Trudi determinant and Hall-Littlewood values by the
horizontal-strip branching rule.  The routes here are independent of
those and are slower or defined on fewer inputs:

- ``monomial_eval`` sums one term per distinct rearrangement of mu;
- ``schur_bialternant`` divides an alternant by the Vandermonde, so it
  needs pairwise-distinct points;
- ``hl_symmetrization`` is the N!-term S_N symmetrization divided by
  v_lam(Q), so it needs distinct points and v_lam(Q) != 0;
- ``hl_via_monomials`` contracts a row of ``hl_monomial_table`` with
  ``monomial_eval``;
- ``hall_littlewood_fraction`` is not an independent route: it is the
  library's branching rule with a Fraction at every step, the reference
  for the int numerators of ``hall_littlewood_ints``;
- ``big_schur_matrix`` and ``schur_in_miwa_matrix`` write the deformed
  and time-coordinate Schur determinants out entry by entry;
- ``det_fraction`` is Gaussian elimination over Fractions, the reference
  for the library's fraction-free ``det_rational`` and the determinant
  every route here uses;
- ``giambelli_fraction`` is the Giambelli hook-minor check on Fraction
  values, the reference for the int ``phase_model.giambelli_check``,
  which compares both determinants times D^|lam| instead;
- ``det_quotient_reference`` is Q^{N(N-1)/2} det H(x,y) / det H(x,Qy)
  on the kernel matrix itself, and ``det_quotient_components_reference``
  expands det H(x, delta y) by Cauchy-Binet and divides the two series,
  so both need pairwise-distinct points and Q != 0 unless N = 1;
- ``power_column_reference`` divides the power-column determinant by
  the Vandermonde of x, so it needs pairwise-distinct x;
- ``schur_value`` is not an independent route either: it is the
  library's one, ``jacobi_trudi`` over the h-list ``q_coeff_list`` at
  Q = 0, written
  once for tests that want a single Schur or skew Schur value;
- ``cauchy_kernel_two_factor`` multiplies the deformed Cauchy kernel out
  of a geometric series 1/(1 - u) and a separate (1 - Q u) per pair
  u = x_j y_k, twice the series products of the library's one factor
  1 + (1 - Q)(u + u^2 + ...).
"""

import itertools
from fractions import Fraction
from math import prod

from qtau.algebra_core import (ONE, ZERO, TruncatedSeries, as_points,
                               h_from_times, jacobi_trudi, power_series_div)
from qtau.partitions import (frobenius, hook_partition, multiplicities,
                             normalize, weight)
from qtau.symfunc import (_strips, hl_monomial_table, q_coeff_list,
                          vandermonde, xy_names)


def det_fraction(rows) -> Fraction:
    """Determinant of a square matrix by elimination over Fractions."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


def monomial_eval(mu, xs) -> Fraction:
    """Monomial symmetric polynomial m_mu on the point set."""
    xs = as_points(xs)
    n = len(xs)
    if len(mu) > n:
        return ZERO
    padded = tuple(mu) + (0,) * (n - len(mu))
    acc = ZERO
    for expo in set(itertools.permutations(padded)):
        term = ONE
        for x, e in zip(xs, expo):
            term *= x ** e
        acc += term
    return acc


def schur_bialternant(lam, xs) -> Fraction:
    """det(x_i^{lam_j + n - j}) / Vandermonde, for pairwise-distinct points."""
    lam = normalize(lam)
    xs = as_points(xs)
    n = len(xs)
    if len(lam) > n:
        return ZERO
    padded = lam + (0,) * (n - len(lam))
    rows = [[xs[i] ** (padded[j] + n - 1 - j) for j in range(n)]
            for i in range(n)]
    return det_fraction(rows) / vandermonde(xs)


def schur_value(lam, xs, mu=()) -> Fraction:
    """s_{lam/mu}(x) by the library route; zero unless mu is inside lam.

    The h-list reaches lam_1 + max(l(lam), l(mu)) - 1, the largest index
    the Jacobi-Trudi matrix reads, even when mu is not contained in lam.
    """
    return jacobi_trudi(q_coeff_list(xs, 0, weight(lam) + len(mu)), lam, mu)


def giambelli_fraction(ys, shapes) -> bool:
    """True when every lam in ``shapes`` has det(c_(a_i|b_j)) = c_lam,
    with c_mu = jacobi_trudi over the h-list of ys as a Fraction and the
    hook determinant taken by ``det_fraction``."""
    shapes = [normalize(lam) for lam in shapes]
    hs = q_coeff_list(ys, 0, max((weight(lam) for lam in shapes), default=0))
    for lam in shapes:
        coords = frobenius(lam)
        rows = [[jacobi_trudi(hs, hook_partition(a, b)) for _, b in coords]
                for a, _ in coords]
        if det_fraction(rows) != jacobi_trudi(hs, lam):
            return False
    return True


def v_lambda(lam, nvars: int, q) -> Fraction:
    """prod_i v_{m_i}(q), m_0 counting the zero parts, with q-integers."""
    mult = list(multiplicities(lam).values())
    mult.append(nvars - len(lam))
    acc = ONE
    for m in mult:
        for j in range(1, m + 1):
            acc *= sum((Fraction(q) ** i for i in range(j)), ZERO)
    return acc


def hl_symmetrization(lam, xs, q) -> Fraction:
    """P_lam(x; q) as the S_n symmetrization over v_lam(q)."""
    lam = normalize(lam)
    xs = as_points(xs)
    q = Fraction(q)
    n = len(xs)
    if len(lam) > n:
        return ZERO
    padded = lam + (0,) * (n - len(lam))
    total = ZERO
    for perm in itertools.permutations(range(n)):
        ys = [xs[i] for i in perm]
        term = ONE
        for i in range(n):
            term *= ys[i] ** padded[i]
        for i in range(n):
            for j in range(i + 1, n):
                term *= (ys[i] - q * ys[j]) / (ys[i] - ys[j])
        total += term
    return total / v_lambda(lam, n, q)


def hl_via_monomials(lam, xs, q) -> Fraction:
    """sum_mu hl_monomial_table(|lam|)[lam][mu](q) m_mu(x)."""
    lam = normalize(lam)
    row = hl_monomial_table(weight(lam))[lam]
    return sum((coeff(Fraction(q)) * monomial_eval(mu, xs)
                for mu, coeff in row.items()), ZERO)


def hall_littlewood_fraction(xs, q):
    """lam -> P_lam(x; Q) by the branching rule, every step a Fraction.

    P_mu(x_1..x_r) is memoised by (mu, r) for as long as the returned
    function lives.
    """
    xs = as_points(xs)
    q = Fraction(q)
    # psi factors 1 - Q^c have c = m_j(mu) <= l(mu) < len(xs)
    one_minus = [1 - q ** c for c in range(len(xs))]
    memo = {}

    def value(lam, r):
        if len(lam) > r:
            return ZERO
        if not lam:
            return ONE
        if r == 1:
            return xs[0] ** lam[0]
        key = (lam, r)
        if key not in memo:
            x = xs[r - 1]
            acc = ZERO
            for mu, size, psi_exps in _strips(lam):
                # zero terms: l(mu) >= r leaves too few variables for
                # P_mu, and x^size vanishes at x = 0 unless size = 0
                if len(mu) >= r or (size and not x):
                    continue
                psi = prod((one_minus[c] for c in psi_exps), start=ONE)
                if psi:
                    acc += psi * x ** size * value(mu, r - 1)
            memo[key] = acc
        return memo[key]

    return lambda lam: value(normalize(lam), len(xs))


def _matrix_det(gens, lam) -> Fraction:
    ell = len(lam)

    def c(k):
        return gens[k] if k >= 0 else ZERO

    return det_fraction([[c(lam[i] - (i + 1) + (j + 1)) for j in range(ell)]
                         for i in range(ell)])


def big_schur_matrix(lam, ys, q) -> Fraction:
    """det(q_{lam_i - i + j}(y; q)) written out."""
    lam = normalize(lam)
    if not lam:
        return ONE
    return _matrix_det(q_coeff_list(ys, q, lam[0] + len(lam) - 1), lam)


def schur_in_miwa_matrix(lam, t) -> Fraction:
    """det(h_{lam_i - i + j}(t)) written out."""
    if not lam:
        return ONE
    return _matrix_det(h_from_times(t, lam[0] + len(lam) - 1), lam)


def h_matrix(xs, ys, box):
    """[H(x_i, y_j)] with H(z, w) = sum_{k < M+N} (zw)^k as the plain sum."""
    size = box.m + box.n
    return [[sum((Fraction(x * y) ** k for k in range(size)), ZERO)
             for y in as_points(ys)] for x in as_points(xs)]


def det_quotient_reference(xs, ys, box, q) -> Fraction:
    """Q^{N(N-1)/2} det H(x,y) / det H(x,Qy); ZeroDivisionError if det H(x,Qy) = 0."""
    q = Fraction(q)
    den = det_fraction(h_matrix(xs, [q * y for y in ys], box))
    if den == 0:
        raise ZeroDivisionError("denominator determinant vanishes")
    return (q ** (box.n * (box.n - 1) // 2)
            * det_fraction(h_matrix(xs, ys, box)) / den)


def _delta_det(xs, ys, box):
    """Coefficients in delta of det H(x, delta y), by Cauchy-Binet.

    H(x, delta y) = X diag(delta^k) Y^T with X = [x_i^k], k < M+N, so its
    determinant is sum_S det X_S det Y_S delta^(sum S) over N-subsets S.
    """
    size = box.m + box.n
    coeffs = [ZERO] * (box.n * size + 1)
    for cols in itertools.combinations(range(size), box.n):
        minor_x = det_fraction([[x ** k for k in cols] for x in as_points(xs)])
        minor_y = det_fraction([[y ** k for k in cols] for y in as_points(ys)])
        coeffs[sum(cols)] += minor_x * minor_y
    return coeffs


def det_quotient_components_reference(xs, ys, box, q, degree):
    """Degree-d pieces (d <= degree) of the quotient, by series division.

    det H(x, delta y) starts at delta^{N(N-1)/2}, and det H(x, delta Q y)
    has delta^j coefficient Q^j times its delta^j coefficient, so one
    expansion serves both; the Q^{N(N-1)/2} prefactor rescales.
    """
    q = Fraction(q)
    val = box.n * (box.n - 1) // 2
    num = _delta_det(xs, ys, box)
    if any(num[:val]):
        raise ArithmeticError("determinant valuation lower than expected")
    num_shift = [num[val + k] if val + k < len(num) else ZERO
                 for k in range(degree + 1)]
    den_shift = [q ** (val + k) * c for k, c in enumerate(num_shift)]
    return [q ** val * c
            for c in power_series_div(num_shift, den_shift, degree)]


def power_column_reference(xs, ys, m, box) -> Fraction:
    """det([H(x_i, y_k)] + [x_i^((M+N-1-2m)/2)]) / Vandermonde(x)."""
    expo = (box.m + box.n - 1 - 2 * m) // 2
    rows = [row + [x ** expo]
            for x, row in zip(as_points(xs), h_matrix(xs, ys, box))]
    return det_fraction(rows) / vandermonde(xs)


def cauchy_kernel_two_factor(nx, ny, cutoff, q):
    """prod_{j,k} (1 - Q x_j y_k)/(1 - x_j y_k), two series factors a pair."""
    names = xy_names(nx, ny)
    q = Fraction(q)
    acc = TruncatedSeries.one(names, cutoff)
    for j in range(nx):
        for k in range(ny):
            geom = {}
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
                acc = acc * TruncatedSeries(
                    names, cutoff, {(0,) * (nx + ny): ONE, tuple(expo): -q})
    return acc
