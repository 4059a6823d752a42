"""The pairing routes as they were written on Fractions, kept as references.

The library evaluates the pairing routes on Python ints over known
denominators: h-lists and deformed coefficients from one int recurrence
(``symfunc.q_coeff_ints``), box sweeps as ints over one scale
(``algebra_core.box_minors``), divided-difference determinants with one
scale per row and column, and Hall-Littlewood terms over a denominator
fixed per degree.  The functions here are the same algorithms with a
Fraction at every step, so the tests can check that clearing the
denominators changed no value:

- ``homogeneous_fraction`` and ``q_coeff_fraction`` absorb one point at
  a time into a Fraction coefficient list;
- ``maximal_minors_fraction`` and ``jacobi_trudi_box_fraction`` run the
  Laplace sweep on rows of Fractions and return a Fraction per minor;
- ``correlation_skew_fraction`` sums Fraction products over the box;
- ``newton_det_fraction`` builds each divided-difference row from a
  Fraction h-list and takes the determinant by Fraction elimination
  (``symfunc_reference.det_fraction``), and the three determinant routes
  below it list their columns as Fraction coefficients;
- ``graded_components_fraction`` groups Fraction terms of a sum mode by
  degree, with b_lam(Q) from Fraction Q-factorials and P_lam from
  ``symfunc_reference.hall_littlewood_fraction``.
"""

from fractions import Fraction
from itertools import combinations
from math import prod

from qtau.algebra_core import ONE, ZERO, as_points, h_from_times
from qtau.miwa import from_points, twist
from qtau.partitions import multiplicities, normalize, weight

from symfunc_reference import det_fraction, hall_littlewood_fraction


def homogeneous_fraction(xs, kmax):
    """h_0..h_kmax of the point set, one geometric factor per point."""
    hs = [ONE] + [ZERO] * kmax
    for x in as_points(xs):
        for k in range(1, kmax + 1):
            hs[k] += x * hs[k - 1]
    return hs


def q_coeff_fraction(ys, q, mmax):
    """Coefficients q_0..q_mmax of prod_j (1 - Q y_j z)/(1 - y_j z)."""
    q = Fraction(q)
    cs = [ONE] + [ZERO] * mmax
    for y in as_points(ys):
        for k in range(mmax, 0, -1):
            cs[k] -= q * y * cs[k - 1]
        for k in range(1, mmax + 1):
            cs[k] += y * cs[k - 1]
    return cs


def maximal_minors_fraction(rows):
    """{cols: minor} for every sorted column subset, swept on Fractions."""
    width = len(rows[0]) if rows else 0
    minors = {(): ONE}
    for k, row in enumerate(rows):
        grown = {}
        for cols, minor in minors.items():
            pos = 0
            for c, a in enumerate(row):
                if pos < k and cols[pos] == c:
                    pos += 1
                    continue
                term = a * minor if (k + pos) % 2 == 0 else -(a * minor)
                key = cols[:pos] + (c,) + cols[pos:]
                grown[key] = grown.get(key, ZERO) + term
        minors = grown
    return {cols: minors.get(cols, ZERO)
            for cols in combinations(range(width), len(rows))}


def jacobi_trudi_box_fraction(gens, n, m, mu=()):
    """{lam: det(c_{lam_i - mu_j - i + j})} over the n x m box."""
    mu = tuple(p for p in mu if p)
    if len(mu) > n:
        minors = {}
    else:
        mu += (0,) * (n - len(mu))
        rows = []
        for t in range(n):
            r = mu[n - 1 - t] + t
            rows.append([Fraction(gens[p - r]) if p >= r else ZERO
                         for p in range(n + m)])
        minors = maximal_minors_fraction(rows)
    return {tuple(cols[k] - k for k in reversed(range(n)) if cols[k] > k):
            minors.get(cols, ZERO)
            for cols in combinations(range(n + m), n)}


def correlation_skew_fraction(lam1, lam2, xs, ys, box):
    """sum_mu s_{mu/lam1}(x) s_{mu/lam2}(y) over the box, on Fractions."""
    kmax = box.m + box.n
    sx = jacobi_trudi_box_fraction(homogeneous_fraction(xs, kmax), box.n,
                                   box.m, normalize(lam1))
    sy = jacobi_trudi_box_fraction(homogeneous_fraction(ys, kmax), box.n,
                                   box.m, normalize(lam2))
    return sum((sx[mu] * sy[mu] for mu in sx), ZERO)


def newton_det_fraction(xs, columns):
    """det[f_j[x_0..x_i]] for f_j(x) = sum_k columns[j][k] x^k."""
    xs = as_points(xs)
    top = max(map(len, columns), default=1) - 1
    rows = []
    for i in range(len(xs)):
        hs = homogeneous_fraction(xs[:i + 1], top - i)
        rows.append([sum((col[k] * hs[k - i] for k in range(i, len(col))),
                         ZERO) for col in columns])
    return det_fraction(rows)


def _sign(n):
    return -1 if n * (n - 1) // 2 % 2 else 1


def scalar_product_det_fraction(xs, ys, box):
    ys = as_points(ys)
    size = box.m + box.n
    return newton_det_fraction(
        xs, [[ZERO] * j + homogeneous_fraction(ys[:j + 1], size - 1 - j)
             for j in range(box.n)])


def correlation_Am_det_fraction(xs, ys, m, box):
    n, mm = box.n, box.m
    hs = homogeneous_fraction(ys, mm + n - 1)
    shape = [(n - 1 + m, mm - m)] + [(n - j, mm + j - 1)
                                     for j in range(2, n + 1)]
    return _sign(n) * newton_det_fraction(
        xs, [[ZERO] * shift + hs[:top + 1] for shift, top in shape])


def power_column_fraction(xs, ys, m, box):
    n, mm = box.n, box.m
    expo = (mm + n - 1 - 2 * m) // 2
    return _sign(n) * newton_det_fraction(
        xs, [[y ** k for k in range(mm + n)] for y in as_points(ys)]
        + [[ZERO] * expo + [ONE]])


def graded_components_fraction(xs, ys, spec, mode, degree):
    """Degree-d pieces (d <= degree) of a sum mode, every term a Fraction."""
    box, q = spec.box, Fraction(spec.q)
    if mode == "hl_sum":
        px = hall_littlewood_fraction(xs, q)
        py = hall_littlewood_fraction(ys, q)
        phi = [ONE]
        for r in range(1, box.n + 1):
            phi.append(phi[-1] * (1 - q ** r))
        terms = {lam: prod((phi[c] for c in multiplicities(lam).values()),
                           start=ONE) * px(lam) * py(lam)
                 for lam in box.partitions()}
    else:
        kmax = box.m + box.n
        if mode == "big_schur":
            gy = q_coeff_fraction(ys, q, kmax)
        else:
            gy = h_from_times(twist(from_points(ys, kmax), q), kmax)
        sy = jacobi_trudi_box_fraction(gy, box.n, box.m)
        sx = jacobi_trudi_box_fraction(homogeneous_fraction(xs, kmax),
                                       box.n, box.m)
        terms = {lam: sy[lam] * sx[lam] for lam in sx}
    out = [ZERO] * (degree + 1)
    for lam, term in terms.items():
        if weight(lam) <= degree:
            out[weight(lam)] += term
    return out
