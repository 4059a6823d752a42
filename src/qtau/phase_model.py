"""Phase-model scalar products, correlation functions, and skew pairings.

The central objects are pairings of off-shell Bethe states on a chain
with sites 0..M in the N-particle sector.  The scalar product and the
one-point function each have two independent evaluation routes -- a
determinant over Vandermondes, whose entries come from the kernel
H(z, w) = sum_{k<M+N} (zw)^k, and a partition sum over the box [N, M] --
and the test suite insists that the routes agree exactly.

Every partition sum -- the scalar product, the one-point function and
the skew pairing -- is one box sum, ``correlation_skew``, which reads
its Schur values from ``box_minors``: s_{mu/lam} over the whole box are
the maximal minors of one N x (N+M) matrix [h_{j-i}], so one Laplace
sweep per point set replaces an elimination per partition.  No
determinant route divides by a Vandermonde: each lists its columns as
polynomials in x and hands them to one divided-difference determinant,
``_newton_det``, so coincident points are ordinary inputs.  Both run on
the int h-lists of ``symfunc.q_coeff_ints``, with one scale per box
sweep or per determinant row and column, so a pairing makes one
Fraction, for the value it returns.  The Giambelli check
(``giambelli_check``) makes none: over the same int h-list both of its
determinants come out as D^|lam| times their values, so it compares
two ``det_int`` results.

A note on the correlation determinant: the route implemented by
``correlation_Am(..., mode="det")`` is the Cauchy-Binet compression of
the skew sum, so it reproduces the occupation-basis ground truth
exactly.  The variant determinant whose last column is a bare power of
x (``correlation_Am_power_column``) is kept separately: it is *not* the
same function, and the report suites measure how the two relate rather
than assuming proportionality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Dict, List, Sequence, Tuple

from .algebra_core import (ZERO, PointSet, _jacobi_trudi_rows, as_points,
                           box_minors, det_int, h_from_times, jacobi_trudi)
from .partitions import (Partition, contains, enumerate_in_box, frobenius,
                         hook_partition, normalize, partitions_of, weight)
from .symfunc import q_coeff_ints, q_coeff_list


@dataclass(frozen=True)
class BoxSpec:
    """Sector data: N particles on the chain 0..M (partitions live in [N, M])."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError("BoxSpec requires nonnegative N and M")

    def partitions(self) -> List[Partition]:
        return list(enumerate_in_box(self.n, self.m))


def _column(gs: Sequence[int], den: int,
            shift: int = 0) -> Tuple[List[int], int]:
    """sum_k gs[k] (x/den)^k times x^shift, as (int coefficients, scale)."""
    top = len(gs) - 1
    return ([0] * shift + [g * den ** (top - k) for k, g in enumerate(gs)],
            den ** top)


def _newton_det(xs: PointSet,
                columns: Sequence[Tuple[Sequence[int], int]]) -> Fraction:
    """det[f_j[x_0..x_i]] for f_j(x) = sum_k c_k x^k / s, (c, s) = columns[j].

    By Newton, det[f_j(x_i)] = prod_{i<j} (x_j - x_i) * det[f_j[x_0..x_i]],
    which turns a determinant over Delta(x) into one with no division,
    defined at coincident points.  The divided difference of x^k over
    x_0..x_i is h_{k-i}(x_0..x_i) = H_{k-i} / L^{k-i}, so row i times
    L^{top-i} reads one int h-list.
    """
    top = max((len(col) for col, _ in columns), default=1) - 1
    rows, den = [], prod(scale for _, scale in columns)
    for i in range(len(xs)):
        hs, scale = _column(*q_coeff_ints(xs[:i + 1], 0, top - i))
        den *= scale
        rows.append([sum(col[k] * hs[k - i] for k in range(i, len(col))
                         if col[k]) for col, _ in columns])
    return Fraction(det_int(rows), den)


def scalar_product(xs: Sequence, ys: Sequence, box: BoxSpec,
                   mode: str = "det") -> Fraction:
    """Off-shell N-particle pairing: det H/(Delta Delta) or the Schur sum.

    det divides H(x, y) by both Vandermondes through divided differences:
    column j lists the coefficients in x of H(x, y)[y_0..y_j], which are
    h_{k-j}(y_0..y_j), and the two Vandermonde signs cancel, so repeated
    points are ordinary.
    """
    xs = as_points(xs)
    ys = as_points(ys)
    if len(xs) != box.n or len(ys) != box.n:
        raise ValueError("point sets must both have N entries")
    if mode == "det":
        size = box.m + box.n
        return _newton_det(xs, [
            _column(*q_coeff_ints(ys[:j + 1], 0, size - 1 - j), j)
            for j in range(box.n)])
    if mode == "schur_sum":
        return correlation_skew((), (), xs, ys, box)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# one-row correlation functions
# ---------------------------------------------------------------------------


def correlation_Am(xs: Sequence, ys: Sequence, m: int, box: BoxSpec,
                   mode: str = "det") -> Fraction:
    """Pairing with one extra creation operator at site m.

    ``xs`` has N entries, ``ys`` has N-1; the value is
    sum over mu in [N, M] with mu >= (m) of s_{mu/(m)}(y) s_mu(x).

    skew_sum evaluates that sum directly.  det compresses it by
    Cauchy-Binet into det(C)/Delta(x) where column 1 of C resums the
    geometric tail shifted by m and the remaining columns are the
    scalar-product columns; both modes return the same exact value.
    Each column is a polynomial in x with coefficients h_k(y), so det
    takes its divided differences instead of dividing by Delta(x):
    det(C)/Delta(x) = (-1)^(N(N-1)/2) det(C[x_0..x_i]), defined at
    coincident points too.
    """
    xs = as_points(xs)
    ys = as_points(ys)
    n, mm = box.n, box.m
    if len(xs) != n or len(ys) != n - 1:
        raise ValueError("need N bra points and N-1 ket points")
    if not 0 <= m <= mm:
        raise ValueError("site index m out of range")
    if mode == "skew_sum":
        return correlation_skew((), (m,), xs, ys, box)
    if mode == "det":
        hs, den = q_coeff_ints(ys, 0, mm + n - 1)
        # column (shift, top) of C is x^shift * sum_{k <= top} h_k(y) x^k
        shape = [(n - 1 + m, mm - m)] + [(n - j, mm + j - 1)
                                         for j in range(2, n + 1)]
        det = _newton_det(xs, [_column(hs[:top + 1], den, shift)
                               for shift, top in shape])
        return -det if n * (n - 1) // 2 % 2 else det
    raise ValueError(f"unknown mode {mode!r}")


def correlation_Am_power_column(xs: Sequence, ys: Sequence, m: int,
                                box: BoxSpec) -> Fraction:
    """det of the H-matrix with its last column replaced by x^(M+N-1-2m)/2.

    This is the "fixed-parameter" determinant det Q/Delta(x): columns
    1..N-1 are H(x_j, y_k) and the last column is the bare power.  It
    requires M+N-1 even so the exponent is an integer.  Kept as a
    measured quantity — the report suites compare it against the true
    correlation value instead of assuming a relation.  As in
    ``correlation_Am``, the rows are divided differences in x, so
    det Q/Delta(x) = (-1)^(N(N-1)/2) det(Q[x_0..x_i]) at any points.
    """
    xs = as_points(xs)
    ys = as_points(ys)
    n, mm = box.n, box.m
    if len(xs) != n or len(ys) != n - 1:
        raise ValueError("need N bra points and N-1 ket points")
    if (mm + n - 1) % 2:
        raise ValueError("column exponent (M+N-1-2m)/2 must be an integer")
    expo = (mm + n - 1 - 2 * m) // 2
    if expo < 0:
        raise ValueError("site index m too large for the power column")
    det = _newton_det(xs, [_column([y.numerator ** k for k in range(mm + n)],
                                   y.denominator) for y in ys]
                      + [_column([1], 1, expo)])
    return -det if n * (n - 1) // 2 % 2 else det


def correlation_skew(lam1: Partition, lam2: Partition, xs: Sequence,
                     ys: Sequence, box: BoxSpec) -> Fraction:
    """Two-sided skew pairing sum_mu s_{mu/lam1}(x) s_{mu/lam2}(y).

    mu runs over the box [N, M]; terms not containing lam1 and lam2
    vanish through the skew Schur containment rule.
    """
    (sx, dx), (sy, dy) = (
        box_minors(*q_coeff_ints(pts, 0, box.m + box.n), box.n, box.m,
                   normalize(lam)) for pts, lam in ((xs, lam1), (ys, lam2)))
    return Fraction(sum(sx[mu] * sy[mu] for mu in sx), dx * dy)


def factorization_report(lam1: Partition, lam2: Partition, xs: Sequence,
                         ys: Sequence, box: BoxSpec) -> Dict[str, object]:
    """Measure whether the skew pairing factors at finite size.

    The candidate identity writes correlation_skew as the plain scalar
    sum times sum_nu s_{lam1/nu}(x) s_{lam2/nu}(y).  It holds in the
    large-box limit; at desk scale this function reports both sides and
    their equality instead of asserting anything.
    """
    lam1 = normalize(lam1)
    lam2 = normalize(lam2)
    xs = as_points(xs)
    ys = as_points(ys)
    lhs = correlation_skew(lam1, lam2, xs, ys, box)
    norm = correlation_skew((), (), xs, ys, box)
    hx = q_coeff_list(xs, 0, weight(lam1))
    hy = q_coeff_list(ys, 0, weight(lam2))
    meet = normalize(tuple(min(a, b) for a, b in zip(lam1, lam2)))
    tail = sum((jacobi_trudi(hx, lam1, nu) * jacobi_trudi(hy, lam2, nu)
                for nu in enumerate_in_box(len(meet), max(meet, default=0))
                if contains(meet, nu)), ZERO)
    rhs = norm * tail
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


# ---------------------------------------------------------------------------
# constant-term (matrix-integral) route for the row-bounded Schur pairing
# ---------------------------------------------------------------------------


def schur_pair_sum_miwa(n: int, t: Sequence, tprime: Sequence,
                        cutoff: int) -> Fraction:
    """sum over lam with l(lam) <= n, |lam| <= cutoff of s_lam(t) s_lam(t')."""
    hs = h_from_times(t, cutoff)
    hs_prime = h_from_times(tprime, cutoff)
    return sum((jacobi_trudi(hs, lam) * jacobi_trudi(hs_prime, lam)
                for d in range(cutoff + 1)
                for lam in partitions_of(d, max_len=n)), ZERO)


def matrix_integral_constant_term(n: int, t: Sequence, tprime: Sequence,
                                  cutoff: int,
                                  sign_convention: str = "plus") -> Fraction:
    """Constant term of (1/n!) prod_l e^{xi(t,z_l) +- xi(t',1/z_l)} Delta(z)Delta(1/z).

    Expanding both Vandermondes over permutations, the n! relabellings
    of z cancel the 1/n!: for every n >= 0 this is the sum over a in N^n
    with |a| <= cutoff of prod_l h_{a_l}(t) det(h_{a_i - i + j}(+-t')),
    ``jacobi_trudi`` read on the composition a.  Both factors have
    degree |a|, so under the matching sign convention the value equals
    ``schur_pair_sum_miwa(n, t, tprime, cutoff)`` on the nose.  Both
    conventions stay available so the harness can record which one that is.
    """
    if n < 0 or cutoff < 0:
        raise ValueError("n and cutoff must be nonnegative")
    if sign_convention not in ("plus", "minus"):
        raise ValueError(f"unknown sign convention {sign_convention!r}")
    hs = h_from_times(t, cutoff)
    tp = [-v for v in tprime] if sign_convention == "minus" else tprime
    hp = h_from_times(tp, cutoff + n)
    total = ZERO
    for cuts in combinations(range(cutoff + n), n):
        # a_i = cuts_i - cuts_{i-1} - 1 runs over N^n with |a| <= cutoff
        comp = [q - p - 1 for p, q in zip((-1,) + cuts, cuts)]
        total += prod(hs[a] for a in comp) * jacobi_trudi(hp, comp)
    return total


# ---------------------------------------------------------------------------
# determinant compatibility of partition-indexed coefficients
# ---------------------------------------------------------------------------


def giambelli_check(ys: Sequence, shapes: Sequence[Partition]) -> bool:
    """Hook-minor determinant test for the coefficients c_lam(y), every lam.

    c_lam(y) = det(h_{lam_i - i + j}(y)); for each lam in ``shapes`` the
    check asserts that the determinant of c over the Frobenius hooks of
    lam reproduces c_lam itself, which is the Giambelli consequence of
    the Plücker relations.  It runs on ints: with h_k = G_k / D^k from
    one ``q_coeff_ints`` list at the largest weight, every term of
    either determinant has total weight |lam| (a hook (a|b) has weight
    a + b + 1), so both sides are D^|lam| times their rational values,
    and C_mu = D^|mu| c_mu is ``det_int`` of the Jacobi-Trudi matrix
    over G.  Each C_mu is computed once, since the hook shapes recur
    across lam.
    """
    shapes = [normalize(lam) for lam in shapes]
    gs, _ = q_coeff_ints(ys, 0, max((weight(lam) for lam in shapes),
                                    default=0))
    values: Dict[Partition, int] = {}

    def c(shape: Partition) -> int:
        if shape not in values:
            values[shape] = det_int(_jacobi_trudi_rows(gs, shape))
        return values[shape]

    for lam in shapes:
        coords = frobenius(lam)
        rows = [[c(hook_partition(a, b)) for _, b in coords]
                for a, _ in coords]
        if det_int(rows) != c(lam):
            return False
    return True
