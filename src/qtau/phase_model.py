"""Phase-model scalar products, correlation functions, and skew pairings.

The central objects are pairings of off-shell Bethe states on a chain
with sites 0..M in the N-particle sector.  The scalar product and the
one-point function each have two independent evaluation routes -- a
determinant over Vandermondes, whose entries come from the kernel
H(z, w) = sum_{k<M+N} (zw)^k, and a partition sum over the box [N, M] --
and the test suite insists that the routes agree exactly.

Every partition sum -- the scalar product, the one-point function and
the skew pairing -- is one box sum, ``correlation_skew``, which reads
its Schur values from ``jacobi_trudi_box``: s_{mu/lam} over the whole
box are the maximal minors of one N x (N+M) matrix [h_{j-i}], so one
Laplace sweep per point set replaces an elimination per partition.  No
determinant route divides by a Vandermonde: each lists its columns as
polynomials in x and hands them to one divided-difference determinant,
``_newton_det``, so coincident points are ordinary inputs.

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
from typing import Dict, List, Sequence

from .algebra_core import (ONE, ZERO, det_rational, h_from_times, jacobi_trudi,
                           jacobi_trudi_box)
from .partitions import (Partition, contains, enumerate_in_box, frobenius,
                         hook_partition, normalize, partitions_of, weight)
from .symfunc import PointSet, as_points, homogeneous_list


@dataclass(frozen=True)
class BoxSpec:
    """Sector data: N particles on the chain 0..M (partitions live in [N, M])."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError("BoxSpec requires nonnegative N and M")

    def partitions(self) -> List[Partition]:
        return enumerate_in_box(self.n, self.m)

    def h_list(self, xs: Sequence) -> List[Fraction]:
        """h_0..h_{M+N} of a point set: enough for every shape in the box."""
        return homogeneous_list(xs, self.m + self.n)


def _newton_det(xs: PointSet, columns: Sequence[Sequence]) -> Fraction:
    """det[f_j[x_0..x_i]] for f_j(x) = sum_k columns[j][k] x^k.

    By Newton, det[f_j(x_i)] = prod_{i<j} (x_j - x_i) * det[f_j[x_0..x_i]],
    which turns a determinant over Delta(x) into one with no division,
    defined at coincident points.  The divided difference of x^k over
    x_0..x_i is h_{k-i}(x_0..x_i), so row i reads one h-list.
    """
    top = max(map(len, columns), default=1) - 1
    rows = []
    for i in range(len(xs)):
        hs = homogeneous_list(xs[:i + 1], top - i)
        rows.append([sum((col[k] * hs[k - i] for k in range(i, len(col))
                          if col[k]), ZERO) for col in columns])
    return det_rational(rows)


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
        columns = [[ZERO] * j + homogeneous_list(ys[:j + 1], size - 1 - j)
                   for j in range(box.n)]
        return _newton_det(xs, columns)
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
        hs = homogeneous_list(ys, mm + n - 1)
        # column (shift, top) of C is x^shift * sum_{k <= top} h_k(y) x^k
        shape = [(n - 1 + m, mm - m)] + [(n - j, mm + j - 1)
                                         for j in range(2, n + 1)]
        det = _newton_det(xs, [[ZERO] * shift + hs[:top + 1]
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
    det = _newton_det(xs, [[y ** k for k in range(mm + n)] for y in ys]
                      + [[ZERO] * expo + [ONE]])
    return -det if n * (n - 1) // 2 % 2 else det


def correlation_skew(lam1: Partition, lam2: Partition, xs: Sequence,
                     ys: Sequence, box: BoxSpec) -> Fraction:
    """Two-sided skew pairing sum_mu s_{mu/lam1}(x) s_{mu/lam2}(y).

    mu runs over the box [N, M]; terms not containing lam1 and lam2
    vanish through the skew Schur containment rule.
    """
    sx = jacobi_trudi_box(box.h_list(xs), box.n, box.m, normalize(lam1))
    sy = jacobi_trudi_box(box.h_list(ys), box.n, box.m, normalize(lam2))
    return sum((sx[mu] * sy[mu] for mu in sx), ZERO)


def _subpartitions(lam: Partition) -> List[Partition]:
    out = []
    for d in range(weight(lam) + 1):
        for nu in partitions_of(d, max_part=lam[0] if lam else 0,
                                max_len=len(lam)):
            if contains(lam, nu):
                out.append(nu)
    return out


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
    hx = homogeneous_list(xs, weight(lam1))
    hy = homogeneous_list(ys, weight(lam2))
    meet = tuple(min(a, b) for a, b in zip(lam1, lam2))
    tail = sum((jacobi_trudi(hx, lam1, nu) * jacobi_trudi(hy, lam2, nu)
                for nu in _subpartitions(normalize(meet))), ZERO)
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
    acc = ONE  # empty partition
    for d in range(1, cutoff + 1):
        for lam in partitions_of(d, max_len=n):
            acc += jacobi_trudi(hs, lam) * jacobi_trudi(hs_prime, lam)
    return acc


def matrix_integral_constant_term(n: int, t: Sequence, tprime: Sequence,
                                  cutoff: int,
                                  sign_convention: str = "plus") -> Fraction:
    """Constant term of (1/n!) prod_l e^{xi(t,z_l) +- xi(t',1/z_l)} Delta(z)Delta(1/z).

    Supported for n in {1, 2}.  The z-window needed to capture every
    partition with |lam| <= cutoff is a1 (+ a2) <= cutoff, because the
    contributing exponents pair off degree-by-degree; within that window
    the extraction is exact, so under the matching sign convention the
    value equals ``schur_pair_sum_miwa(n, t, tprime, cutoff)`` on the
    nose.  Both conventions stay available so the harness can record
    which one that is.
    """
    if n not in (1, 2):
        raise ValueError("constant-term route implemented for n = 1, 2 only")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if sign_convention not in ("plus", "minus"):
        raise ValueError(f"unknown sign convention {sign_convention!r}")
    hs = h_from_times(t, cutoff + 1)
    tp = list(tprime)
    if sign_convention == "minus":
        tp = [-v for v in tp]
    hp = h_from_times(tp, cutoff + 1)

    def hhat(k: int) -> Fraction:
        return hp[k] if 0 <= k < len(hp) else ZERO

    if n == 1:
        return sum((hs[a] * hhat(a) for a in range(cutoff + 1)), ZERO)
    # n = 2: Delta(z)Delta(1/z) = 2 - z1/z2 - z2/z1.
    acc = ZERO
    for a1 in range(cutoff + 1):
        for a2 in range(cutoff + 1 - a1):
            cross = (2 * hhat(a1) * hhat(a2)
                     - hhat(a1 + 1) * hhat(a2 - 1)
                     - hhat(a1 - 1) * hhat(a2 + 1))
            acc += hs[a1] * hs[a2] * cross
    return acc / 2


# ---------------------------------------------------------------------------
# determinant compatibility of partition-indexed coefficients
# ---------------------------------------------------------------------------


def giambelli_check(ys: Sequence, shapes: Sequence[Partition]) -> bool:
    """Hook-minor determinant test for the coefficients c_lam(y), every lam.

    c_lam(y) = det(h_{lam_i - i + j}(y)); for each lam in ``shapes`` the
    check asserts that the determinant of c over the Frobenius hooks of
    lam reproduces c_lam itself, which is the Giambelli consequence of
    the Plücker relations.  One h-list at the largest weight serves
    every shape, and each c_mu is computed once, since the hook shapes
    recur across lam.
    """
    shapes = [normalize(lam) for lam in shapes]
    hs = homogeneous_list(ys, max((weight(lam) for lam in shapes), default=0))
    values: Dict[Partition, Fraction] = {}

    def c(shape: Partition) -> Fraction:
        if shape not in values:
            values[shape] = jacobi_trudi(hs, shape)
        return values[shape]

    for lam in shapes:
        coords = frobenius(lam)
        rows = [[c(hook_partition(a, b)) for _, b in coords]
                for a, _ in coords]
        if det_rational(rows) != c(lam):
            return False
    return True
