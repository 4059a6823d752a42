"""q-boson scalar products in four representations, plus the c-tilde matrix.

The same pairing is computed as a Hall-Littlewood partition sum, a
quotient of two kernel determinants, a deformed-Schur (big-Schur)
expansion, and a twisted-coordinate Schur expansion.  The four routes
coincide in every graded component of total degree <= M; whether the
full box-restricted sums agree exactly is size-dependent and is
*measured* by ``mode_agreement_report`` rather than asserted.

Orientation note: the big_schur and twisted_schur modes both carry the
deformation on the y points and the plain Schur factor on x.  Written
that way the two sums are equal term by term (the deformed Schur value
of y *is* the Schur function of the twisted coordinates of y), which is
the exact identity the tests pin down; putting the deformation on x
instead gives a genuinely different box-restricted sum because the
restriction cuts the two expansions along different axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .algebra_core import (ONE, ZERO, QPoly, det_ring, det_rational,
                           h_from_times, jacobi_trudi, mat_mul_ring,
                           power_series_div)
from .miwa import from_points, twist
from .partitions import b_lambda, weight
from .phase_model import BoxSpec, h_matrix, scalar_product
from .symfunc import (as_points, hall_littlewood_evaluator, kostka_tables,
                      pairwise_distinct, q_coeff_list)

MODES = ("hl_sum", "det_quotient", "big_schur", "twisted_schur")
SUM_MODES = ("hl_sum", "big_schur", "twisted_schur")


@dataclass(frozen=True)
class QBosonSpec:
    """Box data plus the deformation parameter Q (Q = 0 is the phase model)."""

    box: BoxSpec
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))


def _summand(xs: Sequence, ys: Sequence, spec: QBosonSpec, mode: str):
    """lam -> the lam-th term of a partition-sum mode.

    The Hall-Littlewood evaluators and the Jacobi-Trudi generator lists
    are built once per point set, so every term of one box shares them.
    The twisted times keep support N*M, which covers every |lam| in the box.
    """
    box, q = spec.box, spec.q
    if mode == "hl_sum":
        px = hall_littlewood_evaluator(xs, q)
        py = hall_littlewood_evaluator(ys, q)
        return lambda lam: b_lambda(lam)(q) * px(lam) * py(lam)
    kmax = box.m + box.n
    if mode == "big_schur":
        gy = q_coeff_list(ys, q, kmax)
    elif mode == "twisted_schur":
        times = twist(from_points(ys, max(1, box.n * box.m)), q)
        gy = h_from_times(times.values, kmax)
    elif mode == "schur_sum":
        gy = box.h_list(ys)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    hx = box.h_list(xs)
    return lambda lam: jacobi_trudi(gy, lam) * jacobi_trudi(hx, lam)


def scalar_product_q(xs: Sequence, ys: Sequence, spec: QBosonSpec,
                     mode: str = "hl_sum") -> Fraction:
    """Deformed N-particle pairing in the requested representation.

    hl_sum        sum_{lam in [N,M]} b_lam(Q) P_lam(x;Q) P_lam(y;Q)
    det_quotient  Q^{N(N-1)/2} det H(x,y) / det H(x,Qy)
    big_schur     sum_{lam in [N,M]} S_lam(y;Q) s_lam(x)
    twisted_schur sum_{lam in [N,M]} s_lam(T(y,Q)) s_lam(x)

    At Q = 0 every mode returns the phase-model value; for det_quotient
    that point is the analytic limit of the quotient (the denominator
    determinant vanishes to exactly the order the prefactor supplies),
    evaluated through the phase-model determinant.
    """
    xs = as_points(xs)
    ys = as_points(ys)
    box, q = spec.box, spec.q
    if len(xs) != box.n or len(ys) != box.n:
        raise ValueError("point sets must both have N entries")
    if mode == "det_quotient":
        if not (pairwise_distinct(xs) and pairwise_distinct(ys)):
            raise ValueError("det_quotient needs pairwise-distinct points")
        if q == 0:
            return scalar_product(xs, ys, box, mode="det")
        qys = [q * y for y in ys]
        den = det_rational(h_matrix(xs, qys, box))
        if den == 0:
            raise ZeroDivisionError("denominator determinant vanishes")
        num = det_rational(h_matrix(xs, ys, box))
        return q ** (box.n * (box.n - 1) // 2) * num / den
    if mode in SUM_MODES:
        term = _summand(xs, ys, spec, mode)
        return sum((term(lam) for lam in box.partitions()), ZERO)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# graded components (coefficients of the diagonal degree in x and y jointly)
# ---------------------------------------------------------------------------


def _sum_components(box: BoxSpec, degree: int, term) -> List[Fraction]:
    out = [ZERO] * (degree + 1)
    for lam in box.partitions():
        d = weight(lam)
        if d <= degree:
            out[d] += term(lam)
    return out


def graded_components(xs: Sequence, ys: Sequence, spec: QBosonSpec,
                      mode: str, degree: int) -> List[Fraction]:
    """Degree-d pieces (d = 0..degree) of the chosen representation.

    Grading is diagonal: scaling y by a formal parameter multiplies the
    degree-d piece by its d-th power, so the pieces of the partition
    sums are the fixed-|lam| subsums, and the determinant quotient is
    expanded as a series in that parameter and divided term by term.
    """
    xs = as_points(xs)
    ys = as_points(ys)
    box, q = spec.box, spec.q
    if mode in SUM_MODES:
        return _sum_components(box, degree, _summand(xs, ys, spec, mode))
    if mode == "det_quotient":
        if not (pairwise_distinct(xs) and pairwise_distinct(ys)):
            raise ValueError("det_quotient needs pairwise-distinct points")
        if q == 0:
            return _sum_components(box, degree,
                                   _summand(xs, ys, spec, "schur_sum"))
        val = box.n * (box.n - 1) // 2
        num = _delta_det(xs, ys, box)
        if any(num.coefficient(k) != 0 for k in range(val)):
            raise ArithmeticError("determinant valuation lower than expected")
        # det H(x, delta Q y) is num with delta -> Q delta: its delta^j
        # coefficient is Q^j num_j, so one expansion serves both
        num_shift = [num.coefficient(val + k) for k in range(degree + 1)]
        den_shift = [q ** (val + k) * c for k, c in enumerate(num_shift)]
        series = power_series_div(num_shift, den_shift, degree)
        scale = q ** val
        return [scale * c for c in series]
    raise ValueError(f"unknown mode {mode!r}")


def _delta_det(xs: Sequence[Fraction], ys: Sequence[Fraction],
               box: BoxSpec) -> QPoly:
    """det of H with each (xy)^k term carrying delta^k, as a QPoly in delta."""
    rows = []
    for x in xs:
        row = []
        for y in ys:
            xy = x * y
            coeffs = []
            power = ONE
            for _ in range(box.m + box.n):
                coeffs.append(power)
                power *= xy
            row.append(QPoly(coeffs))
        rows.append(row)
    return det_ring(rows, one=QPoly.one())


def mode_agreement_report(xs: Sequence, ys: Sequence,
                          spec: QBosonSpec) -> Dict[str, object]:
    """Values of all four modes, plus graded and exact agreement flags.

    Graded agreement is judged through total degree min(M, |box|), the
    theoretically protected window; exact full-sum equality against
    hl_sum is reported per mode as an observation.  When either point
    set repeats, det_quotient is undefined and its key is left out of
    every dict.
    """
    window = spec.box.m
    modes = (MODES if pairwise_distinct(xs) and pairwise_distinct(ys)
             else SUM_MODES)
    values = {mode: scalar_product_q(xs, ys, spec, mode) for mode in modes}
    comps = {mode: graded_components(xs, ys, spec, mode, window)
             for mode in modes}
    graded_ok = {
        mode: comps[mode] == comps["hl_sum"] for mode in modes
    }
    exact_ok = {mode: values[mode] == values["hl_sum"] for mode in modes}
    return {
        "values": values,
        "graded_window": window,
        "graded_equal_hl": graded_ok,
        "exact_equal_hl": exact_ok,
    }


# ---------------------------------------------------------------------------
# Schur-basis coefficient matrix of the pairing
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def c_tilde_matrix(d: int) -> Tuple[Tuple[QPoly, ...], ...]:
    """c~_{mu nu}(Q) = sum_lam K^{-1}_{lam mu} b_lam(Q) K^{-1}_{lam nu}.

    Rows and columns follow the partitions_of(d) order.  Before
    returning, two polynomial consistency checks run: K^T c~ K must be
    diag(b), and c~ times the cleared-denominator form of K b^{-1} K^T
    must be the (cleared) identity — multiplying through by prod b_sigma
    keeps everything inside Z[Q].
    """
    if d < 0:
        raise ValueError("weight must be nonnegative")
    tables = kostka_tables(d)
    order = tables.order
    n = len(order)
    K = tables.K
    K_inv = tables.K_inv
    b = [b_lambda(lam) for lam in order]
    K_inv_t = [[K_inv[k][i] for k in range(n)] for i in range(n)]
    ct = mat_mul_ring(K_inv_t, [[b[k] * c for c in K_inv[k]]
                                for k in range(n)])
    _verify_c_tilde(ct, K, b)
    return tuple(tuple(row) for row in ct)


def _verify_c_tilde(ct, K, b) -> None:
    n = len(b)
    zero, one = QPoly.zero(), QPoly.one()
    Kt = [[K[r][i] for r in range(n)] for i in range(n)]
    # K^T c~ K == diag(b)
    diag = mat_mul_ring(mat_mul_ring(Kt, ct), K)
    for i in range(n):
        for j in range(n):
            expected = b[i] if i == j else zero
            if diag[i][j] != expected:
                raise ArithmeticError("c-tilde fails the diagonal identity")
    # c~ . (K diag(B/b_s) K^T) == B . I with B = prod b_sigma, so every
    # entry stays a polynomial in Q instead of a rational function.
    big = one
    for poly in b:
        big = big * poly
    cleared = []
    for lam_idx in range(n):
        entry = one
        for other in range(n):
            if other != lam_idx:
                entry = entry * b[other]
        cleared.append(entry)
    mid = [[K[r][s] * cleared[s] for s in range(n)] for r in range(n)]
    product = mat_mul_ring(ct, mat_mul_ring(mid, Kt))
    for i in range(n):
        for j in range(n):
            expected = big if i == j else zero
            if product[i][j] != expected:
                raise ArithmeticError("c-tilde fails the inverse identity")
