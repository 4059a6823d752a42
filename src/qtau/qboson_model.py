"""q-boson scalar products in four representations, plus the c-tilde matrix.

The same pairing is computed as a Hall-Littlewood partition sum, a
quotient of two phase-model pairings, a deformed-Schur (big-Schur)
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

Each sum mode builds one term table lam -> term over the box (``_terms``),
and ``_graded_ints`` groups it by |lam|: the one path every sum mode is
read through.  Every term is an int over a denominator fixed per degree,
so ``graded_components`` makes one Fraction per graded piece and
``scalar_product_q`` one for the full value.  The Schur-type tables
come from ``box_minors``; det_quotient divides Fractions.  The determinant
quotient Q^{N(N-1)/2} det H(x,y) / det H(x,Qy) is S(x,y)/S(x,Qy) with S
the phase-model pairing, because Delta(Qy) = Q^{N(N-1)/2} Delta(y); S
takes divided differences instead of dividing by Vandermondes, so the
quotient is defined at coincident points and at Q = 0.  Its graded
pieces are those of big_schur at Q = 0 divided as power series, because
S_lam(y; 0) = s_lam(y).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra_core import (ZERO, QPoly, box_minors, h_from_times,
                           mat_mul_ring, power_series_div)
from .miwa import from_points, twist
from .partitions import Partition, b_lambda, multiplicities, weight
from .phase_model import BoxSpec, scalar_product
from .symfunc import (as_points, hall_littlewood_ints, kostka_tables,
                      q_coeff_ints)

MODES = ("hl_sum", "det_quotient", "big_schur", "twisted_schur")
SUM_MODES = ("hl_sum", "big_schur", "twisted_schur")


@dataclass(frozen=True)
class QBosonSpec:
    """Box data plus the deformation parameter Q (Q = 0 is the phase model)."""

    box: BoxSpec
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))


def _terms(xs: Sequence[Fraction], ys: Sequence[Fraction], spec: QBosonSpec,
           mode: str, sweeps: Dict[tuple, Tuple[Dict[Partition, int], int]]
           ) -> Tuple[Dict[Partition, int], int, int]:
    """(lam -> T_lam, base, step), the lam-th term of a sum mode being
    T_lam / (base * step^|lam|), over the whole box.

    hl_sum reads P_lam = V(lam) / (L^{|lam|} b^{N(N-1)/2}) on each side
    (``hall_littlewood_ints``, Q = a/b), and b_lam(Q) is
    prod_i prod_{j <= m_i} (b^j - a^j) over b^{sum_i m_i(m_i+1)/2}, so
    over b^{N(N+1)/2}.  The Schur-type modes read s_lam(x) and the y-side
    values from one ``box_minors`` sweep each, which reads c_0..c_{N+M-1},
    so the twisted times need support N+M only; they are put over the
    big_schur denominator, where they are int-valued Fractions (an
    ``int()`` would truncate silently if the identity this mode checks
    failed).  ``sweeps`` maps a generator list to its box table; a caller
    that shares it across modes sweeps each distinct list once.
    """
    box, q = spec.box, spec.q
    if mode == "hl_sum":
        vx, lx, bx = hall_littlewood_ints(xs, q)
        vy, ly, by = hall_littlewood_ints(ys, q)
        a, b = q.numerator, q.denominator
        top = box.n * (box.n + 1) // 2
        # phi[r] = (b - a)(b^2 - a^2)...(b^r - a^r)
        phi = [1]
        for r in range(1, box.n + 1):
            phi.append(phi[-1] * (b ** r - a ** r))
        terms = {}
        for lam in box.partitions():
            ms = multiplicities(lam).values()
            terms[lam] = (prod(phi[c] for c in ms) * vx(lam) * vy(lam)
                          * b ** (top - sum(c * (c + 1) // 2 for c in ms)))
        return terms, b ** top * bx * by, lx * ly
    kmax = box.m + box.n
    if mode == "big_schur":
        gy, dy = q_coeff_ints(ys, q, kmax)
    else:
        dy = lcm(*(y.denominator for y in ys)) * q.denominator
        gy = [c * dy ** k for k, c in enumerate(
            h_from_times(twist(from_points(ys, kmax), q), kmax))]

    def table(gens, den):
        key = (tuple(gens), den)
        if key not in sweeps:
            sweeps[key] = box_minors(gens, den, box.n, box.m)
        return sweeps[key]

    (sy, scale_y), (sx, scale_x) = (table(gy, dy),
                                    table(*q_coeff_ints(xs, 0, kmax)))
    return {lam: sy[lam] * sx[lam] for lam in sx}, scale_x * scale_y, 1


def scalar_product_q(xs: Sequence, ys: Sequence, spec: QBosonSpec,
                     mode: str = "hl_sum") -> Fraction:
    """Deformed N-particle pairing in the requested representation.

    hl_sum        sum_{lam in [N,M]} b_lam(Q) P_lam(x;Q) P_lam(y;Q)
    det_quotient  Q^{N(N-1)/2} det H(x,y) / det H(x,Qy) = S(x,y) / S(x,Qy)
    big_schur     sum_{lam in [N,M]} S_lam(y;Q) s_lam(x)
    twisted_schur sum_{lam in [N,M]} s_lam(T(y,Q)) s_lam(x)

    S is the phase-model pairing ``scalar_product(..., "det")``, defined
    at any points, and S(x, 0) = 1, so at Q = 0 every mode returns the
    phase-model value.  det_quotient raises ZeroDivisionError only where
    S(x, Qy) = 0.  A sum mode is the sum of its graded pieces through
    N*M, the largest |lam| in the box, divided once.
    """
    box = spec.box
    if mode == "det_quotient":
        den = scalar_product(xs, [spec.q * y for y in as_points(ys)], box,
                             "det")
        if den == 0:
            raise ZeroDivisionError("denominator determinant vanishes")
        return scalar_product(xs, ys, box, "det") / den
    top = box.n * box.m
    pieces, base, step = _graded_ints(xs, ys, spec, mode, top, {})
    return Fraction(sum(p * step ** (top - d) for d, p in enumerate(pieces)),
                    base * step ** top)


def _graded_ints(xs: Sequence, ys: Sequence, spec: QBosonSpec, mode: str,
                 degree: int, sweeps: dict) -> Tuple[List, int, int]:
    """(P, base, step) with P[d] / (base * step^d) the degree-d piece."""
    xs, ys = as_points(xs), as_points(ys)
    if len(xs) != spec.box.n or len(ys) != spec.box.n:
        raise ValueError("point sets must both have N entries")
    if mode not in SUM_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    terms, base, step = _terms(xs, ys, spec, mode, sweeps)
    out = [0] * (degree + 1)
    for lam, term in terms.items():
        d = weight(lam)
        if d <= degree:
            out[d] += term
    return out, base, step


def graded_components(xs: Sequence, ys: Sequence, spec: QBosonSpec,
                      mode: str, degree: int,
                      sweeps: Optional[dict] = None) -> List[Fraction]:
    """Degree-d pieces (d = 0..degree) of the chosen representation.

    Grading is diagonal: scaling y by a formal parameter multiplies the
    degree-d piece by its d-th power, so the pieces of the partition
    sums are the fixed-|lam| subsums.  The pieces c_d of S(x, delta y)
    are the Schur subsums, those of S(x, delta Q y) are Q^d c_d, and
    c_0 = 1, so the quotient divides as a power series at every Q.
    ``sweeps`` is the box-table memo of ``_terms``.
    """
    if sweeps is None:
        sweeps = {}
    if mode == "det_quotient":
        c = graded_components(xs, ys, QBosonSpec(spec.box, 0), "big_schur",
                              degree, sweeps)
        return power_series_div(c, [spec.q ** d * c_d
                                    for d, c_d in enumerate(c)], degree)
    pieces, base, step = _graded_ints(xs, ys, spec, mode, degree, sweeps)
    return [Fraction(p, base * step ** d) for d, p in enumerate(pieces)]


def mode_agreement_report(xs: Sequence, ys: Sequence,
                          spec: QBosonSpec) -> Dict[str, object]:
    """Values of all four modes, plus graded and exact agreement flags.

    Graded agreement is judged through total degree M, the theoretically
    protected window; exact full-sum equality against hl_sum is reported
    per mode as an observation.  Each sum mode is read from one
    ``graded_components`` pass through max(M, N*M).  The modes share one
    memo of box tables, so each distinct generator list is swept once per
    report: h(x) is read by every Schur-type mode, and the big_schur and
    twisted_schur y-lists coincide.  When S(x, Qy) vanishes, det_quotient
    is undefined and its key is left out of every dict.
    """
    window = spec.box.m
    degree = max(window, spec.box.n * spec.box.m)
    values, comps, sweeps = {}, {}, {}
    for mode in MODES:
        if mode in SUM_MODES:
            pieces = graded_components(xs, ys, spec, mode, degree, sweeps)
            values[mode] = sum(pieces, ZERO)
            comps[mode] = pieces[:window + 1]
            continue
        try:
            values[mode] = scalar_product_q(xs, ys, spec, mode)
        except ZeroDivisionError:  # S(x, Qy) = 0
            continue
        comps[mode] = graded_components(xs, ys, spec, mode, window, sweeps)
    graded_ok = {mode: comps[mode] == comps["hl_sum"] for mode in values}
    exact_ok = {mode: values[mode] == values["hl_sum"] for mode in values}
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
    diag(b), and c~ must invert K b^{-1} K^T (see ``_verify_c_tilde``).
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
    _verify_c_tilde(ct, K, K_inv, b)
    return tuple(tuple(row) for row in ct)


def _verify_c_tilde(ct, K, K_inv, b) -> None:
    """Raise ArithmeticError unless c~ passes both defining identities.

    The diagonal identity K^T c~ K = diag(b) is checked as it stands.
    The inverse identity c~ (K diag(B/b_s) K^T) = B I, with
    B = prod b_sigma cleared so that every entry lies in Z[Q], is checked
    in the equivalent form c~ K = (K^-1)^T diag(b), whose degrees do not
    grow with B.  Multiplying that form on the right by diag(B/b_s) K^T
    gives the cleared one, because kostka_tables has verified
    K K^-1 = I; conversely, multiplying the cleared form on the right by
    (K^-1)^T and cancelling B (Z[Q] is a domain) gives it back.
    """
    n = len(b)
    zero = QPoly.zero()
    Kt = [[K[r][i] for r in range(n)] for i in range(n)]
    ct_K = mat_mul_ring(ct, K)
    diag = mat_mul_ring(Kt, ct_K)
    for i in range(n):
        for j in range(n):
            expected = b[i] if i == j else zero
            if diag[i][j] != expected:
                raise ArithmeticError("c-tilde fails the diagonal identity")
    for i in range(n):
        for j in range(n):
            if ct_K[i][j] != K_inv[j][i] * b[j]:
                raise ArithmeticError("c-tilde fails the inverse identity")
