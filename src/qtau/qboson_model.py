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

``_graded_ints`` is the one reader of a sum mode: it sums the box terms
by |lam| into int pieces over one denominator shared by every piece, so
``graded_components`` makes one Fraction per piece, ``scalar_product_q``
one per value, and ``mode_agreement_report`` one per value and per piece
of its window.  The Schur-type tables come from ``box_minors``; the
det_quotient value divides Fractions.  The determinant quotient
Q^{N(N-1)/2} det H(x,y) / det H(x,Qy) is S(x,y)/S(x,Qy) with S the
phase-model pairing, because Delta(Qy) = Q^{N(N-1)/2} Delta(y); S takes
divided differences instead of dividing by Vandermondes, so the quotient
is defined at coincident points and at Q = 0.  Its graded pieces are the
int pieces of big_schur at Q = 0 divided as power series, because
S_lam(y; 0) = s_lam(y).  Q is read exactly (``QBosonSpec`` refuses a
float), and c-tilde and its checks stay in Z[Q], on int ``QPoly``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra_core import (QPoly, _exact, _over_lcm, as_points, box_minors,
                           mat_mul_ring, power_series_div)
from .partitions import b_lambda, multiplicities, weight
from .phase_model import BoxSpec, scalar_product
from .symfunc import hall_littlewood_ints, kostka_tables, q_coeff_ints

MODES = ("hl_sum", "det_quotient", "big_schur", "twisted_schur")
SUM_MODES = ("hl_sum", "big_schur", "twisted_schur")


@dataclass(frozen=True)
class QBosonSpec:
    """Box data plus the exact deformation Q (Q = 0 is the phase model)."""

    box: BoxSpec
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", _exact(self.q))


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
    N*M, the largest |lam| in the box, over their one denominator.
    """
    box = spec.box
    if mode == "det_quotient":
        den = scalar_product(xs, [spec.q * y for y in as_points(ys)], box,
                             "det")
        if den == 0:
            raise ZeroDivisionError("denominator determinant vanishes")
        return scalar_product(xs, ys, box, "det") / den
    pieces, den = _graded_ints(xs, ys, spec, mode, box.n * box.m, {})
    return Fraction(sum(pieces), den)


def _graded_ints(xs: Sequence, ys: Sequence, spec: QBosonSpec, mode: str,
                 degree: int, sweeps: dict) -> Tuple[List[int], int]:
    """(P, D) with P[d] / D the degree-d piece, one D for every piece.

    hl_sum reads P_lam(x) = V(lam) / (L^{|lam|} B) (``hall_littlewood_ints``)
    and b_lam(Q) = prod_i prod_{j <= m_i} (b^j - a^j) / b^{sum m_i(m_i+1)/2}
    for Q = a/b, so its degree-d subsum S_d is over b^{N(N+1)/2} B_x B_y
    (L_x L_y)^d, and P[d] = S_d (L_x L_y)^{degree-d}.  The Schur-type
    modes read s_lam(x) and the y-side values, over scale_x scale_y,
    from one ``box_minors`` sweep of c_0..c_{N+M-1} each.  The twisted
    list is h_j of the times T_k = (1 - Q^k) t_k(y) over the big_schur
    denominator D = L b: P_k = (b^k - a^k) sum_j Y_j^k is k T_k D^k, so
    Newton's identity reads j H_j = sum_{k <= j} P_k H_{j-k} for
    H_j = h_j D^j.  H_j stays a Fraction where j does not divide the sum,
    so a failing identity shows instead of being truncated.
    ``sweeps`` maps a generator list to its box table, so a caller that
    shares it across modes sweeps each distinct list once.
    """
    xs, ys = as_points(xs), as_points(ys)
    box, q = spec.box, spec.q
    if len(xs) != box.n or len(ys) != box.n:
        raise ValueError("point sets must both have N entries")
    if mode not in SUM_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    out = [0] * (degree + 1)
    if mode == "hl_sum":
        vx, lx, bx = hall_littlewood_ints(xs, q)
        vy, ly, by = hall_littlewood_ints(ys, q)
        a, b, top = q.numerator, q.denominator, box.n * (box.n + 1) // 2
        # phi[r] = (b - a)(b^2 - a^2)...(b^r - a^r)
        phi = [1]
        for r in range(1, box.n + 1):
            phi.append(phi[-1] * (b ** r - a ** r))
        for lam in box.partitions():
            d = weight(lam)
            if d <= degree:
                ms = multiplicities(lam).values()
                out[d] += (prod(phi[c] for c in ms) * vx(lam) * vy(lam)
                           * b ** (top - sum(c * (c + 1) // 2 for c in ms)))
        lxy = lx * ly
        return ([p * lxy ** (degree - d) for d, p in enumerate(out)],
                b ** top * bx * by * lxy ** degree)
    kmax = box.m + box.n
    gy, dy = q_coeff_ints(ys, q, kmax)
    if mode == "twisted_schur":
        ints, _ = _over_lcm(ys)
        a, b = q.numerator, q.denominator
        ps, powers = [], ints
        for k in range(1, kmax + 1):
            ps.append((b ** k - a ** k) * sum(powers))
            powers = [p * y for p, y in zip(powers, ints)]
        gy = [1]
        for j in range(1, kmax + 1):
            total = sum(ps[k] * gy[j - 1 - k] for k in range(j))
            gy.append(total // j if total % j == 0 else Fraction(total, j))
    tables = []
    for gens, den in ((gy, dy), q_coeff_ints(xs, 0, kmax)):
        key = (tuple(gens), den)
        if key not in sweeps:
            sweeps[key] = box_minors(gens, den, box.n, box.m)
        tables.append(sweeps[key])
    (sy, scale_y), (sx, scale_x) = tables
    for lam, s in sx.items():
        d = weight(lam)
        if d <= degree:
            out[d] += s * sy[lam]
    return out, scale_x * scale_y


def graded_components(xs: Sequence, ys: Sequence, spec: QBosonSpec,
                      mode: str, degree: int,
                      sweeps: Optional[dict] = None) -> List[Fraction]:
    """Degree-d pieces (d = 0..degree) of the chosen representation.

    Grading is diagonal: scaling y by a formal parameter multiplies the
    degree-d piece by its d-th power, so the pieces of the partition
    sums are the fixed-|lam| subsums.  The pieces c_d of S(x, delta y)
    are the Schur subsums, those of S(x, delta Q y) are Q^d c_d, and
    c_0 = 1, so the quotient divides as a power series at every Q.
    ``sweeps`` is the box-table memo of ``_graded_ints``.  A negative
    degree raises ValueError in every mode.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if sweeps is None:
        sweeps = {}
    if mode == "det_quotient":
        # one denominator is shared by every c_d, so it cancels
        c, _ = _graded_ints(xs, ys, QBosonSpec(spec.box, 0), "big_schur",
                            degree, sweeps)
        return power_series_div(c, [spec.q ** d * c_d
                                    for d, c_d in enumerate(c)], degree)
    pieces, den = _graded_ints(xs, ys, spec, mode, degree, sweeps)
    return [Fraction(p, den) for p in pieces]


def mode_agreement_report(xs: Sequence, ys: Sequence,
                          spec: QBosonSpec) -> Dict[str, object]:
    """Values of all four modes, plus graded and exact agreement flags.

    Graded agreement is judged through total degree M, the theoretically
    protected window; exact full-sum equality against hl_sum is reported
    per mode as an observation.  Each sum mode's value and window come
    from one ``_graded_ints`` call through max(M, N*M); only the value
    and the window's pieces become Fractions.  The modes share one memo
    of box tables, so each distinct generator list is swept once per
    report: h(x) is read by every Schur-type mode, and the big_schur and
    twisted_schur y-lists coincide.  When S(x, Qy) vanishes,
    det_quotient is undefined and its key is left out of every dict.
    """
    window = spec.box.m
    degree = max(window, spec.box.n * spec.box.m)
    values, comps, sweeps = {}, {}, {}
    for mode in MODES:
        if mode in SUM_MODES:
            pieces, den = _graded_ints(xs, ys, spec, mode, degree, sweeps)
            values[mode] = Fraction(sum(pieces), den)
            comps[mode] = [Fraction(p, den) for p in pieces[:window + 1]]
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
    n, K, K_inv = len(tables.order), tables.K, tables.K_inv
    b = [b_lambda(lam) for lam in tables.order]
    K_inv_t = [[K_inv[k][i] for k in range(n)] for i in range(n)]
    # diag(b) K^-1, skipping its zero entries
    scaled = [[b_k * c if c else c for c in row]
              for b_k, row in zip(b, K_inv)]
    ct = mat_mul_ring(K_inv_t, scaled)
    _verify_c_tilde(ct, K, b, scaled)
    return tuple(tuple(row) for row in ct)


def _verify_c_tilde(ct, K, b, scaled) -> None:
    """Raise ArithmeticError unless c~ passes both defining identities.

    The diagonal identity K^T c~ K = diag(b) is checked as it stands.
    The inverse identity c~ (K diag(B/b_s) K^T) = B I, with
    B = prod b_sigma cleared so that every entry lies in Z[Q], is checked
    in the equivalent form c~ K = (K^-1)^T diag(b), whose degrees do not
    grow with B.  Multiplying that form on the right by diag(B/b_s) K^T
    gives the cleared one, because kostka_tables has verified
    K K^-1 = I; conversely, multiplying the cleared form on the right by
    (K^-1)^T and cancelling B (Z[Q] is a domain) gives it back.  Its
    right side is read, transposed, from ``scaled`` = diag(b) K^-1, the
    rows c~ = (K^-1)^T diag(b) K^-1 was built from.  That is no circle:
    for c~ = (K^-1)^T W the diagonal identity reads W K = diag(b), which
    alone forces W = diag(b) K^-1.
    """
    n = len(b)
    Kt = [[K[r][i] for r in range(n)] for i in range(n)]
    ct_K = mat_mul_ring(ct, K)
    diag = mat_mul_ring(Kt, ct_K)
    for i in range(n):
        for j in range(n):
            if diag[i][j] != (b[i] if i == j else 0):
                raise ArithmeticError("c-tilde fails the diagonal identity")
            if ct_K[i][j] != scaled[j][i]:
                raise ArithmeticError("c-tilde fails the inverse identity")
