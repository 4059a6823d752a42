"""Numerical solution of the on-shell equations for both models.

This is deliberately the only inexact module in the package.  The
phase-model system linearizes exactly in the arguments of unit-modulus
roots, so it is solved in closed form from integer quantum numbers; the
residual of the product-form equations is still computed and reported
rather than assumed.

The deformed equations use the number-of-sites exponent M+1 together
with the two-body scattering ratio,

    y_i^{M+1} = prod_{j != i} (Q y_i - y_j) / (y_i - Q y_j).

At Q = 0 the ratio degenerates to (-y_j)/y_i and the system collapses
to the phase-model form y_i^{N+M} = (-1)^{N-1} prod_{j != i} y_j, which
is why Newton continuation in Q starts from the phase solution, and why
one residual, the ratio form's, serves both models.  At Q = -1 a root
set can tend to a pair y_k = -y_j, which gives no Bethe vector; such a
set is reported, not raised.  Each Newton step solves its N x N complex
linear system by Gaussian elimination on plain lists, which at desk
sizes (N <= 4) needs no numerical library.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import List, Optional, Sequence, Tuple

MAX_NEWTON_STEPS = 80
TARGET_RESIDUAL = 1e-10
# roots whose phase angles agree this closely are ordered by modulus
ANGLE_TIE = 1e-9


@dataclass(frozen=True)
class BetheRoots:
    """Roots sorted by phase angle, with the reported equation residual.

    A set reported at Q = -1 has no roots, residual inf, and the pair
    (k, j) it tends to in ``vanishing_pair``.
    """

    roots: Tuple[complex, ...]
    residual: float
    vanishing_pair: Optional[Tuple[int, int]] = None


def _angle(z: complex) -> float:
    """Phase in (-pi, pi], with angles within 1e-9 of -pi read as pi.

    A root on the negative real axis then sorts last whatever the sign of
    a rounding-level imaginary part.
    """
    angle = math.atan2(z.imag, z.real)
    return math.pi if angle < ANGLE_TIE - math.pi else angle


def _sorted_roots(values) -> Tuple[complex, ...]:
    """Roots by phase angle, and by modulus within a run of tied angles.

    Angles tie when each is within ANGLE_TIE of the previous one.  Past
    Q = 1 roots come in pairs r e^{i theta}, e^{i theta}/r, whose
    computed angles differ only by rounding, so the modulus orders them.
    """
    out, run = [], []
    for z in sorted((complex(z) for z in values), key=_angle):
        if run and _angle(z) - _angle(run[-1]) > ANGLE_TIE:
            out.extend(sorted(run, key=abs))
            run = []
        run.append(z)
    out.extend(sorted(run, key=abs))
    return tuple(out)


def residual(m: int, q: float, roots: Sequence[complex]) -> float:
    """Max over i of |y_i^{M+1} - prod_{j != i} (Q y_i - y_j)/(y_i - Q y_j)|.

    The phase model is the ratio form at Q = 0.  On the unit circle, where
    solve_phase puts its roots, this agrees to rounding with the residual
    of y_i^{N+M} = (-1)^{N-1} prod_{j != i} y_j.
    """
    ys = [complex(z) for z in roots]
    worst = 0.0
    for i, y in enumerate(ys):
        try:
            rhs = math.prod((q * y - z) / (y - q * z)
                            for j, z in enumerate(ys) if j != i)
        except ZeroDivisionError:
            raise _pole_error(ys, q) from None
        worst = max(worst, abs(y ** (m + 1) - rhs))
    return worst


def _pole_error(ys: Sequence[complex], q: complex) -> ArithmeticError:
    """The error for a division by zero here: every divisor is a factor
    y_i - Q y_j of the scattering ratio, so some pair sits on its pole."""
    i, j = next((i, j) for i, j in permutations(range(len(ys)), 2)
                if ys[i] - q * ys[j] == 0)
    return ArithmeticError(f"roots {i} and {j} sit on a pole of the "
                           f"scattering ratio: y_{i} = Q y_{j}")


def solve_phase(n: int, m: int,
                quantum_numbers: Sequence[int]) -> BetheRoots:
    """Closed-form unit-circle solution from integer quantum numbers.

    Writing y_j = exp(i theta_j), the equations become linear in the
    angles: (N+M+1) theta_i = pi (N-1) + sum(theta) + 2 pi I_i, and
    summing fixes sum(theta) = [N pi (N-1) + 2 pi sum(I)] / (M+1).
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    ks = [int(k) for k in quantum_numbers]
    if len(ks) != n:
        raise ValueError("need exactly n quantum numbers")
    if len(set(ks)) != n:
        raise ValueError("quantum numbers must be pairwise distinct")
    total = (n * math.pi * (n - 1) + 2.0 * math.pi * sum(ks)) / (m + 1)
    thetas = [(math.pi * (n - 1) + total + 2.0 * math.pi * k) / (n + m + 1)
              for k in ks]
    roots = [cmath.exp(1j * t) for t in thetas]
    res = residual(m, 0.0, roots)
    if res > TARGET_RESIDUAL:
        raise ArithmeticError(
            f"closed-form phase roots missed the residual target: {res}")
    return BetheRoots(roots=_sorted_roots(roots), residual=res)


def _cleared_system(ys: Sequence[complex], m: int, q: float):
    """F and its Jacobian for F_i = y_i^{M+1} P_i - R_i.

    P_i = prod_{j != i} (y_i - Q y_j) and R_i = prod_{j != i}
    (Q y_i - y_j); clearing the denominators keeps Newton steps finite
    when a trial point drifts near a pole of the ratio form.
    """
    n = len(ys)
    F: List[complex] = []
    J: List[List[complex]] = []
    for i in range(n):
        yi = ys[i]
        P = complex(1.0)
        R = complex(1.0)
        for j in range(n):
            if j != i:
                P *= yi - q * ys[j]
                R *= q * yi - ys[j]
        F.append(yi ** (m + 1) * P - R)
        dP = complex(0.0)
        dR = complex(0.0)
        for j in range(n):
            if j != i:
                dP += P / (yi - q * ys[j])
                dR += R * q / (q * yi - ys[j])
        row = [complex(0.0)] * n
        row[i] = (m + 1) * yi ** m * P + yi ** (m + 1) * dP - dR
        for k in range(n):
            if k != i:
                row[k] = (-(q) * yi ** (m + 1) * P / (yi - q * ys[k])
                          + R / (q * yi - ys[k]))
        J.append(row)
    return F, J


def _solve(a: Sequence[Sequence[complex]],
           b: Sequence[complex]) -> List[complex]:
    """x with a x = b, by Gaussian elimination with partial pivoting."""
    a = [list(row) for row in a]
    b = list(b)
    n = len(b)
    for k in range(n):
        p = max(range(k, n), key=lambda r: abs(a[r][k]))
        if a[p][k] == 0:
            raise ArithmeticError("singular Jacobian")
        a[k], a[p] = a[p], a[k]
        b[k], b[p] = b[p], b[k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            for c in range(k + 1, n):
                a[r][c] -= f * a[k][c]
            b[r] -= f * b[k]
    x = [complex(0.0)] * n
    for k in range(n - 1, -1, -1):
        acc = b[k]
        for c in range(k + 1, n):
            acc -= a[k][c] * x[c]
        x[k] = acc / a[k][k]
    return x


def solve_qboson(n: int, m: int, q: complex,
                 initial: BetheRoots) -> BetheRoots:
    """Newton refinement of the deformed equations from a given start.

    The equations are defined at every Q, negative, Q >= 1 and complex
    included.  Intended use is continuation: feed the phase-model
    solution at Q = 0, then move Q towards its target in small steps,
    passing each solution as the next start (solve_qboson_continued
    wraps exactly that loop).  A start that Newton cannot carry to the
    residual target raises ArithmeticError.
    """
    ys = [complex(z) for z in initial.roots]
    if len(ys) != n:
        raise ValueError("initial guess has the wrong number of roots")
    for _ in range(MAX_NEWTON_STEPS):
        try:
            F, J = _cleared_system(ys, m, q)
        except ZeroDivisionError:
            raise _pole_error(ys, q) from None
        if not all(cmath.isfinite(f) for f in F):
            raise ArithmeticError("divergent Newton iterate")
        delta = _solve(J, [-f for f in F])
        ys = [y + d for y, d in zip(ys, delta)]
        if max(abs(d) for d in delta) < 1e-13:
            break
    res = residual(m, q, ys)
    if not res < TARGET_RESIDUAL:
        raise ArithmeticError(
            f"Newton iteration did not converge: residual {res}")
    return BetheRoots(roots=_sorted_roots(ys), residual=res)


def _continuation_path(q: float, step: float) -> List[complex]:
    """The Q values of a homotopy from 0 to q, ending at q itself.

    For q <= 1 the path is the real segment, in max(1, ceil(|q|/step))
    equal stages.  Along the real axis past Q = 1 Newton loses about
    half of the root sets, so for q > 1 the path goes around Q = 1
    through the upper half plane, Q(s) = q s + (i/2) sin(pi s) for s in
    [0, 1], in ceil((q + 1)/step) stages, and the last stage is the
    real q.
    """
    if q <= 1.0:
        stages = max(1, math.ceil(abs(q) / step))
        return [q * t / stages for t in range(1, stages + 1)]
    stages = math.ceil((q + 1.0) / step)
    path = [q * s + 0.5j * math.sin(math.pi * s)
            for s in (t / stages for t in range(1, stages))]
    return path + [q]


def solve_qboson_continued(n: int, m: int, q: float,
                           quantum_numbers: Sequence[int],
                           step: float = 0.05) -> BetheRoots:
    """Homotopy in Q from the phase solution along _continuation_path.

    Measured over every quantum-number set of the cells (1,3), (2,2),
    (2,3), (2,4), (3,3), (3,4) and (4,4): every set converges at Q in
    {3/2, 2}, and steps 0.05 and 0.025 give the same roots.  Larger Q
    is not covered: at Q = 3 some sets fail or the two steps reach
    different root sets.  At Q = -1 many sets tend to a pair
    y_k = -y_j = Q y_j, where B(y)B(-y)|0> = 0, so the limit is no Bethe
    vector.  When the stage at Q = -1 raises and the roots entering it
    hold a pair with |y_k + y_j| <= step, the result is
    BetheRoots((), inf, (k, j)); any other failure raises.  Over those
    cells, 177 of the 268 sets are reported, 82 converge and 9 raise,
    the same sets at either step.
    """
    state = solve_phase(n, m, quantum_numbers)
    for qs in _continuation_path(q, step):
        try:
            state = solve_qboson(n, m, qs, state)
        except ArithmeticError:
            pair = next((p for p in combinations(range(n), 2)
                         if abs(state.roots[p[0]] + state.roots[p[1]])
                         <= step), None)
            if qs != -1 or pair is None:
                raise
            return BetheRoots(roots=(), residual=math.inf,
                              vanishing_pair=pair)
    return state
