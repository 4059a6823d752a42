"""Bethe-equation solvers: closed form, residuals, Newton continuation."""

import cmath
import itertools
import math
import os
import subprocess
import sys

import pytest

from qtau.bethe import (BetheRoots, _continuation_path, _solve,
                        _sorted_roots, residual, solve_phase, solve_qboson,
                        solve_qboson_continued)


def test_single_particle_roots_of_unity():
    for m in range(7):
        for k in (0, 1, 2, 5):
            br = solve_phase(1, m, [k])
            expect = cmath.exp(2j * math.pi * k / (m + 1))
            assert abs(br.roots[0] - expect) < 1e-12
            assert br.residual < 1e-12


def test_phase_residuals():
    worst = 0.0
    for n in range(1, 4):
        for m in range(0, 7):
            br = solve_phase(n, m, list(range(n)))
            worst = max(worst, br.residual)
            # the phase-model roots live on the unit circle
            for z in br.roots:
                assert abs(abs(z) - 1) < 1e-12
    assert worst < 1e-10


def test_residual_sensitivity():
    br = solve_phase(2, 2, [0, 1])
    assert residual(2, 0.0, br.roots) < 1e-12
    bumped = [br.roots[0] + 1e-3, br.roots[1]]
    assert residual(2, 0.0, bumped) > 1e-4


def test_product_consistency_relation():
    # multiplying all equations: prod y_i^{N+M} = (prod y_i)^{N-1}
    br = solve_phase(3, 4, [0, 1, 2])
    lhs = math.prod(z ** 7 for z in br.roots)
    rhs = math.prod(br.roots) ** 2
    assert abs(lhs - rhs) < 1e-10


def test_quantum_number_validation():
    with pytest.raises(ValueError):
        solve_phase(2, 2, [1, 1])        # repeated quantum numbers
    with pytest.raises(ValueError):
        solve_phase(2, 2, [0])           # wrong count


def test_qboson_zero_deformation_fixed_point():
    ph = solve_phase(2, 3, [0, 1])
    qb = solve_qboson(2, 3, 0.0, ph)
    assert max(abs(a - b) for a, b in zip(ph.roots, qb.roots)) < 1e-12


def test_qboson_continuation():
    for n, m in ((2, 2), (2, 4), (3, 3)):
        br = solve_qboson_continued(n, m, 0.3, list(range(n)))
        assert br.residual < 1e-10
        assert residual(m, 0.3, br.roots) < 1e-10


def test_single_particle_any_deformation():
    # N=1 keeps the same roots of unity for every deformation value
    ph = solve_phase(1, 3, [1])
    qb = solve_qboson_continued(1, 3, 0.4, [1])
    assert abs(ph.roots[0] - qb.roots[0]) < 1e-12


def test_deformation_beyond_unit_interval():
    # the equations are defined at every real Q; continuation reaches
    # Q = 1 and negative Q, and halving the step lands on the same roots
    # (matched as sets: a root near angle pi may sort first or last)
    for q in (1.0, -0.5):
        br = solve_qboson_continued(2, 3, q, [0, 1])
        assert br.residual < 1e-10
        assert residual(3, q, br.roots) < 1e-10
        fine = solve_qboson_continued(2, 3, q, [0, 1], step=0.025)
        for a, b in ((br.roots, fine.roots), (fine.roots, br.roots)):
            assert all(min(abs(z - w) for w in b) < 1e-8 for z in a)


def test_root_order_at_angle_pi():
    # one root sits on the negative real axis; rounding leaves it an
    # imaginary part of either sign, and the order must not depend on it
    coarse = solve_qboson_continued(2, 3, 1.0, [0, 2])
    fine = solve_qboson_continued(2, 3, 1.0, [0, 2], step=0.025)
    assert min(abs(z + 1) for z in coarse.roots) < 1e-8
    assert max(abs(a - b) for a, b in zip(coarse.roots, fine.roots)) < 1e-8
    assert abs(coarse.roots[-1] + 1) < 1e-8


def _same_roots_both_steps(n, m, q, qn):
    coarse = solve_qboson_continued(n, m, q, qn)
    fine = solve_qboson_continued(n, m, q, qn, step=0.025)
    assert coarse.residual < 1e-10 and fine.residual < 1e-10
    assert max(abs(a - b) for a, b in zip(coarse.roots, fine.roots)) < 1e-8


def test_continuation_past_unit_deformation():
    # past Q = 1 the path leaves the real axis; every quantum-number set
    # of (2, 3) converges at Q = 2, to the same roots at either step
    for qn in itertools.combinations(range(6), 2):
        _same_roots_both_steps(2, 3, 2.0, list(qn))
    # roots come in pairs r e^{i theta}, e^{i theta}/r here, which only
    # the modulus orders
    _same_roots_both_steps(3, 4, 2.0, [0, 3, 4])


def test_continuation_plan_grows_like_log_q_past_two():
    # up to |Q| = 2 the plan is linear in |Q|, as the bethe suite's pinned
    # verdicts were measured; past it the plan of +-2 is followed by
    # stages that grow by the factor 1 + step, so |Q| = 10^4 takes a few
    # hundred stages instead of 2*10^5
    stages = {-2: 40, -1: 20, -0.3: 6, 0: 1, 0.3: 6, 1: 20, 1.5: 50, 2: 60}
    assert {q: len(_continuation_path(q, 0.05)) for q in stages} == stages
    for q in (10 ** 4, -10 ** 4):
        path = _continuation_path(q, 0.05)
        edge = _continuation_path(math.copysign(2, q), 0.05)
        assert len(path) < 1000 and path[:len(edge)] == edge
        assert path[-1] == q
        assert all(abs(a) < abs(b) for a, b in zip(path[len(edge) - 1:],
                                                    path[len(edge):]))


def test_root_order_on_tied_angles():
    z = cmath.exp(0.7j)
    big = 2 * z * cmath.exp(-1e-12j)
    small = z / 2 * cmath.exp(1e-12j)
    assert _sorted_roots([big, small, -z]) == (-z, small, big)
    assert _sorted_roots([small, -z, big]) == (-z, small, big)


def test_roots_are_sorted_deterministically():
    a = solve_phase(3, 3, [0, 1, 2])
    b = solve_phase(3, 3, [0, 1, 2])
    assert a == BetheRoots(b.roots, b.residual)


def test_linear_solve():
    a = [[2j, 1], [1, 1 + 1j]]
    b = [1, 2j]
    x = _solve(a, b)
    for row, rhs in zip(a, b):
        assert abs(sum(c * v for c, v in zip(row, x)) - rhs) < 1e-15
    # a zero leading entry needs the row swap
    assert _solve([[0, 1], [1, 0]], [3, 4]) == [4, 3]
    with pytest.raises(ArithmeticError, match="singular Jacobian"):
        _solve([[1, 2], [2, 4]], [1, 1])


def test_solver_runs_without_numpy():
    # a None entry in sys.modules makes any `import numpy` fail
    code = ("import sys; sys.modules['numpy'] = None; import qtau.cli; "
            "from qtau.bethe import solve_qboson_continued; "
            "print(solve_qboson_continued(3, 3, 0.3, [0, 1, 2]).residual)")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1e-10


def _outcome(n, m, q, qn, step):
    """(kind, data): ("reported", pair) or ("converged", roots)."""
    br = solve_qboson_continued(n, m, q, list(qn), step=step)
    if br.vanishing_pair is not None:
        assert br.roots == () and br.residual == math.inf
        return "reported", br.vanishing_pair
    assert br.residual < 1e-10
    return "converged", br.roots


def test_vanishing_pairs_reported_at_q_minus_one():
    # at Q = -1 the sets whose roots tend to y_k = -y_j are reported,
    # not raised; at the other Q every set of (2, 3) converges, and both
    # steps agree on every set
    reported = set()
    for q in (0.0, 1.0, -1.0, 2.0):
        for qn in itertools.combinations(range(6), 2):
            (kind, a), (kind_fine, b) = (_outcome(2, 3, q, qn, step)
                                         for step in (0.05, 0.025))
            assert kind == kind_fine
            if kind == "reported":
                assert a == b
                reported.add((q, qn))
            else:
                assert all(min(abs(z - w) for w in b) < 1e-8 for z in a)
    assert reported == {(-1.0, (0, 3)), (-1.0, (1, 4)), (-1.0, (2, 5))}


def test_q_minus_one_counts():
    # measured: over (2,2), (2,3) and (3,3) no set raises at Q = -1
    kinds = [_outcome(n, m, -1.0, qn, 0.05)[0]
             for n, m in ((2, 2), (2, 3), (3, 3))
             for qn in itertools.combinations(range(n + m + 1), n)]
    assert (kinds.count("reported"), kinds.count("converged")) == (22, 38)


def test_pole_of_the_scattering_ratio_is_named():
    # this set meets y_2 = Q y_3 exactly at Q = -1, with no root pair
    # near -y in the stage before, so it is neither reported nor converged
    with pytest.raises(ArithmeticError, match="roots 2 and 3 sit on a pole"):
        solve_qboson_continued(4, 4, -1.0, [0, 1, 2, 3])
    with pytest.raises(ArithmeticError, match="roots 0 and 1 sit on a pole"):
        residual(3, -1.0, [1, -1])
