"""The predictor of the Bethe continuation, and its outcome counts."""

import itertools

import pytest

from qtau import bethe
from test_bethe import _outcome

CELLS = ((1, 3), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4))


def _newton_steps(monkeypatch, *args, **kwargs):
    """Calls of the cleared system made by one continuation."""
    calls = []
    system = bethe._cleared_system

    def counted(*a):
        calls.append(None)
        return system(*a)

    monkeypatch.setattr(bethe, "_cleared_system", counted)
    bethe.solve_qboson_continued(*args, **kwargs)
    return len(calls)


@pytest.mark.parametrize("args, kwargs, bound", [
    # measured 80 steps from the previous stage's roots, 54 from the
    # secant prediction
    ((3, 3, 0.4, [0, 1, 2]), {"step": 0.025}, 67),
    # measured 293 and 198, along the path around Q = 1
    ((2, 4, 2.0, [0, 5]), {}, 245),
])
def test_secant_predictor_saves_newton_steps(monkeypatch, args, kwargs,
                                             bound):
    assert _newton_steps(monkeypatch, *args, **kwargs) < bound


def test_q_minus_one_counts_on_seven_cells():
    # the counts the solve_qboson_continued docstring and the README state
    def kind(n, m, qn):
        try:
            return _outcome(n, m, -1.0, qn, 0.05)[0]
        except ArithmeticError:
            return "raised"

    kinds = [kind(n, m, qn) for n, m in CELLS
             for qn in itertools.combinations(range(n + m + 1), n)]
    assert len(kinds) == 268
    assert (kinds.count("reported"), kinds.count("converged"),
            kinds.count("raised")) == (177, 82, 9)


@pytest.mark.parametrize("step", [0.05, 0.025])
def test_no_prediction_into_the_vanishing_pair(step):
    # a secant start into the Q = -1 stage lands these (4,6) sets on the
    # roots of another set at step 0.05, (0,1,5,6) on the 7th roots of -1
    sets = ((0, 1, 5, 6), (0, 1, 6, 7), (0, 4, 5, 10), (0, 5, 6, 10),
            (1, 2, 6, 7), (1, 2, 7, 8), (2, 3, 7, 8), (2, 3, 8, 9),
            (3, 4, 8, 9), (3, 4, 9, 10), (4, 5, 9, 10))
    for qn in sets:
        assert _outcome(4, 6, -1.0, qn, step)[0] == "reported"
    assert _outcome(4, 6, -1.0, (0, 1, 5, 6), step) == ("reported", (0, 2))


def test_cyclic_runs_of_four_converge_at_q_one():
    # these nine (4,4) sets raised at Q = 1 when each stage started from
    # the roots of the stage before; both steps now reach one root set
    for start in range(9):
        qn = sorted((start + k) % 9 for k in range(4))
        coarse = bethe.solve_qboson_continued(4, 4, 1.0, qn)
        fine = bethe.solve_qboson_continued(4, 4, 1.0, qn, step=0.025)
        assert coarse.residual < 1e-10 and fine.residual < 1e-10
        assert all(min(abs(z - w) for w in fine.roots) < 1e-8
                   for z in coarse.roots)
