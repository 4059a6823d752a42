"""Golden sha256 digests of the partition-sum routes on a seeded grid.

Every box-sum route of ``phase_model`` and ``qboson_model`` is evaluated
on boxes with N <= 3 and M <= 4, at signed, zero and repeated points and
at Q in {0, 1/4, -7/5, 2, 1, -1}.  The outputs (exception type and
message included) are hashed by repr, so a change to how the sums are
computed that alters any value fails here.  The determinant routes --
``scalar_product`` and ``correlation_Am`` at every site in mode "det",
and ``scalar_product_q`` in mode "det_quotient", whose only refusal is a
vanishing denominator -- are evaluated at the same draws and pinned by
a digest of their own.
"""

import hashlib
import random
from fractions import Fraction as F

from qtau.phase_model import (BoxSpec, correlation_Am, correlation_skew,
                              scalar_product)
from qtau.qboson_model import (SUM_MODES, QBosonSpec, graded_components,
                               mode_agreement_report, scalar_product_q)

POINTS = (F(0), F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(2, 5), F(-3, 7),
          F(1), F(-2), F(5, 3))
QS = (F(0), F(1, 4), F(-7, 5), F(2), F(1), F(-1))
CELLS = [(n, m) for n in range(1, 4) for m in range(1, 5)]
SKEW_SHAPES = (((), ()), ((1,), (2,)), ((2, 1), (1, 1)))

PHASE_DIGEST = (
    "5eb4a4ed1f6ebe91e8c9596dd3d4bff157ae400d3f50d4b0b9accf3c7106c458")
QBOSON_DIGEST = (
    "adbc49a77cd8185f05e32a6a373a3051dd5bfad2947a64ef9a6c5d93ef6e1c80")
DET_DIGEST = (
    "060a8b3f492c8d95aea63ca0a0ba9056c35dbe94ca5ae12f9543135d7cf7010c")


def _draw(rng, n):
    """n points from POINTS; about half the draws repeat their first point."""
    xs = [rng.choice(POINTS) for _ in range(n)]
    if n > 1 and rng.random() < 0.5:
        xs[-1] = xs[0]
    return xs


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a refusal is an output too
        return (type(exc).__name__, str(exc))


def _digest(outputs):
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def phase_outputs(seed=0):
    """(sum-route outputs, det-route outputs) over the phase grid."""
    rng = random.Random(seed)
    out, dets = [], []
    for n, m in CELLS:
        box = BoxSpec(n, m)
        for _ in range(2):
            xs, ys = _draw(rng, n), _draw(rng, n)
            out.append(_outcome(scalar_product, xs, ys, box, "schur_sum"))
            dets.append(_outcome(scalar_product, xs, ys, box, "det"))
            for site in range(m + 1):
                out.append(_outcome(correlation_Am, xs, ys[:n - 1], site,
                                    box, "skew_sum"))
                dets.append(_outcome(correlation_Am, xs, ys[:n - 1], site,
                                     box, "det"))
            for lam1, lam2 in SKEW_SHAPES:
                out.append(_outcome(correlation_skew, lam1, lam2, xs, ys,
                                    box))
            # two draws whose routes were deleted, kept so that every
            # later point set is drawn as before
            rng.sample(box.partitions(), min(3, len(box.partitions())))
            for _ in range(m + 1):
                rng.choice(POINTS)
    return out, dets


def qboson_outputs(seed=0):
    """(sum-route outputs, det_quotient outputs) over the deformed grid."""
    rng = random.Random(seed)
    out, dets = [], []
    for n, m in CELLS:
        box = BoxSpec(n, m)
        xs, ys = _draw(rng, n), _draw(rng, n)
        for q in QS:
            spec = QBosonSpec(box, q)
            for mode in SUM_MODES:
                out.append(_outcome(scalar_product_q, xs, ys, spec, mode))
                out.append(_outcome(graded_components, xs, ys, spec, mode,
                                    n * m))
            out.append(_outcome(mode_agreement_report, xs, ys, spec))
            dets.append(_outcome(scalar_product_q, xs, ys, spec,
                                 "det_quotient"))
    return out, dets


def test_phase_sum_routes_digest():
    assert _digest(phase_outputs()[0]) == PHASE_DIGEST


def test_qboson_sum_routes_digest():
    assert _digest(qboson_outputs()[0]) == QBOSON_DIGEST


def test_det_routes_digest():
    assert _digest(phase_outputs()[1] + qboson_outputs()[1]) == DET_DIGEST
