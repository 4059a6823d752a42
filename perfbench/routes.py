"""Every evaluation route of one benchmark query, and the cross-check.

Functions are looked up on their qtau module at call time, so a traced
pass sees the wrappers that spans.install puts there.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from qtau import bethe, fock_oracle, phase_model, qboson_model

# two homotopy paths to one root set differ only by rounding
BETHE_TOL = 1e-8


def _routes(query) -> List[Tuple[str, Callable[[], object]]]:
    kind = query["kind"]
    n, m = query["n"], query["m"]
    xs = [Fraction(v) for v in query["x"]]
    ys = [Fraction(v) for v in query["y"]]
    q = None if query["q"] is None else Fraction(query["q"])
    box = phase_model.BoxSpec(n, m)
    if kind == "scalar":
        return [
            ("det", lambda: phase_model.scalar_product(xs, ys, box, "det")),
            ("schur_sum",
             lambda: phase_model.scalar_product(xs, ys, box, "schur_sum")),
        ]
    if kind == "corr":
        site = query["site"]
        return [
            ("det", lambda: phase_model.correlation_Am(xs, ys, site, box,
                                                       "det")),
            ("skew_sum", lambda: phase_model.correlation_Am(
                xs, ys, site, box, "skew_sum")),
            ("oracle", lambda: fock_oracle.oracle_pairing(
                "phase", box, xs, ys, insertion=site)),
        ]
    if kind == "oracle-phase":
        return [
            ("oracle", lambda: fock_oracle.oracle_pairing("phase", box, xs,
                                                          ys)),
            ("schur_sum",
             lambda: phase_model.scalar_product(xs, ys, box, "schur_sum")),
        ]
    spec = qboson_model.QBosonSpec(box, q)
    if kind == "oracle-qboson":
        return [
            ("oracle", lambda: fock_oracle.oracle_pairing("qboson", spec, xs,
                                                          ys)),
            ("hl_sum",
             lambda: qboson_model.scalar_product_q(xs, ys, spec, "hl_sum")),
        ]
    if kind == "qscalar":
        # the four modes are the routes; the report compares them
        return [("modes",
                 lambda: qboson_model.mode_agreement_report(xs, ys, spec))]
    if kind == "bethe":
        qn = query["qn"]
        return [
            ("continued", lambda: bethe.solve_qboson_continued(
                n, m, float(q), qn)),
            ("half_step", lambda: bethe.solve_qboson_continued(
                n, m, float(q), qn, step=0.025)),
        ]
    raise ValueError(f"unknown query kind {kind!r}")


def run_query(query) -> Tuple[Dict[str, object], Dict[str, str]]:
    """Evaluate every route; return (values, error type per failed route)."""
    values: Dict[str, object] = {}
    errors: Dict[str, str] = {}
    for name, route in _routes(query):
        try:
            values[name] = route()
        except Exception as exc:  # every raise is a counted failure
            errors[name] = type(exc).__name__
    return values, errors


def _root_set_distance(a, b) -> float:
    """Largest distance when each root of a is matched to its nearest in b.

    Roots come sorted by angle, and a root near angle pi can sort first
    on one path and last on the other, so positions are not compared.
    """
    if len(a) != len(b):
        return float("inf")
    rest, worst = list(b), 0.0
    for z in a:
        j = min(range(len(rest)), key=lambda k: abs(rest[k] - z))
        worst = max(worst, abs(rest.pop(j) - z))
    return worst


def disagreement(query, values: Dict[str, object]) -> Optional[str]:
    """Why the routes that returned a value disagree, or None if they agree."""
    kind = query["kind"]
    if kind == "qscalar":
        report = values.get("modes")
        if report is None:
            return None
        bad = sorted(mode for mode, ok in report["graded_equal_hl"].items()
                     if not ok)
        return f"graded window fails for {','.join(bad)}" if bad else None
    if kind == "bethe":
        if len(values) < 2:
            return None
        drift = _root_set_distance(values["continued"].roots,
                                   values["half_step"].roots)
        if drift > BETHE_TOL:
            return f"root sets differ by {drift:.3e}"
        return None
    if len(set(values.values())) > 1:
        return "values " + ", ".join(f"{k}={v}" for k, v in values.items())
    return None
