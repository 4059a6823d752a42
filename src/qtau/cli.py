"""Command-line front end.

Single-value computations (scalar, qscalar, corr, oracle), solver access
(bethe, expand), table emission (kostka), and the verification suites
(verify).  Rational inputs are written as "p/q" and point sets as
comma-separated lists, so exact values survive the shell; outputs print
rationals the same way.

Exit codes: 0 on success / all checks passing, 1 when a computed
comparison or suite check fails, 2 on usage errors and when bethe
finds no root set.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from .algebra_core import format_rational, parse_rational
from .phase_model import BoxSpec, correlation_Am, scalar_product
from .qboson_model import (MODES, QBosonSpec, mode_agreement_report,
                           scalar_product_q)
from .symfunc import kostka_tables, kostka_tables_json
from .suites import SuiteConfig, check_caps, emit_report, run_suite
from . import bethe as bethe_mod
from . import fock_oracle as oracle


def _points(text: str) -> List[Fraction]:
    if not text:
        return []
    return [parse_rational(part) for part in text.split(",")]


def _ints(text: str) -> List[int]:
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _model_q(args) -> Fraction:
    """The --q deformation; the phase model is Q = 0 and takes no other."""
    q = parse_rational(args.q) if args.q is not None else Fraction(0)
    if args.model == "phase" and q != 0:
        raise ValueError("--q is for --model qboson; "
                         "the phase model has Q = 0")
    return q


def _box_points(args, ket: int):
    """(box, xs, ys) from --n, --m, --x and --y, within the caps, with N
    points in --x and `ket` points in --y."""
    check_caps(args.n, args.m)
    xs, ys = _points(args.x), _points(args.y)
    if len(xs) != args.n or len(ys) != ket:
        raise ValueError(f"need N = {args.n} points in --x and {ket} in --y")
    return BoxSpec(args.n, args.m), xs, ys


def _spec(args, box: BoxSpec):
    """The box for the phase model, else the q-boson spec at --q."""
    q = _model_q(args)
    return box if args.model == "phase" else QBosonSpec(box, q)


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out!r}: {exc}") from exc


def _print_routes(values: Dict[str, object]) -> None:
    """One `route = value` line per entry, route names padded to one width."""
    width = max(len(route) for route in values)
    for route, value in values.items():
        print(f"{route:<{width}} = {value}")


def _two_routes(evaluate: Callable[[str], Fraction], routes: Sequence[str],
                mode: str) -> int:
    """One route's value, or both and MISMATCH (exit 1) if they differ."""
    if mode != "both":
        print(format_rational(evaluate(mode)))
        return 0
    values = {route: evaluate(route) for route in routes}
    _print_routes(values)
    if len(set(values.values())) > 1:
        print("MISMATCH")
        return 1
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_scalar(args) -> int:
    box, xs, ys = _box_points(args, args.n)
    return _two_routes(lambda mode: scalar_product(xs, ys, box, mode=mode),
                       ("det", "schur_sum"), args.mode)


def _cmd_qscalar(args) -> int:
    box, xs, ys = _box_points(args, args.n)
    spec = QBosonSpec(box, parse_rational(args.q))
    if args.mode != "all":
        try:
            value = scalar_product_q(xs, ys, spec, mode=args.mode)
        except ZeroDivisionError as exc:  # S(x, Qy) = 0: undefined, not failed
            raise ValueError(f"det_quotient is undefined here: {exc} "
                             "(S(x, Qy) = 0)") from exc
        print(format_rational(value))
        return 0
    rep = mode_agreement_report(xs, ys, spec)
    _print_routes({mode: rep["values"].get(
        mode, "n/a (denominator determinant vanishes)") for mode in MODES})
    graded = rep["graded_equal_hl"]
    bad = [mode for mode in graded if not graded[mode]]
    print(f"graded agreement through degree {rep['graded_window']}: "
          + ("all modes" if not bad else "FAILS for " + ",".join(bad)))
    return 0 if not bad else 1


def _cmd_corr(args) -> int:
    box, xs, ys = _box_points(args, args.n - 1)
    return _two_routes(
        lambda mode: correlation_Am(xs, ys, args.site, box, mode=mode),
        ("det", "skew_sum"), args.mode)


def _cmd_oracle(args) -> int:
    ket = args.n if args.site is None else args.n - 1
    box, xs, ys = _box_points(args, ket)
    spec = _spec(args, box)
    if args.site is not None and args.model != "phase":
        raise ValueError("--site comparison is only wired for the "
                         "phase model")
    value = oracle.oracle_pairing(args.model, spec, xs, ys,
                                  insertion=args.site)
    if args.site is not None:
        formula = correlation_Am(xs, ys, args.site, box, mode="skew_sum")
    elif args.model == "phase":
        formula = scalar_product(xs, ys, box, mode="schur_sum")
    else:
        formula = scalar_product_q(xs, ys, spec, mode="hl_sum")
    _print_routes({"oracle": value, "formula": formula})
    agree = value == formula
    print("agreement: " + ("yes" if agree else "NO"))
    return 0 if agree else 1


def _cmd_bethe(args) -> int:
    check_caps(args.n, args.m)
    qn = _ints(args.qn)
    try:
        q_used = float(_model_q(args))
    except OverflowError:
        raise ValueError(f"--q {args.q} is too large for a float") from None
    try:
        result = (bethe_mod.solve_phase(args.n, args.m, qn)
                  if args.model == "phase" else
                  bethe_mod.solve_qboson_continued(args.n, args.m, q_used, qn))
    except ArithmeticError as exc:  # no root set: not a failed comparison
        raise ValueError(str(exc)) from None
    if result.vanishing_pair is not None:
        k, j = result.vanishing_pair
        raise ValueError(f"no Bethe vector: roots {k} and {j} tend to "
                         f"y_{k} = -y_{j} at Q = -1, where B(y)B(-y)|0> = 0")
    payload = {
        "model": args.model,
        "n": args.n,
        "m": args.m,
        "quantum_numbers": qn,
        "q": q_used,
        "roots": [[z.real, z.imag] for z in result.roots],
        "residual": result.residual,
    }
    if args.format == "json":
        _write_out(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [f"root[{k}] = {z.real:+.12e} {z.imag:+.12e}i"
                 for k, z in enumerate(result.roots)]
        lines.append(f"residual = {result.residual:.3e}")
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_kostka(args) -> int:
    check_caps(degree=args.cutoff)
    payload = kostka_tables_json(kostka_tables(args.cutoff))
    _write_out(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    kwargs = dict(suite=args.suite, seed=args.seed, trials=args.trials)
    if args.q is not None:
        kwargs["q_values"] = tuple(_points(args.q))
    report = run_suite(SuiteConfig(**kwargs))
    _write_out(emit_report(report, fmt=args.format), args.out)
    return 0 if report.all_pass else 1


def _cmd_expand(args) -> int:
    check_caps(args.n, args.m)
    us = _points(args.u)
    if not 0 < len(us) <= args.n:
        raise ValueError("need between 1 and N spectral values in --u")
    spec = _spec(args, BoxSpec(args.n, args.m))
    coeffs = oracle.bethe_state(args.model, spec, us)
    table = [{"partition": list(lam), "value": format_rational(value)}
             for lam, value in coeffs.items()]
    payload = {
        "model": args.model,
        "n": args.n,
        "m": args.m,
        "u": [format_rational(u) for u in us],
        "sector": len(us),
        "coefficients": table,
    }
    _write_out(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtau",
        description="exact scalar products, correlation functions and "
                    "verification suites for the phase and q-boson models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_size(p):
        p.add_argument("--n", type=int, required=True,
                       help="number of particles N")
        p.add_argument("--m", type=int, required=True,
                       help="number of lattice momenta M (sites 0..M)")

    def add_points(p):
        p.add_argument("--x", required=True, help="comma-separated rationals")
        p.add_argument("--y", required=True, help="comma-separated rationals")

    p = sub.add_parser("scalar", help="phase-model scalar product")
    add_size(p)
    add_points(p)
    p.add_argument("--mode", choices=("det", "schur_sum", "both"),
                   default="both")
    p.set_defaults(func=_cmd_scalar)

    p = sub.add_parser("qscalar", help="q-boson scalar product")
    add_size(p)
    p.add_argument("--q", required=True, help="deformation Q as p/q")
    add_points(p)
    p.add_argument("--mode", choices=MODES + ("all",), default="all")
    p.set_defaults(func=_cmd_qscalar)

    p = sub.add_parser("corr", help="one-point function <x| phi_m^+ |y>")
    add_size(p)
    p.add_argument("--site", type=int, required=True,
                   help="lattice site m of the insertion")
    add_points(p)
    p.add_argument("--mode", choices=("det", "skew_sum", "both"),
                   default="both")
    p.set_defaults(func=_cmd_corr)

    p = sub.add_parser("oracle",
                       help="Fock-space pairing vs. the formula route")
    p.add_argument("--model", choices=("phase", "qboson"), required=True)
    add_size(p)
    p.add_argument("--q", default=None, help="deformation Q (qboson only)")
    add_points(p)
    p.add_argument("--site", type=int, default=None,
                   help="optional creation insertion site")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bethe", help="solve the Bethe equations")
    p.add_argument("--model", choices=("phase", "qboson"), required=True)
    add_size(p)
    p.add_argument("--qn", required=True,
                   help="comma-separated integer quantum numbers")
    p.add_argument("--q", default=None,
                   help="target deformation Q as p/q (qboson only)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bethe)

    p = sub.add_parser("kostka",
                       help="emit the deformation tables for one weight")
    p.add_argument("--cutoff", type=int, required=True,
                   help="partition weight d")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_kostka)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--q", default=None,
                   help="comma-separated deformation values as p/q")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("expand",
                       help="coefficient table of a creation-operator state")
    p.add_argument("--model", choices=("phase", "qboson"), required=True)
    add_size(p)
    p.add_argument("--q", default=None, help="deformation Q (qboson only)")
    p.add_argument("--u", required=True,
                   help="comma-separated spectral parameters u (y = u^2)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_expand)

    return parser


def _attach_negative_values(argv: Sequence[str]) -> List[str]:
    """Join `--x -1/2` into `--x=-1/2`: argparse takes '-1/2' for an
    option name, and no qtau option starts with '-' and a digit."""
    out: List[str] = []
    for token in argv:
        if (out and re.match(r"-\d", token) and out[-1].startswith("--")
                and "=" not in out[-1]):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
