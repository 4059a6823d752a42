"""Every number a caller supplies reaches the formula side through one gate.

``algebra_core._exact`` reads an int, a Fraction or a "p/q" string as an
exact rational and refuses a float, whose binary value is not the
rational it was written as.  A bare ``Fraction(x)`` of a caller's value
would read 0.1 as 3602879701896397/36028797018963968, so this check
parses ``src/qtau`` and fails on any one-argument ``Fraction`` call of a
non-literal outside the gate; ``parse_rational`` and ``format_rational``
go through the gate too.  Calls with two arguments build a value from
ints the code made itself.  Three modules are exempt: ``fock_oracle``
keeps a check of its own, because the oracle imports nothing from the
formula side; ``bethe`` is numerical by design; and ``cli`` reads its
strings with ``parse_rational``.  A lattice site is not a rational but
an int, and every route that takes one refuses any other type, a bool
included, through ``partitions._check_site``.  So is a part of a
partition: ``normalize`` and the mu of ``box_minors`` and
``jacobi_trudi`` read a shape through ``algebra_core._parts``, which
refuses a part that is not an int.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

from qtau.algebra_core import box_minors, jacobi_trudi
from qtau.fock_oracle import oracle_pairing
from qtau.partitions import normalize
from qtau.phase_model import (BoxSpec, correlation_Am,
                              correlation_Am_power_column, correlation_skew)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qtau"
GATE = ("algebra_core", "_exact")
EXEMPT = {"fock_oracle", "bethe", "cli"}


def _is_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant)


def _ungated_conversions(module: str, source: str):
    """`module:line: call` of every one-argument Fraction call of a
    non-literal outside the gate."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "fractions"
             for alias in node.names if alias.name == "Fraction"}
    inside_gate = {id(inner) for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and (module, node.name) == GATE
                   for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside_gate:
            continue
        func = node.func
        if not ((isinstance(func, ast.Name) and func.id in names)
                or (isinstance(func, ast.Attribute)
                    and func.attr == "Fraction")):
            continue
        args = node.args + [kw.value for kw in node.keywords]
        if len(args) == 1 and not _is_literal(args[0]):
            found.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    return found


def _modules():
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_module_converts_a_callers_number_outside_the_gate():
    found = [hit for module, source in _modules().items()
             if module not in EXEMPT
             for hit in _ungated_conversions(module, source)]
    assert found == []


def test_the_lint_sees_every_spelling_of_a_conversion():
    source = ("import fractions\n"
              "from fractions import Fraction, Fraction as F\n"
              "def f(x, y):\n"
              "    return (Fraction(x), F(y), fractions.Fraction(x),\n"
              "            Fraction(numerator=x), Fraction(-1), Fraction('1/2'),\n"
              "            Fraction(x, y))\n"
              "def _exact(x):\n"
              "    return Fraction(x)\n")
    assert [hit.split(": ")[1] for hit in _ungated_conversions(
        "algebra_core", source)] == [
        "Fraction(x)", "F(y)", "fractions.Fraction(x)",
        "Fraction(numerator=x)"]
    assert len(_ungated_conversions("miwa", source)) == 5


def test_the_gate_is_defined_once_and_imported_from_algebra_core():
    defined, imported_from = [], set()
    for module, source in _modules().items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and node.name == "_exact":
                defined.append(module)
            if (isinstance(node, ast.ImportFrom)
                    and any(alias.name in ("_exact", "as_points", "_num_den",
                                           "PointSet")
                            for alias in node.names)):
                imported_from.add(node.module)
    assert defined == ["algebra_core"]
    assert imported_from == {"algebra_core"}


XS, YS = [F(1, 2), F(1, 3)], [F(1, 5)]


@pytest.mark.parametrize("site", [1.0, True, F(1), "1"],
                         ids=["float", "bool", "Fraction", "str"])
@pytest.mark.parametrize("route", [
    lambda m: correlation_Am(XS, YS, m, BoxSpec(2, 2), "skew_sum"),
    lambda m: correlation_Am(XS, YS, m, BoxSpec(2, 2), "det"),
    lambda m: correlation_Am_power_column(XS + [F(1, 7)], YS + [F(1, 6)], m,
                                          BoxSpec(3, 2)),
    lambda m: oracle_pairing("phase", BoxSpec(2, 2), XS, YS, insertion=m),
], ids=["skew_sum", "det", "power_column", "oracle"])
def test_a_site_that_is_not_an_int_is_refused(route, site):
    # a site of another type must not pass for the int it equals (1.0 or
    # True for 1), so every route refuses it with the same TypeError
    with pytest.raises(TypeError, match="lattice site is an int, not"):
        route(site)
    assert isinstance(route(1), F)


@pytest.mark.parametrize("part", [1.5, 2.0, True],
                         ids=["float", "whole-float", "bool"])
@pytest.mark.parametrize("route", [
    lambda p: normalize([p, 1]),
    lambda p: correlation_skew((p,), (), XS, [F(1, 5), F(1, 7)],
                               BoxSpec(2, 2)),
    lambda p: correlation_skew((), (p,), XS, [F(1, 5), F(1, 7)],
                               BoxSpec(2, 2)),
    lambda p: box_minors([1, 3, 9], 1, 1, 2, (p,)),
    lambda p: jacobi_trudi([1, 2, 3], (2,), (p,)),
], ids=["normalize", "skew-lam1", "skew-lam2", "box_minors", "jacobi_trudi"])
def test_a_shape_part_that_is_not_an_int_is_refused(route, part):
    # normalize([1.5, 2.9]) used to read (2, 1), so a skew pairing at
    # shape (1.5,) returned the value of shape (1,); every shape a caller
    # gives passes one gate, which refuses any part that is not an int
    with pytest.raises(TypeError, match="partition part is an int, not"):
        route(part)
    route(1)
