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
strings with ``parse_rational``.
"""

import ast
from pathlib import Path

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
