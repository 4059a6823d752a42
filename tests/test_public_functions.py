"""Every public function of the package has a caller inside the package.

A public top-level function that only its own unit test calls is a
second route kept alive by its test; such a route belongs in the tests
(see ``symfunc_reference``) or nowhere.  The check parses ``src/qtau``
and looks for each function's name anywhere in the package outside the
function's own body, the re-exports of ``__init__`` excluded.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qtau"


def _uncalled_public_functions(package=PACKAGE):
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    uses = []  # (node id, name) of every name or attribute use
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((id(node), node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((id(node), node.attr))
    uncalled = []
    for name, tree in trees.items():
        for fn in tree.body:
            if (not isinstance(fn, ast.FunctionDef)
                    or fn.name.startswith("_")):
                continue
            own = {id(node) for node in ast.walk(fn)}
            if not any(used == fn.name and key not in own
                       for key, used in uses):
                uncalled.append(f"{Path(name).stem}.{fn.name}")
    return uncalled


def test_every_public_function_is_used_in_the_package():
    assert _uncalled_public_functions() == []
