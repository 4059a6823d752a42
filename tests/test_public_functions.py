"""Every function and method of the package has a caller inside it.

A public top-level function, or a public method or property of a
top-level class, that only its own unit test calls is a second route
kept alive by its test; such a route belongs in the tests (see
``symfunc_reference``) or nowhere.  A private top-level function or
private method that nothing calls is dead code, such as a helper left
behind when two paths are folded into one.  The check parses
``src/qtau`` and looks for each name anywhere in the package outside
the definition's own body, the re-exports of ``__init__`` excluded; a
method or property counts only attribute uses (``obj.name``), so a
local variable of the same name does not keep it alive.  Dunder methods
are exempt: the language calls them.  The check goes by name, so a
method that shares its name with a used one (``coefficient`` on two
classes, say) passes unseen.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qtau"


def _public_definitions(tree):
    """(qualified name, node) of every public function, method and property."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            if not node.name.startswith("_"):
                yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if (isinstance(fn, ast.FunctionDef)
                        and not fn.name.startswith("_")):
                    yield f"{node.name}.{fn.name}", fn


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree):
    """(qualified name, node) of every private top-level function and
    every private method of a top-level class, dunders excluded."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _private(node.name):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and _private(fn.name):
                    yield f"{node.name}.{fn.name}", fn


def _uncalled(definitions, package=PACKAGE):
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    uses = []  # (node id, name, is attribute) of every name or attribute use
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((id(node), node.id, False))
            elif isinstance(node, ast.Attribute):
                uses.append((id(node), node.attr, True))
    uncalled = []
    for name, tree in trees.items():
        for qualname, fn in definitions(tree):
            own = {id(node) for node in ast.walk(fn)}
            method = "." in qualname
            if not any(used == fn.name and key not in own
                       and (attr or not method)
                       for key, used, attr in uses):
                uncalled.append(f"{Path(name).stem}.{qualname}")
    return uncalled


def test_every_public_function_is_used_in_the_package():
    assert _uncalled(_public_definitions) == []


def test_every_private_function_is_used_in_the_package():
    assert _uncalled(_private_definitions) == []


def test_an_unused_private_method_is_flagged(tmp_path):
    # a local variable that shares the method's name does not keep it alive
    (tmp_path / "mod.py").write_text(
        "class C:\n"
        "    def _used(self):\n"
        "        return self._used\n"
        "    def _unused(self):\n"
        "        return 0\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def _helper():\n"
        "    _unused = C()._used()\n"
        "    return _unused\n"
        "_helper()\n", encoding="utf-8")
    assert _uncalled(_private_definitions, tmp_path) == ["mod.C._unused"]
