"""The benchmark's hand-kept span tables name live library code.

``perfbench/spans.py`` wraps a private function, reads memoised
functions' ``cache_info`` and wraps class dunders, each by name.  A
traced benchmark run crashes on a name that was renamed or deleted, or
on a cache that was dropped, so each name is checked against ``qtau``
here.  The tables are read from the file as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _layer(layer):
    return importlib.import_module(f"qtau.{layer}")


@pytest.mark.parametrize(
    "layer, attr", sorted(set(spans.PRIVATE) | set(spans.CACHES.values())))
def test_named_functions_are_caches(layer, attr):
    fn = getattr(_layer(layer), attr, None)
    assert fn is not None, f"qtau.{layer} has no {attr}"
    assert hasattr(fn, "cache_info"), f"qtau.{layer}.{attr} is not memoised"


@pytest.mark.parametrize("layer, cls_name, meth", sorted(
    (layer, cls_name, meth)
    for (layer, cls_name), table in spans.METHODS.items() for meth in table))
def test_named_dunders_are_defined_on_their_class(layer, cls_name, meth):
    cls = getattr(_layer(layer), cls_name)
    assert meth in cls.__dict__, f"{cls_name} does not define {meth}"
