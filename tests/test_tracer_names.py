"""The names perfbench's tracer wraps exist in cirlab.

The tracer finds them by name at run time, and a method it cannot find only
prints MISSING and reads 0, so a rename in cirlab would leave the benchmark's
per-layer metrics silently empty. The names are read from the tracer's source,
so that nothing of perfbench is imported.
"""

import ast
import importlib
from pathlib import Path

from cirlab import interp

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _literal(name: str):
    """The value of the module-level assignment to `name` in the tracer."""
    tree = ast.parse(TRACER.read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets))


def test_each_spanned_function_exists():
    spanned = _literal("SPANNED")
    assert spanned
    missing = [(mod, fn) for mod, fn in spanned
               if not callable(getattr(importlib.import_module(f"cirlab.{mod}"), fn, None))]
    assert missing == []


def test_each_hot_method_is_defined_on_the_machine():
    # the tracer looks in `Machine.__dict__`, so an inherited name would not do
    hot = _literal("HOT_METHODS")
    assert hot
    assert [m for m in hot if m not in interp.Machine.__dict__] == []
