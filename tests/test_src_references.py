"""The shipped package holds only what the program uses.

Every top-level function and class in ``src/poolbench`` must be referenced
from ``src/`` or from ``perfbench/*.py``.  A name that only the tests call
belongs with them (``window_reference.py``, ``helpers.py``).  A re-export in
``__init__.py`` or an ``__all__`` entry is not a reference.  perfbench's
tracer names what it patches in strings and builds the window gradients'
names from the operators' names, so its lists count as references too.  A
module's own name is no reference to a same-named definition: a module is
never called, so such a name counts only where it is called.
"""

import ast

from helpers import ROOT, load_tracing

SRC = ROOT / "src" / "poolbench"
MODULES = {path.stem for path in SRC.glob("*.py")}


def referenced_names(path, strings=False) -> set[str]:
    """Every name and attribute a module reads; with ``strings`` also its string
    literals.  A module's name counts only where it is called."""
    tree = ast.parse(path.read_text())
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name not in MODULES or id(node) in called:
            names.add(name)
    return names


def test_every_top_level_definition_is_used_outside_the_tests():
    used = set().union(*(referenced_names(p) for p in SRC.glob("*.py")))
    used |= set().union(*(referenced_names(p, strings=True) for p in (ROOT / "perfbench").glob("*.py")))
    traced = load_tracing()
    used |= set(traced.WINDOW_OPS + traced.WINDOW_GRADS + traced.REPORT_WRITERS)
    defined = [
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    assert defined
    test_only = [name for name in defined if name.split(".")[1] not in used]
    assert not test_only, f"only the tests use {test_only}; move them under tests/"
