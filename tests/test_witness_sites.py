"""Every place in the package that builds a field-test or G-simplicity
witness is on an allow-list.

The paper's criteria are booleans, and most checks read only the decisions:
``SkewContext.center_is_field``, ``FieldTest.is_field`` and
``GSimplicity.value``. A witness costs a sweep of A (``first_proper_ideal``)
or a minimal polynomial and its least root (``_minimal_polynomial``), and is
built only where something reads it: a read of ``.center_obstruction`` or
of a field test's ``.obstruction``, or a call to ``first_proper_ideal`` or
``_minimal_polynomial``, anywhere in ``src/skewsimple`` outside ALLOWED
fails this test; a new eager reader needs a deliberate edit of the list,
and so does removing one.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "skewsimple"

# (module, enclosing function) -> what it reads or calls there
ALLOWED = {
    # the report backs a false centre-is-field verdict with its element
    ("criteria.py", "necessary_conditions"): {"center_obstruction"},
    # a central non-unit is a witness of a proper ideal above the cap
    ("skew.py", "_witness_search"): {"center_obstruction"},
    # the centre's obstruction as an element, built on first read
    ("skew.py", "SkewContext.center_obstruction"): {"obstruction"},
    # the G-simplicity witness: the canonical sweep under the cap, the fixed
    # centre's obstruction above it
    ("actions.py", "GSimplicity.witness_ideal"): {"first_proper_ideal", "obstruction"},
    # z - c*1, the obstruction of a fixed space larger than the scalars
    ("closure.py", "field_obstruction.shifted"): {"_minimal_polynomial"},
}

WITNESS_CALLS = ("first_proper_ideal", "_minimal_polynomial")
WITNESS_READS = ("center_obstruction", "obstruction")


class _Sites(ast.NodeVisitor):
    def __init__(self, module: str) -> None:
        self.module = module
        self.scope: list[str] = []
        self.found: dict[tuple, set] = {}

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def _add(self, what: str) -> None:
        self.found.setdefault((self.module, ".".join(self.scope)), set()).add(what)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in WITNESS_CALLS:
            self._add(name)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in WITNESS_READS and isinstance(node.ctx, ast.Load):
            self._add(node.attr)
        self.generic_visit(node)


def witness_sites() -> dict[tuple, set]:
    found: dict[tuple, set] = {}
    for path in sorted(SRC.glob("*.py")):
        visitor = _Sites(path.name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.update(visitor.found)
    return found


def test_every_witness_builder_is_on_the_allow_list():
    assert witness_sites() == ALLOWED


def test_the_scan_sees_calls_and_reads():
    visitor = _Sites("example.py")
    visitor.visit(ast.parse(
        "class K:\n"
        "    def f(self, ctx, ring):\n"
        "        z = ctx.center_obstruction\n"
        "        return rings.first_proper_ideal(ring, e, 'x'), z\n"
        "def g(test):\n"
        "    def h():\n"
        "        return _minimal_polynomial(2, m, z, one)\n"
        "    test.obstruction = None\n"
        "    return test.obstruction, h\n"))
    assert visitor.found == {("example.py", "K.f"): {"center_obstruction", "first_proper_ideal"},
                             ("example.py", "g.h"): {"_minimal_polynomial"},
                             ("example.py", "g"): {"obstruction"}}
