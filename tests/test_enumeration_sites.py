"""Every place in the package that enumerates A, or the members of a Howell
basis, is on an allow-list.

The centre, the twisted centralizers, the fixed ring and outerness are
kernels of linear maps on A's coordinates, so no A-level fact needs to walk
every payload of A; and the least nonzero member of a span in a column order
is read off its rows (``HowellBasis.least_member``), so no selection of one
member needs to walk the span. A call to ``.payloads()``,
``.check_enumerable(``, ``.sorted_members(`` or ``.iter_chunks()``, or a read
of ``.units``, anywhere in ``src/skewsimple`` outside ALLOWED fails this test;
a new enumeration needs a deliberate edit of the list, and so does removing
one.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "skewsimple"

# (module, enclosing function) -> what it enumerates there
ALLOWED = {
    # the enumerator, and the list of units the instance sampler draws from
    ("rings.py", "RingSpec.payloads"): {"check_enumerable"},
    ("rings.py", "RingSpec.units"): {"check_enumerable", "payloads"},
    ("criteria.py", "InstanceSampler._conjugation_action"): {"units"},
    # the coordinate vectors of every payload, for the additivity check
    ("rings.py", "RingSpec.payload_vectors"): {"check_enumerable"},
    ("rings.py", "enumerate_elements"): {"payloads"},
    # the canonical witness of an action that is not G-simple, under the cap
    # (the verdict itself is the field test of the fixed centre)
    ("rings.py", "first_proper_ideal"): {"check_enumerable"},
    # table automorphisms and their validation
    ("actions.py", "RingAutomorphism.from_table"): {"check_enumerable"},
    ("actions.py", "ActionMap._check_automorphism"): {"check_enumerable", "payloads"},
    # the members of a span: materialized in rank order (cap-checked), and
    # walked for the smallest-support member of an ideal
    ("closure.py", "HowellBasis.iter_vectors"): {"iter_chunks"},
    ("closure.py", "HowellBasis.sorted_members"): {"iter_chunks"},
    ("rings.py", "RingSpec.members"): {"sorted_members"},
    ("skew.py", "SkewContext.members"): {"sorted_members"},
    ("skew.py", "smallest_member"): {"iter_chunks"},
}

ENUMERATING_CALLS = ("payloads", "check_enumerable", "sorted_members", "iter_chunks")


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
        if isinstance(func, ast.Attribute) and func.attr in ENUMERATING_CALLS:
            self._add(func.attr)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "units" and isinstance(node.ctx, ast.Load):
            self._add("units")
        self.generic_visit(node)


def enumeration_sites() -> dict[tuple, set]:
    found: dict[tuple, set] = {}
    for path in sorted(SRC.glob("*.py")):
        visitor = _Sites(path.name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.update(visitor.found)
    return found


def test_every_enumeration_of_A_is_on_the_allow_list():
    assert enumeration_sites() == ALLOWED


def test_the_scan_sees_calls_and_reads():
    visitor = _Sites("example.py")
    visitor.visit(ast.parse(
        "class K:\n"
        "    def f(self, ring):\n"
        "        ring.check_enumerable('x')\n"
        "        return [a for a in ring.payloads()] + list(ring.units)\n"
        "def g(basis):\n"
        "    return basis.sorted_members(c, 16, 'x'), list(basis.iter_chunks())\n"))
    assert visitor.found == {("example.py", "K.f"): {"check_enumerable", "payloads", "units"},
                             ("example.py", "g"): {"sorted_members", "iter_chunks"}}
