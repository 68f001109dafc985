"""A's structure constants are turned into multiplication blocks in few
places.

On R's side, ``SkewContext.left_blocks`` (L(x_h) S_h) and
``SkewContext.right_blocks`` (R(S_k c)) are the only builders: they read the
constants through ``SkewContext._block_operands``, and everything else that
multiplies in R (``products``, and the dense ``left_multiplication`` and
``right_multiplication`` of the certificate's theta) goes through them. The
generators' stack ``ideal_operator_matrices`` reads L(b_t) and S_g straight
off the constants, since those blocks are the constants themselves, and the
sweep's sigma stack reads S_g. On A's side ``RingSpec`` reads its own
constants for its product, its ideal operators and its twisted centralizers.
A new reader of either attribute needs a deliberate edit of READERS.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "skewsimple"

ATTRIBUTES = {"structure_constants", "_block_operands"}

# (module, enclosing function) -> the attributes it reads
READERS = {
    ("rings.py", "RingSpec.products"): {"structure_constants"},
    ("rings.py", "RingSpec.ideal_operators"): {"structure_constants"},
    ("rings.py", "RingSpec.twisted_centralizer"): {"structure_constants"},
    # S_g and A's own constants, stacked once per context
    ("skew.py", "SkewContext.structure_constants"): {"structure_constants"},
    ("skew.py", "SkewContext._block_operands"): {"structure_constants"},
    ("skew.py", "SkewContext.left_blocks"): {"_block_operands"},
    ("skew.py", "SkewContext.right_blocks"): {"_block_operands"},
    ("skew.py", "SkewContext.ideal_operator_matrices"): {"structure_constants"},
    ("skew.py", "SkewContext.unit_monomial_matrices"): {"structure_constants"},
}


class _Readers(ast.NodeVisitor):
    def __init__(self, module: str) -> None:
        self.module = module
        self.scope: list[str] = []
        self.found: dict[tuple, set] = {}

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in ATTRIBUTES:
            self.found.setdefault((self.module, ".".join(self.scope)), set()).add(node.attr)
        self.generic_visit(node)


def reader_sites() -> dict[tuple, set]:
    found: dict[tuple, set] = {}
    for path in sorted(SRC.glob("*.py")):
        visitor = _Readers(path.name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.update(visitor.found)
    return found


def test_only_the_listed_functions_read_the_structure_constants():
    assert reader_sites() == READERS


def test_the_dense_builders_read_them_through_the_block_builders():
    for name in ("left_multiplication", "right_multiplication", "SkewContext.products"):
        assert ("skew.py", name) not in READERS


def test_the_scan_sees_reads_in_nested_scopes():
    visitor = _Readers("example.py")
    visitor.visit(ast.parse(
        "def structure_constants(ctx):\n"
        "    return 'structure_constants'\n"
        "class K:\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return self.ctx._block_operands\n"
        "        return self.structure_constants[0], g\n"))
    assert visitor.found == {("example.py", "K.f"): {"structure_constants"},
                             ("example.py", "K.f.g"): {"_block_operands"}}
