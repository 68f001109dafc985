"""A's structure constants are held once and turned into multiplication
matrices in few places.

``RingSpec.structure_constants`` is the one copy, in the dtype of the
products taken with it, and ``RingSpec.left_matrices`` (L(x)) and
``RingSpec.right_matrices`` (R(c)) are the only builders: A's ``products``
and R's ``left_blocks`` (L(x_h) S_h) and ``right_blocks`` (R(S_k c)) go
through them, and everything else that multiplies in R (``products``, and the
dense ``left_multiplication`` and ``right_multiplication`` of the
certificate's theta) goes through the block builders. Two functions read the
copy directly, as its blocks are the matrices they need:
``RingSpec.ideal_operators`` (L(b_s) and R(b_s)) and R's generators' stack
``SkewContext.ideal_operator_matrices`` (L(b_t)); ``twisted_centralizer``
reads the L(b_t) there too. ``SkewContext._block_operands`` holds only the
sigma stack, which the block builders, the generators' stack and the sweep's
sigma stack read. A new reader of either attribute needs a deliberate edit of
READERS.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "skewsimple"

ATTRIBUTES = {"structure_constants", "_block_operands"}

# (module, enclosing function) -> the attributes it reads
READERS = {
    ("rings.py", "RingSpec.left_matrices"): {"structure_constants"},
    ("rings.py", "RingSpec.right_matrices"): {"structure_constants"},
    ("rings.py", "RingSpec.ideal_operators"): {"structure_constants"},
    ("rings.py", "RingSpec.twisted_centralizer"): {"structure_constants"},
    # L(b_t) straight off the ring's copy, and S_g
    ("skew.py", "SkewContext.ideal_operator_matrices"): {"structure_constants",
                                                         "_block_operands"},
    ("skew.py", "SkewContext.left_blocks"): {"_block_operands"},
    ("skew.py", "SkewContext.right_blocks"): {"_block_operands"},
    ("skew.py", "SkewContext.unit_monomial_matrices"): {"_block_operands"},
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
    for name in ("left_multiplication", "right_multiplication", "SkewContext.products",
                 "SkewContext._block_operands"):
        assert ("skew.py", name) not in READERS
    assert ("rings.py", "RingSpec.products") not in READERS


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
