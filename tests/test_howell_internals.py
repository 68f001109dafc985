"""Only ``closure.py`` writes the state of a ``HowellBasis``.

The basis keeps its rows in one row block with an index array of pivots, and
its fast path relies on that block being the reduced row echelon form while
every pivot is a unit. Code elsewhere that assigned to, or mutated in place,
a basis's ``rows``, ``pivots``, ``divs``, ``_nonunit`` or block, or the
packed rows and pivot mask of an F_2 basis, would break that invariant unseen, so any such write in ``src/skewsimple`` outside
``closure.py`` fails this test.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "skewsimple"

STATE = {"rows", "pivots", "divs", "_nonunit", "_block", "_piv", "_rank", "_row_at", "_mask"}
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
            "fill", "put", "itemset", "resize", "setfield"}


def _state_attribute(node) -> str | None:
    """The state name written through node: x.rows, x.rows[i], x._block[i, j]."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in STATE:
        return node.attr
    return None


def state_writes(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS):
            targets = [node.func.value]
        for target in targets:
            for part in (target.elts if isinstance(target, ast.Tuple) else [target]):
                name = _state_attribute(part)
                if name is not None:
                    found.append((node.lineno, name))
    return sorted(found)


def test_only_closure_writes_basis_state():
    writes = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "closure.py":
            continue
        found = state_writes(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            writes[path.name] = found
    assert writes == {}


def test_the_scan_sees_assignments_and_mutations():
    tree = ast.parse(
        "def f(kernel, row):\n"
        "    kernel.rows.append(row)\n"
        "    kernel.pivots = [0]\n"
        "    kernel.divs[0] = 2\n"
        "    kernel._nonunit += 1\n"
        "    kernel._block[0, 1] = 3\n"
        "    a, kernel._rank = 1, 2\n"
        "    kernel._row_at[1] = 3\n"
        "    kernel._mask |= 4\n"
        "    rows = kernel.rows\n"
        "    return [r for r in kernel.rows], kernel.pivots.index(0)\n")
    assert state_writes(tree) == [(2, "rows"), (3, "pivots"), (4, "divs"), (5, "_nonunit"),
                                  (6, "_block"), (7, "_rank"), (8, "_row_at"), (9, "_mask")]
