"""The additive structure, the canonical order and the JSON payload format
each have one home.

A ring family (a subclass of ``RingSpec`` in rings.py) supplies its
coordinates, its product and its presentation; ``add``, ``neg``, ``sub``,
``zero``, ``rank`` and ``unrank`` are derived once, on ``RingSpec``, from the
coordinates, so no family defines any of them. The JSON form of a payload is
written and read by the families' ``payload_json`` and ``payload_from_json``
alone: outside rings.py no function encodes or decodes a payload, parses a
payload entry (``descriptor_int(x, "payload ...")``), or dispatches on a
ring's family tag (``descriptor[0]``), except where FAMILY_TAG_READERS says.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "skewsimple"

DERIVED = {"add", "neg", "sub", "zero", "rank", "unrank"}

# (module, enclosing function) outside rings.py -> what it does there
FAMILY_TAG_READERS = {
    # the family part of a sampled instance's name
    ("criteria.py", "_ring_tag"): {"family tag"},
}


def ring_class_members(source: str) -> dict[str, set[str]]:
    """The names each class defines, for RingSpec and every class that
    derives from it in the given module."""
    members: dict[str, set[str]] = {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
        if node.name == "RingSpec" or bases & members.keys():
            members[node.name] = {
                item.name for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return members


class _PayloadCodecs(ast.NodeVisitor):
    def __init__(self, module: str) -> None:
        self.module = module
        self.scope: list[str] = []
        self.found: dict[tuple, set] = {}

    def _add(self, what: str) -> None:
        self.found.setdefault((self.module, ".".join(self.scope)), set()).add(what)

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        name = node.name.lower()
        if "payload" in name and (name.strip("_") == "payload"
                                  or any(w in name for w in ("json", "encode", "decode"))):
            self._add("payload codec")
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if (isinstance(node.value, ast.Attribute) and node.value.attr == "descriptor"
                and isinstance(node.slice, ast.Constant) and node.slice.value == 0):
            self._add("family tag")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if (name == "descriptor_int" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and str(node.args[1].value).startswith("payload")):
            self._add("payload entry")
        self.generic_visit(node)


def payload_codec_sites() -> dict[tuple, set]:
    found: dict[tuple, set] = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "rings.py":
            visitor = _PayloadCodecs(path.name)
            visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
            found.update(visitor.found)
    return found


def test_no_ring_family_defines_what_RingSpec_derives():
    members = ring_class_members((SRC / "rings.py").read_text(encoding="utf-8"))
    assert members.keys() == {"RingSpec", "ModularRing", "MatrixRing", "FunctionRing"}
    assert DERIVED <= members.pop("RingSpec")
    assert {name: defined & DERIVED for name, defined in members.items()} == {
        name: set() for name in members}
    for defined in members.values():
        assert {"to_vec", "from_vec", "rank_columns", "payload_json",
                "payload_from_json"} <= defined


def test_only_rings_encodes_or_decodes_payload_json():
    assert payload_codec_sites() == FAMILY_TAG_READERS


def test_the_scans_see_definitions_tags_and_entries():
    assert ring_class_members(
        "class RingSpec:\n"
        "    def add(self, a, b): ...\n"
        "class Mine(RingSpec):\n"
        "    @property\n"
        "    def zero(self): ...\n"
        "class Other:\n"
        "    def rank(self, a): ...\n") == {"RingSpec": {"add"}, "Mine": {"zero"}}
    visitor = _PayloadCodecs("example.py")
    visitor.visit(ast.parse(
        "def _payload(ring, raw):\n"
        "    return descriptor_int(raw, 'payload')\n"
        "class K:\n"
        "    def encode_payload(self, ring, a):\n"
        "        if ring.descriptor[0] == 'matrix':\n"
        "            return [rings.descriptor_int(x, 'payload entry') for x in a]\n"
        "def _slot_payloads(ctx):\n"
        "    return descriptor_int(ctx, 'unit')\n"))
    assert visitor.found == {
        ("example.py", "_payload"): {"payload codec", "payload entry"},
        ("example.py", "K.encode_payload"): {"payload codec", "family tag", "payload entry"}}
