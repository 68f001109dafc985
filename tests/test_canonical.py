import json
from collections import OrderedDict
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewsimple import canonical, cli
from skewsimple.instances import load_instance

FIXTURES = Path(__file__).parent / "fixtures"


def stdlib(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def outcome(write, doc):
    """The text written, or the type and message of the error raised (the
    type alone when the document is too deep for the interpreter)."""
    try:
        return write(doc)
    except RecursionError:
        return RecursionError
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


ESCAPES = st.text(alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€ \U0001f600'))
STRINGS = st.one_of(st.text(), ESCAPES,
                    st.text(st.characters(min_codepoint=0xd800, max_codepoint=0xdfff)))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(min_value=-2**200, max_value=2**200),
                    st.floats(allow_nan=True, allow_infinity=True), STRINGS)
KEYS = [STRINGS, st.integers(), st.floats(allow_nan=True, allow_infinity=True),
        st.booleans(), st.none()]


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        *[st.dictionaries(keys, children, max_size=4) for keys in KEYS],
        # mixed key types: sorting them is json's own TypeError, or not
        st.dictionaries(st.one_of(*KEYS), children, max_size=3))


DOCUMENTS = st.recursive(SCALARS, containers, max_leaves=30)


@settings(max_examples=300)
@given(DOCUMENTS)
def test_writer_matches_json_dumps(doc):
    assert outcome(canonical.dumps, doc) == outcome(stdlib, doc)


class Level(IntEnum):
    LOW = 1


class Text(str):
    pass


class Number(float):
    def __repr__(self):
        return "Number()"


class Rows(list):
    pass


def _circular():
    doc = {"rows": []}
    doc["rows"].append(doc)
    return doc


def _deep(depth):
    doc = []
    for _ in range(depth):
        doc = [doc]
    return doc


@pytest.mark.parametrize("doc", [
    {"level": Level.LOW, Level.LOW: [Text("a\n"), Number(0.5)], "rows": Rows([1, (2, 3)])},
    OrderedDict([("b", 1), ("a", {})]),
    {"empty": [[], {}, ()], "nan": float("nan"), "inf": [float("inf"), -float("inf")]},
    {1.5: "float key", 2: "int key", True: "bool key"},
    {None: 0},
    "top-level string", 17, None, 2.5, [],
    {"object": object()},
    [1, {2, 3}],
    {(1, 2): "tuple key"},
    {1: "one", "1": "mixed key types"},
    _circular(),
    _deep(50),
    _deep(5000),
], ids=lambda doc: type(doc).__name__)
def test_writer_matches_json_dumps_on_edge_cases(doc):
    assert outcome(canonical.dumps, doc) == outcome(stdlib, doc)


def test_suite_json_goes_through_the_writer_unchanged(monkeypatch, capsys):
    written, dumps = [], canonical.dumps

    def spy(doc):
        written.append(doc)
        return dumps(doc)

    monkeypatch.setattr(canonical, "dumps", spy)
    cli.main(["suite", "--count", "2", "--seed", "5", "--skip-catalogue", "--format", "json"])
    (doc,) = written
    assert capsys.readouterr().out == stdlib(doc)


def test_instance_files_go_through_the_writer_unchanged(monkeypatch):
    written, dumps = [], canonical.dumps

    def spy(doc):
        written.append(doc)
        return dumps(doc)

    monkeypatch.setattr(canonical, "dumps", spy)
    for path in sorted(FIXTURES.glob("*.json")):
        spec = load_instance(path)
        assert spec.to_json() == stdlib(spec.serialize())
    assert len(written) == len(list(FIXTURES.glob("*.json")))
