import json
import math
from functools import cache
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewsimple import schema
from skewsimple.instances import INSTANCE_SCHEMA, parse_instance
from skewsimple.report import REPORT_SCHEMA, canonical_json, run_checks

TESTS = Path(__file__).parent
SCHEMAS = {"instance": INSTANCE_SCHEMA, "report": REPORT_SCHEMA}
REFERENCE = {name: jsonschema.Draft202012Validator(s) for name, s in SCHEMAS.items()}


@cache
def base_documents() -> dict[str, list]:
    """Fixtures, golden reports and fresh reports, as json reads them."""
    fixtures = [json.loads(p.read_text(encoding="utf-8"))
                for p in sorted((TESTS / "fixtures").glob("*.json"))]
    golden = [json.loads(p.read_text(encoding="utf-8"))
              for p in sorted((TESTS / "golden").glob("*.json"))]
    fresh = [json.loads(canonical_json(run_checks(parse_instance(json.dumps(doc))),
                                       timings=True))
             for doc in fixtures if doc["name"] in ("swap2", "trivial_group_ring")]
    # no fixture sets caps, so each has a copy that does, for the minimum keywords
    capped = [{**doc, "caps": {"enumeration": 4096, "witness_candidates": 64}}
              for doc in fixtures]
    return {"instance": fixtures + capped + [report["instance"] for report in golden],
            "report": golden + fresh}


# keys the schemas name, so that an added key can also be a known one
KNOWN_KEYS = sorted({"name", "seed", "caps", "enumeration", "witness_candidates",
                     "witness_search", "ring", "group", "action", "dynamics", "points", "q",
                     "act", "natural", "instance", "version", "selection", "violations",
                     "notes", "checks", "verdicts", "value", "conclusions", "kind"})
KEYS = st.sampled_from(KNOWN_KEYS + ["surprise", "$schema"])
SCALAR_VALUES = [2.0, 2.5, 0.5, 0.0, -1.0, True, False, None, "", "x", 10**400, -10**400,
                 math.nan, math.inf, 0, 1, -1, 2]
SCALARS = st.sampled_from(SCALAR_VALUES)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(KEYS, inner, max_size=3), max_leaves=6)


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, item in doc.items():
            yield from _paths(item, path + (key,))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _paths(item, path + (i,))


def _replace(doc, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(doc, dict):
        return {**doc, head: _replace(doc[head], rest, value)}
    return [_replace(item, rest, value) if i == head else item for i, item in enumerate(doc)]


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _named_paths(node, path=()):
    """The paths a schema names through ``properties``."""
    for key, sub in node.get("properties", {}).items():
        yield path + (key,)
        yield from _named_paths(sub, path + (key,))


NAMED = {kind: sorted(_named_paths(s)) for kind, s in SCHEMAS.items()}


@st.composite
def mutated(draw, kind: str):
    doc = draw(st.sampled_from(base_documents()[kind]))
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(["swap", "drop", "add", "set", "set"]))
        if how == "set":   # a value at a path the schema names, if its parent is an object
            *parent, key = draw(st.sampled_from(NAMED[kind]))
            path, value = tuple(parent), draw(SCALARS)
        else:
            path = draw(st.sampled_from(list(_paths(doc))))
        try:
            node = _at(doc, path)
        except (KeyError, IndexError, TypeError):
            continue
        if how == "swap":
            doc = _replace(doc, path, draw(VALUES))
        elif how == "drop" and isinstance(node, dict) and node:
            key = draw(st.sampled_from(sorted(node)))
            doc = _replace(doc, path, {k: v for k, v in node.items() if k != key})
        elif how == "add" and isinstance(node, dict):
            doc = _replace(doc, path, {**node, draw(KEYS): draw(VALUES)})
        elif how == "set" and isinstance(node, dict):
            doc = _replace(doc, path, {**node, key: value})
    return doc


def _agrees_with_jsonschema(kind: str, doc) -> None:
    violation = schema.first_violation(SCHEMAS[kind], doc)
    assert (violation is None) == REFERENCE[kind].is_valid(doc)
    if violation is not None:
        paths = {".".join(map(str, e.absolute_path)) for e in REFERENCE[kind].iter_errors(doc)}
        assert violation[0] in paths


@settings(max_examples=150)
@given(mutated("instance"))
def test_instance_checks_agree_with_jsonschema(doc):
    _agrees_with_jsonschema("instance", doc)


@settings(max_examples=150)
@given(mutated("report"))
def test_report_checks_agree_with_jsonschema(doc):
    _agrees_with_jsonschema("report", doc)


@pytest.mark.parametrize("kind", SCHEMAS)
def test_every_named_path_takes_every_scalar_as_jsonschema_does(kind):
    for doc in base_documents()[kind]:
        for *parent, key in NAMED[kind]:
            try:
                node = _at(doc, parent)
            except KeyError:
                continue
            for value in SCALAR_VALUES:
                _agrees_with_jsonschema(kind, _replace(doc, tuple(parent), {**node, key: value}))


def test_every_base_document_is_valid():
    for kind, docs in base_documents().items():
        for doc in docs:
            assert schema.first_violation(SCHEMAS[kind], doc) is None


@pytest.mark.parametrize("value,valid", [
    (2, True), (2.0, True), (10**400, True), (2.5, False), (True, False), (False, False),
    (math.nan, False), (math.inf, False), ("2", False), (None, False)])
def test_integer_means_what_2020_12_says(value, valid):
    doc = {"name": "x", "seed": value}
    assert (schema.first_violation(INSTANCE_SCHEMA, doc) is None) == valid
    assert REFERENCE["instance"].is_valid(doc) == valid


def test_minimum_applies_only_to_numbers():
    caps = {"type": "object", "properties": {"n": {"minimum": 1}}}
    assert schema.first_violation(caps, {"n": "0"}) is None
    assert schema.first_violation(caps, {"n": False}) is None
    assert schema.first_violation(caps, {"n": 0}) == ("n", "minimum: less than 1")
    assert schema.first_violation(caps, {"n": 0.5}) == ("n", "minimum: less than 1")


def test_a_deep_document_is_not_descended():
    nested = []
    for _ in range(100_000):
        nested = [nested]
    assert schema.first_violation(INSTANCE_SCHEMA, {"name": "x", "ring": nested}) == \
        ("ring", "type: not of type object")
    dynamics = {"points": 1, "group": {}, "act": nested}
    assert schema.first_violation(INSTANCE_SCHEMA, {"name": "x", "dynamics": dynamics}) is None


def test_messages_repeat_only_a_short_prefix_of_the_document():
    long_key = "k" * 10_000
    path, message = schema.first_violation(INSTANCE_SCHEMA, {"name": "x", long_key: 1})
    assert path == "" and message.startswith("additionalProperties: unexpected key 'kkk")
    assert len(message) <= schema.SHOWN + len("additionalProperties: unexpected key ")
    path, message = schema.first_violation(INSTANCE_SCHEMA, {"name": "x" * 10_000, "seed": "x"})
    assert (path, message) == ("seed", "type: not of type integer")
    path, message = schema.first_violation(REPORT_SCHEMA, {"instance": {}})
    assert (path, message) == ("", "required: missing key 'version'")


@pytest.mark.parametrize("bad", [
    {"type": "object", "oneOf": [{"type": "string"}]},
    {"properties": {"name": {"type": "string", "pattern": "^x"}}},
    {"items": {"enum": [1]}},
    {"additionalProperties": {"const": 1}},
    {"type": "integers"},
    {"required": "name"},
    {"minimum": True},
    {"properties": {"name": 1}},
])
def test_a_schema_with_an_unsupported_keyword_or_shape_is_refused(bad):
    with pytest.raises(ValueError):
        schema.check_schema(bad)

