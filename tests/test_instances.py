import json
from pathlib import Path

import pytest

from skewsimple import CapacityError, InstanceParseError
from skewsimple.dynamics import TransformationGroup
from skewsimple.instances import INSTANCE_SCHEMA, load_instance, parse_instance
from skewsimple.skew import SkewContext

FIXTURES = Path(__file__).parent / "fixtures"


def test_instance_schema_is_a_valid_schema():
    # parse_instance validates against a validator built once, without
    # re-checking the schema itself
    import jsonschema
    jsonschema.Draft202012Validator.check_schema(INSTANCE_SCHEMA)


def test_parse_minimal_algebra_instance():
    spec = load_instance(FIXTURES / "swap2.json")
    assert spec.kind == "algebra"
    ctx = spec.build()
    assert isinstance(ctx, SkewContext)
    assert ctx.size == 16
    assert ctx.group.order == 2


def test_parse_dynamics_instance():
    spec = load_instance(FIXTURES / "natural_s3.json")
    assert spec.kind == "dynamics"
    built = spec.build()
    assert isinstance(built, TransformationGroup)
    assert built.group.order == 6
    assert built.context.size == 8**6


def test_round_trip_serialization():
    for name in ("swap2", "natural_s3", "inner_conjugation_f3", "trivial_group_ring"):
        spec = load_instance(FIXTURES / f"{name}.json")
        again = parse_instance(spec.to_json())
        assert again == spec
        assert again.serialize() == spec.serialize()


def test_invalid_json_reports_location():
    with pytest.raises(InstanceParseError) as err:
        parse_instance('{"name": "broken",}')
    assert err.value.line is not None


def test_unknown_ring_kind_rejected():
    doc = {"name": "bad", "ring": {"kind": "quaternion"},
           "group": {"kind": "cyclic_product", "orders": [2]},
           "action": {"kind": "trivial"}}
    with pytest.raises(InstanceParseError) as err:
        parse_instance(json.dumps(doc))
    assert "quaternion" in str(err.value)


def test_both_instance_kinds_rejected():
    doc = {"name": "bad",
           "ring": {"kind": "modular", "n": 4},
           "group": {"kind": "cyclic_product", "orders": [2]},
           "action": {"kind": "trivial"},
           "dynamics": {"points": 2, "group": {"kind": "cyclic_product", "orders": [2]},
                        "act": [[0, 1], [0, 1]]}}
    with pytest.raises(InstanceParseError) as err:
        parse_instance(json.dumps(doc))
    assert "exactly one" in str(err.value)


def test_schema_rejects_unknown_fields():
    doc = {"name": "bad", "surprise": 1,
           "ring": {"kind": "modular", "n": 4},
           "group": {"kind": "cyclic_product", "orders": [2]},
           "action": {"kind": "trivial"}}
    with pytest.raises(InstanceParseError) as err:
        parse_instance(json.dumps(doc))
    assert "schema" in str(err.value)


def test_homomorphism_violation_rejected_with_witness():
    # sigma_1 is an order-4 rotation on an order-2 group element
    doc = {"name": "bad",
           "ring": {"kind": "function", "points": 4, "q": 2},
           "group": {"kind": "cyclic_product", "orders": [2]},
           "action": {"kind": "permutation", "perms": [[0, 1, 2, 3], [1, 2, 3, 0]]}}
    with pytest.raises(InstanceParseError) as err:
        parse_instance(json.dumps(doc))
    assert "homomorphism" in str(err.value)


def test_non_bijective_action_row_rejected():
    doc = {"name": "bad",
           "dynamics": {"points": 2, "group": {"kind": "cyclic_product", "orders": [2]},
                        "act": [[0, 1], [0, 0]]}}
    with pytest.raises(InstanceParseError) as err:
        parse_instance(json.dumps(doc))
    assert "bijection" in str(err.value)


def test_caps_override_applies():
    doc = {"name": "capped", "caps": {"enumeration": 8},
           "ring": {"kind": "function", "points": 2, "q": 2},
           "group": {"kind": "cyclic_product", "orders": [2]},
           "action": {"kind": "permutation", "perms": [[0, 1], [1, 0]]}}
    spec = parse_instance(json.dumps(doc))
    ctx = spec.build()
    with pytest.raises(CapacityError):
        list(ctx.elements())


def test_explicit_table_group_and_action():
    doc = {"name": "table_based",
           "ring": {"kind": "modular", "n": 3},
           "group": {"kind": "table", "mul": [[0, 1], [1, 0]], "names": ["e", "t"]},
           "action": {"kind": "table", "tables": [[0, 1, 2], [0, 1, 2]]}}
    spec = parse_instance(json.dumps(doc))
    ctx = spec.build()
    assert ctx.group.names == ("e", "t")
    assert ctx.size == 9


def test_env_var_cap_override(monkeypatch):
    from skewsimple.config import Caps
    monkeypatch.setenv("SKEWSIMPLE_ENUMERATION_CAP", "123")
    assert Caps.from_env().enumeration == 123
    monkeypatch.setenv("SKEWSIMPLE_ENUMERATION_CAP", "zero")
    with pytest.raises(ValueError):
        Caps.from_env()
    monkeypatch.setenv("SKEWSIMPLE_ENUMERATION_CAP", "-3")
    with pytest.raises(ValueError):
        Caps.from_env()


def test_unit_power_action_descriptor():
    # only the identity scaling is a unital ring automorphism, so unit 1
    # parses and anything else is rejected during validation
    good = {"name": "scaling_trivial",
            "ring": {"kind": "modular", "n": 5},
            "group": {"kind": "cyclic_product", "orders": [4]},
            "action": {"kind": "unit_power", "unit": 1}}
    spec = parse_instance(json.dumps(good))
    assert spec.build().size == 625
    bad = dict(good, action={"kind": "unit_power", "unit": 2})
    with pytest.raises(InstanceParseError):
        parse_instance(json.dumps(bad))
