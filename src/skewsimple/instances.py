"""Instance files: JSON descriptions of algebraic or dynamical instances.

An instance is either (ring, group, action) or a transformation group; the
schema is published as INSTANCE_SCHEMA, a JSON Schema 2020-12 document, and
checked by ``skewsimple.schema`` before the semantic constructors run. Parsed
specs serialize back to a canonical form that parses to an equal spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field, replace

from . import canonical, schema
from .actions import action_from_descriptor
from .config import Caps
from .dynamics import TransformationGroup
from .errors import CapacityError, DomainError, InstanceParseError
from .groups import GroupTable
from .rings import descriptor_dim, descriptor_int, ring_from_descriptor
from .skew import SkewContext, check_dimension

INSTANCE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "seed": {"type": "integer"},
        "caps": {
            "type": "object",
            "properties": {"enumeration": {"type": "integer", "minimum": 1},
                           "witness_candidates": {"type": "integer", "minimum": 1}},
            "additionalProperties": False,
        },
        "witness_search": {"type": "boolean"},
        "ring": {"type": "object"},
        "group": {"type": "object"},
        "action": {"type": "object"},
        "dynamics": {
            "type": "object",
            "properties": {
                "points": {"type": "integer", "minimum": 1},
                "q": {"type": "integer", "minimum": 2},
                "group": {"type": "object"},
                "act": {"type": "array"},
                "natural": {"type": "boolean"},
            },
            "required": ["points", "group"],
        },
    },
    "required": ["name"],
    "additionalProperties": False,
}

schema.check_schema(INSTANCE_SCHEMA)

_GROUP_SCHEMA = {
    "cyclic_product": {"orders"},
    "permutation": {"degree", "generators"},
    "symmetric": {"degree"},
    "table": {"mul"},
}


@dataclass
class InstanceSpec:
    """A validated instance description, buildable into live objects."""

    name: str
    seed: int = 0
    caps_override: dict = dc_field(default_factory=dict)
    witness_search: bool | None = None
    ring_desc: dict | None = None
    group_desc: dict | None = None
    action_desc: dict | None = None
    dynamics_desc: dict | None = None
    _built: object = dc_field(default=None, init=False, repr=False, compare=False)

    @property
    def kind(self) -> str:
        return "dynamics" if self.dynamics_desc is not None else "algebra"

    def caps(self) -> Caps:
        """The environment's caps with this instance's overrides applied."""
        return replace(Caps.from_env(), **{k: int(v) for k, v in self.caps_override.items()})

    def build(self):
        """Live objects: a SkewContext or a TransformationGroup, built (and
        validated) on the first call; later calls return the same objects.

        Above the enumeration cap the simplicity oracle refuses unless this
        instance sets witness_search; the flag is threaded onto the context.
        """
        if self._built is None:
            self._built = self._construct()
        return self._built

    def _construct(self):
        caps = self.caps()
        group = group_from_descriptor(
            self.group_desc if self.kind == "algebra" else self.dynamics_desc["group"], caps)
        if self.kind == "algebra":
            check_dimension(descriptor_dim(self.ring_desc), group)
            ring = ring_from_descriptor(self.ring_desc, caps)
            action = action_from_descriptor(group, ring, self.action_desc)
            ctx = SkewContext(ring, group, action, caps)   # validates the action
            ctx.witness_search = bool(self.witness_search)
            return ctx
        desc = self.dynamics_desc
        npoints, q = int(desc["points"]), int(desc.get("q", 2))
        # F_q^X has points * log_p q coordinates; refused before the action
        # table, whose size grows with points, is built
        check_dimension(descriptor_dim({"kind": "function", "points": npoints, "q": q}), group)
        if desc.get("natural"):
            if not hasattr(group, "permutations"):
                raise InstanceParseError("natural dynamics need a permutation group",
                                         path="dynamics.natural")
            act = [[p[x] if x < len(p) else x for x in range(npoints)]
                   for p in group.permutations]
        else:
            act = desc.get("act")
            if act is None:
                raise InstanceParseError("dynamics need an action table or natural=true",
                                         path="dynamics.act")
            act = [_int_list(row, "act") for row in act]
        tg = TransformationGroup(npoints, group, act, q, self.name, caps)
        tg.context.witness_search = bool(self.witness_search)
        return tg

    def serialize(self) -> dict:
        out: dict = {"name": self.name, "seed": self.seed}
        if self.caps_override:
            out["caps"] = dict(self.caps_override)
        if self.witness_search is not None:
            out["witness_search"] = self.witness_search
        if self.kind == "algebra":
            out["ring"] = self.ring_desc
            out["group"] = self.group_desc
            out["action"] = self.action_desc
        else:
            out["dynamics"] = self.dynamics_desc
        return out

    def to_json(self) -> str:
        return canonical.dumps(self.serialize())


def group_from_descriptor(desc: dict, caps: Caps | None = None) -> GroupTable:
    kind = desc.get("kind")
    if kind not in _GROUP_SCHEMA:
        raise InstanceParseError(f"unknown group kind {kind!r}", path="group.kind")
    missing = _GROUP_SCHEMA[kind] - set(desc)
    if missing:
        raise InstanceParseError(f"group descriptor missing {sorted(missing)}", path="group")
    if kind == "cyclic_product":
        return GroupTable.cyclic_product(_int_list(desc["orders"], "orders"), caps)
    if kind == "permutation":
        gens = desc["generators"]
        if not isinstance(gens, list):
            raise DomainError("generators must be a list of permutations")
        return GroupTable.from_permutations(descriptor_int(desc["degree"], "degree"),
                                            [_int_list(g, "generator") for g in gens], caps)
    if kind == "symmetric":
        return GroupTable.symmetric(descriptor_int(desc["degree"], "degree"), caps)
    mul = desc["mul"]
    if not isinstance(mul, list):
        raise DomainError("mul must be a list of rows")
    return GroupTable([_int_list(row, "mul") for row in mul], desc.get("names"), "table", caps)


def _int_list(values, name: str) -> list[int]:
    """A list of integers from an instance file; anything else is refused."""
    if not isinstance(values, list):
        raise DomainError(f"{name} must be a list of integers")
    for x in values:
        descriptor_int(x, f"{name} entry")
    return values


def decode_json(text: str):
    """The document in ``text``; any text that is not a JSON document ends
    in ``InstanceParseError``, with a location when json gives one."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(f"invalid JSON: {exc.msg}", line=exc.lineno,
                                 column=exc.colno) from exc
    except RecursionError as exc:
        raise InstanceParseError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:   # an integer above the interpreter's digit limit
        raise InstanceParseError(f"invalid JSON: {str(exc).partition(':')[0]}") from exc


def parse_instance(text: str) -> InstanceSpec:
    """Parse and validate an instance document; errors carry locations."""
    raw = decode_json(text)
    violation = schema.first_violation(INSTANCE_SCHEMA, raw)
    if violation is not None:
        path, message = violation
        raise InstanceParseError(f"schema violation: {message}", path=path)
    has_algebra = any(k in raw for k in ("ring", "group", "action"))
    has_dynamics = "dynamics" in raw
    if has_algebra == has_dynamics:
        raise InstanceParseError(
            "exactly one of an algebraic instance (ring, group, action) or a "
            "dynamical instance (dynamics) must be present")
    if has_algebra:
        missing = [k for k in ("ring", "group", "action") if k not in raw]
        if missing:
            raise InstanceParseError(f"algebraic instance missing {missing}")
    spec = InstanceSpec(
        name=raw["name"],
        seed=int(raw.get("seed", 0)),
        caps_override=dict(raw.get("caps", {})),
        witness_search=raw.get("witness_search"),
        ring_desc=raw.get("ring"),
        group_desc=raw.get("group"),
        action_desc=raw.get("action"),
        dynamics_desc=raw.get("dynamics"),
    )
    # surface semantic problems (unknown kinds, bad tables, missing fields,
    # values out of range, groups above the cap) at parse time
    try:
        spec.build()
    except InstanceParseError:
        raise
    except KeyError as exc:
        raise InstanceParseError(f"invalid instance: missing field {exc}") from exc
    except (ValueError, TypeError, CapacityError) as exc:   # DomainError is a ValueError
        raise InstanceParseError(f"invalid instance: {exc}") from exc
    return spec


def load_instance(path: str) -> InstanceSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())
