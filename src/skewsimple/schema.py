"""Check a JSON document against one of the package's schemas.

``INSTANCE_SCHEMA`` and ``REPORT_SCHEMA`` are JSON Schema 2020-12 documents.
They use only the keywords in ``KEYWORDS``, and this module gives each its
2020-12 meaning:

- ``type``: a type name or a list of them. ``integer`` is an int that is not
  a bool, or a float with an integral value (``2.0``); ``number`` is any
  number but a bool; ``object`` is a dict and ``array`` a list.
- ``properties``, ``required`` and ``additionalProperties`` (``false`` or a
  schema) apply to objects, ``items`` (one schema for every item) to arrays,
  ``minimum`` to numbers.
- ``$schema`` is an annotation.

``check_schema`` refuses a schema with any other keyword, so a keyword added
to a schema later is never silently left unenforced. ``first_violation``
descends only where the schema has ``properties``, ``items`` or a schema as
``additionalProperties``, level by level, so its depth is the schema's, not
the document's, and the violation it reports is one of the shallowest.
"""

from __future__ import annotations

import numbers

KEYWORDS = frozenset({"$schema", "type", "properties", "required", "additionalProperties",
                      "items", "minimum"})
SHOWN = 40   # the most characters of a document's text a message repeats


def _is_number(value) -> bool:
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
    "number": _is_number,
    "integer": _is_integer,
}
_SHAPES = {"$schema": str, "type": (str, list), "properties": dict, "required": list,
           "additionalProperties": (bool, dict), "items": dict}   # minimum: a number


def check_schema(schema: dict) -> None:
    """Raise ``ValueError`` unless every subschema of ``schema`` uses only
    ``KEYWORDS``, each with a value of the right shape."""
    pending = [("schema", schema)]
    while pending:
        where, node = pending.pop()
        if not isinstance(node, dict):
            raise ValueError(f"{where} is not an object")
        unknown = sorted(set(node) - KEYWORDS)
        if unknown:
            raise ValueError(f"{where} uses unsupported keywords {unknown}")
        for keyword, value in node.items():
            if not (_is_number(value) if keyword == "minimum"
                    else isinstance(value, _SHAPES[keyword])):
                raise ValueError(f"{where}.{keyword} is not of the right shape")
        types = node.get("type", [])
        if any(name not in _TYPES for name in (types if isinstance(types, list) else [types])):
            raise ValueError(f"{where}.type names an unknown type")
        if not all(isinstance(key, str) for key in node.get("required", [])):
            raise ValueError(f"{where}.required names a key that is not a string")
        pending.extend((f"{where}.properties.{key}", sub)
                       for key, sub in node.get("properties", {}).items())
        if "items" in node:
            pending.append((f"{where}.items", node["items"]))
        if isinstance(node.get("additionalProperties"), dict):
            pending.append((f"{where}.additionalProperties", node["additionalProperties"]))


def first_violation(schema: dict, doc) -> tuple[str, str] | None:
    """The first violation of ``schema`` by ``doc`` as (dotted path, message),
    or None when ``doc`` is valid. ``schema`` has passed ``check_schema``.

    The message starts with the violated keyword and repeats at most
    ``SHOWN`` characters of the document.
    """
    level = [(schema, doc, ())]
    while level:
        deeper = []
        for node, value, path in level:
            message = _local_violation(node, value)
            if message is not None:
                return ".".join(map(str, path)), message
            if isinstance(value, dict) and ("properties" in node
                                             or "additionalProperties" in node):
                known = node.get("properties", {})
                rest = node.get("additionalProperties", True)
                for key, item in value.items():
                    sub = known.get(key, rest)
                    if sub is False:
                        return (".".join(map(str, path)),
                                f"additionalProperties: unexpected key {_shown(key)}")
                    if sub is not True:
                        deeper.append((sub, item, path + (key,)))
            elif isinstance(value, list) and "items" in node:
                sub = node["items"]
                deeper.extend((sub, item, path + (i,)) for i, item in enumerate(value))
        level = deeper
    return None


def _local_violation(node: dict, value) -> str | None:
    """The message for a keyword that ``value`` itself violates, if any."""
    if "type" in node:
        types = node["type"] if isinstance(node["type"], list) else [node["type"]]
        if not any(_TYPES[name](value) for name in types):
            return f"type: not of type {' or '.join(types)}"
    if "required" in node and isinstance(value, dict):
        for key in node["required"]:
            if key not in value:
                return f"required: missing key {key!r}"
    if "minimum" in node and _is_number(value) and value < node["minimum"]:
        return f"minimum: less than {node['minimum']}"
    return None


def _shown(key) -> str:
    text = repr(key)
    return text if len(text) <= SHOWN else text[:SHOWN - 3] + "..."
