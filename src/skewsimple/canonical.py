"""The canonical JSON text of every document the package writes.

Reports, instance files and ``suite --format json`` share one format: two
space indentation, keys sorted, ASCII escapes and a trailing newline. It is
exactly ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, written in one
recursive pass: under ``indent`` the standard library always takes its
generator-based pure-Python encoder, one generator per container.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

_STDLIB = json.JSONEncoder(indent=2, sort_keys=True)


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    Strings, ints, ``None`` and the booleans are written here; floats and
    every other scalar go to the standard encoder, so NaN, the infinities,
    float repr and the ``TypeError`` on an unserialisable object are its own.
    Types are tested in json's order, so subclasses encode as json encodes
    them. A circular or too deeply nested document is handed whole to the
    standard encoder, which raises its own error or writes it.
    """
    out: list[str] = []
    try:
        _write(doc, out, "\n")
    except RecursionError:
        return _STDLIB.encode(doc) + "\n"
    out.append("\n")
    return "".join(out)


def _write(value, out: list[str], newline: str, *, _string=encode_basestring_ascii,
           _int=int.__repr__, _scalar=_STDLIB.encode) -> None:
    # newline is the line break plus the indentation of value's own line
    if isinstance(value, str):
        out.append(_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(_int(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        for item in value:
            out.append(inner)
            _write(item, out, inner)
            out.append(",")
        out[-1] = newline + "]"   # the last separator closes the list
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for key, item in sorted(value.items()):
            out.append(inner)
            out.append(_string(key if isinstance(key, str) else _key(key)))
            out.append(": ")
            _write(item, out, inner)
            out.append(",")
        out[-1] = newline + "}"
    else:
        # floats (NaN, the infinities, repr) and json's TypeError on any
        # other object; no float is also a list, tuple or dict
        out.append(_scalar(value))


def _key(key) -> str:
    """A key that is not a str as json writes it: the text of a float, bool,
    None or int key; any other key is json's ``TypeError``."""
    if isinstance(key, float):
        return _STDLIB.encode(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")
