"""Enforcement of the packaged JSON schemas, with only the standard library.

Configs and reports are checked against ``schemas/*.json`` by a small
interpreter of the keywords those schemas use: ``validate`` raises
``SchemaViolation`` with the path and message jsonschema's best match
would.  Each input has one schema: the config schema's ``$defs`` hold
the angle, law, system, cylinder and test set, and one ``<op>-params``
entry per compute op.  So an unknown key is refused at every level with
its path, and an integral float is an integer everywhere.  A keyword
the interpreter does not know constrains nothing here; that the packaged
schemas use no such keyword is a property of two files that change only
with the source, so the test suite checks it, not each run.
"""

from __future__ import annotations

import json
import numbers
from functools import lru_cache
from pathlib import Path
from typing import Optional

#: JSON type name -> membership test, as in jsonschema's draft 2020-12
#: type checker: a bool is never a number, an integral float is an integer.
_JSON_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}


class SchemaViolation(ValueError):
    """A config or report that breaks its packaged schema.  ``path`` and
    ``message`` are those of the error ``jsonschema.validate`` would raise."""

    def __init__(self, what: str, path: tuple, message: str):
        self.path, self.message = path, message
        where = "/".join(str(p) for p in path) or "<root>"
        super().__init__(f"invalid {what} at {where}: {message}")


def _resolve(root: dict, ref: str):
    """The subschema a local ``#/$defs/...`` JSON pointer names, or None."""
    if not ref.startswith("#/$defs/"):
        return None
    node = root
    for part in ref[2:].split("/"):
        node = node.get(part) if isinstance(node, dict) else None
    return node


def _schema_errors(schema: dict, instance, path: tuple = (), root: Optional[dict] = None):
    """Yield (path, message) for each violation, in jsonschema's order:
    the schema's keyword order, depth first, with its messages.  ``$ref``
    pointers resolve in ``root``, the schema itself by default."""
    root = schema if root is None else root
    for key, value in schema.items():
        if key == "$ref":
            yield from _schema_errors(_resolve(root, value), instance, path, root)
        elif key == "type":
            types = [value] if isinstance(value, str) else value
            if not any(_JSON_TYPES[t](instance) for t in types):
                yield path, f"{instance!r} is not of type {', '.join(map(repr, types))}"
        elif key == "enum":
            # jsonschema's equality: True is not 1, False is not 0
            if not any(isinstance(v, bool) == isinstance(instance, bool) and v == instance
                       for v in value):
                yield path, f"{instance!r} is not one of {value!r}"
        elif key == "minimum":
            if _JSON_TYPES["number"](instance) and instance < value:
                yield path, f"{instance!r} is less than the minimum of {value!r}"
        elif not isinstance(instance, (list, dict)):
            continue
        elif isinstance(instance, list):
            if key == "items":
                for index, item in enumerate(instance):
                    yield from _schema_errors(value, item, (*path, index), root)
            elif key == "prefixItems":
                for index, (item, sub) in enumerate(zip(instance, value)):
                    yield from _schema_errors(sub, item, (*path, index), root)
            elif key == "minItems" and len(instance) < value:
                yield path, f"{instance!r} {'should be non-empty' if value == 1 else 'is too short'}"
            elif key == "maxItems" and len(instance) > value:
                yield path, f"{instance!r} {'is expected to be empty' if value == 0 else 'is too long'}"
        elif key == "properties":
            for name, subschema in value.items():
                if name in instance:
                    yield from _schema_errors(subschema, instance[name], (*path, name), root)
        elif key == "required":
            for name in value:
                if name not in instance:
                    yield path, f"{name!r} is a required property"
        elif key == "additionalProperties":
            known = schema.get("properties", {})
            extras = sorted({name for name in instance if name not in known}, key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                yield path, (f"Additional properties are not allowed "
                             f"({', '.join(map(repr, extras))} {verb} unexpected)")


@lru_cache(maxsize=4)
def _schema(name: str) -> dict:
    """One packaged schema, loaded once."""
    return json.loads((Path(__file__).parent / "schemas" / name).read_text(encoding="utf-8"))


def validate(name: str, what: str, data, ref: str = "", path: tuple = ()) -> None:
    """Raise jsonschema's best match for ``data`` at ``path`` against the
    packaged schema ``name``, or against its subschema ``ref``: of all
    violations, the one at the shortest path, then the largest path among
    siblings, then the first.  Its other tie-breaks (anyOf and oneOf rank
    low, as do errors of a subschema whose type the instance has) cannot
    split two errors of one subschema at one path, and the packaged
    schemas, having no anyOf or oneOf and no ``$ref`` beside another
    keyword, reach each path through one subschema."""
    root = _schema(name)
    errors = _schema_errors({"$ref": ref} if ref else root, data, path, root)
    best = max(errors, key=lambda error: (-len(error[0]), error[0]), default=None)
    if best is not None:
        raise SchemaViolation(what, *best)
