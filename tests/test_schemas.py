"""The packaged JSON schemas and ``ergolab._schema``'s interpreter of them.

jsonschema is the oracle here and nowhere at run time: each packaged
schema must be a valid draft 2020-12 schema, the interpreter must accept
and reject what ``jsonschema.exceptions.best_match`` does with the same
path and message, and a packaged schema may use no keyword the
interpreter does not enforce.  The interpreter ignores a keyword it does
not know, so ``_check_keywords`` is what keeps a schema edit from adding
a constraint no run checks.
"""

from __future__ import annotations

import importlib.resources
import json
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from ergolab._schema import _JSON_TYPES, SchemaViolation, _resolve, _schema_errors, validate
from ergolab.cli import COMPUTE_OPS

SCHEMAS = ("config.schema.json", "report.schema.json")
#: Annotations, which constrain nothing.
_SCHEMA_NOTES = ("$schema", "title", "description")


def _packaged(name: str) -> dict:
    ref = importlib.resources.files("ergolab.schemas").joinpath(name)
    return json.loads(ref.read_text(encoding="utf-8"))


def _check_keywords(schema: dict, root: Optional[dict] = None) -> None:
    """Refuse a schema using any keyword, or keyword form, that
    ``_schema_errors`` does not enforce, so no constraint goes unchecked.
    A ``$ref`` must stand alone (beside annotations) and name a subschema
    under the root's ``$defs``, so each instance path is still reached
    through one subschema."""
    root = schema if root is None else root
    for key, value in schema.items():
        if key in _SCHEMA_NOTES:
            continue
        subschemas = []
        if key == "type":
            known = all(t in _JSON_TYPES for t in ([value] if isinstance(value, str) else value))
        elif key == "enum":
            known = all(v is None or isinstance(v, (str, int, float)) for v in value)
        elif key == "minimum":
            known = _JSON_TYPES["number"](value)
        elif key == "additionalProperties":
            known = value is False
        elif key == "$ref":
            known = isinstance(_resolve(root, value), dict) and set(schema) <= {key, *_SCHEMA_NOTES}
        elif key in ("properties", "$defs"):
            subschemas = list(value.values())
            known = all(isinstance(sub, dict) for sub in subschemas)
        elif key in ("items", "prefixItems"):
            subschemas = [value] if key == "items" else value
            known = (all(isinstance(sub, dict) for sub in subschemas)
                     and not (key == "items" and "prefixItems" in schema))
        else:
            known = key in ("required", "minItems", "maxItems")
        if not known:
            raise NotImplementedError(f"schema keyword {key!r}: {value!r} is not enforced")
        for sub in subschemas:
            _check_keywords(sub, root)


def _interpreted(name: str, instance):
    """(path, message) of the interpreter's violation, or None."""
    try:
        validate(name, "instance", instance)
    except SchemaViolation as exc:
        return exc.path, exc.message
    return None


def _oracle(name: str, instance):
    """(path, message) of jsonschema's best match, or None."""
    schema = _packaged(name)
    error = best_match(validator_for(schema)(schema).iter_errors(instance))
    return None if error is None else (tuple(error.path), error.message)


# Scalars that straddle every type line: bools next to 0 and 1, integral
# and fractional floats, negatives, the enum strings and a few others.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5, -2.5, 1e300, float("inf")]),
    st.sampled_from([
        "", "x", "json", "csv", "xml", "compute", "theorem1", "reproduce-letter",
        "exact", "monte-carlo", "residual-certified", "guesswork",
    ]),
)
KEYS = st.sampled_from(["kind", "statement", "provenance", "evidence", "seed", "extra", "0"])
ANY = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(KEYS, kids, max_size=3),
    max_leaves=6,
)
UNKNOWN = st.dictionaries(st.sampled_from(["extra", "precision_bits", "Seed", "1"]), ANY,
                          max_size=2)


def _mostly(value: st.SearchStrategy, other: st.SearchStrategy) -> st.SearchStrategy:
    """``value`` about fifteen times in sixteen, else ``other``."""
    return st.integers(0, 15).flatmap(lambda pick: value if pick else other)


def _instances(plausible: dict, required: tuple) -> st.SearchStrategy:
    """Objects holding the required properties and any subset of the
    others, each value mostly plausible and otherwise arbitrary; now and
    then a required key is dropped or unknown keys are added, and now and
    then a bare value stands in for the object."""
    def values(keys):
        return {key: _mostly(plausible[key], ANY) for key in keys}

    known = st.fixed_dictionaries(
        values(required), optional=values(k for k in plausible if k not in required)
    )
    dropped = _mostly(st.just(()), st.lists(st.sampled_from(required), max_size=2)) \
        if required else st.just(())
    objects = st.builds(
        lambda obj, drop, extra: {**{k: v for k, v in obj.items() if k not in drop}, **extra},
        known, dropped, _mostly(st.just({}), UNKNOWN),
    )
    return _mostly(objects, ANY)


# The nested inputs: integers beside integral floats, bools and strings;
# angles of three to five fields; cylinders of up to three entries, each
# mostly a [position, symbol] pair and otherwise a list of one to three
# scalars.
INTEGERS = _mostly(st.integers(-3, 5), st.sampled_from([2.0, 0.5, True, "1", None]))
SYMBOLS = st.lists(_mostly(st.integers(-1, 2) | st.just("a"), SCALARS), max_size=3)
PROBS = st.lists(_mostly(st.sampled_from([0.5, 0.25, 1, 0]), SCALARS), max_size=3)
ANGLES = _instances({"quadratic": st.lists(INTEGERS, min_size=3, max_size=5)},
                    required=("quadratic",))
LAWS = _instances({"probs": PROBS, "symbols": SYMBOLS}, required=("probs",))
SYSTEMS = _instances({
    "kind": _mostly(st.sampled_from(["rotation", "skew", "bernoulli", "product"]),
                    st.just("nope")),
    "gamma": ANGLES,
    "probs": PROBS,
    "symbols": SYMBOLS,
}, required=("kind",))
ENTRIES = _mostly(st.tuples(INTEGERS, _mostly(st.integers(-1, 1) | st.just("a"), SCALARS)),
                  st.lists(SCALARS, min_size=1, max_size=3)).map(list)
TEST_SETS = _instances({
    "kind": _mostly(st.sampled_from(["u-interval", "cylinder"]), st.just("rectangle")),
    "a": _mostly(st.sampled_from([0, 0.25, "1/3", "1/0"]), SCALARS),
    "b": _mostly(st.sampled_from([1, 0.5, "1/2"]), SCALARS),
    "cylinder": st.lists(ENTRIES, max_size=3),
}, required=("kind",))
#: Each compute op's params.
PARAMS = {
    "tower": _instances({"system": SYSTEMS, "max_depth": INTEGERS}, required=()),
    "residual-search": _instances(
        {"system": SYSTEMS, "ks": st.lists(INTEGERS, max_size=3)}, required=()
    ),
    "spectrum": _instances({"system": SYSTEMS}, required=()),
    "entropy": _instances({"bernoulli": LAWS}, required=()),
    "weak-mixing": _instances(
        {"system": SYSTEMS, "A": TEST_SETS, "B": TEST_SETS, "t": INTEGERS}, required=()
    ),
}

CONFIGS = _instances({
    "scenario": st.sampled_from(["reproduce-letter", "reproduce-kolmogorov", "theorem1",
                                 "compute", "nope"]),
    "systems": st.lists(SYSTEMS, max_size=3),
    "truncation": st.integers(-1, 4) | st.sampled_from([1.0, 0.0, True]),
    "residual_truncation": st.integers(0, 4),
    "samples": st.integers(-1, 3),
    "block_length": st.integers(-1, 3),
    "seed": st.integers(-2, 5) | st.sampled_from([3.0, -1.0, 0.5, False]),
    "bits": st.booleans() | st.sampled_from([0, 1]),
    "format": st.sampled_from(["json", "csv", "xml"]),
    "out": st.text(max_size=2),
    "op": st.sampled_from(["tower", "weak-mixing", ""]),
    "params": st.dictionaries(KEYS, ANY, max_size=2),
}, required=("scenario", "seed"))

VERDICTS = _instances({
    "statement": st.sampled_from(["spectrally isomorphic", ""]),
    "provenance": st.sampled_from(["exact", "monte-carlo", "residual-certified",
                                   "guesswork"]),
    "evidence": st.dictionaries(KEYS, ANY, max_size=2),
}, required=("statement", "provenance", "evidence"))
REPORTS = _instances({
    "scenario": st.sampled_from(["theorem1", "compute"]),
    "version": st.just("0.1.0"),
    "seed": st.integers(-2, 5) | st.sampled_from([1.0, True]),
    "config": st.dictionaries(KEYS, ANY, max_size=2),
    "results": st.dictionaries(KEYS, ANY, max_size=2),
    "verdicts": st.lists(VERDICTS | ANY, max_size=3),
}, required=("scenario", "version", "seed", "config", "results", "verdicts"))


@pytest.mark.parametrize("name", SCHEMAS)
def test_packaged_schemas_are_valid_draft_2020_12(name):
    schema = _packaged(name)
    validator_for(schema).check_schema(schema)
    _check_keywords(schema)


@settings(max_examples=400, deadline=None)
@given(CONFIGS)
def test_config_verdicts_match_jsonschema(instance):
    assert _interpreted("config.schema.json", instance) == _oracle("config.schema.json", instance)


def _params_oracle(op: str, instance):
    """(path, message) of jsonschema's best match for ``instance`` as the
    params of ``op``, or None."""
    config = _packaged("config.schema.json")
    schema = {"$schema": config["$schema"], "$defs": config["$defs"],
              "$ref": f"#/$defs/{op}-params"}
    error = best_match(validator_for(schema)(schema).iter_errors(instance))
    return None if error is None else (("params", *error.path), error.message)


def test_every_compute_op_has_a_params_schema():
    defs = _packaged("config.schema.json")["$defs"]
    assert {f"{op}-params" for op in COMPUTE_OPS} == {d for d in defs if d.endswith("-params")}
    assert set(PARAMS) == set(COMPUTE_OPS)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(PARAMS)).flatmap(lambda op: st.tuples(st.just(op), PARAMS[op])))
def test_params_verdicts_match_jsonschema(op_and_instance):
    op, instance = op_and_instance
    try:
        validate("config.schema.json", "configuration", instance, f"#/$defs/{op}-params",
                 ("params",))
        found = None
    except SchemaViolation as exc:
        found = exc.path, exc.message
    assert found == _params_oracle(op, instance)


@settings(max_examples=400, deadline=None)
@given(REPORTS)
def test_report_verdicts_match_jsonschema(instance):
    assert _interpreted("report.schema.json", instance) == _oracle("report.schema.json", instance)


def test_a_best_match_is_shallowest_then_last_sibling_then_first_keyword():
    """Three tie-breaks of ``best_match``: the root error beats deeper
    ones, ``type`` (listed first) beats ``minimum`` at one path, and the
    later array index beats the earlier."""
    def best(instance):
        found = _interpreted("config.schema.json", instance)
        assert found == _oracle("config.schema.json", instance)
        return found

    instance = {"seed": -1.5, "systems": [1, 2], "scenario": "compute", "extra": 0}
    assert len(list(_schema_errors(_packaged("config.schema.json"), instance))) == 5
    assert best(instance) == (
        (), "Additional properties are not allowed ('extra' was unexpected)"
    )
    del instance["extra"]
    assert best(instance) == (("seed",), "-1.5 is not of type 'integer'")
    instance["seed"] = 1
    assert best(instance) == (("systems", 1), "2 is not of type 'object'")


def test_bools_and_integral_floats_follow_json_types():
    """A bool is no integer and equals no number in ``enum``; an integral
    float is an integer."""
    base = {"scenario": "compute"}
    assert _interpreted("config.schema.json", {**base, "seed": 2.0}) is None
    assert _interpreted("config.schema.json", {**base, "seed": True}) == (
        ("seed",), "True is not of type 'integer'"
    )
    assert _interpreted("config.schema.json", {**base, "seed": 1, "bits": 1}) == (
        ("bits",), "1 is not of type 'boolean'"
    )
    # no packaged enum holds a number or a bool, so check equality directly
    schema = {"enum": [1, False, "x"]}
    for instance in (True, 0, 1.0, 0.0, False, "x", None):
        errors = validator_for(schema)(schema).iter_errors(instance)
        expected = [(tuple(e.path), e.message) for e in errors]
        assert list(_schema_errors(schema, instance)) == expected
    assert list(_schema_errors(schema, True)) == [((), "True is not one of [1, False, 'x']")]


@pytest.mark.parametrize("keyword", [
    {"maximum": 10},
    {"pattern": "^x"},
    {"additionalProperties": True},
    {"additionalProperties": {"type": "string"}},
    {"items": True},
    {"enum": [[1, 2]]},
    {"properties": {"x": {"type": "integer", "exclusiveMinimum": 0}}},
    {"items": {"anyOf": [{"type": "string"}]}},
    {"properties": {"x": {"$ref": "https://example.com/angle.json"}}},
    {"properties": {"x": {"$ref": "#/properties/y"}}, "$defs": {}},
    {"properties": {"x": {"$ref": "#/$defs/missing"}}, "$defs": {}},
    {"properties": {"x": {"$ref": "#/$defs/y", "type": "array"}}, "$defs": {"y": {}}},
    {"properties": {"x": {"prefixItems": [{"type": "integer"}], "items": {"type": "string"}}}},
])
def test_a_schema_keyword_not_enforced_is_refused(keyword):
    schema = {"$schema": "https://json-schema.org/draft/2020-12/schema",
              "title": "t", "description": "d", "type": "object", **keyword}
    validator_for(schema).check_schema(schema)
    with pytest.raises(NotImplementedError, match="is not enforced"):
        _check_keywords(schema)
