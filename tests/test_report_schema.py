"""The package's report validator against jsonschema's Draft 7 validator.

jsonschema is a test dependency only: every command checks its report with
the small validator in ``trialbench.report``. Here jsonschema is the oracle:
on mutants of real reports, and on hand-made schemas that pin the draft-07
rules most easily got wrong, both must accept exactly the same documents.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

from trialbench import ReportSchemaError
from trialbench.cli import main
from trialbench.report import load_report_schema, validate_against, validate_report

from conftest import FIXTURE_CSV

SCHEMA = load_report_schema()
DRAFT7 = Draft7Validator(SCHEMA)
COLUMNS = {"s": "S", "a": "A", "y": "Y", "x": ["X1"]}


def accepts(instance, schema=None) -> bool:
    try:
        if schema is None:
            validate_report(instance)
        else:
            validate_against(instance, schema)
    except ReportSchemaError as exc:
        assert "\n" not in str(exc)
        return False
    return True


def nodes(value, path=()):
    """(path, value) for ``value`` and everything nested in it."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from nodes(item, (*path, i))


def property_names(schema) -> set[str]:
    found = set()
    for _, value in nodes(schema):
        if isinstance(value, dict):
            found |= set(value.get("properties", {}))
    return found


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> list[dict]:
    """Reports of every kind, with each nullable block both present and null."""
    tmp = tmp_path_factory.mktemp("reports")
    data = {"input": str(FIXTURE_CSV), "schema": COLUMNS}
    simulation = {"scenario": "D1", "reps": 4, "n": [300, 300], "seed": 6}
    runs = [
        ("analyze", {**data, "bootstrap": 20, "seed": 3}),
        (
            "analyze",
            {**data, "estimators": ["phi"], "arms": [1], "restriction": False, "overlap": False},
        ),
        ("simulate", simulation),
        ("simulate", {**simulation, "estimators": ["psi"], "arms": [0], "restriction": False}),
        ("validate", data),
    ]
    found = []
    for i, (command, payload) in enumerate(runs):
        output = tmp / f"report{i}.json"
        config = tmp / f"config{i}.json"
        config.write_text(json.dumps({**payload, "output": str(output)}))
        assert main([command, str(config), "--quiet"]) == 0
        found.append(json.loads(output.read_text(encoding="utf-8")))
    return found


KEYS = sorted(property_names(SCHEMA) | {"0", "1", "2", "extra"})
SCALARS = st.sampled_from(
    [None, True, False, 0, 1, -1, 2, 0.0, 1.0, 0.5, 0.95, 1.5, -0.5, "", "x", "0", "1"]
    + ["phi", "psi", "pass", "fail", "analysis", "simulation", "validation", "trialbench"]
    + ["bootstrap-percentile", "importance", "consistent", "compatible"]
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6,
)


def near_misses(value) -> list:
    """Values that differ from ``value`` in JSON type alone: 1 against 1.0 or true."""
    if isinstance(value, (bool, int)):
        return [int(value), float(value), bool(value)]
    if isinstance(value, float) and value.is_integer():
        return [int(value), bool(value)]
    return [0, False, 0.0]


@settings(max_examples=300, database=None, deadline=None)
@given(data=st.data())
def test_validator_accepts_exactly_what_draft7_accepts(reports, data):
    report = data.draw(st.sampled_from(reports), label="report")
    mutant = copy.deepcopy(report)
    found = list(nodes(mutant))
    # A replacement is a fresh JSON value, a copy of any part of any report,
    # or the value it replaces in another JSON type.
    others = [value for r in reports for _, value in nodes(r)]
    value = copy.deepcopy(data.draw(VALUES | st.sampled_from(others), label="value"))
    action = data.draw(st.sampled_from(["replace", "retype", "delete", "add"]), label="action")
    if action == "add":
        containers = [v for _, v in found if isinstance(v, (dict, list))]
        container = data.draw(st.sampled_from(containers), label="container")
        if isinstance(container, dict):
            container[data.draw(st.sampled_from(KEYS), label="key")] = value
        else:
            container.append(value)
    else:
        path = data.draw(st.sampled_from([p for p, _ in found if p]), label="path")
        parent = mutant
        for part in path[:-1]:
            parent = parent[part]
        if action == "delete":
            del parent[path[-1]]
        elif action == "retype":
            retyped = st.sampled_from(near_misses(parent[path[-1]]))
            parent[path[-1]] = data.draw(retyped, label="retyped")
        else:
            parent[path[-1]] = value
    assert accepts(mutant) == DRAFT7.is_valid(mutant)


def test_reports_of_every_kind_are_valid(reports):
    for report in reports:
        assert DRAFT7.is_valid(report)
        validate_report(report)


def test_shipped_schema_is_a_valid_draft7_schema():
    Draft7Validator.check_schema(SCHEMA)


DEFINITIONS = {"number": {"type": "number"}}


@pytest.mark.parametrize(
    "schema, instance",
    [
        # 1.0 is an integer; 1.5 and true are not.
        ({"type": "integer"}, 1.0),
        ({"type": "integer"}, 1.5),
        ({"type": "integer"}, True),
        ({"type": ["integer", "null"]}, None),
        ({"type": "number"}, False),
        # true never equals 1, in enum or const, at any depth; 1.0 does.
        ({"enum": [0, 1]}, True),
        ({"enum": [0, 1]}, 1.0),
        ({"const": 1}, True),
        ({"const": True}, 1),
        ({"const": [1, {"a": True}]}, [1.0, {"a": True}]),
        ({"const": [1, {"a": True}]}, [1, {"a": 1}]),
        # oneOf means exactly one alternative.
        ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1),
        ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1.5),
        ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, "1"),
        # Bounds bind numbers only.
        ({"exclusiveMinimum": 0, "exclusiveMaximum": 1}, 0),
        ({"exclusiveMinimum": 0, "exclusiveMaximum": 1}, 1),
        ({"exclusiveMinimum": 0, "exclusiveMaximum": 1}, 0.5),
        ({"exclusiveMinimum": 0, "exclusiveMaximum": 1}, "2"),
        ({"exclusiveMinimum": 0, "exclusiveMaximum": 1}, True),
        # Draft 7 ignores the keywords beside a $ref.
        ({"definitions": DEFINITIONS, "$ref": "#/definitions/number", "type": "string"}, 1),
        ({"definitions": DEFINITIONS, "items": {"$ref": "#/definitions/number"}}, [1, "x"]),
        ({"propertyNames": {"enum": ["a"]}, "additionalProperties": {"type": "string"}}, {"a": "x"}),
        ({"propertyNames": {"enum": ["a"]}}, {"b": 1}),
        ({"properties": {"a": {"type": "string"}}, "additionalProperties": False}, {"a": "x", "b": 1}),
        ({"required": ["a"], "properties": {"a": False}}, {"a": 1}),
        ({"required": ["a"]}, []),
    ],
)
def test_draft7_rules_match_jsonschema(schema, instance):
    assert accepts(instance, schema) == Draft7Validator(schema).is_valid(instance)


@pytest.mark.parametrize(
    "schema, instance",
    [
        ({"minimum": 0}, 5),
        ({"properties": {"a": {"maxLength": 2}}}, {"a": "abc"}),
        ({"type": "object", "patternProperties": {"^x": {"type": "number"}}}, {}),
        ({"$ref": "other.json#/definitions/x"}, 1),
        ({"items": [{"type": "number"}]}, [1]),
    ],
)
def test_a_keyword_the_validator_lacks_raises(schema, instance):
    with pytest.raises(ValueError):
        validate_against(instance, schema)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("metadata", "version"), None, 'report.metadata: missing required property "version"'),
        (("metadata", "extra"), 1, "report.metadata.extra: not allowed"),
        (
            ("estimates", "phi", "1", "bootstrap", "used"),
            2.5,
            "report.estimates.phi.1.bootstrap.used: not of type integer",
        ),
        (("estimates", "phi", "2"), {}, 'report.estimates.phi.2: property name not one of ["0", "1"]'),
    ],
)
def test_error_names_the_path_and_the_rule(reports, path, value, message):
    # Of a oneOf's alternatives, the one that got deepest into the report names the error.
    report = copy.deepcopy(reports[0])
    parent = report
    for part in path[:-1]:
        parent = parent[part]
    if value is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with pytest.raises(ReportSchemaError) as exc:
        validate_report(report)
    assert str(exc.value) == message
