"""The declarative schema engine and every format declared with it."""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AUDIT_REPORT_SCHEMA,
    AUTOMATA_REPORT_SCHEMA,
    LINT_REPORT_SCHEMA,
    MARGINS_REPORT_SCHEMA,
)
from repro.core.monitor import Rule
from repro.errors import ReproError
from repro.fleet import FLEET_SCHEMA, StreamShard, fleet_rollup
from repro.obs import (
    BATCH_BENCH_SCHEMA,
    BENCH_SCHEMA,
    ONLINE_BENCH_SCHEMA,
    ROBUSTNESS_BENCH_SCHEMA,
    SNAPSHOT_SCHEMA,
)
from repro.schema import Field, SchemaError, require_valid, validate

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: Every committed artifact's schema tag -> its declaration.
#: ``repro.robustness.table1/v1`` has no declaration: its contract is
#: the byte-compared golden itself.
TAGGED = {
    "repro.obs/v1": SNAPSHOT_SCHEMA,
    "repro.bench.monitor/v1": BENCH_SCHEMA,
    "repro.bench.batch/v1": BATCH_BENCH_SCHEMA,
    "repro.bench.online/v1": ONLINE_BENCH_SCHEMA,
    "repro.bench.robustness/v1": ROBUSTNESS_BENCH_SCHEMA,
    "repro.automata/v1": AUTOMATA_REPORT_SCHEMA,
}
BYTE_COMPARED = {"repro.robustness.table1/v1"}


def _diagnostic(code, severity="info"):
    return {
        "code": code,
        "severity": severity,
        "subject": "rule r",
        "message": "m",
        "suggestion": "",
        "file": None,
        "line": 3,
        "column": None,
    }


def lint_report():
    return {
        "schema": "repro.lint/v1",
        "targets": [
            {
                "name": "a.rules",
                "diagnostics": [_diagnostic("SL403"), _diagnostic("SL101", "error")],
                "counts": {"error": 1, "warning": 0, "info": 1},
            }
        ],
        "counts": {"error": 1, "warning": 0, "info": 1},
    }


def audit_report():
    return {
        "schema": "repro.audit/v1",
        "targets": [
            {
                "name": "paper rules (strict)",
                "sections": {
                    "rules": [_diagnostic("AU101", "warning")],
                    "coverage": [_diagnostic("AU201")],
                    "plan": [],
                },
                "summary": {"rules": 7, "tests": 32, "dead_tests": 0},
                "counts": {"error": 0, "warning": 1, "info": 1},
            }
        ],
        "counts": {"error": 0, "warning": 1, "info": 1},
    }


def margins_report():
    return {
        "schema": "repro.margins/v1",
        "name": "paper rules",
        "period": 0.02,
        "threshold": 0.0,
        "rules": [
            {"rule": "rule5", "provably_safe": False, "lower": -12.0, "upper": "inf"}
        ],
        "cells": [
            {
                "test": "Ballista Velocity",
                "kind": "ballista",
                "targets": ["Velocity"],
                "rule": "rule5",
                "prunable": False,
                "doomed": False,
                "lower": "-inf",
                "upper": 3.5,
            }
        ],
        "seeds": [
            {"rank": 1, "test": "Ballista Velocity", "rule": "rule5",
             "lower": "-inf", "upper": 3.5}
        ],
        "summary": {"rules": 1, "cells": 1, "seeds": 1, "prunable_cells": 0},
    }


def fleet_rollup_doc():
    rules = [
        Rule.from_text("pos", "f", "x > 0"),
        Rule.from_text("mixed", "f", "(x > 0 and x <= 0 and y > 0) or (w <= 0)"),
    ]
    shard = StreamShard(
        "v1", rules, min_chunk_rows=10, robustness=True, observability=True
    )
    for i in range(30):
        for signal in ("x", "y", "w"):
            shard.feed(i * 0.02, signal, 1.0)
    shard.finish()
    return json.loads(json.dumps(fleet_rollup([shard])))


def committed(name):
    return json.loads((RESULTS / name).read_text(encoding="utf-8"))


#: One valid document per declared format.
DOCUMENTS = {
    "metrics": (SNAPSHOT_SCHEMA, lambda: committed("metrics_baseline.json")),
    "monitor": (BENCH_SCHEMA, lambda: committed("BENCH_monitor.json")),
    "batch": (BATCH_BENCH_SCHEMA, lambda: committed("BENCH_batch.json")),
    "online": (ONLINE_BENCH_SCHEMA, lambda: committed("BENCH_online.json")),
    "robustness": (
        ROBUSTNESS_BENCH_SCHEMA,
        lambda: committed("BENCH_robustness.json"),
    ),
    "automata": (AUTOMATA_REPORT_SCHEMA, lambda: committed("automata_paper.json")),
    "fleet": (FLEET_SCHEMA, fleet_rollup_doc),
    "lint": (LINT_REPORT_SCHEMA, lint_report),
    "audit": (AUDIT_REPORT_SCHEMA, audit_report),
    "margins": (MARGINS_REPORT_SCHEMA, margins_report),
}


@pytest.fixture(scope="module")
def documents():
    return {name: build() for name, (_, build) in DOCUMENTS.items()}


class TestEngine:
    def test_kinds_exclude_bool_from_numbers(self):
        assert validate(True, Field("int"))
        assert validate(False, Field("num"))
        assert validate(1, Field("bool"))
        assert validate(3, Field("int")) == []
        assert validate(3, Field("num")) == []

    def test_bounds_reject_nan(self):
        for field in (Field("num", gt=0), Field("num", ge=0), Field("num", le=1)):
            assert validate(math.nan, field)
        assert validate(math.nan, Field("num")) == []

    def test_nullable_and_optional(self):
        schema = Field(
            "object",
            {
                "a": Field("int", nullable=True),
                "b": Field("int", optional=True),
            },
        )
        assert validate({"a": None}, schema) == []
        assert validate({}, schema) == ["a is missing"]
        assert validate({"a": 1, "b": None}, schema) == [
            "b must be an integer, got None"
        ]

    def test_closed_object_names_the_unknown_key(self):
        schema = Field("object", {"a": Field("int", optional=True)}, closed=True)
        assert validate({"a": 1}, schema) == []
        assert validate({"z": 1}, schema) == ["document has unknown key 'z'"]

    def test_min_items_and_paths(self):
        schema = Field("object", {"xs": Field("array", of=Field("str"), min_items=2)})
        assert validate({"xs": ["a"]}, schema) == [
            "xs must have at least 2 item(s), got 1"
        ]
        assert validate({"xs": ["a", 1]}, schema) == [
            "xs[1] must be a string, got 1"
        ]

    def test_check_runs_only_on_sound_structure(self):
        calls = []

        def check(value, where):
            calls.append(value)
            return ["%s is odd" % where] if value["n"] % 2 else []

        schema = Field("object", {"n": Field("int")}, check=check)
        assert validate({"n": "x"}, schema) == ["n must be an integer, got 'x'"]
        assert calls == []
        assert validate({"n": 3}, schema) == ["document is odd"]

    def test_require_valid_raises_a_typed_error_with_the_title(self):
        schema = Field("object", {"n": Field("int")}, title="widget")
        with pytest.raises(SchemaError, match="invalid widget: n is missing"):
            require_valid({}, schema)
        with pytest.raises(ReproError):
            require_valid([], schema)
        with pytest.raises(ValueError):
            require_valid([], schema)
        document = {"n": 1}
        assert require_valid(document, schema) is document


class TestDeclaredFormats:
    @pytest.mark.parametrize("name", sorted(DOCUMENTS))
    def test_reference_document_is_valid(self, name, documents):
        schema, _ = DOCUMENTS[name]
        assert validate(documents[name], schema) == []

    @pytest.mark.parametrize(
        "name", sorted(path.name for path in RESULTS.glob("*.json"))
    )
    def test_every_committed_artifact_validates(self, name):
        document = committed(name)
        tag = document["schema"]
        if tag in BYTE_COMPARED:
            return
        assert tag in TAGGED, "no declaration for committed tag %r" % tag
        assert validate(document, TAGGED[tag]) == []

    @pytest.mark.parametrize("name", ["lint", "audit"])
    @pytest.mark.parametrize("severity", [[], {}])
    def test_unhashable_severity_is_rejected(self, name, severity, documents):
        schema, _ = DOCUMENTS[name]
        document = copy.deepcopy(documents[name])
        target = document["targets"][0]
        dump = (
            target["diagnostics"][0] if name == "lint" else target["sections"]["rules"][0]
        )
        dump["severity"] = severity
        problems = validate(document, schema)
        assert any("severity" in problem for problem in problems)

    @pytest.mark.parametrize("section", ["rules", "cells", "seeds"])
    def test_null_margin_bound_is_rejected(self, section, documents):
        document = copy.deepcopy(documents["margins"])
        document[section][0]["lower"] = None
        problems = validate(document, MARGINS_REPORT_SCHEMA)
        assert any("lower" in problem for problem in problems)

    @pytest.mark.parametrize(
        "name", ["monitor", "batch", "online", "robustness", "margins", "automata"]
    )
    def test_nan_period_is_rejected(self, name, documents):
        schema, _ = DOCUMENTS[name]
        document = dict(documents[name], period=math.nan)
        assert any("period" in problem for problem in validate(document, schema))

    def test_nan_positive_fields_are_rejected(self, documents):
        document = copy.deepcopy(documents["fleet"])
        document["streams"]["v1"]["decision_latency"] = math.nan
        assert validate(document, FLEET_SCHEMA)
        document = copy.deepcopy(documents["batch"])
        document["ratios"]["speedup"] = math.nan
        assert validate(document, BATCH_BENCH_SCHEMA)
        document = copy.deepcopy(documents["online"])
        document["runs"][0]["seconds"] = math.nan
        assert validate(document, ONLINE_BENCH_SCHEMA)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["", "inf", "-inf", "S", "V", "error", "ok", "x"])
)
_JSON = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


class TestValidatorNeverRaises:
    """Substitute any JSON value at any path of a valid document (or
    delete it): ``validate`` returns a list of strings and never raises."""

    @pytest.mark.parametrize("name", sorted(DOCUMENTS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutations(self, name, documents, data):
        schema, _ = DOCUMENTS[name]
        document = copy.deepcopy(documents[name])
        paths = list(_paths(document))
        path = paths[data.draw(st.integers(0, len(paths) - 1), label="path")]
        if path and data.draw(st.booleans(), label="delete"):
            parent = document
            for step in path[:-1]:
                parent = parent[step]
            del parent[path[-1]]
        else:
            value = data.draw(_JSON, label="value")
            if not path:
                document = value
            else:
                parent = document
                for step in path[:-1]:
                    parent = parent[step]
                parent[path[-1]] = value
        problems = validate(document, schema)
        assert isinstance(problems, list)
        assert all(isinstance(problem, str) for problem in problems)
