"""The lint and audit report JSON formats — documentation and validation.

``repro lint --format json`` emits one report object::

    {
      "schema": "repro.lint/v1",
      "targets": [
        {"name": "<paper rules | file path>",
         "diagnostics": [{"code": "SL101", "severity": "error",
                          "subject": "rule rule2", "message": "...",
                          "suggestion": "", "file": null,
                          "line": null, "column": null}, ...],
         "counts": {"error": 0, "warning": 1, "info": 2}},
        ...
      ],
      "counts": {"error": 0, "warning": 1, "info": 2}
    }

``repro audit --format json`` emits the companion ``repro.audit/v1``
object: the same target/counts envelope, but each target carries its
diagnostics split into the three analysis-family ``sections``
(``rules``/``coverage``/``plan``) plus an integer ``summary`` block::

    {
      "schema": "repro.audit/v1",
      "targets": [
        {"name": "paper rules (strict)",
         "sections": {"rules": [...], "coverage": [...], "plan": [...]},
         "summary": {"rules": 7, "signals": 17, "monitored_signals": 13,
                     "tests": 32, "dead_tests": 0, "prunable_cells": 0,
                     "machines": 0},
         "counts": {"error": 0, "warning": 6, "info": 9}},
        ...
      ],
      "counts": {"error": 0, "warning": 6, "info": 9}
    }

Each format is declared here (:data:`LINT_REPORT_SCHEMA`,
:data:`AUDIT_REPORT_SCHEMA`, :data:`MARGINS_REPORT_SCHEMA`,
:data:`AUTOMATA_REPORT_SCHEMA`) and checked by
:func:`repro.schema.validate` / :func:`repro.schema.require_valid` — the
CI ``lint-specs``, ``audit``, ``margins-smoke`` and ``automata-smoke``
jobs call the latter on the reports they produce.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    count_by_severity,
)
from repro.schema import (
    BOUND,
    COUNT,
    POSITIVE,
    SIGNAL_SETS,
    STRINGS,
    Field,
    ordered_bounds,
    partition,
    tag,
)

#: Identifier of the report format this module reads and writes.
SCHEMA_VERSION = "repro.lint/v1"

#: Identifier of the cross-artifact audit report format.
AUDIT_SCHEMA_VERSION = "repro.audit/v1"

#: Identifier of the static margin-prover report format.
MARGINS_SCHEMA_VERSION = "repro.margins/v1"

#: Identifier of the symbolic-automata report format.
AUTOMATA_SCHEMA_VERSION = "repro.automata/v1"

#: Section keys of an audit target, in order (one per analysis family).
AUDIT_SECTIONS = ("rules", "coverage", "plan")

_SEVERITIES = tuple(severity.value for severity in Severity)


def build_report(
    targets: Sequence[Tuple[str, Sequence[Diagnostic]]]
) -> Dict[str, object]:
    """Assemble the JSON report for ``(target name, diagnostics)`` pairs."""
    target_dumps = []
    totals = {severity: 0 for severity in _SEVERITIES}
    for name, diagnostics in targets:
        counts = count_by_severity(diagnostics)
        for severity, count in counts.items():
            totals[severity] += count
        target_dumps.append(
            {
                "name": name,
                "diagnostics": [d.to_dict() for d in diagnostics],
                "counts": counts,
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "targets": target_dumps,
        "counts": totals,
    }


def _diagnostic(prefix: str) -> Field:
    def code_check(code: Any, where: str) -> List[str]:
        if code.startswith(prefix):
            return []
        return ["%s %r is not a %s code" % (where, code, prefix)]

    text = Field("str")
    nullable_int = Field("int", nullable=True, optional=True)
    return Field(
        "object",
        {
            "code": Field("str", check=code_check),
            "severity": Field("str", enum=_SEVERITIES),
            "subject": text,
            "message": text,
            "suggestion": text,
            "file": Field("str", nullable=True, optional=True),
            "line": nullable_int,
            "column": nullable_int,
        },
    )


_COUNTS = Field("object", {severity: COUNT for severity in _SEVERITIES})


def _report_counts(report: Any, where: str) -> List[str]:
    problems = []
    for severity in _SEVERITIES:
        total = sum(target["counts"][severity] for target in report["targets"])
        if report["counts"][severity] != total:
            problems.append(
                "report declares %r %s findings but targets sum to %d"
                % (report["counts"][severity], severity, total)
            )
    return problems


def _report_schema(version: str, title: str, listing: str, **fields: Field) -> Field:
    """The shared lint/audit envelope around targets with ``fields``;
    ``listing`` names the one holding the diagnostics (an array, or
    arrays by section)."""

    def target_counts(target: Any, where: str) -> List[str]:
        listed = target[listing]
        if isinstance(listed, dict):
            listed = [dump for section in listed.values() for dump in section]
        seen = {severity: 0 for severity in _SEVERITIES}
        for dump in listed:
            seen[dump["severity"]] += 1
        return [
            "%s declares %r %s findings but lists %d"
            % (where, target["counts"][severity], severity, seen[severity])
            for severity in _SEVERITIES
            if target["counts"][severity] != seen[severity]
        ]

    target = Field(
        "object",
        dict(fields, name=Field("str"), counts=_COUNTS),
        check=target_counts,
    )
    return Field(
        "object",
        {
            "schema": tag(version),
            "targets": Field("array", of=target),
            "counts": _COUNTS,
        },
        check=_report_counts,
        title=title,
    )


#: The ``repro.lint/v1`` report (layout in the module docstring).
LINT_REPORT_SCHEMA = _report_schema(
    SCHEMA_VERSION,
    "lint report",
    "diagnostics",
    diagnostics=Field("array", of=_diagnostic("SL")),
)


# ----------------------------------------------------------------------
# The audit report format (repro.audit/v1)
# ----------------------------------------------------------------------


def build_audit_report(reports: Sequence) -> Dict[str, object]:
    """Assemble the JSON report for :class:`~repro.analysis.audit.
    AuditReport` objects (anything exposing ``to_dict()`` works)."""
    target_dumps = []
    totals = {severity: 0 for severity in _SEVERITIES}
    for report in reports:
        dump = report.to_dict()
        for severity, count in dump["counts"].items():
            totals[severity] += count
        target_dumps.append(dump)
    return {
        "schema": AUDIT_SCHEMA_VERSION,
        "targets": target_dumps,
        "counts": totals,
    }


_AUDIT_DIAGNOSTICS = Field("array", of=_diagnostic("AU"), optional=True)

#: The ``repro.audit/v1`` report (layout in the module docstring).
AUDIT_REPORT_SCHEMA = _report_schema(
    AUDIT_SCHEMA_VERSION,
    "audit report",
    "sections",
    sections=Field(
        "object", dict.fromkeys(AUDIT_SECTIONS, _AUDIT_DIAGNOSTICS), closed=True
    ),
    summary=Field("map", of=COUNT),
)


# ----------------------------------------------------------------------
# The margin-prover report format (repro.margins/v1)
# ----------------------------------------------------------------------
#
# ``repro margins --format json`` (and ``--seeds-out``) emit one report
# object: the single analysis target flattened into the envelope, with
# every bound serialized through ``repro.core.robustness.float_to_json``
# (infinities become the strings "inf" / "-inf"; NaN is illegal)::
#
#     {
#       "schema": "repro.margins/v1",
#       "name": "paper rules",
#       "period": 0.02, "threshold": 0.0,
#       "rules": [{"rule": "rule5", "provably_safe": false,
#                  "lower": -12.0, "upper": "inf"}, ...],
#       "cells": [{"test": "...", "kind": "ballista", "targets": [...],
#                  "rule": "rule5", "prunable": false, "doomed": false,
#                  "lower": "-inf", "upper": "inf"}, ...],
#       "seeds": [{"rank": 1, "test": "...", "rule": "...",
#                  "lower": "-inf", "upper": "inf"}, ...],
#       "summary": {"rules": 7, "provably_safe_rules": 0, "cells": 224,
#                   "prunable_cells": 0, "doomed_cells": 0, "seeds": 224}
#     }


def build_margins_report(report) -> Dict[str, object]:
    """Assemble the JSON report for one :class:`~repro.analysis.margins.
    MarginReport` (anything exposing ``to_dict()`` works)."""
    dump = dict(report.to_dict())
    dump["schema"] = MARGINS_SCHEMA_VERSION
    return dump


def _ranked(seeds: Any, where: str) -> List[str]:
    return [
        "seed #%d declares rank %r (seeds must be ranked 1..n in order)"
        % (expected, entry["rank"])
        for expected, entry in enumerate(seeds, start=1)
        if entry["rank"] != expected
    ]


def _summary(counted: Dict[str, int], summary: Dict[str, object]) -> List[str]:
    return [
        "summary declares %r %s but the report lists %d"
        % (summary.get(key), key, count)
        for key, count in counted.items()
        if summary.get(key) != count
    ]


def _margins_summary(report: Any, where: str) -> List[str]:
    counted = {key: len(report[key]) for key in ("rules", "cells", "seeds")}
    return _summary(counted, report["summary"])


def _bounded(fields: Dict[str, Field]) -> Field:
    return Field(
        "object", dict(fields, lower=BOUND, upper=BOUND), check=ordered_bounds
    )


_TEXT = Field("str")
_FLAG = Field("bool")

#: The ``repro.margins/v1`` report (layout in the comment above).
MARGINS_REPORT_SCHEMA = Field(
    "object",
    {
        "schema": tag(MARGINS_SCHEMA_VERSION),
        "name": _TEXT,
        "period": POSITIVE,
        "threshold": Field("num", ge=0.0),
        "rules": Field(
            "array", of=_bounded({"rule": _TEXT, "provably_safe": _FLAG})
        ),
        "cells": Field(
            "array",
            of=_bounded(
                {
                    "test": _TEXT,
                    "kind": _TEXT,
                    "rule": _TEXT,
                    "targets": STRINGS,
                    "prunable": _FLAG,
                    "doomed": _FLAG,
                }
            ),
        ),
        "seeds": Field(
            "array",
            of=_bounded({"rank": Field("int"), "test": _TEXT, "rule": _TEXT}),
            check=_ranked,
        ),
        "summary": Field("map", of=COUNT),
    },
    check=_margins_summary,
    title="margins report",
)


# ----------------------------------------------------------------------
# The symbolic-automata report format (repro.automata/v1)
# ----------------------------------------------------------------------
#
# ``repro automata --format json`` emits one report object — the single
# analysis target flattened into the envelope like ``repro.margins/v1``::
#
#     {
#       "schema": "repro.automata/v1",
#       "name": "paper rules (strict)",
#       "period": 0.02,
#       "rules": [{"rule": "rule2", "name": "...", "status": "ok",
#                  "reason": "", "class": "bounded", "safety": true,
#                  "co_safety": true, "horizon_rows": 1,
#                  "monitor_horizon_rows": 1, "states": 3, "letters": 4,
#                  "atoms": ["BrakeRequested", "RequestedDecel <= 0"],
#                  "satisfiable": "yes", "falsifiable": "yes",
#                  "observability": {"referenced": [...],
#                                    "required": [...],
#                                    "droppable": [...]}}, ...],
#       "summary": {"rules": 7, "bounded": 7, "safety": 0,
#                   "co-safety": 0, "neither": 0, "unsupported": 0}
#     }
#
# ``status`` is "ok" | "unsupported" | "budget"; every certificate field
# ("class" through "observability") is null for a non-"ok" entry.

_AUTOMATA_STATUSES = ("ok", "unsupported", "budget")
_AUTOMATA_CLASSES = ("bounded", "safety", "co-safety", "neither")
_TRI_STATE = ("yes", "no", "unknown")
_AUTOMATA_SUMMARY_KEYS = (
    "rules", "bounded", "safety", "co-safety", "neither", "unsupported",
)


def build_automata_report(report) -> Dict[str, object]:
    """Assemble the JSON report for one :class:`~repro.analysis.automata.
    AutomataReport` (anything exposing ``to_dict()`` works)."""
    dump = dict(report.to_dict())
    dump["schema"] = AUTOMATA_SCHEMA_VERSION
    return dump


def _compiled(entry: Any, where: str) -> List[str]:
    """Certificate fields are present exactly when the rule compiled."""
    if entry["status"] == "ok":
        return [
            "%s is compiled but has no %r" % (where, key)
            for key in (
                "class", "safety", "co_safety", "states", "letters",
                "observability",
            )
            if entry.get(key) is None
        ]
    return [
        "%s is not compiled but declares %s" % (where, what)
        for key, what in (("class", "a class"), ("observability", "observability"))
        if entry.get(key) is not None
    ]


def _automata_summary(report: Any, where: str) -> List[str]:
    counted = {key: 0 for key in _AUTOMATA_SUMMARY_KEYS}
    counted["rules"] = len(report["rules"])
    for entry in report["rules"]:
        if entry["status"] != "ok":
            counted["unsupported"] += 1
        else:
            counted[entry["class"]] += 1
    return _summary(counted, report["summary"])


def _certificate(kind: str, **constraints: Any) -> Field:
    return Field(kind, nullable=True, optional=True, **constraints)


_TRI = Field("str", enum=_TRI_STATE)

#: The ``repro.automata/v1`` report (layout in the comment above).
AUTOMATA_REPORT_SCHEMA = Field(
    "object",
    {
        "schema": tag(AUTOMATA_SCHEMA_VERSION),
        "name": _TEXT,
        "period": POSITIVE,
        "rules": Field(
            "array",
            of=Field(
                "object",
                {
                    "rule": _TEXT,
                    "name": _TEXT,
                    "reason": _TEXT,
                    "status": Field("str", enum=_AUTOMATA_STATUSES),
                    "class": _certificate("str", enum=_AUTOMATA_CLASSES),
                    "safety": _certificate("bool"),
                    "co_safety": _certificate("bool"),
                    "horizon_rows": _certificate("int", ge=0),
                    "monitor_horizon_rows": _certificate("int", ge=0),
                    "states": _certificate("int", gt=0),
                    "letters": _certificate("int", gt=0),
                    "satisfiable": _TRI,
                    "falsifiable": _TRI,
                    "atoms": STRINGS,
                    "observability": Field(
                        "object",
                        SIGNAL_SETS,
                        nullable=True,
                        optional=True,
                        check=partition,
                    ),
                },
                check=_compiled,
            ),
        ),
        "summary": Field("map", of=COUNT),
    },
    check=_automata_summary,
    title="automata report",
)
