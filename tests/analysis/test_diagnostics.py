"""Diagnostic objects, the code catalog, and the report schema."""

import pytest

from repro.analysis import (
    CATALOG,
    LINT_REPORT_SCHEMA,
    SCHEMA_VERSION,
    Diagnostic,
    Severity,
    build_report,
    count_by_severity,
    has_errors,
    make_diagnostic,
    sort_diagnostics,
)
from repro.schema import require_valid, validate


def diag(code="SL101", severity=Severity.ERROR, subject="rule r", message="m"):
    return Diagnostic(
        code=code, severity=severity, subject=subject, message=message
    )


class TestDiagnostic:
    def test_format_contains_all_parts(self):
        d = Diagnostic(
            code="SL101",
            severity=Severity.ERROR,
            subject="rule r1",
            message="bad signal",
            suggestion="fix it",
        )
        text = d.format()
        assert "SL101" in text
        assert "error" in text
        assert "[rule r1]" in text
        assert "bad signal" in text
        assert "(fix it)" in text

    def test_location_prefix_with_origin(self):
        d = diag().with_origin("spec.rules", 7)
        assert d.format().startswith("spec.rules:7:")
        assert d.to_dict()["file"] == "spec.rules"
        assert d.to_dict()["line"] == 7

    def test_no_location_without_origin(self):
        d = diag()
        assert d.to_dict()["file"] is None
        assert not d.format().startswith(":")

    def test_severity_ranks_order(self):
        assert Severity.ERROR.rank > Severity.WARNING.rank > Severity.INFO.rank

    def test_sort_most_severe_first(self):
        ordered = sort_diagnostics(
            [
                diag(code="SL403", severity=Severity.INFO),
                diag(code="SL101", severity=Severity.ERROR),
                diag(code="SL501", severity=Severity.WARNING),
            ]
        )
        assert [d.severity for d in ordered] == [
            Severity.ERROR,
            Severity.WARNING,
            Severity.INFO,
        ]

    def test_counts_and_has_errors(self):
        diagnostics = [
            diag(severity=Severity.WARNING),
            diag(severity=Severity.WARNING),
            diag(severity=Severity.INFO),
        ]
        assert count_by_severity(diagnostics) == {
            "error": 0,
            "warning": 2,
            "info": 1,
        }
        assert not has_errors(diagnostics)
        assert has_errors(diagnostics + [diag(severity=Severity.ERROR)])


class TestCatalog:
    def test_every_entry_keyed_by_its_code(self):
        for code, entry in CATALOG.items():
            assert entry.code == code
            assert code.startswith(("SL", "AU"))
            assert entry.title
            assert entry.meaning

    def test_make_diagnostic_pulls_catalog_severity(self):
        d = make_diagnostic("SL101", "rule r", "msg")
        assert d.severity is Severity.ERROR
        assert make_diagnostic("SL501", "rule r", "m").severity is Severity.WARNING
        assert make_diagnostic("SL403", "rule r", "m").severity is Severity.INFO

    def test_unknown_code_rejected(self):
        with pytest.raises(KeyError):
            make_diagnostic("SL999", "rule r", "msg")

    def test_catalog_documented_in_design(self):
        # The DESIGN.md catalog table must list every shipped code.
        from pathlib import Path

        design = (
            Path(__file__).resolve().parent.parent.parent / "DESIGN.md"
        ).read_text(encoding="utf-8")
        for code in CATALOG:
            assert code in design, "%s missing from DESIGN.md catalog" % code


class TestReportSchema:
    def test_round_trip_valid(self):
        report = build_report(
            [
                ("a.rules", [diag(), diag(severity=Severity.INFO)]),
                ("b.rules", []),
            ]
        )
        assert report["schema"] == SCHEMA_VERSION
        assert validate(report, LINT_REPORT_SCHEMA) == []
        assert require_valid(report, LINT_REPORT_SCHEMA) is report
        assert report["counts"] == {"error": 1, "warning": 0, "info": 1}

    def test_bad_schema_version_rejected(self):
        report = build_report([("a.rules", [])])
        report["schema"] = "nope"
        assert any("schema" in p for p in validate(report, LINT_REPORT_SCHEMA))

    def test_count_mismatch_rejected(self):
        report = build_report([("a.rules", [diag()])])
        report["targets"][0]["counts"]["error"] = 5
        problems = validate(report, LINT_REPORT_SCHEMA)
        assert any("declares" in p for p in problems)

    def test_require_valid_raises(self):
        with pytest.raises(ValueError):
            require_valid({"schema": SCHEMA_VERSION}, LINT_REPORT_SCHEMA)
