"""Command-line interface."""

import json

import pytest

from repro.cli import main
from repro.obs import SNAPSHOT_SCHEMA
from repro.schema import require_valid, validate


class TestRulesCommand:
    def test_lists_all_rules(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("rule0", "rule3", "rule6"):
            assert rule_id in out

    def test_relaxed_flag_shows_filters(self, capsys):
        assert main(["--", "rules"][1:] + ["--relaxed"]) == 0
        out = capsys.readouterr().out
        assert "filter:" in out


class TestSimulateAndCheck:
    def test_simulate_writes_trace(self, tmp_path, capsys):
        out_file = tmp_path / "trace.csv"
        code = main(
            ["simulate", "steady_follow", "--duration", "12", "--out", str(out_file)]
        )
        assert code == 0
        assert out_file.exists()
        assert "simulated" in capsys.readouterr().out

    def test_check_passes_on_nominal_trace(self, tmp_path, capsys):
        out_file = tmp_path / "trace.csv"
        main(["simulate", "steady_follow", "--duration", "12", "--out", str(out_file)])
        capsys.readouterr()
        code = main(["check", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "warp_drive"])


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "repro-oracle" in capsys.readouterr().out


class TestOnlineCommand:
    def test_online_streams_and_reports(self, tmp_path, capsys):
        out_file = tmp_path / "trace.csv"
        main(["simulate", "steady_follow", "--duration", "12", "--out", str(out_file)])
        capsys.readouterr()
        code = main(["online", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "streaming" in out
        assert "rule0" in out


class TestRulesExport:
    def test_export_and_recheck(self, tmp_path, capsys):
        rules_file = tmp_path / "paper.rules"
        assert main(["rules", "--export", str(rules_file)]) == 0
        assert rules_file.exists()
        trace_file = tmp_path / "t.csv"
        main(["simulate", "steady_follow", "--duration", "10", "--out", str(trace_file)])
        capsys.readouterr()
        assert main(["check", str(trace_file), "--rules", str(rules_file)]) == 0


class TestLintCommand:
    BAD_SPEC = "[rule broken]\nformula = Velocty > 10\n"
    WARN_SPEC = "[rule warned]\nformula = delta(Velocity) < 10\n"

    def test_paper_rules_lint_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "paper rules (strict)" in out
        assert "0 error(s)" in out

    def test_relaxed_paper_rules_lint_clean(self, capsys):
        assert main(["lint", "--relaxed"]) == 0
        assert "paper rules (relaxed)" in capsys.readouterr().out

    def test_error_findings_set_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.rules"
        path.write_text(self.BAD_SPEC, encoding="utf-8")
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "SL101" in out
        assert "Velocty" in out
        assert "lint failed" in out

    def test_warnings_alone_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "warn.rules"
        path.write_text(self.WARN_SPEC, encoding="utf-8")
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "SL501" in out

    def test_diagnostics_point_at_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.rules"
        path.write_text(self.BAD_SPEC, encoding="utf-8")
        main(["lint", str(path)])
        assert "%s:1:" % path in capsys.readouterr().out

    def test_json_report_is_schema_valid(self, tmp_path, capsys):
        from repro.analysis import LINT_REPORT_SCHEMA

        path = tmp_path / "bad.rules"
        path.write_text(self.BAD_SPEC, encoding="utf-8")
        code = main(["lint", str(path), "--format", "json"])
        report = require_valid(
            json.loads(capsys.readouterr().out), LINT_REPORT_SCHEMA
        )
        assert code == 1
        assert report["counts"]["error"] == 1
        assert report["targets"][0]["name"] == str(path)

    def test_multiple_files_aggregate(self, tmp_path, capsys):
        good = tmp_path / "good.rules"
        good.write_text(
            "[rule g]\nformula = Velocity > 10\nsettle = 500ms\n",
            encoding="utf-8",
        )
        bad = tmp_path / "bad.rules"
        bad.write_text(self.BAD_SPEC, encoding="utf-8")
        code = main(["lint", str(good), str(bad), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert len(report["targets"]) == 2

    def test_unparseable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "mangled.rules"
        path.write_text("formula = x > 0\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(path)])
        assert excinfo.value.code == 2

    def test_missing_file_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tmp_path / "nope.rules")])
        assert excinfo.value.code == 2

    def test_no_dbc_disables_signal_checks(self, tmp_path, capsys):
        path = tmp_path / "bad.rules"
        path.write_text(self.BAD_SPEC, encoding="utf-8")
        assert main(["lint", str(path), "--no-dbc"]) == 0
        assert "SL101" not in capsys.readouterr().out

    def test_example_rules_files_lint_clean(self, capsys):
        from pathlib import Path

        examples = Path(__file__).resolve().parent.parent / "examples"
        files = sorted(str(p) for p in examples.glob("*.rules"))
        assert len(files) >= 2
        assert main(["lint"] + files) == 0


class TestOnlineCustomRules:
    def test_online_with_custom_rules_file(self, tmp_path, capsys):
        rules_file = tmp_path / "paper.rules"
        assert main(["rules", "--export", str(rules_file)]) == 0
        trace_file = tmp_path / "t.csv"
        main(["simulate", "steady_follow", "--duration", "10",
              "--out", str(trace_file)])
        capsys.readouterr()
        code = main(["online", str(trace_file), "--rules", str(rules_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "streaming" in out


#: Short campaign knobs so table1 smoke runs stay fast.
FAST_TABLE1 = ["--hold", "0.5", "--gap", "0.25", "--settle", "3"]


class TestTable1Command:
    def test_limit_and_out_write_table(self, tmp_path, capsys):
        out_file = tmp_path / "table1.txt"
        code = main(
            ["table1", "--seed", "11", "--limit", "2", "--out", str(out_file)]
            + FAST_TABLE1
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Random Velocity" in out
        assert "shape checks" in out
        text = out_file.read_text()
        assert "FAULT INJECTION RESULTS" in text
        assert "Random TargetRange" in text

    def test_parallel_matches_sequential_output(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.txt"
        par_file = tmp_path / "par.txt"
        argv = ["table1", "--seed", "11", "--limit", "3"] + FAST_TABLE1
        assert main(argv + ["--out", str(seq_file)]) == 0
        assert main(argv + ["--jobs", "2", "--out", str(par_file)]) == 0
        capsys.readouterr()
        assert par_file.read_bytes() == seq_file.read_bytes()

    def test_strict_fails_on_rejected_injections(self, capsys):
        # Random SelHeadway draws out-of-range enum values that the HIL
        # profile vetoes, so a strict run over the single-signal rows
        # must exit nonzero and say why.
        argv = ["table1", "--seed", "11", "--quick", "--limit", "8",
                "--strict"] + FAST_TABLE1
        assert main(argv) == 1
        assert "strict mode" in capsys.readouterr().out

    def test_vehicle_profile_admits_enums_so_strict_passes(self, capsys):
        argv = ["table1", "--seed", "11", "--quick", "--limit", "8",
                "--strict", "--profile", "vehicle"] + FAST_TABLE1
        assert main(argv) == 0
        capsys.readouterr()


class TestStreamDiscipline:
    """Progress goes to stderr; piped stdout carries only the results."""

    def test_table1_progress_on_stderr_table_on_stdout(self, tmp_path, capsys):
        out_file = tmp_path / "t.txt"
        argv = ["table1", "--seed", "11", "--limit", "2",
                "--out", str(out_file)] + FAST_TABLE1
        assert main(argv) == 0
        captured = capsys.readouterr()
        # Progress rows and the file notice stream to stderr...
        assert "Random Velocity" in captured.err
        assert "table written to" in captured.err
        # ...while stdout is exactly the table + shape summary.
        assert "table written to" not in captured.out
        assert captured.out.strip() == out_file.read_text().strip()

    def test_reproduce_progress_on_stderr(self, capsys, monkeypatch):
        import repro.testing.reproducer as reproducer

        # Stub the heavy campaign: this test is about the streams only.
        def fake_reproduce(seed, quick, progress, jobs):
            progress("table1", "Random Velocity")

            class Result:
                ok = True

                def report(self):
                    return "REPRODUCTION REPORT (stub)"

            return Result()

        monkeypatch.setattr(reproducer, "reproduce", fake_reproduce)
        assert main(["reproduce", "--quick"]) == 0
        captured = capsys.readouterr()
        assert "[table1] Random Velocity" in captured.err
        assert "[table1]" not in captured.out
        assert "REPRODUCTION REPORT" in captured.out


class TestMetricsOut:
    def test_table1_metrics_snapshot_is_schema_valid(self, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.json"
        argv = ["table1", "--seed", "11", "--limit", "2",
                "--metrics-out", str(metrics_file)] + FAST_TABLE1
        assert main(argv) == 0
        captured = capsys.readouterr()
        snapshot = json.loads(metrics_file.read_text())
        assert validate(snapshot, SNAPSHOT_SCHEMA) == []
        assert snapshot["counters"]["campaign.tests"] == 2
        assert any(
            name.startswith("monitor.rule.") for name in snapshot["histograms"]
        )
        # The human summary goes to stderr, never stdout.
        assert "campaign.tests" in captured.err
        assert "campaign.tests" not in captured.out

    def test_parallel_metrics_match_and_letters_byte_identical(
        self, tmp_path, capsys
    ):
        """The acceptance criterion: a parallel metrics-on run emits a
        schema-valid snapshot merged across workers while its table
        stays byte-identical to a metrics-off sequential run."""
        plain_file = tmp_path / "plain.txt"
        metrics_table = tmp_path / "metered.txt"
        metrics_file = tmp_path / "metrics.json"
        argv = ["table1", "--seed", "11", "--limit", "3"] + FAST_TABLE1
        assert main(argv + ["--out", str(plain_file)]) == 0
        assert main(
            argv
            + ["--jobs", "4", "--out", str(metrics_table),
               "--metrics-out", str(metrics_file)]
        ) == 0
        capsys.readouterr()
        assert metrics_table.read_bytes() == plain_file.read_bytes()
        snapshot = json.loads(metrics_file.read_text())
        assert validate(snapshot, SNAPSHOT_SCHEMA) == []
        assert snapshot["counters"]["campaign.tests"] == 3
        assert snapshot["histograms"]["campaign.test.seconds"]["count"] == 3
        for phase in ("sim", "inject", "check"):
            assert "campaign.%s.seconds" % phase in snapshot["histograms"]

    def test_check_metrics_out(self, tmp_path, capsys):
        trace_file = tmp_path / "t.csv"
        metrics_file = tmp_path / "m.json"
        main(["simulate", "steady_follow", "--duration", "12",
              "--out", str(trace_file)])
        capsys.readouterr()
        assert main(
            ["check", str(trace_file), "--metrics-out", str(metrics_file)]
        ) == 0
        captured = capsys.readouterr()
        snapshot = json.loads(metrics_file.read_text())
        assert validate(snapshot, SNAPSHOT_SCHEMA) == []
        assert snapshot["counters"]["monitor.checks"] == 1
        assert any(
            name.startswith("eval.formula.") for name in snapshot["histograms"]
        )
        assert "metrics snapshot written" in captured.err
        assert "PASS" in captured.out


class TestDriveCommand:
    def test_drive_reports_all_scenarios(self, tmp_path, capsys):
        code = main(["drive", "--seed", "5", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0  # triage leaves the drive clean
        assert "vehicle:hills_cruise" in out
        assert (tmp_path / "vehicle_free_cruise.csv").exists()

class TestAuditCommand:
    def test_paper_rules_audit_clean_strict(self, capsys):
        # The acceptance bar: the paper artifacts pass a strict audit.
        assert main(["audit", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "paper rules (strict)" in out
        assert "0 error(s)" in out
        assert "summary:" in out

    def test_json_report_is_schema_valid(self, capsys):
        from repro.analysis import AUDIT_REPORT_SCHEMA

        assert main(["audit", "--format", "json", "--strict"]) == 0
        report = require_valid(
            json.loads(capsys.readouterr().out),
            AUDIT_REPORT_SCHEMA,
        )
        assert report["schema"] == "repro.audit/v1"
        assert report["counts"]["error"] == 0

    def test_unknown_profile_fails_strict(self, capsys):
        # AU401 is an error, so --strict must exit nonzero...
        assert main(["audit", "--strict", "--profile", "dspace"]) == 1
        assert "AU401" in capsys.readouterr().out
        # ...but without --strict the same findings only inform.
        assert main(["audit", "--profile", "dspace"]) == 0
        capsys.readouterr()

    def test_audit_spec_file(self, tmp_path, capsys):
        path = tmp_path / "one.rules"
        path.write_text(
            "[rule g]\nformula = Velocity > 10\nsettle = 500ms\n",
            encoding="utf-8",
        )
        assert main(["audit", str(path)]) == 0
        out = capsys.readouterr().out
        assert str(path) in out
        # A single-rule set leaves most signals unmonitored.
        assert "AU201" in out


class TestTable1Prune:
    def test_pruned_paper_table_is_byte_identical(self, tmp_path, capsys):
        # No Table I cell is statically dead, so --prune audit is a
        # pure no-op on the paper campaign — same bytes out.
        plain, pruned = tmp_path / "plain.txt", tmp_path / "pruned.txt"
        argv = ["table1", "--seed", "11", "--limit", "2"] + FAST_TABLE1
        assert main(argv + ["--out", str(plain)]) == 0
        assert main(argv + ["--prune", "audit", "--out", str(pruned)]) == 0
        capsys.readouterr()
        assert pruned.read_bytes() == plain.read_bytes()

    def test_prune_composes_with_jobs(self, tmp_path, capsys):
        plain, pruned = tmp_path / "plain.txt", tmp_path / "pruned.txt"
        argv = ["table1", "--seed", "11", "--limit", "2"] + FAST_TABLE1
        assert main(argv + ["--out", str(plain)]) == 0
        assert (
            main(
                argv
                + ["--prune", "audit", "--jobs", "2", "--out", str(pruned)]
            )
            == 0
        )
        capsys.readouterr()
        assert pruned.read_bytes() == plain.read_bytes()

    def test_margin_pruned_paper_table_is_byte_identical(
        self, tmp_path, capsys
    ):
        # Every paper rule's static lower bound is <= 0, so
        # --prune margins is a proven no-op on Table I — same bytes.
        plain, pruned = tmp_path / "plain.txt", tmp_path / "pruned.txt"
        argv = ["table1", "--seed", "11", "--limit", "2"] + FAST_TABLE1
        assert main(argv + ["--out", str(plain)]) == 0
        assert main(argv + ["--prune", "margins", "--out", str(pruned)]) == 0
        capsys.readouterr()
        assert pruned.read_bytes() == plain.read_bytes()


class TestMarginsCommand:
    def test_paper_rules_text_report(self, capsys):
        assert main(["margins"]) == 0
        out = capsys.readouterr().out
        assert "margins paper rules (strict)" in out
        assert "rule margins (nominal DBC ranges):" in out
        assert "top falsification seeds:" in out
        assert "summary: 7 rule(s) (0 provably safe)" in out

    def test_json_report_is_schema_valid(self, capsys):
        from repro.analysis import MARGINS_REPORT_SCHEMA

        assert main(["margins", "--format", "json"]) == 0
        report = require_valid(
            json.loads(capsys.readouterr().out),
            MARGINS_REPORT_SCHEMA,
        )
        assert report["schema"] == "repro.margins/v1"
        # No paper cell is prunable: every cell seeds falsification.
        assert report["summary"]["prunable_cells"] == 0
        assert report["summary"]["seeds"] == report["summary"]["cells"]

    def test_seeds_out_is_deterministic_and_ranked(self, tmp_path, capsys):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["margins", "--seeds-out", str(first)]) == 0
        assert main(["margins", "--seeds-out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        seeds = json.loads(first.read_text())
        assert [entry["rank"] for entry in seeds] == list(
            range(1, len(seeds) + 1)
        )
        assert {"rank", "test", "rule", "lower", "upper"} <= set(seeds[0])

    def test_threshold_must_be_non_negative(self, capsys):
        assert main(["margins", "--threshold", "-1"]) == 2
        capsys.readouterr()

    def test_margins_spec_file(self, tmp_path, capsys):
        path = tmp_path / "one.rules"
        path.write_text(
            "[rule safe]\nformula = Velocity < 500\n", encoding="utf-8"
        )
        assert main(["margins", str(path)]) == 0
        out = capsys.readouterr().out
        assert str(path) in out
        assert "provably safe" in out


class TestAutomataCommand:
    def test_paper_rules_text_report(self, capsys):
        assert main(["automata"]) == 0
        out = capsys.readouterr().out
        assert "automata paper rules (strict)" in out
        assert "0 neither" in out
        for rule_id in ("rule0", "rule3", "rule6"):
            assert rule_id in out

    def test_strict_paper_rules_exit_zero(self):
        # Every paper rule is monitorable, so --strict must not trip.
        assert main(["automata", "--strict"]) == 0

    def test_json_report_is_schema_valid(self, capsys):
        from repro.analysis import AUTOMATA_REPORT_SCHEMA

        assert main(["automata", "--format", "json"]) == 0
        report = require_valid(
            json.loads(capsys.readouterr().out),
            AUTOMATA_REPORT_SCHEMA,
        )
        assert report["summary"]["bounded"] == 7

    def test_json_out_matches_golden_fixture(self, tmp_path, capsys):
        import os

        golden = os.path.join(
            os.path.dirname(__file__), "..", "results", "automata_paper.json"
        )
        out_file = tmp_path / "automata.json"
        code = main(
            ["automata", "--format", "json", "--out", str(out_file)]
        )
        capsys.readouterr()
        assert code == 0
        with open(golden, encoding="utf-8") as handle:
            assert out_file.read_text(encoding="utf-8") == handle.read()

    def test_dot_dir_writes_one_graph_per_rule(self, tmp_path, capsys):
        dot_dir = tmp_path / "dots"
        assert main(["automata", "--dot-dir", str(dot_dir)]) == 0
        capsys.readouterr()
        files = sorted(path.name for path in dot_dir.iterdir())
        assert files == ["rule%d.dot" % i for i in range(7)]
        for path in dot_dir.iterdir():
            assert path.read_text(encoding="utf-8").startswith("digraph")

    def test_rules_file_target(self, tmp_path, capsys):
        path = tmp_path / "custom.rules"
        path.write_text(
            "[rule custom]\nformula = always[0, 100ms] Velocity >= 0\n",
            encoding="utf-8",
        )
        assert main(["automata", str(path)]) == 0
        out = capsys.readouterr().out
        assert str(path) in out
        assert "custom: bounded" in out

    def test_unsupported_rules_do_not_trip_strict(self, tmp_path, capsys):
        # Past-time operators fall outside the automata fragment; they
        # report "unsupported", which is not a monitorability failure.
        path = tmp_path / "past.rules"
        path.write_text(
            "[rule past]\nformula = once[0, 100ms] BrakeRequested\n",
            encoding="utf-8",
        )
        assert main(["automata", str(path), "--strict"]) == 0
        assert "unsupported" in capsys.readouterr().out

    def test_max_states_must_be_positive(self, capsys):
        assert main(["automata", "--max-states", "0"]) == 2
        assert "--max-states" in capsys.readouterr().err

    def test_malformed_file_is_a_usage_error(self, tmp_path):
        path = tmp_path / "bad.rules"
        path.write_text("[rule broken\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["automata", str(path)])
        assert excinfo.value.code == 2


class TestFleetCommand:
    def _write_logs(self, tmp_path, capsys):
        log_dir = tmp_path / "logs"
        log_dir.mkdir()
        for scenario in ("steady_follow", "cut_in"):
            main(
                [
                    "simulate", scenario, "--duration", "10",
                    "--out", str(log_dir / ("%s.csv" % scenario)),
                ]
            )
        capsys.readouterr()
        return log_dir

    def test_replay_writes_validated_rollup(self, tmp_path, capsys):
        from repro.fleet import FLEET_SCHEMA

        log_dir = self._write_logs(tmp_path, capsys)
        rollup_file = tmp_path / "rollup.json"
        code = main(
            [
                "fleet", "replay", str(log_dir),
                "--streams", "4",
                "--rollup-out", str(rollup_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet: 4 stream(s)" in out
        rollup = json.loads(rollup_file.read_text())
        assert validate(rollup, FLEET_SCHEMA) == []
        assert rollup["fleet"]["streams"] == 4
        assert all(e["chunks"] > 0 for e in rollup["streams"].values())

    def test_observability_flag_attaches_bandwidth_hints(
        self, tmp_path, capsys
    ):
        from repro.fleet import FLEET_SCHEMA

        log_dir = self._write_logs(tmp_path, capsys)
        rollup_file = tmp_path / "rollup.json"
        code = main(
            [
                "fleet", "replay", str(log_dir),
                "--streams", "2",
                "--observability",
                "--rollup-out", str(rollup_file),
            ]
        )
        capsys.readouterr()
        assert code == 0
        rollup = json.loads(rollup_file.read_text())
        assert validate(rollup, FLEET_SCHEMA) == []
        for entry in rollup["streams"].values():
            assert entry["observability"] is not None
        fleet_block = rollup["fleet"]["observability"]
        # Every paper-rule signal is load-bearing: nothing droppable.
        assert fleet_block["droppable"] == []
        assert fleet_block["bandwidth_hint"] == 0.0

    def test_empty_directory_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "replay", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_bare_fleet_prints_help(self, capsys):
        assert main(["fleet"]) == 2
        assert "replay" in capsys.readouterr().out


class TestTraceCommands:
    def _pack_simulated(self, tmp_path, capsys, grid=None):
        csv = tmp_path / "trace.csv"
        main(["simulate", "steady_follow", "--duration", "12",
              "--out", str(csv)])
        capsys.readouterr()
        rtc = tmp_path / "trace.rtc"
        argv = ["trace", "pack", str(rtc), str(csv)]
        if grid is not None:
            argv += ["--grid", str(grid)]
        assert main(argv) == 0
        return rtc

    def test_pack_and_info_roundtrip(self, tmp_path, capsys):
        rtc = self._pack_simulated(tmp_path, capsys)
        assert "packed 1 trace(s)" in capsys.readouterr().out
        assert main(["trace", "info", str(rtc)]) == 0
        out = capsys.readouterr().out
        assert "1 trace(s)" in out
        assert "signal(s)" in out

    def test_pack_with_grid_reports_period(self, tmp_path, capsys):
        rtc = self._pack_simulated(tmp_path, capsys, grid=0.02)
        assert "grid period 0.02s" in capsys.readouterr().out
        assert main(["trace", "info", str(rtc), "--format", "json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert all(t["grid"]["period"] == 0.02 for t in info["traces"])

    def test_pack_drive_logs(self, tmp_path, capsys):
        rtc = tmp_path / "drive.rtc"
        assert main(["trace", "pack", str(rtc), "--drive", "--seed", "3"]) == 0
        assert "packed 6 trace(s)" in capsys.readouterr().out
        assert main(["trace", "info", str(rtc), "--format", "json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert len(info["traces"]) == 6

    def test_pack_nothing_is_a_usage_error(self, tmp_path, capsys):
        assert main(["trace", "pack", str(tmp_path / "x.rtc")]) == 2
        assert "nothing to pack" in capsys.readouterr().err

    def test_pack_unreadable_trace_rejected(self, tmp_path):
        missing = tmp_path / "ghost.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "pack", str(tmp_path / "x.rtc"), str(missing)])
        assert excinfo.value.code == 2

    def test_info_on_non_store_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.rtc"
        bogus.write_bytes(b"not a store at all")
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "info", str(bogus)])
        assert excinfo.value.code == 2

    def test_bare_trace_prints_help(self, capsys):
        assert main(["trace"]) == 2
        assert "pack" in capsys.readouterr().out


class TestTable1Backend:
    def test_columnar_backend_matches_per_trace(self, tmp_path, capsys):
        per_trace = tmp_path / "pt.txt"
        columnar = tmp_path / "col.txt"
        argv = ["table1", "--seed", "11", "--limit", "3"] + FAST_TABLE1
        assert main(argv + ["--out", str(per_trace)]) == 0
        assert main(
            argv + ["--backend", "columnar", "--out", str(columnar)]
        ) == 0
        capsys.readouterr()
        assert columnar.read_bytes() == per_trace.read_bytes()

    def test_columnar_backend_parallel_matches(self, tmp_path, capsys):
        sequential = tmp_path / "seq.txt"
        parallel = tmp_path / "par.txt"
        argv = ["table1", "--seed", "11", "--limit", "3",
                "--backend", "columnar"] + FAST_TABLE1
        assert main(argv + ["--out", str(sequential)]) == 0
        assert main(argv + ["--jobs", "2", "--out", str(parallel)]) == 0
        capsys.readouterr()
        assert parallel.read_bytes() == sequential.read_bytes()

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "--backend", "rowwise"])
