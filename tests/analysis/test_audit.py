"""Cross-artifact audit — prover, checks, schema, and golden output."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.analysis import (
    AUDIT_REPORT_SCHEMA,
    audit_rules,
    build_audit_report,
    contradicts,
    implies,
    negate,
    paper_plan,
)
from repro.analysis.audit import ACC_MODES, CampaignPlan
from repro.analysis.catalog import CATALOG
from repro.core.ast import Always, And, BoolConst, Eventually, Not, Or
from repro.core.monitor import Rule
from repro.core.parser import parse_formula
from repro.core.statemachine import StateMachine
from repro.rules.safety_rules import paper_rules
from repro.schema import require_valid, validate
from repro.testing.campaign import InjectionTest

GOLDEN_DIR = Path(__file__).parent


def fixture_rules():
    """A deliberately inconsistent rule set (see test_all_codes_fire)."""
    return [
        Rule.from_text("rA", "a", "Velocity >= 0"),
        Rule.from_text("rB", "b", "Velocity < 0"),
        Rule.from_text("rC", "c", "Velocity < 50"),
        Rule.from_text("rD", "d", "Velocity < 100"),
        Rule.from_text("rE", "e", "Velocity < 500"),
        Rule.from_text("rF", "f", "ACCSetSpeed < 30"),
        Rule.from_text("rG", "g", "in_state(acc, engaged) -> Velocity >= 0"),
        # rH is statically doomed (AU502): ACCSetSpeed is exogenous, so
        # no injection widens it past [0, 60] and the margin upper bound
        # stays at -5.  rI is a tight proof (AU503): margin >= 0.5 only.
        Rule.from_text("rH", "h", "ACCSetSpeed < -5"),
        Rule.from_text("rI", "i", "Velocity < 120.5"),
        # The AU6xx trio.  rJ's unbounded eventually has no finite
        # decision horizon (AU601); rK uses a past operator the automata
        # pass does not model (AU603); rL's first disjunct is NEVER
        # under the DBC ranges, so the automaton decides in one row
        # while future_reach makes the monitor buffer five (AU602).
        Rule("rJ", "j", Eventually(0.0, math.inf, parse_formula("TargetRange > 100"))),
        Rule.from_text("rK", "k", "once[0, 0.2] ServiceACC"),
        Rule.from_text(
            "rL",
            "l",
            "(always[0, 0.4] TargetRelVel > 500) or (TargetRelVel > 0)",
        ),
    ]


def fixture_machine():
    return StateMachine(
        "acc",
        states=("off", "standby", "engaged", "degraded"),
        initial="off",
        transitions=[
            ("off", "standby", "AccActive"),
            ("standby", "engaged", "ACCEnabled"),
        ],
    )


def fixture_plan():
    return CampaignPlan(
        tests=(
            InjectionTest("Random Bogus", "Random", ("Bogus",)),
            InjectionTest("Ballista SelHeadway", "Ballista", ("SelHeadway",)),
            InjectionTest(
                "Bitflips VehicleAhead", "Bitflips", ("VehicleAhead",)
            ),
            InjectionTest("Random ThrotPos", "Random", ("ThrotPos",)),
        ),
        profile="dspace",
        period=0.1,
    )


def fixture_report():
    return audit_rules(
        fixture_rules(),
        machines=[fixture_machine()],
        plan=fixture_plan(),
        target="inconsistent fixture",
    )


class TestProver:
    def c(self, text):
        return parse_formula(text)

    def test_structural_equality(self):
        assert implies(self.c("Velocity < 50"), self.c("Velocity < 50"))

    def test_comparison_entailment(self):
        assert implies(self.c("Velocity < 50"), self.c("Velocity < 100"))
        assert implies(self.c("Velocity < 50"), self.c("Velocity <= 50"))
        assert implies(self.c("Velocity > 5"), self.c("Velocity >= 5"))
        assert implies(self.c("Velocity == 3"), self.c("Velocity < 10"))
        assert not implies(self.c("Velocity < 100"), self.c("Velocity < 50"))
        assert not implies(self.c("Velocity < 50"), self.c("ThrotPos < 50"))

    def test_connectives(self):
        a = self.c("Velocity < 50 and ThrotPos > 0")
        assert implies(a, self.c("Velocity < 100"))
        assert implies(self.c("Velocity < 50"), self.c("Velocity < 50 or ThrotPos > 0"))
        assert implies(
            self.c("Velocity < 40 or Velocity < 30"), self.c("Velocity < 50")
        )
        assert not implies(
            self.c("Velocity < 40 or ThrotPos < 1"), self.c("Velocity < 50")
        )

    def test_implication_rewrites(self):
        gated = self.c("ACCEnabled -> Velocity < 50")
        assert implies(self.c("Velocity < 40"), gated)
        assert not implies(gated, self.c("Velocity < 50"))

    def test_temporal_monotonicity(self):
        p, q = self.c("Velocity < 50"), self.c("Velocity < 100")
        assert implies(Always(0, 10, p), Always(2, 5, q))
        assert not implies(Always(2, 5, p), Always(0, 10, p))
        assert implies(Eventually(2, 5, p), Eventually(0, 10, q))
        assert implies(Always(0, 10, p), q)  # window includes now
        assert implies(p, Eventually(0, 10, q))  # now witnesses it

    def test_negation_duals(self):
        p = self.c("Velocity < 50")
        assert negate(p) == self.c("Velocity >= 50")
        assert negate(Not(p)) == p
        assert negate(And(p, p)) == Or(negate(p), negate(p))
        assert negate(Always(0, 5, p)) == Eventually(0, 5, negate(p))
        assert negate(BoolConst(True)) == BoolConst(False)
        # Atoms without a classical dual stay wrapped.
        atom = self.c("in_state(acc, on)")
        assert negate(atom) == Not(atom)

    def test_contradiction(self):
        assert contradicts(self.c("Velocity >= 0"), self.c("Velocity < 0"))
        assert contradicts(self.c("Velocity < 10"), self.c("Velocity > 20"))
        assert not contradicts(self.c("Velocity < 10"), self.c("Velocity < 20"))


class TestPaperAudit:
    @pytest.fixture(scope="class")
    def report(self):
        return audit_rules(
            paper_rules(), plan=paper_plan(), target="paper rules (strict)"
        )

    def test_strict_clean(self, report):
        assert not report.failed
        assert report.counts()["error"] == 0

    def test_no_pruning_on_paper_plan(self, report):
        assert report.summary["prunable_cells"] == 0
        assert report.summary["dead_tests"] == 0
        assert report.summary["tests"] == 32

    def test_known_advisories(self, report):
        # The paper artifacts themselves are imperfect in documented
        # ways: overlapping rule3/rule4 coverage, unmonitored pedals,
        # no modal machine, degenerate Ballista rows, clipped flips.
        assert report.codes() == (
            "AU104",
            "AU201",
            "AU203",
            "AU301",
            "AU302",
        )

    def test_golden_text(self, report):
        golden = (GOLDEN_DIR / "golden_audit_paper.txt").read_text()
        assert report.format_text() + "\n" == golden


class TestFixtureAudit:
    @pytest.fixture(scope="class")
    def report(self):
        return fixture_report()

    def test_all_codes_fire(self, report):
        au_codes = tuple(
            sorted(code for code in CATALOG if code.startswith("AU"))
        )
        assert report.codes() == au_codes

    def test_strict_fails(self, report):
        assert report.failed

    def test_sections_route_by_family(self, report):
        # Margin findings (AU5xx) split by scope: rule-level AU501/AU503
        # join the rules section, per-cell AU502 joins the plan section.
        # Monitorability certificates (AU6xx) are rule-level by nature.
        rules_codes = {d.code for d in report.sections["rules"]}
        assert rules_codes
        assert all(
            code[:3] in ("AU1", "AU5", "AU6") for code in rules_codes
        )
        coverage_codes = {d.code for d in report.sections["coverage"]}
        assert coverage_codes
        assert all(code.startswith("AU2") for code in coverage_codes)
        plan_codes = {d.code for d in report.sections["plan"]}
        assert all(code[:3] in ("AU3", "AU4", "AU5") for code in plan_codes)

    def test_margin_findings(self, report):
        by_code = {}
        for diagnostic in report.diagnostics():
            by_code.setdefault(diagnostic.code, []).append(diagnostic)
        # rE (Velocity < 500) is comfortably unfalsifiable; rI is the
        # tight one (margin 0.5 <= epsilon), never both codes at once.
        assert [d.subject for d in by_code["AU501"]] == ["rule rE"]
        assert [d.subject for d in by_code["AU503"]] == ["rule rI"]
        # rH is doomed in every cell of every known-target test (the
        # unknown-target "Random Bogus" row is skipped).
        doomed = by_code["AU502"]
        assert len(doomed) == 3
        assert all("rH" in d.message for d in doomed)
        assert report.summary["doomed_cells"] == 3
        assert report.summary["provably_safe_rules"] == 2

    def test_golden_text(self, report):
        golden = (GOLDEN_DIR / "golden_audit_fixture.txt").read_text()
        assert report.format_text() + "\n" == golden

    def test_contradiction_names_both_rules(self, report):
        au101 = [d for d in report.diagnostics() if d.code == "AU101"]
        assert len(au101) == 1
        assert "rB" in au101[0].message
        assert au101[0].subject == "rule rA"

    def test_subsumption_direction(self, report):
        # The *weaker* rule is the finding's subject.
        subjects = {
            d.subject for d in report.diagnostics() if d.code == "AU102"
        }
        assert "rule rD" in subjects
        assert "rule rC" in subjects  # rB (< 0) is stronger than rC (< 50)


class TestSummary:
    def test_dead_test_counted(self, database):
        # Single exogenous-signal rule + a plan that never touches it:
        # every cell of the test is dead.
        plan = CampaignPlan(
            tests=(InjectionTest("Random Velocity", "Random", ("Velocity",)),)
        )
        report = audit_rules(
            [Rule.from_text("r", "r", "ACCSetSpeed < 30")],
            database=database,
            plan=plan,
        )
        assert report.summary["dead_tests"] == 1
        assert report.summary["prunable_cells"] == 1
        assert "AU304" in report.codes()
        assert "AU403" in report.codes()

    def test_acc_modes_constant(self):
        assert ACC_MODES == ("off", "standby", "engaged", "fault")


class TestAuditSchema:
    def test_round_trip(self):
        report = fixture_report()
        dump = build_audit_report([report])
        # Through JSON and back, then validated.
        parsed = json.loads(json.dumps(dump))
        assert require_valid(parsed, AUDIT_REPORT_SCHEMA) is parsed
        assert parsed["schema"] == "repro.audit/v1"
        assert parsed["counts"] == report.counts()

    def test_validator_rejects_wrong_schema(self):
        dump = build_audit_report([fixture_report()])
        dump["schema"] = "repro.lint/v1"
        assert any("schema" in p for p in validate(dump, AUDIT_REPORT_SCHEMA))

    def test_validator_rejects_sl_codes_in_sections(self):
        dump = build_audit_report([fixture_report()])
        dump["targets"][0]["sections"]["rules"][0]["code"] = "SL101"
        assert validate(dump, AUDIT_REPORT_SCHEMA)

    def test_validator_rejects_bad_counts(self):
        dump = build_audit_report([fixture_report()])
        dump["targets"][0]["counts"]["error"] += 1
        assert validate(dump, AUDIT_REPORT_SCHEMA)

    def test_validator_rejects_unknown_section(self):
        dump = build_audit_report([fixture_report()])
        dump["targets"][0]["sections"]["extras"] = []
        assert any(
            "unknown key 'extras'" in p
            for p in validate(dump, AUDIT_REPORT_SCHEMA)
        )

    def test_validator_rejects_negative_summary(self):
        dump = build_audit_report([fixture_report()])
        dump["targets"][0]["summary"]["rules"] = -1
        assert any("summary" in p for p in validate(dump, AUDIT_REPORT_SCHEMA))


class TestRefineEnvSeeding:
    """Regression: the prover used to decompose conjunctive antecedents
    pairwise only, so compound consequents like ``x + y > 5`` — true
    only under the *joint* refinement — always came back unknown."""

    def test_joint_refinement_decides_arithmetic_consequent(self):
        a = parse_formula("Velocity >= 2 and RequestedDecel >= 4")
        b = parse_formula("Velocity + RequestedDecel > 5")
        assert implies(a, b)

    def test_mirrored_comparison_orientation_seeds_too(self):
        a = parse_formula("2 <= Velocity and 4 <= RequestedDecel")
        b = parse_formula("Velocity + RequestedDecel > 5")
        assert implies(a, b)

    def test_joint_refinement_respects_existing_env(self, database):
        from repro.analysis.analyzer import database_env

        env = database_env(database)
        # Velocity's DBC range is [-10, 120]; with the conjunct
        # narrowing it to [100, 120] the sum is provably > 90.
        a = parse_formula("Velocity >= 100 and RequestedDecel >= 0")
        b = parse_formula("Velocity + RequestedDecel > 90")
        assert implies(a, b, env)

    def test_unprovable_consequent_stays_unknown(self):
        a = parse_formula("Velocity >= 2 and RequestedDecel >= 4")
        b = parse_formula("Velocity + RequestedDecel > 10")
        assert not implies(a, b)

    def test_refine_env_reports_contradictory_antecedent(self):
        from repro.analysis.audit import _refine_env

        refined, contradictory = _refine_env(
            parse_formula("Velocity >= 10 and Velocity < 5"), {}
        )
        assert contradictory
        assert refined is not None

    def test_refine_env_none_when_nothing_narrows(self):
        from repro.analysis.audit import _refine_env

        refined, contradictory = _refine_env(
            parse_formula("Velocity > 0 or BrakeRequested"), {}
        )
        assert refined is None
        assert not contradictory


class TestDecisionProcedureFindings:
    """AU101/102/103 retried through the automata prover when the
    syntactic pass comes back unknown — the finding text names the
    decision procedure so triage knows the proof's provenance."""

    def _env_ctx(self, database):
        from repro.analysis.analyzer import database_env
        from repro.analysis.audit import _ProverContext
        from repro.analysis.predicates import dbc_environment

        _, bools = dbc_environment(database)
        return database_env(database), _ProverContext(bool_signals=bools)

    def test_au101_contradiction_by_decision_procedure(self, database):
        from repro.analysis.audit import _rule_pair_checks

        env, ctx = self._env_ctx(database)
        rules = [
            Rule.from_text("rA", "a", "abs(RequestedDecel) <= 0.5"),
            Rule.from_text("rB", "b", "RequestedDecel > 0.75"),
        ]
        assert not contradicts(rules[0].formula, rules[1].formula, env)
        findings = _rule_pair_checks(rules, env, ctx)
        au101 = [f for f in findings if f.code == "AU101"]
        assert len(au101) == 1
        assert "by decision procedure" in au101[0].message

    def test_au102_subsumption_by_decision_procedure(self, database):
        from repro.analysis.audit import _rule_pair_checks

        env, ctx = self._env_ctx(database)
        rules = [
            Rule.from_text(
                "strong",
                "s",
                "(always[0, 0.1] Velocity > 5) "
                "and (always[0.12, 0.2] Velocity > 5)",
            ),
            Rule.from_text("weak", "w", "always[0, 0.2] Velocity > 5"),
        ]
        assert not implies(rules[0].formula, rules[1].formula, env)
        findings = _rule_pair_checks(rules, env, ctx)
        au102 = [f for f in findings if f.code == "AU102"]
        assert len(au102) == 1
        assert au102[0].subject == "rule weak"
        assert "by decision procedure" in au102[0].message

    def test_au103_validity_by_decision_procedure(self, database):
        from repro.analysis.audit import _vacuity_checks
        from repro.analysis.checks import formula_status

        env, ctx = self._env_ctx(database)
        rule = Rule.from_text("taut", "t", "Velocity > 5 or Velocity <= 5")
        assert formula_status(rule.effective_formula(), env) != "always"
        findings = _vacuity_checks([rule], env, ctx)
        au103 = [f for f in findings if f.code == "AU103"]
        assert len(au103) == 1
        assert "by decision procedure" in au103[0].message

    def test_syntactic_proof_keeps_syntactic_message(self, database):
        # When the cheap prover already decides, the automata retry
        # must not run (and must not duplicate the finding).
        from repro.analysis.audit import _rule_pair_checks

        env, ctx = self._env_ctx(database)
        rules = [
            Rule.from_text("rA", "a", "Velocity >= 0"),
            Rule.from_text("rB", "b", "Velocity < 0"),
        ]
        findings = _rule_pair_checks(rules, env, ctx)
        au101 = [f for f in findings if f.code == "AU101"]
        assert len(au101) == 1
        assert "statically contradicts" in au101[0].message
