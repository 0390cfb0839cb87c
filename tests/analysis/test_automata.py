"""Symbolic monitor automata (``repro.analysis.automata``).

Covers the determinizer's edge cases (zero-width windows, unbounded
operands, unreachable machine states, period-mismatched bounds), the
monitorability certificates against both the online monitor's
configuration and its *empirical* behaviour on a drive log, the
observable-signal reduction, the decision procedures (including the
catalog of facts the syntactic prover cannot decide), and the
``repro.automata/v1`` schema with its committed golden fixture.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import PERIOD, rule_trace

from repro.analysis.audit import contradicts, implies
from repro.analysis.automata import (
    BOUNDED,
    CO_SAFETY,
    FF,
    NEITHER,
    NO,
    PROVED,
    SAFETY,
    TT,
    UNKNOWN,
    YES,
    Lit,
    StateBudgetError,
    UnsupportedFormulaError,
    analyze_automata,
    analyze_automata_specs,
    compile_formula,
    compile_rule,
    compile_term,
    monitor_horizon_rows,
    prove_contradicts,
    prove_implies,
    prove_valid,
    reduce_observables,
    release,
    to_dot,
    until,
)
from repro.analysis.checks import formula_status
from repro.analysis.predicates import build_alphabet, dbc_environment
from repro.analysis.schema import (
    AUTOMATA_REPORT_SCHEMA,
    AUTOMATA_SCHEMA_VERSION,
    build_automata_report,
)
from repro.core.ast import Always, Eventually, InState
from repro.core.evaluator import EvalContext, evaluate_formula
from repro.core.monitor import DEFAULT_PERIOD, Rule
from repro.core.online import OnlineMonitor
from repro.core.parser import parse_formula
from repro.core.statemachine import StateMachine
from repro.core.types import UNKNOWN_CODE
from repro.errors import EvaluationError
from repro.rules.safety_rules import (
    mode_machine,
    paper_rules,
    paper_specset,
    rule5_modal,
)
from repro.schema import require_valid, validate

GOLDEN_AUTOMATA = (
    Path(__file__).resolve().parent.parent.parent
    / "results"
    / "automata_paper.json"
)


@pytest.fixture(scope="module")
def dbc_env(database):
    return dbc_environment(database)


def compiled_paper(database):
    env, bools = dbc_environment(database)
    return {
        rule.rule_id: compile_rule(rule, env=env, bool_signals=bools)
        for rule in paper_rules()
    }


# ----------------------------------------------------------------------
# Determinization edge cases
# ----------------------------------------------------------------------


class TestEdgeCases:
    def test_zero_width_window_is_a_pure_delay(self):
        # [0.04, 0.04] at 20 ms touches exactly row 2: the automaton
        # must wait out two rows then decide on the third.
        auto = compile_formula(
            parse_formula("always[0.04, 0.04] Velocity > 5"), period=PERIOD
        )
        assert auto.horizon_rows() == 3
        assert auto.classify() == (BOUNDED, True, True)
        true_mask = auto.alphabet.letters[-1]
        false_mask = auto.alphabet.letters[0]
        assert auto.run([false_mask, false_mask, true_mask]) is True
        assert auto.run([true_mask, true_mask, false_mask]) is False
        assert auto.run([false_mask, false_mask]) is None

    def test_unbounded_until_right_operand_is_co_safety(self):
        # F p as until[0, inf): satisfiable by any word reaching p, but
        # no finite horizon decides it — the empty-suffix suspension in
        # the cycle is False, so the language is co-safety.
        alphabet = build_alphabet([parse_formula("Velocity > 5")], {})
        auto = compile_term(until(0, None, TT, Lit(0, True)), alphabet)
        assert auto.classify() == (CO_SAFETY, False, True)
        assert auto.horizon_rows() is None
        assert auto.satisfiable() == YES

    def test_unbounded_release_is_safety(self):
        alphabet = build_alphabet([parse_formula("Velocity > 5")], {})
        auto = compile_term(release(0, None, FF, Lit(0, True)), alphabet)
        assert auto.classify() == (SAFETY, True, False)
        assert auto.horizon_rows() is None
        assert auto.falsifiable() == YES

    def test_unbounded_eventually_formula_is_co_safety(self):
        rule = Rule(
            "inf", "inf",
            Eventually(0.0, math.inf, parse_formula("Velocity > 5")),
        )
        compiled = compile_rule(rule, period=PERIOD)
        assert compiled.status == "ok"
        assert compiled.certificate.classification == CO_SAFETY
        assert compiled.certificate.horizon_rows is None
        assert compiled.monitor_horizon_rows is None

    def test_globally_finally_is_neither(self):
        inner = Eventually(0.0, math.inf, parse_formula("Velocity > 5"))
        rule = Rule("gf", "gf", Always(0.0, math.inf, inner))
        compiled = compile_rule(rule, period=PERIOD)
        assert compiled.certificate.classification == NEITHER
        assert compiled.certificate.safety is False
        assert compiled.certificate.co_safety is False

    def test_in_state_over_unreachable_state(self):
        # State "c" has no inbound transition: the machine-initial
        # entry can never satisfy in_state(m, c), but the mid-trace
        # entry seeded at "c" can — and both entries must exist.
        machine = StateMachine(
            name="m",
            states=("a", "b", "c"),
            initial="a",
            transitions=(("a", "b", "Velocity > 5"),),
        )
        auto = compile_formula(
            InState("m", "c"), machines=(machine,), period=PERIOD
        )
        assert sorted(auto.initials) == [("a",), ("b",), ("c",)]
        for mask in auto.alphabet.letters:
            assert auto.run([mask]) is False
            assert auto.run([mask], machine_states=("c",)) is True
        # satisfiable() quantifies over every entry, so the unreachable
        # state keeps the formula satisfiable as a language.
        assert auto.satisfiable() == YES

    def test_period_mismatched_window_is_rejected(self):
        # A [10, 15] ms window straddles no 20 ms sample: the shared
        # bound->grid conversion raises, and compile_rule degrades to
        # an explicit "unsupported" entry instead of a wrong automaton.
        formula = parse_formula("always[0.01, 0.015] Velocity > 5")
        with pytest.raises(EvaluationError):
            compile_formula(formula, period=PERIOD)
        compiled = compile_rule(Rule("mis", "mis", formula), period=PERIOD)
        assert compiled.status == "unsupported"
        assert "no sample" in compiled.reason

    def test_past_operators_are_outside_the_fragment(self):
        rule = Rule.from_text("past", "past", "once[0, 0.2] ServiceACC")
        compiled = compile_rule(rule, period=PERIOD)
        assert compiled.status == "unsupported"
        assert "once" in compiled.reason
        with pytest.raises(UnsupportedFormulaError):
            compile_formula(rule.formula, period=PERIOD)

    def test_state_budget_is_enforced(self):
        formula = parse_formula("always[0, 1.0] Velocity > 5")
        with pytest.raises(StateBudgetError):
            compile_formula(formula, period=PERIOD, max_states=3)
        compiled = compile_rule(
            Rule("big", "big", formula), period=PERIOD, max_states=3
        )
        assert compiled.status == "budget"
        assert "budget" in compiled.reason


class TestMachineProduct:
    def test_product_tracks_statemachine_run(self):
        # The automaton's machine component must advance exactly like
        # StateMachine.run: same guards, same declaration-order firing.
        machine = mode_machine()
        formula = parse_formula(
            "always[0, 0.18] (in_state(acc, engaged) -> "
            "(BrakeRequested -> RequestedDecel <= 0))"
        )
        auto = compile_formula(formula, machines=(machine,), period=PERIOD)
        trace = rule_trace(
            10,
            {
                "ACCEnabled": [0, 1, 1, 1, 0, 0, 1, 1, 1, 1],
                "ServiceACC": [0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
                "BrakeRequested": [0, 0, 1, 1, 1, 0, 0, 1, 0, 0],
                "RequestedDecel": [0, 0, -1, -2, -2, 0, 0, -2, 0, 0],
            },
        )
        ctx = EvalContext(trace.to_view(PERIOD))
        expected_states = machine.run(
            ctx, initial=None
        )
        masks = _letter_masks(auto, ctx)
        # Walk the product from the machine-initial entry and compare
        # the machine component after each letter.
        state = 0
        compared = 0
        for i, mask in enumerate(masks):
            state = auto.step(state, mask)
            if auto.is_sink(state):
                break
            _, mstates = auto.states[state]
            assert mstates == (expected_states[i],)
            compared += 1
        assert compared >= 5

    def test_modal_rule_compiles_with_its_machine(self):
        compiled = compile_rule(
            rule5_modal(), machines=(mode_machine(),), period=PERIOD
        )
        assert compiled.status == "ok"
        assert compiled.certificate.classification == BOUNDED


def _letter_masks(automaton, ctx):
    masks = np.zeros(ctx.n_rows, dtype=np.int64)
    for i, atom in enumerate(automaton.alphabet.atoms):
        codes = evaluate_formula(atom, ctx)
        assert not np.any(codes == UNKNOWN_CODE)
        masks |= (codes == 2).astype(np.int64) << i
    return masks.tolist()


# ----------------------------------------------------------------------
# Monitorability certificates
# ----------------------------------------------------------------------


class TestCertificates:
    def test_paper_rules_all_bounded(self, database):
        compiled = compiled_paper(database)
        assert len(compiled) == 7
        for entry in compiled.values():
            assert entry.status == "ok"
            assert entry.certificate.classification == BOUNDED

    def test_paper_horizons_match_monitor_config_exactly(self, database):
        # For the seven Table I rules the exact automaton horizon
        # equals the future_reach bound the online monitor configures
        # (so no AU602 fires on the paper audit).
        for entry in compiled_paper(database).values():
            assert entry.certificate.horizon_rows == (
                entry.monitor_horizon_rows
            )

    def test_exact_horizon_never_exceeds_monitor_bound(self, database):
        for entry in compiled_paper(database).values():
            assert (
                entry.certificate.horizon_rows
                <= entry.monitor_horizon_rows
            )

    def test_monitor_horizon_rows_matches_online_monitor(self):
        rules = paper_rules()
        monitor = OnlineMonitor(rules, period=DEFAULT_PERIOD)
        worst = max(
            monitor_horizon_rows(rule.effective_formula(), DEFAULT_PERIOD)
            for rule in rules
        )
        # decision_latency = (horizon + min_chunk) * period, so the
        # certificate-side bound replicates the monitor's config.
        assert monitor.decision_latency == pytest.approx(
            (worst + monitor.min_chunk_rows) * DEFAULT_PERIOD
        )

    def test_unbounded_reach_has_no_monitor_horizon(self):
        formula = Eventually(0.0, math.inf, parse_formula("Velocity > 5"))
        assert monitor_horizon_rows(formula, DEFAULT_PERIOD) is None


class TestCertificateVsEmpiricalLatency:
    """The acceptance gate: on drive logs, every rule's verdict is
    decided within its certificate horizon — the certificate is an
    upper bound on the empirically observed decision latency."""

    def _assert_decided_within_horizon(self, trace, database):
        view = trace.to_view(DEFAULT_PERIOD)
        ctx = EvalContext(view)
        env, bools = dbc_environment(database)
        for rule in paper_rules():
            compiled = compile_rule(rule, env=env, bool_signals=bools)
            horizon = compiled.certificate.horizon_rows
            codes = evaluate_formula(rule.effective_formula(), ctx)
            n = len(codes)
            undecided = np.nonzero(codes == UNKNOWN_CODE)[0]
            # Row i is decided once rows i..i+H-1 exist, so only the
            # last H-1 rows of the log may remain undecided.
            assert all(i > n - horizon for i in undecided), (
                "rule %s: undecided verdict inside the certified "
                "horizon" % rule.rule_id
            )

    def test_nominal_drive_log(self, nominal_trace, database):
        self._assert_decided_within_horizon(nominal_trace, database)

    def test_violating_synthetic_log(self, database):
        n = 400
        decel = [0.0] * n
        decel[120:180] = [2.0] * 60  # positive decel under braking
        brake = [0.0] * n
        brake[110:200] = [1.0] * 90
        trace = rule_trace(
            n,
            {"RequestedDecel": decel, "BrakeRequested": brake},
            period=DEFAULT_PERIOD,
        )
        self._assert_decided_within_horizon(trace, database)


# ----------------------------------------------------------------------
# Observable-signal reduction
# ----------------------------------------------------------------------


class TestObservability:
    def test_paper_rules_have_no_fat(self, database):
        # Every paper rule's automaton distinguishes every referenced
        # signal — the reduction is exact, not vacuously permissive.
        for entry in compiled_paper(database).values():
            assert entry.observability.droppable == ()
            assert set(entry.observability.required) == set(
                entry.observability.referenced
            )

    def test_contradictory_disjunct_frees_its_signals(self, dbc_env):
        # The first disjunct can never hold (Velocity > 0 and <= 0), so
        # the automaton never branches on ServiceACC or Velocity.
        env, bools = dbc_env
        formula = parse_formula(
            "(Velocity > 0 and Velocity <= 0 and ServiceACC) "
            "or (BrakeRequested -> RequestedDecel <= 0)"
        )
        auto = compile_formula(
            formula, env=env, bool_signals=bools, period=PERIOD
        )
        obs = reduce_observables(auto)
        assert set(obs.droppable) == {"ServiceACC", "Velocity"}
        assert set(obs.required) == {"BrakeRequested", "RequestedDecel"}
        assert obs.bandwidth_hint == pytest.approx(0.5)

    def test_partition_invariant(self, database):
        for entry in compiled_paper(database).values():
            obs = entry.observability
            assert set(obs.required) | set(obs.droppable) == set(
                obs.referenced
            )
            assert not set(obs.required) & set(obs.droppable)


# ----------------------------------------------------------------------
# Decision procedures
# ----------------------------------------------------------------------


class TestProvers:
    def test_contradiction_proved(self, dbc_env):
        env, bools = dbc_env
        a = parse_formula("always[0, 0.1] Velocity > 5")
        b = parse_formula("eventually[0, 0.1] Velocity <= 5")
        assert (
            prove_contradicts(a, b, env=env, bool_signals=bools) == PROVED
        )

    def test_satisfiable_pair_stays_unknown(self, dbc_env):
        env, bools = dbc_env
        a = parse_formula("Velocity > 5")
        b = parse_formula("TargetRange > 10")
        assert (
            prove_contradicts(a, b, env=env, bool_signals=bools) == UNKNOWN
        )

    def test_implication_proved(self, dbc_env):
        env, bools = dbc_env
        a = parse_formula("always[0, 0.2] Velocity > 5")
        b = parse_formula("always[0, 0.1] Velocity > 5")
        assert prove_implies(a, b, env=env, bool_signals=bools) == PROVED
        # ...and not the converse.
        assert prove_implies(b, a, env=env, bool_signals=bools) == UNKNOWN

    def test_validity_needs_the_env(self, dbc_env):
        env, bools = dbc_env
        # Valid only under the DBC range of Velocity: [-10, 120].
        formula = parse_formula("Velocity <= 120")
        assert prove_valid(formula, env=env, bool_signals=bools) == PROVED
        assert prove_valid(formula) == UNKNOWN

    def test_unsupported_formula_degrades_to_unknown(self, dbc_env):
        env, bools = dbc_env
        past = parse_formula("once[0, 0.2] ServiceACC")
        now = parse_formula("ServiceACC")
        assert (
            prove_implies(past, now, env=env, bool_signals=bools) == UNKNOWN
        )


class TestProverGapCatalog:
    """Facts the syntactic prover cannot decide but the automata
    decision procedure settles — the documented reason AU101/102/103
    retry with the automaton when the cheap pass comes back unknown."""

    def test_always_distributes_over_conjunction(self, dbc_env):
        env, bools = dbc_env
        a = parse_formula(
            "(always[0, 0.1] Velocity > 5) "
            "and (always[0, 0.1] TargetRange > 10)"
        )
        b = parse_formula("always[0, 0.1] (Velocity > 5 and TargetRange > 10)")
        assert not implies(a, b, env)
        assert prove_implies(a, b, env=env, bool_signals=bools) == PROVED

    def test_adjacent_windows_join(self, dbc_env):
        env, bools = dbc_env
        a = parse_formula(
            "(always[0, 0.1] Velocity > 5) "
            "and (always[0.12, 0.2] Velocity > 5)"
        )
        b = parse_formula("always[0, 0.2] Velocity > 5")
        assert not implies(a, b, env)
        assert prove_implies(a, b, env=env, bool_signals=bools) == PROVED

    def test_next_distributes_over_conjunction(self, dbc_env):
        env, bools = dbc_env
        a = parse_formula("(next Velocity > 5) and (next TargetRange > 10)")
        b = parse_formula("next (Velocity > 5 and TargetRange > 10)")
        assert not implies(a, b, env)
        assert prove_implies(a, b, env=env, bool_signals=bools) == PROVED

    def test_boolean_resolution(self, dbc_env):
        env, bools = dbc_env
        a = parse_formula("(Velocity > 0 or BrakeRequested) and Velocity <= 0")
        b = parse_formula("BrakeRequested")
        assert not implies(a, b, env)
        assert prove_implies(a, b, env=env, bool_signals=bools) == PROVED

    def test_abs_gap_contradiction(self, dbc_env):
        env, bools = dbc_env
        a = parse_formula("abs(RequestedDecel) <= 0.5")
        b = parse_formula("RequestedDecel > 0.75")
        assert not contradicts(a, b, env)
        assert (
            prove_contradicts(a, b, env=env, bool_signals=bools) == PROVED
        )

    def test_excluded_middle_tautology(self, dbc_env):
        env, bools = dbc_env
        formula = parse_formula("Velocity > 5 or Velocity <= 5")
        assert formula_status(formula, env) != "always"
        assert prove_valid(formula, env=env, bool_signals=bools) == PROVED


class TestProverSoundness:
    def test_no_answer_is_final_even_without_ranges(self):
        # "no" (and hence "proved") must never rest on the coherence
        # filter: it quantifies over every letter sequence.
        a = parse_formula("Velocity > 5")
        b = parse_formula("not (Velocity > 5)")
        assert prove_contradicts(a, b) == PROVED

    def test_yes_is_not_treated_as_refutation(self, dbc_env):
        env, bools = dbc_env
        # Satisfiable conjunction: the prover must answer unknown (not
        # "disproved") because satisfiability may rest on letters the
        # coherence filter over-approximated.
        a = parse_formula("Velocity > 5")
        b = parse_formula("Velocity > 10")
        assert (
            prove_contradicts(a, b, env=env, bool_signals=bools) == UNKNOWN
        )


# ----------------------------------------------------------------------
# Reports, DOT, schema, golden fixture
# ----------------------------------------------------------------------


class TestReport:
    def test_paper_report_summary(self, database):
        report = analyze_automata(
            paper_rules(), database=database, target="paper"
        )
        assert report.summary() == {
            "rules": 7,
            BOUNDED: 7,
            SAFETY: 0,
            CO_SAFETY: 0,
            NEITHER: 0,
            "unsupported": 0,
        }
        assert not report.failed

    def test_failed_flags_neither_only(self):
        inner = Eventually(0.0, math.inf, parse_formula("Velocity > 5"))
        neither = Rule("gf", "gf", Always(0.0, math.inf, inner))
        unsupported = Rule.from_text("p", "p", "once[0, 0.2] ServiceACC")
        assert analyze_automata([neither]).failed
        assert not analyze_automata([unsupported]).failed

    def test_specset_entry_point(self, database):
        report = analyze_automata_specs(paper_specset(), target="specs")
        assert report.summary()["rules"] == 7

    def test_format_text_mentions_every_rule(self, database):
        report = analyze_automata(paper_rules(), database=database)
        text = report.format_text()
        for rule in paper_rules():
            assert rule.rule_id in text


class TestDot:
    def test_dot_export_is_well_formed(self, database):
        entry = compiled_paper(database)["rule5"]
        dot = to_dot(entry.automaton, "rule5")
        assert dot.startswith("digraph")
        assert "rule5" in dot
        assert dot.rstrip().endswith("}")
        # One node line per state, plus the entry arrows.
        assert dot.count("->") >= entry.automaton.n_states - 1


class TestSchema:
    def test_paper_report_validates(self, database):
        report = analyze_automata(
            paper_rules(), database=database, target="paper"
        )
        doc = build_automata_report(report)
        assert doc["schema"] == AUTOMATA_SCHEMA_VERSION
        assert validate(doc, AUTOMATA_REPORT_SCHEMA) == []
        assert require_valid(doc, AUTOMATA_REPORT_SCHEMA) is doc

    def test_mixed_statuses_validate(self, database):
        inner = Eventually(0.0, math.inf, parse_formula("Velocity > 5"))
        rules = [
            Rule("ok", "ok", parse_formula("Velocity > 5")),
            Rule("gf", "gf", Always(0.0, math.inf, inner)),
            Rule.from_text("past", "past", "once[0, 0.2] ServiceACC"),
        ]
        doc = build_automata_report(analyze_automata(rules))
        assert validate(doc, AUTOMATA_REPORT_SCHEMA) == []

    def test_corrupted_documents_are_rejected(self, database):
        report = analyze_automata(paper_rules(), database=database)
        doc = build_automata_report(report)

        bad = json.loads(json.dumps(doc))
        bad["schema"] = "repro.automata/v0"
        assert validate(bad, AUTOMATA_REPORT_SCHEMA)

        bad = json.loads(json.dumps(doc))
        bad["rules"][0]["class"] = "liveness"
        assert validate(bad, AUTOMATA_REPORT_SCHEMA)

        bad = json.loads(json.dumps(doc))
        bad["rules"][0]["observability"]["droppable"] = ["Velocity"]
        assert any(
            "partition" in problem
            for problem in validate(bad, AUTOMATA_REPORT_SCHEMA)
        )

        bad = json.loads(json.dumps(doc))
        bad["summary"]["bounded"] = 99
        assert validate(bad, AUTOMATA_REPORT_SCHEMA)

        with pytest.raises(ValueError):
            require_valid({"schema": "nope"}, AUTOMATA_REPORT_SCHEMA)


class TestGoldenFixture:
    def test_committed_fixture_matches_regeneration(self, database):
        # The CI automata-smoke job diffs this file against a fresh
        # CLI run; the test pins the API-level regeneration too.
        report = analyze_automata_specs(
            paper_specset(relaxed=False), target="paper rules (strict)"
        )
        regenerated = json.loads(
            json.dumps(build_automata_report(report), sort_keys=True)
        )
        committed = json.loads(GOLDEN_AUTOMATA.read_text())
        assert regenerated == committed

    def test_committed_fixture_is_valid(self):
        require_valid(
            json.loads(GOLDEN_AUTOMATA.read_text()),
            AUTOMATA_REPORT_SCHEMA,
        )
