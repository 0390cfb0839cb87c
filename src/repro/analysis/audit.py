"""Cross-artifact campaign audit — the engine behind ``repro audit``.

Where :mod:`repro.analysis.analyzer` (speclint) analyzes one spec set in
isolation, the auditor checks that the *artifacts of a whole campaign*
agree with each other: the CAN database, the rule set, the injection
plan, and the checker-profile registry.  Three analysis families, one
per report section:

* **rule-set verification** (``AU1xx``) — pairwise contradiction and
  subsumption between rules via a conservative implication prover seeded
  with DBC physical ranges, plus set-level vacuity and duplicate
  signal-coverage reports;
* **monitoring coverage** (``AU2xx``) — DBC signals, machine states and
  ACC operating modes referenced by no rule, computed over the
  :class:`~repro.analysis.depgraph.DependencyGraph`;
* **injection-plan checks** (``AU3xx``/``AU4xx``) — Ballista values a
  range-checking testbed degrades to no-ops, flip masks wider than the
  target field, targets absent from the DBC, statically dead
  (injection x rule) cells, unknown checker profiles, and monitor
  periods that undersample rule-referenced signals.

The symbolic automata pass (:mod:`repro.analysis.automata`) backs two
more layers: when the syntactic prover answers "unknown" on a pair or
vacuity question, the decision procedure retries it on the compiled
product automaton (same AU101/AU102/AU103 codes, message marked as a
decision-procedure proof), and every rule gets a monitorability
certificate cross-checked against the online monitor's conservative
horizon (``AU6xx``: no finite decision horizon, over-provisioned
buffering, or an uncertifiable rule).

The static margin prover (:mod:`repro.analysis.margins`) adds the
quantitative ``AU5xx`` findings on top: provably unfalsifiable rules
(positive static lower margin) and tight-margin hotspots in the rules
section, statically doomed (injection x rule) cells — negative static
upper margin under the cell's injection-widened ranges — in the plan
section, plus the ``provably_safe_rules`` / ``margin_prunable_cells`` /
``doomed_cells`` summary counters that feed ``table1 --prune margins``.

Like the rest of the package the auditor is pure static analysis: it
reads parsed ASTs, the database, and a :class:`CampaignPlan` — no trace
data, no simulation.  The implication prover is *conservative*: it only
answers "proved" or "unknown", so every AU101/AU102 finding is a real
entailment under the stated model.  As with
:mod:`repro.analysis.intervals`, the model is in-range, non-NaN data —
negation rewrites comparisons classically (``not (x < 5)`` becomes
``x >= 5``), which NaN rows would falsify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.analyzer import database_env
from repro.analysis.automata import (
    PROVED,
    compile_rule,
    prove_contradicts,
    prove_implies,
    prove_valid,
)
from repro.analysis.catalog import make_diagnostic
from repro.analysis.checks import formula_status
from repro.analysis.depgraph import DependencyGraph
from repro.analysis.diagnostics import (
    Diagnostic,
    count_by_severity,
    has_errors,
    sort_diagnostics,
)
from repro.analysis.intervals import ALWAYS, Interval, MAYBE, NEVER, intersect
from repro.analysis.predicates import dbc_environment
from repro.core.ast import (
    Always,
    And,
    BoolConst,
    Comparison,
    Constant,
    Eventually,
    Formula,
    Historically,
    Implies,
    Next,
    Not,
    Once,
    Or,
    SignalRef,
)
from repro.core.monitor import DEFAULT_PERIOD
from repro.core.statemachine import StateMachine

#: The ACC operating modes of the paper's §II system description; a spec
#: set with no machine state for a mode cannot express mode-specific
#: properties (modal blindness, §V-B).
ACC_MODES: Tuple[str, ...] = ("off", "standby", "engaged", "fault")

#: Report sections, in presentation order.
SECTIONS: Tuple[str, ...] = ("rules", "coverage", "plan")

#: Default (unconstrained) signal environment for the standalone prover
#: entry points — every signal unbounded.
_EMPTY_ENV: Mapping[str, Interval] = {}

_SECTION_TITLES = {
    "rules": "rule-set verification",
    "coverage": "monitoring coverage",
    "plan": "injection plan",
}


# ----------------------------------------------------------------------
# The campaign plan artifact
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignPlan:
    """The injection-plan artifact the auditor checks.

    Attributes:
        tests: the planned :class:`~repro.testing.campaign.InjectionTest`
            rows, in table order.
        profile: name of the injection type-checker profile the campaign
            will be constructed with.
        period: the monitor sampling period the captured traces will be
            checked at.
    """

    tests: Tuple["InjectionTest", ...]  # noqa: F821 - structural, see campaign
    profile: str = "hil"
    period: float = DEFAULT_PERIOD


def paper_plan() -> CampaignPlan:
    """The paper's full Table I plan on the default HIL profile."""
    from repro.testing.campaign import table1_tests

    return CampaignPlan(tests=tuple(table1_tests()))


# ----------------------------------------------------------------------
# Conservative implication prover
# ----------------------------------------------------------------------

_NEGATED_OP = {
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
    "==": "!=",
    "!=": "==",
}

#: Recursion fuel for the prover; formulas deeper than this stay "unknown".
_MAX_DEPTH = 32


def negate(formula: Formula) -> Formula:
    """The classical negation of ``formula``, pushed toward the atoms.

    Comparisons flip their operator — valid for in-range, non-NaN data
    only (NaN makes both ``x < 5`` and ``x >= 5`` false); the prover's
    verdicts inherit that caveat.  Temporal duals follow the usual
    rewriting (``not always`` = ``eventually not`` and so on).
    """
    if isinstance(formula, BoolConst):
        return BoolConst(not formula.value)
    if isinstance(formula, Not):
        return formula.operand
    if isinstance(formula, Comparison):
        return Comparison(_NEGATED_OP[formula.op], formula.left, formula.right)
    if isinstance(formula, And):
        return Or(negate(formula.left), negate(formula.right))
    if isinstance(formula, Or):
        return And(negate(formula.left), negate(formula.right))
    if isinstance(formula, Implies):
        return And(formula.left, negate(formula.right))
    if isinstance(formula, Always):
        return Eventually(formula.lo, formula.hi, negate(formula.operand))
    if isinstance(formula, Eventually):
        return Always(formula.lo, formula.hi, negate(formula.operand))
    if isinstance(formula, Once):
        return Historically(formula.lo, formula.hi, negate(formula.operand))
    if isinstance(formula, Historically):
        return Once(formula.lo, formula.hi, negate(formula.operand))
    if isinstance(formula, Next):
        return Next(negate(formula.operand))
    return Not(formula)


def _point_satisfies(value: float, op: str, bound: float) -> bool:
    if op == "<":
        return value < bound
    if op == "<=":
        return value <= bound
    if op == ">":
        return value > bound
    if op == ">=":
        return value >= bound
    if op == "==":
        return value == bound
    return value != bound


def _satisfied_subset(op1: str, c: float, op2: str, d: float) -> bool:
    """Whether ``{x | x op1 c}`` is a subset of ``{x | x op2 d}``.

    The satisfied sets are over the reals; inclusion over a superset
    domain implies inclusion over any DBC-restricted subdomain, so this
    is conservative without consulting the environment.
    """
    if op1 == "==":
        return _point_satisfies(c, op2, d)
    if op1 == "<":
        if op2 in ("<", "<="):
            return c <= d
        if op2 == "!=":
            return d >= c
        return False
    if op1 == "<=":
        if op2 == "<":
            return c < d
        if op2 == "<=":
            return c <= d
        if op2 == "!=":
            return d > c
        return False
    if op1 == ">":
        if op2 in (">", ">="):
            return c >= d
        if op2 == "!=":
            return d <= c
        return False
    if op1 == ">=":
        if op2 == ">":
            return c > d
        if op2 == ">=":
            return c >= d
        if op2 == "!=":
            return d < c
        return False
    # op1 == "!=": unbounded on both sides, only itself fits.
    return op2 == "!=" and c == d


def _comparison_implies(a: Comparison, b: Comparison) -> bool:
    """Entailment between comparisons over the same left-hand side."""
    if a.left != b.left:
        return False
    if not isinstance(a.right, Constant) or not isinstance(b.right, Constant):
        return False
    return _satisfied_subset(
        a.op, float(a.right.value), b.op, float(b.right.value)
    )


def _comparison_constraint(
    formula: Formula,
) -> Optional[Tuple[str, Interval]]:
    """The satisfying interval of a bare ``signal OP constant``
    comparison (either orientation), or ``None``.

    Intervals are closed, so strict bounds are *widened* by keeping the
    endpoint: the result over-approximates the satisfying set, which is
    the sound direction for both uses below (a superset that still
    forces ``b`` true, or a superset that is still empty).
    """
    if not isinstance(formula, Comparison):
        return None
    if isinstance(formula.left, SignalRef) and isinstance(
        formula.right, Constant
    ):
        name, op, bound = formula.left.name, formula.op, formula.right.value
    elif isinstance(formula.right, SignalRef) and isinstance(
        formula.left, Constant
    ):
        mirrored = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}
        if formula.op not in mirrored:
            return None
        name, op, bound = (
            formula.right.name,
            mirrored[formula.op],
            formula.left.value,
        )
    else:
        return None
    inf = math.inf
    if op in ("<", "<="):
        return name, Interval(-inf, bound)
    if op in (">", ">="):
        return name, Interval(bound, inf)
    if op == "==":
        return name, Interval(bound, bound)
    return None  # != constrains nothing representable as one interval


def _refine_env(
    a: Formula, env: Mapping[str, Interval]
) -> Tuple[Optional[Mapping[str, Interval]], bool]:
    """Intersect every bare-signal comparison conjunct of ``a`` into
    ``env``.

    Returns ``(refined_env, contradictory)``.  ``contradictory`` means
    some signal's constraints have an empty intersection, so no in-range
    row satisfies ``a`` at all.  ``refined_env`` is ``None`` when no
    conjunct narrowed anything.

    This is the re-seeding step the pairwise decomposition used to miss:
    ``implies(And(x >= 2, y >= 4), x + y > 5)`` recursed into each
    conjunct separately, so the compound consequent — decidable only
    under the *joint* refinement — always came back unknown.
    """
    refined: Dict[str, Interval] = {}
    contradictory = False
    stack = [a]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.append(node.left)
            stack.append(node.right)
            continue
        constraint = _comparison_constraint(node)
        if constraint is None:
            continue
        name, interval = constraint
        known = refined.get(name, env.get(name))
        narrowed = (
            interval if known is None else intersect(known, interval)
        )
        if narrowed is None:
            contradictory = True
            break
        refined[name] = narrowed
    if not refined and not contradictory:
        return None, False
    merged = dict(env)
    merged.update(refined)
    return merged, contradictory


def implies(
    a: Formula,
    b: Formula,
    env: Mapping[str, Interval] = _EMPTY_ENV,
    _depth: int = 0,
) -> bool:
    """Try to prove that every row satisfying ``a`` satisfies ``b``.

    Returns True only when a proof was found; False means *unknown*, not
    refuted.  ``env`` maps signal names to physical ranges (see
    :func:`~repro.analysis.analyzer.database_env`) and powers the
    "statically true / false" shortcuts.
    """
    if _depth > _MAX_DEPTH:
        return False
    if a == b:
        return True
    if formula_status(b, env) == ALWAYS:
        return True
    if formula_status(a, env) == NEVER:
        return True
    if isinstance(a, Not) and isinstance(b, Not):
        if implies(b.operand, a.operand, env, _depth + 1):
            return True
    # Material implication rewrites to a disjunction on either side.
    if isinstance(a, Implies):
        if implies(Or(negate(a.left), a.right), b, env, _depth + 1):
            return True
    if isinstance(b, Implies):
        if implies(a, Or(negate(b.left), b.right), env, _depth + 1):
            return True
    # Disjunctive antecedent / conjunctive consequent need both branches.
    if isinstance(a, Or):
        if implies(a.left, b, env, _depth + 1) and implies(
            a.right, b, env, _depth + 1
        ):
            return True
    if isinstance(b, And):
        if implies(a, b.left, env, _depth + 1) and implies(
            a, b.right, env, _depth + 1
        ):
            return True
    # Conjunctive antecedent / disjunctive consequent: either branch.
    if isinstance(a, And):
        if implies(a.left, b, env, _depth + 1) or implies(
            a.right, b, env, _depth + 1
        ):
            return True
        # Re-seed the environment with the conjuncts' joint ranges: a
        # compound consequent (x + y > 5) is invisible to the pairwise
        # decomposition above but decidable once every conjunct's
        # interval is intersected in (see _refine_env).
        refined, contradictory = _refine_env(a, env)
        if contradictory:
            return True  # unsatisfiable antecedent implies anything
        if refined is not None and formula_status(b, refined) == ALWAYS:
            return True
    if isinstance(b, Or):
        if implies(a, b.left, env, _depth + 1) or implies(
            a, b.right, env, _depth + 1
        ):
            return True
    if isinstance(a, Comparison) and isinstance(b, Comparison):
        if _comparison_implies(a, b):
            return True
    # Temporal monotonicity: a wider always proves a narrower one, a
    # narrower eventually proves a wider one; same for the past duals.
    for universal, existential in ((Always, Eventually), (Historically, Once)):
        if isinstance(a, universal):
            if (
                isinstance(b, universal)
                and a.lo <= b.lo
                and b.hi <= a.hi
                and implies(a.operand, b.operand, env, _depth + 1)
            ):
                return True
            # A window starting now includes the current row.
            if a.lo == 0 and implies(a.operand, b, env, _depth + 1):
                return True
        if isinstance(b, existential):
            if (
                isinstance(a, existential)
                and b.lo <= a.lo
                and a.hi <= b.hi
                and implies(a.operand, b.operand, env, _depth + 1)
            ):
                return True
            # The current row witnesses a window starting now.
            if b.lo == 0 and implies(a, b.operand, env, _depth + 1):
                return True
    if isinstance(a, Next) and isinstance(b, Next):
        if implies(a.operand, b.operand, env, _depth + 1):
            return True
    return False


def contradicts(
    a: Formula, b: Formula, env: Mapping[str, Interval] = _EMPTY_ENV
) -> bool:
    """Try to prove ``a`` and ``b`` cannot hold on the same row
    (in-range, non-NaN model — see :func:`negate`)."""
    return implies(a, negate(b), env) or implies(b, negate(a), env)


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------


@dataclass
class AuditReport:
    """Everything ``repro audit`` found for one artifact bundle.

    Attributes:
        target: what was audited (e.g. ``"paper rules (strict)"``).
        sections: diagnostics per analysis family, each sorted
            most-severe-first (keys: ``rules``/``coverage``/``plan``).
        summary: cross-artifact size and pruning statistics.
    """

    target: str
    sections: Dict[str, List[Diagnostic]] = field(default_factory=dict)
    summary: Dict[str, int] = field(default_factory=dict)

    def diagnostics(self) -> List[Diagnostic]:
        """All findings across sections, sorted most-severe-first."""
        merged: List[Diagnostic] = []
        for section in SECTIONS:
            merged.extend(self.sections.get(section, []))
        return sort_diagnostics(merged)

    def counts(self) -> Dict[str, int]:
        """Finding counts by severity name."""
        return count_by_severity(self.diagnostics())

    @property
    def failed(self) -> bool:
        """Whether any error-level finding is present (strict gate)."""
        return has_errors(self.diagnostics())

    def codes(self) -> Tuple[str, ...]:
        """The distinct diagnostic codes present, sorted."""
        return tuple(sorted({d.code for d in self.diagnostics()}))

    def to_dict(self) -> Dict[str, object]:
        """The target object of the ``repro.audit/v1`` report format."""
        return {
            "name": self.target,
            "sections": {
                section: [
                    d.to_dict() for d in self.sections.get(section, [])
                ]
                for section in SECTIONS
            },
            "summary": dict(self.summary),
            "counts": self.counts(),
        }

    def format_text(self) -> str:
        """Human-readable report, one block per analysis family."""
        counts = self.counts()
        lines = [
            "audit %s: %d error(s), %d warning(s), %d info"
            % (
                self.target,
                counts["error"],
                counts["warning"],
                counts["info"],
            )
        ]
        for section in SECTIONS:
            lines.append("%s:" % _SECTION_TITLES[section])
            findings = self.sections.get(section, [])
            if not findings:
                lines.append("  (clean)")
            for diagnostic in findings:
                lines.append("  %s" % diagnostic.format())
        summary = self.summary
        lines.append(
            "summary: %d rule(s) (%d certified), %d signal(s) "
            "(%d monitored), %d planned test(s), %d statically dead, "
            "%d prunable cell(s)"
            % (
                summary.get("rules", 0),
                summary.get("certified_rules", 0),
                summary.get("signals", 0),
                summary.get("monitored_signals", 0),
                summary.get("tests", 0),
                summary.get("dead_tests", 0),
                summary.get("prunable_cells", 0),
            )
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Family 1 — rule-set verification (AU1xx)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ProverContext:
    """Everything the decision-procedure fallback needs beyond ``env``.

    The syntactic prover stays first (it is cheap and its messages name
    the entailment shape); the automata prover only retries questions
    the syntactic pass left unknown, so findings never duplicate.
    """

    machines: Tuple[StateMachine, ...] = ()
    bool_signals: FrozenSet[str] = frozenset()
    period: float = DEFAULT_PERIOD


def _automata_contradicts(
    a: Formula, b: Formula, env: Mapping[str, Interval], ctx: _ProverContext
) -> bool:
    return (
        prove_contradicts(
            a, b, machines=ctx.machines, env=env,
            bool_signals=ctx.bool_signals, period=ctx.period,
        )
        == PROVED
    )


def _automata_implies(
    a: Formula, b: Formula, env: Mapping[str, Interval], ctx: _ProverContext
) -> bool:
    return (
        prove_implies(
            a, b, machines=ctx.machines, env=env,
            bool_signals=ctx.bool_signals, period=ctx.period,
        )
        == PROVED
    )


def _automata_valid(
    formula: Formula, env: Mapping[str, Interval], ctx: _ProverContext
) -> bool:
    return (
        prove_valid(
            formula, machines=ctx.machines, env=env,
            bool_signals=ctx.bool_signals, period=ctx.period,
        )
        == PROVED
    )


def _rule_pair_checks(
    rules: Sequence,
    env: Mapping[str, Interval],
    ctx: _ProverContext = _ProverContext(),
) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    # Contradiction and subsumption are only meaningful between rules
    # checked on the same rows, i.e. under structurally equal gates
    # (both ungated included); across different gates a conflict is
    # simply two modes with different requirements.
    by_gate: Dict[Optional[Formula], List] = {}
    for rule in rules:
        by_gate.setdefault(rule.gate, []).append(rule)
    for group in by_gate.values():
        for i, rule_a in enumerate(group):
            for rule_b in group[i + 1 :]:
                status_a = formula_status(rule_a.formula, env)
                status_b = formula_status(rule_b.formula, env)
                if status_a != MAYBE or status_b != MAYBE:
                    # Statically constant formulas are vacuity findings
                    # (AU103 / speclint), not pair conflicts.
                    continue
                if contradicts(rule_a.formula, rule_b.formula, env):
                    findings.append(
                        make_diagnostic(
                            "AU101",
                            "rule %s" % rule_a.rule_id,
                            "formula statically contradicts rule %s under "
                            "the DBC ranges: no in-range row can satisfy "
                            "both" % rule_b.rule_id,
                            suggestion=(
                                "every gated row will violate one of the "
                                "two; reconcile the bounds or split the "
                                "gates"
                            ),
                        )
                    )
                    continue
                if _automata_contradicts(
                    rule_a.formula, rule_b.formula, env, ctx
                ):
                    findings.append(
                        make_diagnostic(
                            "AU101",
                            "rule %s" % rule_a.rule_id,
                            "contradicts rule %s by decision procedure: "
                            "the product automaton of both formulas "
                            "accepts no in-range trace" % rule_b.rule_id,
                            suggestion=(
                                "every gated row will violate one of the "
                                "two; reconcile the bounds or split the "
                                "gates"
                            ),
                        )
                    )
                    continue
                findings.extend(
                    _subsumption_pair(rule_a, rule_b, env, ctx)
                )
    return findings


def _subsumption_pair(
    rule_a,
    rule_b,
    env: Mapping[str, Interval],
    ctx: _ProverContext = _ProverContext(),
) -> List[Diagnostic]:
    if rule_a.formula == rule_b.formula:
        # Identical bodies are SL702's finding, not subsumption.
        return []
    for strong, weak in ((rule_a, rule_b), (rule_b, rule_a)):
        # A filtered rule may dismiss violations the weak rule would
        # report, so only an unfiltered strong rule truly covers it.
        if strong.filters:
            continue
        if implies(strong.formula, weak.formula, env):
            return [
                make_diagnostic(
                    "AU102",
                    "rule %s" % weak.rule_id,
                    "statically subsumed by rule %s: any trace violating "
                    "%s also violates %s, so this rule adds no detection "
                    "power"
                    % (strong.rule_id, weak.rule_id, strong.rule_id),
                    suggestion=(
                        "tighten this rule's bound or drop it from the set"
                    ),
                )
            ]
        if _automata_implies(strong.formula, weak.formula, env, ctx):
            return [
                make_diagnostic(
                    "AU102",
                    "rule %s" % weak.rule_id,
                    "subsumed by rule %s by decision procedure: the "
                    "automaton for (%s and not %s) accepts no in-range "
                    "trace, so this rule adds no detection power"
                    % (strong.rule_id, strong.rule_id, weak.rule_id),
                    suggestion=(
                        "tighten this rule's bound or drop it from the set"
                    ),
                )
            ]
    return []


def _vacuity_checks(
    rules: Sequence,
    env: Mapping[str, Interval],
    ctx: _ProverContext = _ProverContext(),
) -> List[Diagnostic]:
    findings = []
    for rule in rules:
        if formula_status(rule.effective_formula(), env) == ALWAYS:
            findings.append(
                make_diagnostic(
                    "AU103",
                    "rule %s" % rule.rule_id,
                    "effective formula holds for every in-range value: "
                    "only out-of-range data could falsify it, so the "
                    "rule cannot detect in-specification misbehaviour",
                    suggestion="tighten the bound below the DBC range",
                )
            )
        elif _automata_valid(rule.effective_formula(), env, ctx):
            findings.append(
                make_diagnostic(
                    "AU103",
                    "rule %s" % rule.rule_id,
                    "effective formula is valid by decision procedure: "
                    "the automaton for its negation accepts no in-range "
                    "trace, so the rule cannot detect in-specification "
                    "misbehaviour",
                    suggestion="tighten the bound below the DBC range",
                )
            )
    return findings


def _monitorability_checks(
    rules: Sequence,
    env: Mapping[str, Interval],
    ctx: _ProverContext,
    summary: Dict[str, int],
) -> List[Diagnostic]:
    """AU6xx — certificates from the symbolic automata pass, each
    cross-checked against the online monitor's conservative horizon."""
    findings: List[Diagnostic] = []
    certified = 0
    for rule in rules:
        compiled = compile_rule(
            rule,
            machines=ctx.machines,
            env=env,
            bool_signals=ctx.bool_signals,
            period=ctx.period,
        )
        if compiled.status != "ok":
            findings.append(
                make_diagnostic(
                    "AU603",
                    "rule %s" % rule.rule_id,
                    "no monitorability certificate: automata compilation "
                    "%s (%s), so the online monitor's bounded-horizon "
                    "adequacy is assumed, not proved"
                    % (
                        "exceeded its budget"
                        if compiled.status == "budget"
                        else "is unsupported",
                        compiled.reason,
                    ),
                    suggestion=(
                        "rewrite the rule in the supported fragment or "
                        "raise the automata budgets"
                    ),
                )
            )
            continue
        certified += 1
        certificate = compiled.certificate
        assert certificate is not None
        if certificate.horizon_rows is None:
            findings.append(
                make_diagnostic(
                    "AU601",
                    "rule %s" % rule.rule_id,
                    "no finite decision horizon (class %s): some traces "
                    "keep the verdict UNKNOWN forever, so the online "
                    "monitor's bounded lookahead cannot decide the rule"
                    % certificate.classification,
                    suggestion=(
                        "bound the temporal windows, or accept that the "
                        "monitor only ever reports partial verdicts"
                    ),
                )
            )
        elif (
            compiled.monitor_horizon_rows is not None
            and certificate.horizon_rows < compiled.monitor_horizon_rows
        ):
            findings.append(
                make_diagnostic(
                    "AU602",
                    "rule %s" % rule.rule_id,
                    "monitor horizon over-provisioned: the automaton "
                    "decides every trace within %d row(s) but the online "
                    "monitor buffers %d"
                    % (
                        certificate.horizon_rows,
                        compiled.monitor_horizon_rows,
                    ),
                    suggestion=(
                        "verdict latency and memory can shrink to the "
                        "certified horizon"
                    ),
                )
            )
    summary["certified_rules"] = certified
    return findings


def _coverage_overlap_checks(graph: DependencyGraph) -> List[Diagnostic]:
    by_footprint: Dict[FrozenSet[str], List[str]] = {}
    for rule in graph.rules:
        footprint = graph.rule_signals(rule.rule_id)
        if footprint:
            by_footprint.setdefault(footprint, []).append(rule.rule_id)
    findings = []
    for footprint, rule_ids in sorted(
        by_footprint.items(), key=lambda item: item[1]
    ):
        if len(rule_ids) < 2:
            continue
        findings.append(
            make_diagnostic(
                "AU104",
                "rules %s" % ", ".join(rule_ids),
                "monitor the identical signal set {%s}"
                % ", ".join(sorted(footprint)),
                suggestion=(
                    "verify they test genuinely different properties "
                    "of these signals"
                ),
            )
        )
    return findings


# ----------------------------------------------------------------------
# Family 2 — monitoring coverage (AU2xx)
# ----------------------------------------------------------------------


def _coverage_checks(
    graph: DependencyGraph, machines: Sequence[StateMachine]
) -> List[Diagnostic]:
    findings = []
    for name in graph.unreferenced_signals():
        findings.append(
            make_diagnostic(
                "AU201",
                "signal %s" % name,
                "referenced by no rule and no machine guard: campaign "
                "rows targeting it are statically blind",
                suggestion=(
                    "add a rule over it, or document why it needs none"
                ),
            )
        )
    for machine in machines:
        for state in graph.unreferenced_states(machine.name):
            findings.append(
                make_diagnostic(
                    "AU202",
                    "machine %s" % machine.name,
                    "state %r is computed but referenced by no rule's "
                    "in_state()" % state,
                    suggestion=(
                        "bind a property to the state or drop it from "
                        "the machine"
                    ),
                )
            )
    modelled = {
        state.lower() for machine in machines for state in machine.states
    }
    missing = tuple(mode for mode in ACC_MODES if mode not in modelled)
    if missing:
        findings.append(
            make_diagnostic(
                "AU203",
                "spec set",
                "ACC operating mode(s) %s have no corresponding machine "
                "state: mode-specific properties cannot be expressed"
                % ", ".join(missing),
                suggestion=(
                    "model the operating modes as a state machine (§V-B)"
                ),
            )
        )
    return findings


# ----------------------------------------------------------------------
# Family 3 — injection-plan checks (AU3xx / AU4xx)
# ----------------------------------------------------------------------


def _ballista_checks(test, database, profile: str) -> List[Diagnostic]:
    from repro.testing.ballista import BALLISTA_FLOATS

    if test.kind not in ("Ballista", "mBallista"):
        return []
    degenerate: List[str] = []
    for target in test.targets:
        if target not in database:
            continue
        signal = database.signal(target)
        if signal.kind.value in ("bool", "enum"):
            degenerate.append(
                "%s falls back to random valid values (%s)"
                % (target, signal.kind.value)
            )
        elif profile == "hil":
            rejected = sum(
                1
                for value in BALLISTA_FLOATS
                if not signal.is_valid_value(value)
            )
            if rejected:
                degenerate.append(
                    "%s loses %d of %d dictionary values to its DBC "
                    "range" % (target, rejected, len(BALLISTA_FLOATS))
                )
    if not degenerate:
        return []
    return [
        make_diagnostic(
            "AU301",
            "test %s" % test.label,
            "; ".join(degenerate),
            suggestion=(
                "the row exercises fewer exceptional values than its "
                "label suggests"
            ),
        )
    ]


def _bitflip_checks(test, database) -> List[Diagnostic]:
    from repro.testing.bitflip import FLIP_SIZES

    if test.kind == "Bitflips":
        sizes: Tuple[int, ...] = FLIP_SIZES
    elif test.kind.startswith("mBitflip"):
        sizes = (int(test.kind[len("mBitflip") :]),)
    else:
        return []
    clipped: List[str] = []
    for target in test.targets:
        if target not in database:
            continue
        signal = database.signal(target)
        oversized = signal.clipped_flip_sizes(sizes)
        if oversized:
            clipped.append(
                "%s (%d bit%s) cannot take %s-bit flips"
                % (
                    target,
                    signal.bit_length,
                    "" if signal.bit_length == 1 else "s",
                    "/".join(str(s) for s in oversized),
                )
            )
    if not clipped:
        return []
    return [
        make_diagnostic(
            "AU302",
            "test %s" % test.label,
            "; ".join(clipped),
            suggestion=(
                "the schedule skips or clamps these sizes, so the row "
                "injects fewer faults than planned"
            ),
        )
    ]


def _plan_checks(
    plan: CampaignPlan,
    database,
    graph: DependencyGraph,
    summary: Dict[str, int],
) -> List[Diagnostic]:
    from repro.hil.typecheck import CHECKER_PROFILES

    findings: List[Diagnostic] = []
    if plan.profile not in CHECKER_PROFILES:
        findings.append(
            make_diagnostic(
                "AU401",
                "plan profile %s" % plan.profile,
                "not a registered checker profile (known: %s); the "
                "campaign would fail at construction"
                % ", ".join(sorted(CHECKER_PROFILES)),
                suggestion="pick a registered profile",
            )
        )
    rules_reached: set = set()
    all_rule_ids = [rule.rule_id for rule in graph.rules]
    for test in plan.tests:
        known: List[str] = []
        for target in test.targets:
            if target in database:
                known.append(target)
                continue
            findings.append(
                make_diagnostic(
                    "AU303",
                    "test %s" % test.label,
                    "target %r is not defined in the CAN database; the "
                    "harness would raise mid-campaign" % target,
                    suggestion="fix the target name in the plan",
                )
            )
        findings.extend(_ballista_checks(test, database, plan.profile))
        findings.extend(_bitflip_checks(test, database))
        if not known:
            continue
        dead = graph.dead_rules(known)
        rules_reached.update(graph.rules_reached(known))
        summary["prunable_cells"] += len(dead)
        if dead:
            if len(dead) == len(all_rule_ids):
                summary["dead_tests"] += 1
            findings.append(
                make_diagnostic(
                    "AU304",
                    "test %s" % test.label,
                    "cannot reach rule(s) %s through the dependency "
                    "graph: those cells cannot differ from an "
                    "uninjected run" % ", ".join(dead),
                    suggestion=(
                        "prune the cells (table1 --prune audit) or add "
                        "a rule over the injected signals"
                    ),
                )
            )
    if plan.tests:
        for rule_id in all_rule_ids:
            if rule_id not in rules_reached:
                findings.append(
                    make_diagnostic(
                        "AU403",
                        "rule %s" % rule_id,
                        "no planned test injects any signal that reaches "
                        "this rule: the campaign cannot falsify it",
                        suggestion=(
                            "add a test over the rule's input signals"
                        ),
                    )
                )
    return findings


def _margin_rule_checks(
    rule_margins: Mapping[str, Interval]
) -> List[Diagnostic]:
    """AU501/AU503 — quantitative unfalsifiability under DBC ranges."""
    from repro.analysis.margins import TIGHT_MARGIN

    findings = []
    for rule_id, interval in rule_margins.items():
        if interval.lo > TIGHT_MARGIN:
            findings.append(
                make_diagnostic(
                    "AU501",
                    "rule %s" % rule_id,
                    "static robustness margin stays at or above %g for "
                    "every in-range trace: the rule is quantitatively "
                    "unfalsifiable by in-specification data" % interval.lo,
                    suggestion=(
                        "tighten the bound by at least the reported "
                        "margin, or rely on injections to exercise it"
                    ),
                )
            )
        elif interval.lo > 0:
            findings.append(
                make_diagnostic(
                    "AU503",
                    "rule %s" % rule_id,
                    "static robustness lower bound %g is positive but "
                    "within the tightness epsilon %g: unfalsifiable "
                    "only by a sliver of margin"
                    % (interval.lo, TIGHT_MARGIN),
                    suggestion=(
                        "check whether modelling slack (ranges, held "
                        "samples, rounding) hides a falsifiable rule"
                    ),
                )
            )
    return findings


def _margin_plan_checks(
    plan: CampaignPlan,
    database,
    rules: Sequence,
    machines: Sequence[StateMachine],
    graph: DependencyGraph,
    period: float,
    summary: Dict[str, int],
) -> List[Diagnostic]:
    """AU502 — per-cell margin intervals under injection-widened ranges.

    Also feeds the ``doomed_cells`` / ``margin_prunable_cells`` summary
    counters.  Tests with unknown targets are skipped (AU303 already
    flags them, and the harness could never run the cell).
    """
    from repro.analysis.margins import MarginEnv, cell_env, rule_margin

    findings: List[Diagnostic] = []
    env_cache: Dict[Tuple[str, ...], Optional[MarginEnv]] = {}
    for test in plan.tests:
        targets = tuple(test.targets)
        if targets not in env_cache:
            env_cache[targets] = cell_env(database, targets, graph)
        env = env_cache[targets]
        if env is None:
            continue
        doomed: List[str] = []
        for rule in rules:
            interval = rule_margin(
                rule, env, period=period, machines=machines
            )
            if interval.hi < 0:
                doomed.append(rule.rule_id)
            if interval.lo > 0:
                summary["margin_prunable_cells"] += 1
        summary["doomed_cells"] += len(doomed)
        if doomed:
            findings.append(
                make_diagnostic(
                    "AU502",
                    "test %s" % test.label,
                    "static margins prove rule(s) %s violate on every "
                    "monitored row under this test's injection-widened "
                    "ranges: the raw cell result is predetermined by "
                    "the spec, not the system" % ", ".join(doomed),
                    suggestion=(
                        "fix the rule bound, or drop the cell — it "
                        "cannot measure injected behaviour"
                    ),
                )
            )
    return findings


def _sampling_checks(
    graph: DependencyGraph, database, period: float
) -> List[Diagnostic]:
    findings = []
    for name in sorted(graph.referenced_signals()):
        if name not in database:
            continue
        broadcast = database.message_for_signal(name).period
        if period > broadcast:
            findings.append(
                make_diagnostic(
                    "AU402",
                    "signal %s" % name,
                    "broadcast every %gs but the monitor samples every "
                    "%gs: transient violations can fall between rows"
                    % (broadcast, period),
                    suggestion=(
                        "monitor at the fast message period or justify "
                        "the undersampling"
                    ),
                )
            )
    return findings


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def audit_rules(
    rules: Sequence,
    machines: Sequence[StateMachine] = (),
    database=None,
    plan: Optional[CampaignPlan] = None,
    period: Optional[float] = None,
    target: str = "rule set",
) -> AuditReport:
    """Audit in-memory rules, machines, database and plan together.

    ``database=None`` loads the bundled FSRACC database — the audit is
    cross-artifact by definition, so there is always a signal universe.
    ``period`` defaults to the plan's period (or the monitor default).
    """
    if database is None:
        from repro.can.fsracc import fsracc_database

        database = fsracc_database()
    if period is None:
        period = plan.period if plan is not None else DEFAULT_PERIOD
    rules = list(rules)
    machines = list(machines)
    env = database_env(database)
    _, bool_signals = dbc_environment(database)
    ctx = _ProverContext(
        machines=tuple(machines),
        bool_signals=bool_signals,
        period=period,
    )
    graph = DependencyGraph(database, rules, machines)

    summary: Dict[str, int] = {
        "rules": len(rules),
        "machines": len(machines),
        "signals": len(database.signal_names()),
        "monitored_signals": sum(
            1 for name in database.signal_names()
            if name in graph.referenced_signals()
        ),
        "tests": len(plan.tests) if plan is not None else 0,
        "dead_tests": 0,
        "prunable_cells": 0,
        "provably_safe_rules": 0,
        "margin_prunable_cells": 0,
        "doomed_cells": 0,
        "certified_rules": 0,
    }

    from repro.analysis.margins import margin_env, rule_margin

    menv = margin_env(database)
    rule_margins = {
        rule.rule_id: rule_margin(
            rule, menv, period=period, machines=machines
        )
        for rule in rules
    }
    summary["provably_safe_rules"] = sum(
        1 for interval in rule_margins.values() if interval.lo > 0
    )

    rule_findings = _rule_pair_checks(rules, env, ctx)
    rule_findings.extend(_vacuity_checks(rules, env, ctx))
    rule_findings.extend(_monitorability_checks(rules, env, ctx, summary))
    rule_findings.extend(_coverage_overlap_checks(graph))
    rule_findings.extend(_margin_rule_checks(rule_margins))

    coverage_findings = _coverage_checks(graph, machines)

    plan_findings = _sampling_checks(graph, database, period)
    if plan is not None:
        plan_findings.extend(_plan_checks(plan, database, graph, summary))
        plan_findings.extend(
            _margin_plan_checks(
                plan, database, rules, machines, graph, period, summary
            )
        )

    return AuditReport(
        target=target,
        sections={
            "rules": sort_diagnostics(rule_findings),
            "coverage": sort_diagnostics(coverage_findings),
            "plan": sort_diagnostics(plan_findings),
        },
        summary=summary,
    )


def audit_specs(
    specs,
    database=None,
    plan: Optional[CampaignPlan] = None,
    period: Optional[float] = None,
    target: str = "spec set",
) -> AuditReport:
    """Audit a loaded :class:`~repro.core.specfile.SpecSet`."""
    return audit_rules(
        specs.rules,
        machines=specs.machines,
        database=database,
        plan=plan,
        period=period,
        target=target,
    )
