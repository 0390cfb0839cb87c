"""``repro.analysis`` — static analysis ("speclint") for the monitor
specification language.

The paper's workflow has experts writing and iteratively relaxing safety
rules; its §V challenges (multi-rate sampling, warm-up after discrete
jumps, intent approximation) are mistakes made *in the spec text* and
traditionally discovered only after an expensive campaign run.  This
package catches them statically — resolving signal references against
the CAN database, folding constants through DBC physical ranges, and
inspecting temporal bounds against broadcast periods — before a single
simulation step.

Entry points:

* :func:`lint_rules` / :func:`lint_specs` / :func:`lint_file` — run
  every check, returning sorted :class:`Diagnostic` findings;
* ``repro lint`` — the CLI wrapper (text or JSON output, exit code
  gated on error-level findings);
* ``strict=True`` on :class:`repro.core.monitor.Monitor` construction
  and :func:`repro.core.specfile.load_specs` — reject error findings at
  load time.

See :data:`repro.analysis.catalog.CATALOG` for every diagnostic code.
"""

from repro.analysis.analyzer import (
    build_context,
    database_env,
    lint_file,
    lint_rules,
    lint_specs,
)
from repro.analysis.audit import (
    AuditReport,
    CampaignPlan,
    audit_rules,
    audit_specs,
    contradicts,
    implies,
    negate,
    paper_plan,
)
from repro.analysis.automata import (
    AutomataReport,
    Automaton,
    Certificate,
    Observability,
    RuleAutomaton,
    StateBudgetError,
    UnsupportedFormulaError,
    analyze_automata,
    analyze_automata_specs,
    compile_formula,
    compile_rule,
    prove_contradicts,
    prove_implies,
    prove_valid,
    reduce_observables,
    to_dot,
)
from repro.analysis.catalog import CATALOG, CatalogEntry, make_diagnostic
from repro.analysis.checks import LintContext, formula_status
from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    count_by_severity,
    has_errors,
    sort_diagnostics,
)
from repro.analysis.intervals import (
    ALWAYS,
    MAYBE,
    NEVER,
    Interval,
    compare,
    expr_interval,
)
from repro.analysis.depgraph import DependencyGraph, FlowEdge, fsracc_flow
from repro.analysis.predicates import (
    Alphabet,
    AlphabetError,
    build_alphabet,
    dbc_environment,
)
from repro.analysis.margins import (
    CellMarginResult,
    MarginEnv,
    MarginReport,
    RuleMarginResult,
    analyze_margins,
    analyze_margins_specs,
    cell_env,
    expr_margin,
    formula_margin,
    margin_env,
    rule_margin,
)
from repro.analysis.schema import (
    AUDIT_REPORT_SCHEMA,
    AUDIT_SCHEMA_VERSION,
    AUTOMATA_REPORT_SCHEMA,
    AUTOMATA_SCHEMA_VERSION,
    LINT_REPORT_SCHEMA,
    MARGINS_REPORT_SCHEMA,
    MARGINS_SCHEMA_VERSION,
    SCHEMA_VERSION,
    build_audit_report,
    build_automata_report,
    build_margins_report,
    build_report,
)

__all__ = [
    "ALWAYS",
    "AUDIT_REPORT_SCHEMA",
    "AUDIT_SCHEMA_VERSION",
    "AUTOMATA_REPORT_SCHEMA",
    "AUTOMATA_SCHEMA_VERSION",
    "Alphabet",
    "AlphabetError",
    "AuditReport",
    "AutomataReport",
    "Automaton",
    "CATALOG",
    "CampaignPlan",
    "CatalogEntry",
    "CellMarginResult",
    "Certificate",
    "DependencyGraph",
    "Diagnostic",
    "FlowEdge",
    "Interval",
    "LINT_REPORT_SCHEMA",
    "LintContext",
    "MARGINS_REPORT_SCHEMA",
    "MARGINS_SCHEMA_VERSION",
    "MAYBE",
    "MarginEnv",
    "MarginReport",
    "NEVER",
    "Observability",
    "RuleAutomaton",
    "RuleMarginResult",
    "SCHEMA_VERSION",
    "Severity",
    "StateBudgetError",
    "UnsupportedFormulaError",
    "analyze_automata",
    "analyze_automata_specs",
    "analyze_margins",
    "analyze_margins_specs",
    "audit_rules",
    "audit_specs",
    "build_alphabet",
    "build_audit_report",
    "build_automata_report",
    "build_context",
    "build_margins_report",
    "build_report",
    "cell_env",
    "compare",
    "compile_formula",
    "compile_rule",
    "contradicts",
    "count_by_severity",
    "database_env",
    "dbc_environment",
    "expr_interval",
    "expr_margin",
    "formula_margin",
    "formula_status",
    "fsracc_flow",
    "has_errors",
    "implies",
    "lint_file",
    "lint_rules",
    "lint_specs",
    "make_diagnostic",
    "margin_env",
    "negate",
    "paper_plan",
    "prove_contradicts",
    "prove_implies",
    "prove_valid",
    "reduce_observables",
    "rule_margin",
    "sort_diagnostics",
    "to_dot",
]
