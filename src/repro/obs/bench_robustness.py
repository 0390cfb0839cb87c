"""Machine-readable robustness-evaluator benchmarks
(``repro.bench.robustness/v1``).

One snapshot format, declared as :data:`ROBUSTNESS_BENCH_SCHEMA`, shared
by the committed baseline (``results/BENCH_robustness.json``) and the
CI bench gate (``benchmarks/gate.py robustness``)::

    {
      "schema": "repro.bench.robustness/v1",
      "period": <number>,
      "rows": <int>,
      "runs": [                       # window-width sweep
        {"width_rows": <int>,
         "bool_seconds": <number>,    "robust_seconds": <number>,
         "bool_rows_per_second": <number>,
         "robust_rows_per_second": <number>,
         "overhead": <number>},       # robust_seconds / bool_seconds
        ...
      ],
      "ratios": {
        "overhead_widest": <number>,  # overhead at the widest window
        "overhead_flatness": <number> # overhead(widest)/overhead(narrowest)
      }
    }

Both ratios are same-machine quantities — absolute rows/s varies wildly
between hosts, "the margin pass costs a constant factor regardless of
window width" does not:

* ``overhead_widest`` is the price of margins relative to boolean
  verdicts at the widest window.  The robustness lattice evaluates two
  float arrays (lower and upper bounds) where the boolean path
  evaluates one int8 array, so a small constant (~2–4×) is expected; a
  blow-up means the margin path fell off the O(n) kernels.
* ``overhead_flatness`` ≈ 1.0 is the headline property: the
  kernel-backed robustness path scales with trace length exactly like
  the boolean one, independent of window width.  A naive O(n·w)
  robustness aggregate would show up here immediately.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.schema import COUNT, POSITIVE, POSITIVE_INT, Field, tag

#: Schema tag carried by every robustness bench snapshot.
ROBUSTNESS_BENCH_SCHEMA_VERSION = "repro.bench.robustness/v1"


def _increasing_widths(runs: Any, where: str) -> List[str]:
    return [
        "%s[%d] widths must be strictly increasing" % (where, index)
        for index in range(1, len(runs))
        if runs[index]["width_rows"] <= runs[index - 1]["width_rows"]
    ]


#: The ``repro.bench.robustness/v1`` layout (see the module docstring).
ROBUSTNESS_BENCH_SCHEMA = Field(
    "object",
    {
        "schema": tag(ROBUSTNESS_BENCH_SCHEMA_VERSION),
        "period": POSITIVE,
        "rows": POSITIVE_INT,
        "runs": Field(
            "array",
            of=Field(
                "object",
                {
                    "width_rows": COUNT,
                    "bool_seconds": POSITIVE,
                    "robust_seconds": POSITIVE,
                    "bool_rows_per_second": POSITIVE,
                    "robust_rows_per_second": POSITIVE,
                    "overhead": POSITIVE,
                },
            ),
            min_items=2,
            check=_increasing_widths,
        ),
        "ratios": Field(
            "object",
            {"overhead_widest": POSITIVE, "overhead_flatness": POSITIVE},
        ),
    },
    title="robustness bench snapshot",
)

_PERIOD = 0.02


def _bench_formula(width_rows: int, period: float):
    from repro.core.parser import parse_formula

    # One future and one past window plus propositional structure: the
    # same operator mix the paper rules use, at a parameterized width.
    millis = int(round(width_rows * period * 1000.0))
    return parse_formula(
        "always[0, %dms] (x < 2.0 and (y > -3.0 or once[0, %dms] y > 0.5))"
        % (millis, millis)
    )


def _bench_trace(rows: int, period: float, seed: int):
    from repro.logs.trace import Trace

    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, size=rows)
    ys = rng.uniform(0.0, 1.0, size=rows)
    trace = Trace("bench")
    for row in range(rows):
        timestamp = row * period
        trace.record("x", timestamp, float(xs[row]))
        trace.record("y", timestamp, float(ys[row]))
    return trace


def bench_robustness(
    rows: int = 100_000,
    widths: Sequence[int] = (25, 250, 1000),
    repeats: int = 3,
    period: float = _PERIOD,
    seed: int = 2014,
) -> Dict[str, object]:
    """Sweep window widths, timing boolean vs robustness evaluation.

    Returns a ``repro.bench.robustness/v1`` snapshot (see module
    docstring).  Each width is timed best-of-``repeats`` on a fresh
    :class:`~repro.core.evaluator.EvalContext` (no memo carry-over
    between the two lattices), and every robustness result is checked
    for sign consistency against the boolean codes before its timing is
    trusted — a bench that gets wrong answers fast must not pass.
    """
    from repro.core.evaluator import EvalContext, evaluate_formula, evaluate_robustness
    from repro.core.types import FALSE_CODE, TRUE_CODE

    trace = _bench_trace(rows, period, seed)

    runs: List[Dict[str, object]] = []
    for width in widths:
        formula = _bench_formula(width, period)

        bool_best = float("inf")
        robust_best = float("inf")
        for _ in range(repeats):
            ctx = EvalContext(trace.to_view(period, signals=("x", "y")))
            started = time.perf_counter()
            codes = evaluate_formula(formula, ctx)
            bool_best = min(bool_best, time.perf_counter() - started)

            ctx = EvalContext(trace.to_view(period, signals=("x", "y")))
            started = time.perf_counter()
            bounds = evaluate_robustness(formula, ctx)
            robust_best = min(robust_best, time.perf_counter() - started)

        # Untimed audit: the margin signs must agree with the verdicts.
        if ((bounds.lower > 0) & (codes != TRUE_CODE)).any() or (
            (bounds.upper < 0) & (codes != FALSE_CODE)
        ).any():
            raise AssertionError(
                "robustness/boolean sign mismatch at width %d" % width
            )

        runs.append(
            {
                "width_rows": int(width),
                "bool_seconds": bool_best,
                "robust_seconds": robust_best,
                "bool_rows_per_second": rows / bool_best,
                "robust_rows_per_second": rows / robust_best,
                "overhead": robust_best / bool_best,
            }
        )

    narrowest, widest = runs[0], runs[-1]
    ratios = {
        "overhead_widest": widest["overhead"],
        "overhead_flatness": widest["overhead"] / narrowest["overhead"],
    }
    return {
        "schema": ROBUSTNESS_BENCH_SCHEMA_VERSION,
        "period": float(period),
        "rows": int(rows),
        "runs": runs,
        "ratios": ratios,
    }


def format_robustness_bench(snapshot: Dict[str, object]) -> str:
    """A human-readable table for a robustness bench snapshot."""
    lines = [
        "ROBUSTNESS EVALUATOR SWEEP (%d rows at %.0f ms)"
        % (snapshot["rows"], snapshot["period"] * 1000.0),
        "",
        "%-12s %14s %14s %16s %16s %10s"
        % (
            "width",
            "bool s",
            "robust s",
            "bool rows/s",
            "robust rows/s",
            "overhead",
        ),
    ]
    for entry in snapshot["runs"]:
        lines.append(
            "%-12s %14.4f %14.4f %16.0f %16.0f %10.2f"
            % (
                "%d rows" % entry["width_rows"],
                entry["bool_seconds"],
                entry["robust_seconds"],
                entry["bool_rows_per_second"],
                entry["robust_rows_per_second"],
                entry["overhead"],
            )
        )
    lines.append("")
    for name in sorted(snapshot["ratios"]):
        lines.append("ratio %-22s %.3f" % (name, snapshot["ratios"][name]))
    return "\n".join(lines)
