"""CI bench gate: rerun each bench at reduced scale and judge it.

:data:`BENCHES` holds the four gated benches — ``monitor`` (window
kernels), ``batch`` (columnar batched checking), ``online`` (online
monitor and fleet replay) and ``robustness`` (margin evaluator): the
reduced-scale run, the schema, the committed baseline under
``results/``, the ratios compared with it and the absolute floors.

Regression is judged on **same-machine ratios** (O(n) kernel vs O(n*w)
reference, batched pass vs per-trace loop, ...), which transfer across
hosts where absolute speed does not: a ratio fails when it is worse
than the committed one by more than :data:`REGRESSION_FACTOR`.  The
floors are conservative absolute guards any real host clears by an
order of magnitude.  :func:`gate_failures` is the whole, pure decision.

Usage (no NAME runs every bench; exit status 1 when a gate fails)::

    PYTHONPATH=src python benchmarks/gate.py [NAME ...] [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.obs import (
    BATCH_BENCH_SCHEMA,
    BENCH_SCHEMA,
    ONLINE_BENCH_SCHEMA,
    ROBUSTNESS_BENCH_SCHEMA,
    bench_batch,
    bench_monitor,
    bench_online,
    bench_robustness,
    format_batch_bench,
    format_bench,
    format_online_bench,
    format_robustness_bench,
)
from repro.schema import Field, require_valid, validate

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: A ratio regresses when it is worse than the committed one by more
#: than this factor.
REGRESSION_FACTOR = 2.0


class Bench(NamedTuple):
    run: Callable[[], dict]  # the reduced-scale run CI performs
    format: Callable[[dict], str]
    schema: Field
    baseline: str  # file under results/
    section: str  # the same-machine ratios compared with the baseline
    higher_is_better: bool
    # Absolute guards (label, measure, op, bound): measure(fresh) op bound.
    floors: Sequence[Tuple[str, Callable[[dict], float], str, float]]
    compared: Optional[Sequence[str]] = None  # None: every baseline ratio


def _ratio(name: str) -> Callable[[dict], float]:
    return lambda snapshot: snapshot["ratios"][name]


def _widest_block_rps(snapshot: dict) -> float:
    blocks = [entry for entry in snapshot["sweep"] if entry["kernel"] == "block"]
    return max(blocks, key=lambda entry: entry["width_rows"])["rows_per_second"]


BENCHES: Dict[str, Bench] = {
    "monitor": Bench(
        run=lambda: bench_monitor(rows=8000, repeats=3),
        format=format_bench,
        schema=BENCH_SCHEMA,
        baseline="BENCH_monitor.json",
        section="speedups",
        higher_is_better=True,
        floors=[("block rows/s, widest window", _widest_block_rps, ">=", 50_000.0)],
    ),
    "batch": Bench(
        run=lambda: bench_batch(replicas=2, repeats=3),
        format=format_batch_bench,
        schema=BATCH_BENCH_SCHEMA,
        baseline="BENCH_batch.json",
        section="ratios",
        higher_is_better=True,
        floors=[
            # The acceptance bar of the columnar path, and an O(config)
            # process-boundary payload.
            ("batched speedup", _ratio("speedup"), ">=", 5.0),
            ("payload collapse", _ratio("pickle_collapse"), ">=", 1_000.0),
        ],
    ),
    "online": Bench(
        run=lambda: bench_online(rows=4000, repeats=2, fleet_streams=8),
        format=format_online_bench,
        schema=ONLINE_BENCH_SCHEMA,
        baseline="BENCH_online.json",
        section="ratios",
        higher_is_better=True,
        floors=[
            # Doubling the stream may not grow the peak buffer (the
            # slack absorbs boundary rounding).
            ("peak buffer growth", _ratio("buffer_flatness"), "<=", 1.05),
            (
                "slowest feed events/s",
                lambda s: min(run["events_per_second"] for run in s["runs"]),
                ">=", 20_000.0,
            ),
        ],
        compared=["throughput_flatness"],
    ),
    "robustness": Bench(
        run=lambda: bench_robustness(rows=20000, repeats=3),
        format=format_robustness_bench,
        schema=ROBUSTNESS_BENCH_SCHEMA,
        baseline="BENCH_robustness.json",
        section="ratios",
        higher_is_better=False,
        floors=[
            # A naive O(n*w) margin aggregate posts ~40x here.
            ("overhead growth", _ratio("overhead_flatness"), "<=", 5.0),
            (
                "robustness pass rows/s at the widest window",
                lambda s: s["runs"][-1]["robust_rows_per_second"],
                ">=", 20_000.0,
            ),
        ],
    ),
}

_OPS = {">=": operator.ge, "<=": operator.le}


def gate_failures(name: str, fresh: Any, baseline: Any) -> List[str]:
    """Every reason the fresh ``name`` snapshot fails its gate; with no
    ``baseline`` (None) only the schema and the floors apply."""
    bench = BENCHES[name]
    failures = ["fresh %s" % p for p in validate(fresh, bench.schema)]
    if failures:
        return failures
    for label, measure, op, bound in bench.floors:
        measured = measure(fresh)
        if not _OPS[op](measured, bound):
            failures.append(
                "%s is %.4g, beyond the %s %.4g bound" % (label, measured, op, bound)
            )
    if baseline is None:
        return failures
    problems = validate(baseline, bench.schema)
    if problems:
        return failures + ["baseline %s" % p for p in problems]
    committed = baseline[bench.section]
    for ratio in bench.compared or sorted(committed):
        measured = fresh[bench.section].get(ratio)
        if measured is None:
            failures.append(
                "baseline %s %r missing from fresh run" % (bench.section, ratio)
            )
            continue
        if bench.higher_is_better:
            regressed = measured < committed[ratio] / REGRESSION_FACTOR
        else:
            regressed = measured > committed[ratio] * REGRESSION_FACTOR
        if regressed:
            failures.append(
                "%s regressed >%gx: %.3f measured vs %.3f committed"
                % (ratio, REGRESSION_FACTOR, measured, committed[ratio])
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="benches to gate: %s (default: all)" % ", ".join(BENCHES),
    )
    parser.add_argument(
        "--out-dir", type=Path, default=None, help="keep fresh snapshots here"
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(BENCHES))
    if unknown:
        parser.error("unknown bench(es): %s" % ", ".join(unknown))

    failed = False
    for name in args.names or list(BENCHES):
        bench = BENCHES[name]
        fresh = require_valid(bench.run(), bench.schema)
        print(bench.format(fresh))
        if args.out_dir is not None:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            path = args.out_dir / ("%s.json" % name)
            path.write_text(json.dumps(fresh, indent=2) + "\n", encoding="utf-8")
            print("snapshot written to %s" % path)
        path = RESULTS / bench.baseline
        baseline = json.loads(path.read_text("utf-8")) if path.exists() else None
        failures = gate_failures(name, fresh, baseline)
        for failure in failures:
            print("FAIL %s: %s" % (name, failure), file=sys.stderr)
        print("%s gate %s\n" % (name, "FAILED" if failures else "OK"))
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
