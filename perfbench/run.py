"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload campaign --seed 2014 --seconds 15 --trace 0

The program under test is imported from ``src/`` of the checkout.  Set-up
(input generation from the seed) runs three times and is reported as its
median.  The timed part then runs whole passes until the next would
overrun ``--seconds`` (at least one).  Every pass's outputs are checked
against a reference the workload computes on another code path, and, for
a seed with a reference stored under ``perfbench/refs/``, against that
too.  The program's counters must equal the stored ones, or, at other
seeds, those of the run's first pass.
Timed metrics are in reference seconds, corrected for the host's speed
by a calibration loop (see ``workloads.Calibration``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half of
the time budget on untraced passes and half on passes with every layer
wrapped in spans, writes the spans to ``.perfbench/spans-<workload>.npz``
and prints the per-layer metrics derived from that file.  Metric names
and units come from ``BENCHMARK.json``; a run that computes any other set
of metrics fails.

The last line of standard output is the result object; the lines before it
are a human-readable summary.  The exit code is 0 when the run completed,
whether or not its outputs matched (see ``correct``/``failed``).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"
#: Scratch and span files live here, inside the checkout.
WORK = ROOT / ".perfbench"

WORKLOADS = ("campaign", "log_check", "fleet_replay")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A p99 is only reported with at least this many samples beyond it.
TAIL_SAMPLES = 10


def load_ref(seed: int) -> Dict[str, Dict[str, Dict]]:
    """The references stored for ``seed``; empty when there are none."""
    path = REFS / ("seed-%d.json" % seed)
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values, q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-quantile and the number of samples above it."""
    import numpy as np

    ordered = np.sort(values)
    value = float(ordered[max(int(np.ceil(q * ordered.size)) - 1, 0)])
    return value, int(np.count_nonzero(ordered > value))


def run_passes(run_pass, seconds: float, results: list, calibration) -> None:
    """Whole passes until the next would overrun ``seconds``; at least one.

    The host's speed is sampled after every pass (and by the pass itself,
    where it is long); the caller samples it before the first.
    """
    start = perf_counter()
    while True:
        results.append(run_pass(calibration))
        calibration.sample()
        elapsed = perf_counter() - start
        typical = statistics.median(r.wall_s for r in results)
        if elapsed + typical > seconds:
            return


def end_to_end(passes, setups, calibration) -> Dict[str, float]:
    import numpy as np

    # Every time in reference seconds (see Calibration.reference_clock).
    reference = calibration.reference_clock()

    def elapsed(start, end):
        return reference(end) - reference(start)

    wall = statistics.median(elapsed(p.start, p.end) for p in passes)
    # The campaign's passes simulate; the log workloads simulate only in
    # set-up, when they generate their drive logs.  A pass's simulating
    # time is scaled by the pass's mean host speed.
    sim_rates = [
        p.simulated_s / (p.simulating_s * elapsed(p.start, p.end) / p.wall_s)
        for p in passes
        if p.simulated_s is not None
    ] or [s["simulated_s"] / elapsed(s["from"], s["to"]) for s in setups]
    latency = np.concatenate(
        [elapsed(p.latency_from, p.latency_to) for p in passes]
    )
    p50, _ = percentile(latency, 0.50)
    p99, beyond = percentile(latency, 0.99)
    print("latency: %d samples, %d beyond p99" % (latency.size, beyond))
    if beyond < TAIL_SAMPLES:
        raise RuntimeError(
            "only %d latency samples beyond p99; need %d" % (beyond, TAIL_SAMPLES)
        )
    return {
        "setup_s": statistics.median(elapsed(s["start"], s["end"]) for s in setups),
        "wall_s": wall,
        "sim_s_per_s": statistics.median(sim_rates),
        "rows_per_s": passes[0].rows / wall,
        "events_per_s": passes[0].events / wall,
        "event_p50_ms": p50 * 1e3,
        "event_p99_ms": p99 * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric_units(kind: str) -> Dict[str, str]:
    """Units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no program sources at %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    stored = load_ref(args.seed).get(args.workload, {})
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        workload = workloads.make_workload(args.workload, workdir)
        calibration = workloads.Calibration()
        calibration.sample()
        setups = []
        for _ in range(SETUP_REPEATS):
            start = calibration.clock()
            setup = workload.setup(args.seed, calibration)
            setup.update(start=start, end=calibration.clock())
            calibration.sample()
            setups.append(setup)
        passes: list = []
        if args.trace:
            span_path = str(WORK / ("spans-%s.npz" % args.workload))
            passes = traced_run(
                spans, workloads, workload, args.workload, args.seconds, span_path
            )
            print(spans.span_file_summary(span_path))
            values = spans.layer_metrics(span_path)
            units = metric_units("per_layer")
        else:
            calibration.sample()
            run_passes(workload.run_pass, args.seconds, passes, calibration)
            values = end_to_end(passes, setups, calibration)
            units = metric_units("end_to_end")
        if set(values) != set(units):
            raise RuntimeError(
                "computed metrics %s differ from BENCHMARK.json's %s"
                % (sorted(values), sorted(units))
            )

        # Outside the timed part, after peak_rss_mb is read.
        references = [workload.reference()]
        if "outputs" in stored:
            references.append(stored["outputs"])
        counters = stored.get("counters") or passes[0].counters
        checked = workloads.CHECKED_COUNTERS[args.workload]
        counters = {key: counters.get(key) for key in checked}
        attempted = failed = 0
        for result in passes:
            result.check(references, counters)
            attempted += result.attempted
            failed += result.failed
            for line in result.mismatches:
                print("MISMATCH %s" % line)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        "%s seed %d: %d set-up(s), %d pass(es), "
        "%d/%d operations failed"
        % (args.workload, args.seed, len(setups), len(passes), failed, attempted)
    )
    for name, unit in units.items():
        print("  %-26s %14.6g %s" % (name, values[name], unit))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


def traced_run(spans, workloads, workload, name: str, seconds: float, span_path: str) -> list:
    """Untraced then traced passes, half of ``seconds`` each, every pass a
    root span; writes the spans to ``span_path`` and returns every pass.

    Nothing is calibrated: the spans time the program alone.
    """
    tracer = spans.Tracer(name)

    def rooted(root: str):
        def run_pass(calibration):
            with tracer.span(root):
                return workload.run_pass(calibration)

        return run_pass

    untraced: list = []
    run_passes(rooted(spans.UNTRACED_PASS), seconds / 2, untraced, workloads.NO_CALIBRATION)
    traced: list = []
    with spans.layers_wrapped(tracer):
        run_passes(rooted(spans.TRACED_PASS), seconds / 2, traced, workloads.NO_CALIBRATION)
    tracer.pass_counters = [result.counters for result in traced]
    tracer.write(span_path)
    return untraced + traced


if __name__ == "__main__":
    sys.exit(main())
