"""Record the reference outputs and counters the benchmark checks against.

Usage, from the root of a source checkout::

    python3 perfbench/record_refs.py 2014 1729 1 2 3

For each seed this runs one pass of every workload and writes
``perfbench/refs/seed-<seed>.json``: the Table I letters per campaign
row, the strict and relaxed letters per drive log, and each workload's
deterministic program counters (``workloads.CHECKED_COUNTERS``).  The
fleet's letters are not stored: every run compares them with the offline
check of the same logs.  Run it only on code whose outputs are known to
be right; the test suite pins seed 2014 to the committed ``results/``.
"""

from __future__ import annotations

import json
import sys
import tempfile

from run import REFS, ROOT, WORK, WORKLOADS


def record(seed: int) -> dict:
    import workloads

    entry = {}
    WORK.mkdir(exist_ok=True)
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=WORK) as workdir:
            workload = workloads.make_workload(name, workdir)
            workload.setup(seed)
            result = workload.run_pass()
        ref = {
            "counters": {
                key: result.counters[key] for key in workloads.CHECKED_COUNTERS[name]
            }
        }
        if name != "fleet_replay":
            ref["outputs"] = dict(sorted(result.outputs.items()))
        entry[name] = ref
    return entry


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    REFS.mkdir(exist_ok=True)
    for seed in (int(arg) for arg in argv):
        path = REFS / ("seed-%d.json" % seed)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record(seed), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % path, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
