"""Freeze the golden answers the benchmark checks against.

    python3 benchmarks/freeze.py

Runs every op whose answer `golden.json` records (each workload's `pool()`:
all corpus and q-sweep rows, every chain, multiple, linking number and
nullity of the lift_queries covers, and every CLI command the seed can
draw) once, requires the op's own invariant checks to hold, and writes
`benchmarks/golden.json`. Rerun it only when a change to cyclink is meant
to change an answer; the benchmark of a speed change must pass against the
golden file of its parent.
"""

from __future__ import annotations

import json
import sys

from workloads import GOLDEN_PATH, WORKLOADS, label


def freeze(workload) -> dict:
    answers = {}
    state = workload.new_state()
    for op in workload.pool():
        call, finish = workload.prepare(op, state, None)
        key, answer, ok = finish(call())
        if not ok:
            raise SystemExit(f"{workload.name}: invariant check failed on {label(op)}")
        if key is not None:
            answers[key] = answer
    return answers


def main() -> int:
    golden = {}
    for name, cls in WORKLOADS.items():
        golden[name] = freeze(cls(0))
        print(f"{name}: {len(golden[name])} answers", file=sys.stderr)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
