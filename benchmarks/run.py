"""cyclink benchmark runner.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; cyclink is imported from its `src/` and
nothing needs installing. Workloads (see `workloads.py` and
BENCHMARK.json):

- corpus_tables: one op is one table row, `evaluate_obstruction` on a
  diagram file: the 48 corpus (fixture, q) pairs plus a writhe-0 q-sweep.
- lift_queries: one op is one library call on four medium covers, in the
  call pattern of the invariant battery.
- cli_session: one op is one `python -m cyclink.cli ... --json` process.

Shape: closed loop with one client. The next op starts only after the
previous one returned, in one thread. A pass is the whole op list of the
seed; a run makes whole passes, at least enough for 100 samples, and no
further pass once the next one would end after `--seconds`. Whole passes
keep the mix of ops, and so the percentiles, the same from run to run.

`--trace 0` prints the end-to-end metrics, measured without tracing:
setup_s (median of eleven set-ups: fresh import of cyclink, fixture load,
input generation), ops_per_s (ops over the time spent in timed calls),
latency_p50_ms, latency_p90_ms (every run has at least 100 samples, so at
least 10 lie beyond p90) and peak_rss_mb (peak RSS of this process, or of
its children for cli_session). Failed ops (wrong answers, exceptions,
unexpected exit codes) are counted in `failed` of the result line.

The times of `--trace 0` are given at reference speed. A shared host's CPU
speed drifts, by up to 2x over minutes, and that drift would swamp a
regression. So a fixed reference kernel (pure-Python fraction sums, like
cyclink's solvers) is timed before every op and set-up and after the last
one, and each duration is scaled by REFERENCE_MS over the kernel time
around it: the figure is what the op would take on a host where the kernel
takes REFERENCE_MS. The kernel is not part of any timed call. The same
figures at wall speed, and the median kernel time, are in the `wall` field
of the line before the result.

`--trace 1` makes one pass in which every op runs twice in a row, untraced
and then traced, and prints the per-layer metrics of the traced runs (see
`spans.py`): calls and self_ms per module layer, solver statistics,
cli.startup_ms and cli.main_ms (medians per process) and
trace.overhead_frac (traced over untraced time in timed calls, minus one).
The spans are written to `.bench_out/spans-<workload>-<seed>.json`.

The line before the result holds the machine (Python version, nproc, CPU
model), the sample count, the number of passes and the first failures.

Which layer metric should move which end-to-end metric:

| per-layer metric                       | should move                                         |
|----------------------------------------|-----------------------------------------------------|
| rational_linalg.solve.calls/self_ms/   | lift_queries latency_p50_ms, ops_per_s; about no    |
|   distinct_ratio                       |   change on corpus_tables (ratio already 1.0)       |
| rational_linalg.snf.calls/self_ms      | corpus_tables ops_per_s, latency_p90_ms             |
| rational_linalg.nullspace.calls/       | lift_queries ops_per_s, not its p50; none elsewhere |
|   self_ms/nullity_excess               |                                                     |
| rational_linalg.solve.cols_max/        | explain corpus_tables latency_p90_ms (q-sweep rows) |
|   rows_max/bits_max                    |                                                     |
| cover.calls/self_ms                    | cli_session latency_p90_ms, peak_rss_mb (info at    |
|                                        |   q=100000)                                         |
| diagram.calls/self_ms                  | cli_session latency_p50_ms                          |
| cli.startup_ms, cli.main_ms            | cli_session latency_p50_ms                          |
| homology.*, linking.*, obstruction.*   | small share of lift_queries; a regression guard     |
| trace.overhead_frac                    | none                                                |

The q=100000 of the large `info` op is sized for run time. At q=3000000 the
same command ends in a MemoryError (exit 1); that is a known open defect of
cyclink and is not part of this benchmark.

Exit code 0 with the result as the last stdout line; exit 2 without a
result when the checkout has no cyclink sources or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction

from workloads import GOLDEN_PATH, SRC, WORK_DIR, WORKLOADS, label

SETUP_REPEATS = 11
MIN_SAMPLES = 100
HARD_STOP_S = 150.0  # stop starting passes here, whatever the sample count
# The reference kernel sums this many fractions: 1.8 to 3.5 ms on a
# 2-vCPU Xeon KVM guest with Python 3.11, as the shared host's speed drifts.
# End-to-end times are scaled to a host on which it takes REFERENCE_MS.
KERNEL_TERMS = 600
REFERENCE_MS = 2.0


def kernel_ms() -> float:
    """Time one run of the fixed reference kernel, in milliseconds.

    Pure-Python rational arithmetic like cyclink's own solvers, so that it
    slows down with the host in the same proportion.
    """
    gc.disable()  # a collection of the program's objects is not the kernel's
    try:
        started = time.perf_counter()
        total = Fraction(0)
        for i in range(1, KERNEL_TERMS):
            total += Fraction(i, i + 7)
        return (time.perf_counter() - started) * 1000.0
    finally:
        gc.enable()


def scaled(durations: list[float], kernel: list[float]) -> list[float]:
    """Durations at reference speed.

    `kernel[i]` was timed just before `durations[i]` and `kernel[i + 1]`
    just after it; each duration is scaled by the median of the kernel
    times around it, so one preempted kernel run does not skew it.
    """
    return [
        d * REFERENCE_MS / statistics.median(kernel[max(0, i - 1):i + 2])
        for i, d in enumerate(durations)
    ]


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def set_up(workload_cls, seed: int):
    """Set the workload up SETUP_REPEATS times.

    Returns the last workload and the median set-up seconds, at wall speed
    and at reference speed.
    """
    times = []
    kernel = [kernel_ms()]
    workload = None
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload = workload_cls(seed)
        times.append(time.perf_counter() - started)
        kernel.append(kernel_ms())
    return workload, statistics.median(times), statistics.median(scaled(times, kernel))


class Pass:
    """Latencies and failures of the ops run so far."""

    def __init__(self, calibrate: bool = False):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        # Reference kernel times, one before each op and one after the last.
        self.kernel: list[float] | None = [] if calibrate else None

    def run(self, workload, golden: dict, tracer=None) -> tuple[float, float]:
        """One pass; returns the seconds spent in timed calls, untraced and traced.

        With a tracer every op runs twice in a row, untraced and then traced,
        so that a slow phase of the host falls on both halves of the pair.
        """
        state = workload.new_state()
        covers = getattr(workload, "covers", {})
        plain = traced = 0.0
        for op in workload.ops:
            if self.kernel is not None:
                self.kernel.append(kernel_ms())
            if tracer is not None:
                tracer.enabled = False
            plain += self._one(workload, op, state, golden, None)
            if tracer is not None:
                tracer.enabled = True
                with tracer.op(label(op), covers.get(op[1])) as span:
                    elapsed = self._one(workload, op, state, golden, tracer)
                span["attrs"]["wall_ns"] = int(elapsed * 1e9)
                traced += elapsed
        return plain, traced

    def _one(self, workload, op, state, golden, tracer) -> float:
        elapsed = 0.0
        started = None
        try:
            call, finish = workload.prepare(op, state, tracer)
            started = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - started
            if tracer is None:
                key, answer, ok = finish(result)
            else:
                with tracer.paused():
                    key, answer, ok = finish(result)
            if not ok:
                self.failures.append(f"{label(op)}: invariant check failed")
            elif key is not None and golden.get(key, "<missing>") != json.loads(json.dumps(answer)):
                self.failures.append(f"{label(op)}: answer differs from golden {key!r}")
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            if started is not None and elapsed == 0.0:
                elapsed = time.perf_counter() - started
            self.failures.append(f"{label(op)}: {type(exc).__name__}: {exc}")
        self.latencies.append(elapsed)
        return elapsed


def percentile_ms(values: list[float], pct: int) -> float:
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[pct - 1] * 1000.0


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli_session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(workload, golden: dict, seconds: float):
    """Whole passes for `seconds`; returns the record, passes, metrics and wall figures."""
    record = Pass(calibrate=True)
    spent = 0.0
    passes = 0
    started = time.perf_counter()
    while True:
        spent += record.run(workload, golden)[0]
        passes += 1
        elapsed = time.perf_counter() - started
        per_pass = elapsed / passes
        if elapsed > HARD_STOP_S:
            break
        if len(record.latencies) >= MIN_SAMPLES and elapsed + per_pass > seconds:
            break
    record.kernel.append(kernel_ms())
    latencies = scaled(record.latencies, record.kernel)
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (percentile_ms(latencies, 50), "ms"),
        "latency_p90_ms": (percentile_ms(latencies, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb(workload.name), "MB"),
    }
    wall = {
        "ops_per_s": len(record.latencies) / spent,
        "latency_p50_ms": percentile_ms(record.latencies, 50),
        "latency_p90_ms": percentile_ms(record.latencies, 90),
        "kernel_p50_ms": statistics.median(record.kernel),
    }
    return record, passes, metrics, wall


def trace(workload, golden: dict, seed: int):
    from spans import Tracer, layer_metrics

    record = Pass()
    tracer = Tracer()
    tracer.install()
    untraced, traced = record.run(workload, golden, tracer)
    tracer.enabled = False

    metrics = {}
    units = {"calls": "count", "self_ms": "ms", "distinct_ratio": "ratio",
             "rows_max": "count", "cols_max": "count", "bits_max": "bits",
             "nullity_excess": "count"}
    for name, value in layer_metrics(tracer).items():
        metrics[name] = (value, units[name.rsplit(".", 1)[1]])

    spans = tracer.with_self_time()
    main_ns = {s["parent"]: s["end_ns"] - s["start_ns"] for s in spans if s["name"] == "cli.main"}
    walls = [(s["attrs"]["wall_ns"], main_ns[s["id"]]) for s in spans
             if s["name"] == "op" and s["id"] in main_ns]
    metrics["cli.startup_ms"] = (
        statistics.median(w - m for w, m in walls) / 1e6 if walls else 0.0, "ms")
    metrics["cli.main_ms"] = (statistics.median(m for _, m in walls) / 1e6 if walls else 0.0, "ms")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")

    WORK_DIR.mkdir(exist_ok=True)
    tracer.write(WORK_DIR / f"spans-{workload.name}-{seed}.json")
    (WORK_DIR / f"cli-spans-{os.getpid()}.json").unlink(missing_ok=True)
    return record, 1, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cyclink" / "__init__.py").is_file():
        print(f"error: no cyclink sources under {SRC}", file=sys.stderr)
        return 2
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)[args.workload]

    # One CPU for this process and the CLI processes it starts, so that the
    # reference kernel times the CPU the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload, wall_setup_s, setup_s = set_up(WORKLOADS[args.workload], args.seed)
    deterministic = workload.op_list(args.seed) == workload.op_list(args.seed) == workload.ops

    wall = {}
    if args.trace:
        record, passes, metrics = trace(workload, golden, args.seed)
    else:
        record, passes, metrics, wall = measure(workload, golden, args.seconds)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
        wall = {"setup_s": wall_setup_s, **wall}

    header = {
        "benchmark": "cyclink",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(),
        "samples": len(record.latencies),
        "passes": passes,
        "ops_per_pass": len(workload.ops),
        "op_list_deterministic": deterministic,
        "wall": wall,
        "failures": record.failures[:20],
    }
    print(json.dumps(header))
    failed = len(record.failures)
    print(json.dumps({
        "correct": deterministic and failed == 0,
        "attempted": len(record.latencies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
