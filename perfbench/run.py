"""smoothsum benchmark: time to a certified verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: franklin-build, identity-grid, verdict-mix (see workloads.py
and README.md).  The package is imported from `src/` next to this
directory; nothing is installed.

--trace 0 sets up at least SETUP_REPEATS times (reporting the median),
then sends requests one after another until S seconds have passed,
finishing the batch in flight, and reports the end-to-end metrics of
BENCHMARK.json.  Its times are calibrated CPU seconds (see calib.py).
--trace 1 sets up once with tracing on, replays a fixed list of requests
twice untraced and twice traced, reports the per-layer metrics, and
writes the spans to perfbench/out/.  Every output is judged by an oracle
that does not import smoothsum.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import random
import resource
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

from calib import Calibrator
from tracer import Tracer
from workloads import WORKLOADS, load_smoothsum

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0  # cheap set-ups repeat until this much time is spent
SETUP_MAX_REPEATS = 15
MAX_ERRORS = 20  # error messages kept; failures are counted regardless
# counts that must repeat exactly between the two traced passes
EXACT_SUFFIXES = (".calls", ".points", ".candidates", ".indeterminate", ".hits", "coef_bits_max")


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def check_origin(pkg: dict) -> None:
    """Refuse a smoothsum imported from anywhere but this checkout's src/."""
    origin = Path(pkg["cli"].__file__).resolve().parent
    if origin != ROOT / "src" / "smoothsum":
        fail(f"imported smoothsum from {origin}, not from this checkout")


class Tally:
    """What a run keeps of its requests: clock readings before and after
    each (in arrays, so that the run's own memory stays small), and judged
    outcomes."""

    def __init__(self, judge):
        self.judge = judge
        self.starts, self.ends = array("d"), array("d")
        self.failed = self.decided = 0
        self.errors = []

    @property
    def attempted(self) -> int:
        return len(self.ends)

    def spans(self):
        return zip(self.starts, self.ends)


def execute(wl, state, batches, tally: Tally, seconds=None, clock=perf_counter) -> float:
    """Closed loop, one client: each request is sent when the previous one
    has returned and been judged.  Each request's span is read from `clock`.
    Returns the elapsed wall-clock seconds, less the time spent judging;
    the wall clock is read between batches."""
    judging = 0.0
    start = perf_counter()
    for batch in batches:
        for req in batch:
            tally.starts.append(clock())
            try:
                out, exc = wl.run(state, req), None
            except Exception:  # a request that raises is a failed request
                out, exc = None, traceback.format_exc(limit=-1).strip()
            tally.ends.append(clock())
            t1 = perf_counter()
            decided, errors = tally.judge(req, out, exc)
            tally.failed += bool(errors)
            tally.decided += decided and not errors
            tally.errors += errors[: MAX_ERRORS - len(tally.errors)]
            del out
            judging += perf_counter() - t1
        if seconds is not None and perf_counter() - start - judging >= seconds:
            break
    return perf_counter() - start - judging


def tail(latencies: list, pct: float) -> tuple:
    """(value, samples beyond it): the pct-th percentile, nearest rank."""
    xs = sorted(latencies)
    rank = min(len(xs), math.ceil(pct / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def timed_run(wl, seed: int, seconds: float) -> tuple:
    with Calibrator() as cal:
        setup_spans = []
        while len(setup_spans) < SETUP_REPEATS or (
                setup_spans[-1][1] - setup_spans[0][0] < SETUP_MIN_S
                and len(setup_spans) < SETUP_MAX_REPEATS):
            t0 = cal.clock()
            pkg = load_smoothsum()
            state = wl.setup(pkg)
            setup_spans.append((t0, cal.clock()))
        check_origin(pkg)
        gc.collect()
        gen = wl.batches(state, random.Random(seed))
        first = next(gen)  # lets the workload make its inputs before the clock starts
        tally = Tally(wl.judge())
        wall = execute(wl, state, itertools.chain([first], gen), tally, seconds, clock=cal.clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the figures are worked out
    cal.top_up()
    setup_times = [cal.seconds(a, b) for a, b in setup_spans]
    latencies = [cal.seconds(a, b) for a, b in tally.spans()]
    n = tally.attempted
    busy = sum(tally.ends) - sum(tally.starts)
    tail_value, beyond = tail(latencies, wl.tail_pct)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": n / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "decided_frac": tally.decided / n,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        f"times are calibrated CPU seconds; {len(cal.times)} reference bursts "
        f"({cal.spent:.2f} s) give the run a factor of {cal.factor():.4f}",
        f"setup_s is the median of {len(setup_times)} set-ups",
        f"latency_tail_s is p{wl.tail_pct:g} of {n} samples ({beyond} beyond it)",
        f"failed_frac {tally.failed / n} ({tally.failed} of {n} requests)",
        f"uncalibrated: {n / wall:.6g} requests per wall-clock second, "
        f"{busy:.3f} CPU s over {wall:.3f} wall s",
    ]
    return tally, metrics, notes


def traced_run(wl, seed: int, per_layer: list) -> tuple:
    pkg = load_smoothsum()
    check_origin(pkg)
    tracer = Tracer(pkg)
    tracer.install()
    errors = tracer.leftovers()
    state = wl.setup(pkg)
    setup = tracer.collect()
    tracer.uninstall()
    unit = wl.trace_unit(state, random.Random(seed))
    # untraced and traced passes alternate, so that warm-up and drift
    # fall on both sides of the overhead ratio
    tally = Tally(wl.judge())
    base_times, passes = [], []
    for _ in range(2):
        gc.collect()
        base_times.append(execute(wl, state, [unit], tally))
        tracer.install()
        gc.collect()
        t = execute(wl, state, [unit], tally)
        passes.append((t, tracer.collect()))
        tracer.uninstall()
    misses = pkg["gallery"].franklin_map.cache_info().misses

    first, second = passes[0][1]["metrics"], passes[1][1]["metrics"]
    base_time = statistics.mean(base_times)
    traced_time = statistics.mean(t for t, _ in passes)
    metrics = {}
    for name in per_layer:
        if name.startswith("setup."):
            metrics[name] = setup["metrics"].get(name[len("setup."):], 0)
        elif name == "gallery.franklin_map.misses":
            metrics[name] = misses
        elif name == "trace.overhead_frac":
            metrics[name] = 1 - base_time / traced_time
        elif name == "decompose.kernel_image_check.hit_ratio":
            cands = first.get("decompose.kernel_image_check.candidates", 0)
            metrics[name] = first.get("decompose.kernel_image_check.hits", 0) / cands if cands else 0
        else:
            metrics[name] = first.get(name, 0)

    for key in sorted(set(first) | set(second)):
        if key.endswith(EXACT_SUFFIXES) and first.get(key, 0) != second.get(key, 0):
            errors.append(f"count {key} differs between traced passes: {first.get(key, 0)} vs {second.get(key, 0)}")
    for name in wl.predicted_nonzero:
        if not metrics[name]:
            errors.append(f"{name} reads 0 on {wl.name}, predicted non-zero")
    if misses != wl.map_misses:
        errors.append(f"gallery.franklin_map missed {misses} times, expected {wl.map_misses}")

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{wl.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": wl.name,
        "seed": seed,
        "span_fields": ["name", "start", "end", "parent"],
        "setup": setup["spans"],
        "traced_pass": passes[0][1]["spans"],
    }))
    notes = [
        f"{len(unit)} requests replayed untraced ({base_times[0]:.3f} s, {base_times[1]:.3f} s) "
        f"and traced ({passes[0][0]:.3f} s, {passes[1][0]:.3f} s), alternately; "
        "per-layer figures are from the first traced pass",
        f"kernel_image_check hits {first.get('decompose.kernel_image_check.hits', 0)} "
        f"of {first.get('decompose.kernel_image_check.candidates', 0)} candidates",
        f"spans written to {trace_file.relative_to(ROOT)}",
    ]
    tally.errors += errors
    return tally, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="smoothsum benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "smoothsum" / "__init__.py").is_file() or not spec_file.is_file():
        fail(f"no smoothsum sources or BENCHMARK.json under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_file.read_text())
    wl = WORKLOADS[args.workload]
    if args.trace:
        listed = spec["per_layer"]
        tally, values, notes = traced_run(wl, args.seed, [m["name"] for m in listed])
    else:
        listed = spec["end_to_end"]
        tally, values, notes = timed_run(wl, args.seed, args.seconds)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"requests {tally.attempted}  failed {tally.failed}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:<14.6g} {m['unit']}")
    for line in notes:
        print(f"  note: {line}")
    for line in tally.errors:
        print(f"  ERROR: {line}")
    print(json.dumps({
        "correct": not tally.errors and not tally.failed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
