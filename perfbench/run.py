"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload handshake-new-clients --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the workload untraced for half of ``--seconds``, then traced for the
other half, and prints the per-layer metrics plus ``tracing_overhead``; the
spans are written to ``.perfbench_out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every operation matched the oracle.

The benchmark imports ``repro`` from ``src/`` next to this directory and
runs with ``PYTHONHASHSEED=0`` (some serial numbers derive from ``hash()``)
and with ``TMPDIR`` inside the checkout, where the durable store keeps its
files; it re-executes itself once to pin both.  See README.md here for the
metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"
SPANS = ROOT / ".perfbench_out"
SETUP_REPEATS = 3

UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "bytes_per_op": "B",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name's suffix."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "hit_rate", "overhead", "per_leaf")):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def pin_environment(argv) -> None:
    """Re-execute once with a fixed hash seed and a temp dir in the checkout."""
    if os.environ.get("PYTHONHASHSEED") == "0" and os.environ.get("TMPDIR") == str(TMP):
        return
    TMP.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(TMP))
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seed: int, seconds: float, trace: bool, import_s: float):
    """Set up ``SETUP_REPEATS`` times, then run.

    Returns ``(outcome, metrics, tracer)``; the tracer is ``None`` untraced.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None  # let the previous world go before building the next
        started = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - started)
    from loads import percentile
    from tracer import NullTracer, Tracer

    if not trace:
        outcome = workload.run(state, seconds, NullTracer())
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "throughput_per_s": outcome.throughput(),
            "latency_p50_ms": percentile(outcome.latencies, 0.5) * 1e3,
            "latency_tail_ms": percentile(outcome.latencies, workload.tail) * 1e3,
            "bytes_per_op": outcome.bytes / outcome.byte_units if outcome.byte_units else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return outcome, metrics, None

    untraced = workload.run(state, seconds / 2, NullTracer())
    with Tracer() as tracer:
        traced = workload.run(state, seconds / 2, tracer)
    metrics = tracer.metrics()
    metrics["tracing_overhead"] = (
        (traced.busy_s / traced.attempted) / (untraced.busy_s / untraced.attempted) - 1.0
    )
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    return traced, metrics, tracer


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"cannot find the repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_environment(argv)
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    from loads import WORKLOADS

    import_s = time.perf_counter() - started
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        outcome, metrics, tracer = measure(
            workload, args.seed, args.seconds, bool(args.trace), import_s
        )
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    if tracer is not None:
        tracer.write_spans(SPANS / f"spans-{workload.name}-seed{args.seed}.csv.gz")

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{outcome.attempted} operations, {outcome.failed} failed")
    for name, value in metrics.items():
        unit = UNITS.get(name) or per_layer_unit(name)
        alias = workload.aliases.get(name)
        print(f"  {name:<56} {value:>16.6f} {unit:<6}" + (f" ({alias})" if alias else ""))
    correct = outcome.failed == 0 and outcome.attempted > 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS.get(name) or per_layer_unit(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
