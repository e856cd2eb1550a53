"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload insitu_write --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload with tracing off and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced steps of the same
loop, and reports the per-layer metrics of the traced steps plus the
tracing overhead between the two.  Human-readable tables go to standard output
first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every operation's output checked out.

See ``perfbench/README.md`` for the workloads, the metrics and how they
relate.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: setups per run; setup_s is their median
SETUP_REPEATS = 5
#: speed-kernel samples taken before each setup and after the last
SETUP_SAMPLES = 3

#: end-to-end metrics (tracing off), reported by every workload
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("throughput_MBps", "MB/s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("compression_ratio", "ratio"),
    ("psnr_db", "dB"),
    ("peak_rss_MB", "MB"),
]

#: per-layer span metrics: (metric, unit, "incl" | "self" | "calls", span);
#: every value is per timed operation
SPAN_METRICS: List[Tuple[str, str, str, str]] = [
    ("write.plan_s", "s/op", "incl", "write.plan"),
    ("write.pack_s", "s/op", "incl", "write.pack"),
    ("write.encode_s", "s/op", "incl", "write.encode"),
    ("write.commit_s", "s/op", "incl", "write.commit"),
    ("read.open_s", "s/op", "incl", "read.open"),
    ("read.scan_s", "s/op", "incl", "read.scan"),
    ("read.fetch_s", "s/op", "incl", "read.fetch"),
    ("read.decode_s", "s/op", "incl", "read.decode"),
    ("read.place_s", "s/op", "incl", "read.place"),
    ("read.refill_s", "s/op", "incl", "read.refill"),
    ("codec.predict_quantize_s", "s/op", "self", "codec.predict_quantize"),
    ("codec.regression_fit_s", "s/op", "incl", "codec.regression_fit"),
    ("codec.regression_fit_calls", "calls/op", "calls", "codec.regression_fit"),
    ("codec.entropy_encode_s", "s/op", "incl", "codec.entropy_encode"),
    ("codec.lossless_encode_s", "s/op", "incl", "codec.lossless_encode"),
    ("codec.entropy_decode_s", "s/op", "incl", "codec.entropy_decode"),
    ("codec.entropy_decode_calls", "calls/op", "calls", "codec.entropy_decode"),
    ("codec.reconstruct_s", "s/op", "self", "codec.reconstruct"),
    ("codec.lossless_decode_s", "s/op", "incl", "codec.lossless_decode"),
    ("service.admit_s", "s/op", "incl", "service.admit"),
    ("service.dispatch_s", "s/op", "incl", "service.dispatch"),
    ("engine.read_batch_s", "s/op", "self", "engine.read_batch"),
    ("service.encode_s", "s/op", "incl", "service.encode"),
    ("http.transport_s", "s/op", "self", "http.transport"),
]

#: spans that only group the spans under them; coverage looks through them
GROUPING_SPANS = ("http.client",)

#: per-layer counters the workloads collect: (metric, unit, per operation?)
COUNTER_METRICS: List[Tuple[str, str, bool]] = [
    ("h5lite.bytes_read", "B/op", True),
    ("h5lite.read_requests", "count/op", True),
    ("h5lite.coalesced_reads", "count/op", True),
    ("h5lite.bytes_written", "B/op", True),
    ("cache.hit_rate", "ratio", False),
    ("cache.evictions", "count/op", True),
]

TRACE_METRICS: List[Tuple[str, str]] = [
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
]

#: coverage below this share of wall time means the spans miss real work
COVERAGE_FLOOR = 0.90


def per_layer_names() -> List[str]:
    return [m[0] for m in SPAN_METRICS] + [m[0] for m in COUNTER_METRICS] \
        + [m[0] for m in TRACE_METRICS]


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program.

    Exits with status 2 when the checkout holds no program to measure.
    """
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported repro from {repro.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def end_to_end(workload, phase, setups: Sequence[Tuple[float, float]],
               setup_probe, probe) -> Dict[str, tuple]:
    """name -> (value, unit, samples, as measured) for every end-to-end metric.

    ``setups`` holds the (wall, CPU) seconds of each setup.  Every time is
    taken to nominal machine speed by the speed probe sampled alongside it
    (``setup_probe`` for the setups, ``probe`` for the timed loop), which
    scales its CPU part.  The last element is the value as measured, or None
    for a metric that is not a time.
    """
    from perfbench.stats import Timing

    def nominal(kind: str) -> List[float]:
        return [probe.nominal(w, c)
                for w, c in zip(phase.latencies[kind], phase.cpu[kind])]

    raw = Timing.of(phase.latencies[workload.latency_kind])
    lat = Timing.of(nominal(workload.latency_kind))
    done = phase.latencies[workload.throughput_kind]
    moved = phase.nbytes[workload.throughput_kind] / 1e6
    ratio, psnr = workload.quality(phase)
    setup = statistics.median(w for w, _ in setups)
    values = {
        "setup_s": (statistics.median(setup_probe.nominal(w, c) for w, c in setups),
                    len(setups), setup),
        "throughput_MBps": (moved / sum(nominal(workload.throughput_kind)),
                            len(done), moved / sum(done)),
        "ops_per_s": (phase.ops / probe.nominal(phase.wall_s, phase.cpu_s),
                      phase.ops, phase.ops / phase.wall_s),
        "op_p50_ms": (lat.p50 * 1e3, lat.n, raw.p50 * 1e3),
        "op_p90_ms": (lat.p90 * 1e3, f"{lat.n}, {lat.beyond_p90} beyond p90",
                      raw.p90 * 1e3),
        "compression_ratio": (ratio, len(done), None),
        "psnr_db": (psnr, len(done), None),
        "peak_rss_MB": (peak_rss_mb(), 1, None),
    }
    return {name: (values[name][0], unit) + values[name][1:]
            for name, unit in END_TO_END}


def per_layer(spans, phase) -> Dict[str, tuple]:
    """name -> (value, unit, samples, None) for every per-layer metric.

    Span times are as measured.  ``phase`` is the traced half of the loop;
    the tracing overhead compares its steps with the untraced steps they
    were paired with.
    """
    from perfbench.stats import percentile
    from perfbench.tracing import coverage, totals_by_name

    ops = max(phase.ops, 1)
    totals = totals_by_name(spans)
    out: Dict[str, tuple] = {}
    for metric, unit, kind, name in SPAN_METRICS:
        row = totals.get(name)
        if row is None:
            value = 0.0
        elif kind == "calls":
            value = row.calls
        else:
            value = row.inclusive_s if kind == "incl" else row.self_s
        out[metric] = (value / ops, unit, row.calls if row else 0, None)
    for metric, unit, per_op in COUNTER_METRICS:
        value = phase.counters.get(metric, 0.0)
        out[metric] = (value / ops if per_op else value, unit, ops, None)
    # each traced step ran next to an untraced one, on the same machine
    # state; the median of their time ratios is not moved by a few slow
    # steps (cache misses), and the geometric mean of the medians over the
    # two orders cancels what the second step of a pair gains from the first
    by_order = [[r for first, r in phase.pairs if first == order]
                for order in (False, True)]
    overhead = statistics.geometric_mean(
        percentile(rs, 50)[0] for rs in by_order if rs) - 1.0
    out["trace.overhead"] = (overhead, "ratio",
                             f"{len(phase.pairs)} pairs", None)
    out["trace.coverage"] = (coverage(spans, phase.wall_s, GROUPING_SPANS),
                             "ratio", ops, None)
    return out


def print_metrics(title: str, metrics: Dict[str, tuple]) -> None:
    print(f"-- {title}")
    for name, (value, unit, n, measured) in metrics.items():
        raw = f"  (as measured {measured:.6g})" if measured is not None else ""
        print(f"   {name:<28} {value:>14.6g} {unit:<9} n={n}{raw}")


def print_self_times(spans, phase) -> None:
    from perfbench.tracing import totals_by_name

    ops = max(phase.ops, 1)
    totals = totals_by_name(spans)
    print(f"-- self time by span ({ops} traced operations, "
          f"{phase.wall_s:.3f} s wall)")
    print(f"   {'span':<26} {'calls':>8} {'self s/op':>11} {'incl s/op':>11} "
          f"{'self % wall':>11}")
    for name, row in sorted(totals.items(), key=lambda kv: -kv[1].self_s):
        print(f"   {name:<26} {row.calls:>8} {row.self_s / ops:>11.6f} "
              f"{row.inclusive_s / ops:>11.6f} "
              f"{100.0 * row.self_s / phase.wall_s:>10.2f}%")


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            scale=None, workroot: Optional[str] = None) -> Dict[str, object]:
    """Set up, run and check one workload; returns the result object.

    ``scale`` and ``workroot`` exist for the benchmark's own tests (tiny
    inputs, a temporary directory); the command line always measures
    :data:`perfbench.workloads.FULL` under ``perfbench/.work``.
    """
    from perfbench import workloads as wl
    from perfbench.speed import SpeedProbe
    from perfbench.tracing import Tracer, within_ops

    workroot = workroot or str(ROOT / "perfbench" / ".work")
    workdir = os.path.join(workroot, f"{workload_name}-{os.getpid()}")
    workload = wl.WORKLOADS[workload_name](seed, workdir, scale or wl.FULL)
    print(f"perfbench {workload_name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)} nproc={os.cpu_count()}")

    # the speed kernel is sampled around the setups and through the timed
    # loop, each scaling the CPU time of what it was sampled with
    setup_probe = SpeedProbe()
    probe = SpeedProbe()
    setups: List[Tuple[float, float]] = []
    fingerprints = []
    try:
        for i in range(1 if trace else SETUP_REPEATS):
            if i:
                workload.teardown()
            setup_probe.sample(SETUP_SAMPLES)
            t0 = wl.clock()
            workload.setup()
            setups.append(wl.since(t0))
            fingerprints.append(workload.fingerprint)
        setup_probe.sample(SETUP_SAMPLES)
        # one seed must reproduce identical inputs and plotfile bytes
        attempted = len(fingerprints) - 1
        failed = sum(1 for fp in fingerprints[1:] if fp != fingerprints[0])

        tracer = Tracer() if trace else None
        phases = workload.run(seconds, probe, tracer)
        spans = None
        if trace:
            spans = within_ops(tracer.spans())
            os.makedirs(workroot, exist_ok=True)
            tracer.dump(os.path.join(
                workroot, f"trace-{workload_name}-seed{seed}.jsonl"))
        for phase in phases:
            attempted += phase.ops
            failed += phase.errors + workload.check(phase)
    finally:
        workload.teardown()

    if trace:
        metrics = per_layer(spans, phases[-1])
        print_self_times(spans, phases[-1])
        print_metrics("per-layer metrics (traced run)", metrics)
        cov = metrics["trace.coverage"][0]
        if cov < COVERAGE_FLOOR:
            print(f"   WARNING: named spans cover {cov:.1%} of wall time "
                  f"(< {COVERAGE_FLOOR:.0%}); the accounting misses work")
    else:
        for what, p in (("setup", setup_probe), ("timed loop", probe)):
            print(f"-- {what}: CPU time scaled by {p.time_scale():.4f} to "
                  f"nominal machine speed ({p.describe()})")
        metrics = end_to_end(workload, phases[0], setups, setup_probe, probe)
        print_metrics("end-to-end metrics (tracing off)", metrics)
    print(f"   error_rate {failed / max(attempted, 1):.6g} "
          f"({failed} failed of {attempted} attempted)")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: _metric(value, unit)
                    for name, (value, unit, *_) in metrics.items()},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["insitu_write", "analysis_read", "served_queries"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    import_program()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, separators=(",", ":")))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
