"""Tests of the benchmark itself: span arithmetic, percentiles, tiny runs."""

import json
import threading
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.stats import Timing, percentile
from perfbench.tracing import (
    Probe,
    Span,
    Tracer,
    coverage,
    covered_length,
    instrument,
    self_times,
    totals_by_name,
    within_ops,
)

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def span(index, name, start, end, parent=None, op=0):
    return Span(index, name, start, end, parent, op)


# ----------------------------------------------------------------------
# self time and coverage
# ----------------------------------------------------------------------
def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 4), (3, 6)], 0, 10) == 5
    assert covered_length([(1, 2), (5, 7)], 0, 10) == 3
    assert covered_length([(-5, 2), (8, 20)], 0, 10) == 4
    assert covered_length([(11, 12)], 0, 10) == 0
    assert covered_length([], 0, 10) == 0


def test_self_time_of_nested_children():
    spans = [span(0, "root", 0, 10),
             span(1, "a", 1, 4, parent=0),
             span(2, "a.child", 2, 3, parent=1),
             span(3, "b", 6, 9, parent=0)]
    assert self_times(spans) == {0: 4, 1: 2, 2: 1, 3: 3}


def test_self_time_counts_overlapping_children_once():
    # two children running at once (two threads) cover [1, 6], not 3 + 3
    spans = [span(0, "root", 0, 10),
             span(1, "a", 1, 4, parent=0),
             span(2, "b", 3, 6, parent=0)]
    assert self_times(spans)[0] == pytest.approx(5)


def test_self_time_clips_a_child_outliving_its_parent():
    spans = [span(0, "root", 0, 10), span(1, "late", 8, 14, parent=0)]
    assert self_times(spans) == {0: 8, 1: 6}


def test_totals_count_nested_spans_of_one_name_once():
    spans = [span(0, "op", 0, 10),
             span(1, "read.refill", 1, 9, parent=0),
             span(2, "read.refill", 2, 5, parent=1),
             span(3, "read.decode", 3, 4, parent=2)]
    totals = totals_by_name(spans)
    assert totals["read.refill"].calls == 2
    assert totals["read.refill"].inclusive_s == 8
    assert totals["read.refill"].self_s == pytest.approx((8 - 3) + (3 - 1))
    assert totals["op"].self_s == 2


def test_coverage_is_children_of_roots_over_wall():
    spans = [span(0, "op.x", 0, 10, op=0),
             span(1, "layer", 0, 6, parent=0, op=0),
             span(2, "layer.inner", 1, 2, parent=1, op=0),
             span(3, "op.x", 10, 20, op=1),
             span(4, "layer", 12, 14, parent=3, op=1)]
    assert coverage(spans, 20) == pytest.approx(8 / 20)
    assert coverage(spans, 0) == 0


def test_coverage_looks_through_grouping_spans():
    # a client call that only groups its send/receive spans covers nothing by
    # itself: the gap between them (unnamed client work) is not covered
    spans = [span(0, "op.query", 0, 10),
             span(1, "http.client", 0, 10, parent=0),
             span(2, "http.transport", 1, 4, parent=1),
             span(3, "service.handle", 2, 3, parent=2),
             span(4, "http.transport", 5, 9, parent=1)]
    assert coverage(spans, 10) == pytest.approx(1.0)
    assert coverage(spans, 10, through=["http.client"]) == pytest.approx(7 / 10)


def test_within_ops_keeps_only_benchmark_operations():
    spans = [span(0, "http.client", 0, 1, op=0),
             span(1, "service.handle", 0, 1, parent=0, op=0),
             span(2, "op.query", 2, 3, op=1),
             span(3, "http.client", 2, 3, parent=2, op=1)]
    assert [s.index for s in within_ops(spans)] == [2, 3]


# ----------------------------------------------------------------------
# the tracer
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_records_parents_and_operation_ids():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("op.a"):
        with tracer.span("inner"):
            pass
    with tracer.span("op.b"):
        pass
    spans = tracer.spans()
    assert [(s.name, s.parent, s.op) for s in spans] == \
        [("op.a", None, 0), ("inner", 0, 0), ("op.b", None, 1)]
    assert spans[1].start > spans[0].start and spans[1].end < spans[0].end


def test_spans_on_another_thread_join_the_propagating_call(tmp_path):
    class Service:
        def call(self):
            worker = threading.Thread(target=self.serve)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()

        def serve(self):
            pass

    tracer = Tracer()
    probes = [Probe(Service, "call", "client", propagate=True),
              Probe(Service, "serve", "server")]
    with instrument(tracer, probes):
        with tracer.span("op.request"):
            Service().call()
    spans = {s.name: s for s in tracer.spans()}
    assert spans["server"].parent == spans["client"].index
    assert spans["server"].op == spans["op.request"].op
    assert tracer.dump(str(tmp_path / "spans.jsonl")) == 3
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["name"] == "op.request"


def test_sided_probes_name_one_callable_per_thread():
    calls = []

    class Wire:
        @staticmethod
        def encode(x):
            calls.append(x)
            return x

    tracer = Tracer()
    probes = [Probe(Wire, "encode", "client.encode", side="client"),
              Probe(Wire, "encode", "server.encode", side="server")]
    raw = vars(Wire)["encode"]
    with instrument(tracer, probes):
        Wire.encode(1)
        worker = threading.Thread(target=Wire.encode, args=(2,))
        worker.start()
        worker.join(timeout=10)
    assert calls == [1, 2]
    assert sorted(s.name for s in tracer.spans()) == ["client.encode",
                                                       "server.encode"]
    assert vars(Wire)["encode"] is raw


def test_instrument_restores_functions_and_staticmethods():
    class Codec:
        @staticmethod
        def build(x):
            return x + 1

        def encode(self, x):
            return x * 2

    raw_build = vars(Codec)["build"]
    raw_encode = vars(Codec)["encode"]
    tracer = Tracer()
    with instrument(tracer, [Probe(Codec, "build", "entropy"),
                             Probe(Codec, "encode", "entropy")]):
        assert Codec.build(1) == 2 and Codec().encode(3) == 6
    assert vars(Codec)["build"] is raw_build
    assert vars(Codec)["encode"] is raw_encode
    assert [s.name for s in tracer.spans()] == ["entropy", "entropy"]


def test_nested_only_probe_records_recursive_calls():
    class Reader:
        def read(self, depth):
            return self.read(depth - 1) if depth else 0

    tracer = Tracer()
    with instrument(tracer, [Probe(Reader, "read", "refill", nested_only=True)]):
        Reader().read(2)
    assert [s.name for s in tracer.spans()] == ["refill", "refill"]


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_percentile_interpolates_and_counts_samples():
    assert percentile([3, 1, 2], 50) == (2, 3)
    assert percentile([1, 2, 3, 4], 50) == (2.5, 4)
    assert percentile([5], 90) == (5, 1)
    value, n = percentile(list(range(1, 11)), 90)
    assert value == pytest.approx(9.1) and n == 10
    assert percentile(list(range(101)), 90)[0] == pytest.approx(90)


def test_percentile_rejects_empty_samples_and_bad_ranks():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_timing_reports_samples_beyond_the_tail():
    timing = Timing.of([float(v) for v in range(100)])
    assert timing.n == 100
    assert timing.p50 == pytest.approx(49.5)
    assert timing.beyond_p90 == 10


def test_nominal_time_scales_only_the_cpu_part():
    from perfbench.speed import NOMINAL_S, SpeedProbe

    probe = SpeedProbe()
    # the kernel ran at half its nominal speed: CPU time counts half
    probe.samples[:] = [2 * NOMINAL_S] * 3
    assert probe.time_scale() == pytest.approx(0.5)
    assert probe.nominal(wall=1.0, cpu=0.6) == pytest.approx(0.4 + 0.3)
    assert probe.nominal(wall=0.04, cpu=0.0) == pytest.approx(0.04)


# ----------------------------------------------------------------------
# BENCHMARK.json and tiny runs of every workload
# ----------------------------------------------------------------------
def test_benchmark_json_names_the_metrics_the_runner_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [m["name"] for m in BENCHMARK["per_layer"]] == run.per_layer_names()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(name, tmp_path):
    result = run.measure(name, seed=5, seconds=0.3, trace=False,
                         scale=workloads.TINY, workroot=str(tmp_path))
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 3
    metrics = result["metrics"]
    assert list(metrics) == [m for m, _ in run.END_TO_END]
    assert all(metrics[m]["value"] > 0 for m in metrics)
    assert not any(tmp_path.glob(f"{name}-*")), "the work directory is removed"


def test_tiny_traced_run_reports_every_per_layer_metric(tmp_path):
    result = run.measure("served_queries", seed=5, seconds=0.05, trace=True,
                         scale=workloads.TINY, workroot=str(tmp_path))
    assert result["correct"], result
    metrics = result["metrics"]
    assert list(metrics) == run.per_layer_names()
    assert metrics["http.transport_s"]["value"] > 0
    assert metrics["service.dispatch_s"]["value"] > 0
    assert 0 < metrics["trace.coverage"]["value"] <= 1.0 + 1e-9
    assert list(tmp_path.glob("trace-served_queries-seed5.jsonl"))


def test_traced_loop_alternates_untraced_and_traced_steps(tmp_path):
    from perfbench.tracing import Tracer

    workload = workloads.AnalysisRead(5, str(tmp_path / "w"), workloads.TINY)
    workload.setup()
    try:
        tracer = Tracer()
        untraced, traced = workload.run(0.3, tracer=tracer)
    finally:
        workload.teardown()
    # as many steps in each half, the traced one replaying the untraced one,
    # and the traced step of a pair runs second and first in turn
    assert untraced.ops == traced.ops == len(traced.pairs) > 1
    assert [r[:2] for r in untraced.records] == [r[:2] for r in traced.records]
    assert [first for first, _ in traced.pairs[:4]] == [False, True, False, True]
    roots = [s for s in tracer.spans() if s.parent is None]
    assert len(roots) == traced.ops
    assert {s.name for s in roots} == {"op.read", "op.box_read"}


def test_same_seed_reproduces_plotfile_bytes(tmp_path):
    first = workloads.AnalysisRead(3, str(tmp_path / "a"), workloads.TINY)
    second = workloads.AnalysisRead(3, str(tmp_path / "b"), workloads.TINY)
    other = workloads.AnalysisRead(4, str(tmp_path / "c"), workloads.TINY)
    for w in (first, second, other):
        w.setup()
    assert first.fingerprint == second.fingerprint
    assert first.fingerprint != other.fingerprint


def test_corrupted_box_read_is_counted_as_failed(tmp_path, monkeypatch):
    from repro.core.reader import PlotfileHandle

    read_field = PlotfileHandle.read_field

    def corrupted(self, *args, **kwargs):
        out = read_field(self, *args, **kwargs)
        out.flat[0] += 1.0
        return out

    monkeypatch.setattr(PlotfileHandle, "read_field", corrupted)
    result = run.measure("analysis_read", seed=5, seconds=0.3, trace=False,
                         scale=workloads.TINY, workroot=str(tmp_path))
    assert not result["correct"]
    # every round opens with a full read, and only the box reads fail
    reads = result["attempted"] - (run.SETUP_REPEATS - 1)
    full_reads = -(-reads // (workloads.TINY.boxes_per_round + 1))
    assert result["failed"] == reads - full_reads > 0


def test_decode_outside_the_error_bound_fails_every_write(tmp_path, monkeypatch):
    from repro.core.filter_mod import AMRICLevelFilter

    decode = AMRICLevelFilter.decode

    def noisy(self, payload, chunk_elements):
        return decode(self, payload, chunk_elements) * 1.5

    monkeypatch.setattr(AMRICLevelFilter, "decode", noisy)
    result = run.measure("insitu_write", seed=5, seconds=0.05, trace=False,
                         scale=workloads.TINY, workroot=str(tmp_path))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - (run.SETUP_REPEATS - 1)


def test_bound_violations_count_cells_past_the_bound():
    import copy

    from repro.amr.upsample import fill_covered_from_finer

    original = workloads.make_snapshots(2, 1, workloads.TINY)[0]
    # a perfect reconstruction: the data, with covered coarse cells refilled
    # from the finer level as the reader does
    restored = copy.deepcopy(original)
    fill_covered_from_finer(restored)
    assert workloads.bound_violations(original, restored, 1e-3) == 0
    # without the refill the covered coarse cells are not what the reader
    # restores, and the check notices
    assert workloads.bound_violations(original, original, 1e-3) > 0
    fab = restored[1].multifab[0]
    fab.data[...] += 1e9
    assert workloads.bound_violations(original, restored, 1e-3) == fab.data.size
