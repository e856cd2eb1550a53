"""The benchmark's three workloads: in situ writes, analysis reads, served queries.

Every workload drives the public API (``repro.write``, ``repro.open``, the
HTTP gateway) from one process, as a closed loop with one caller: the next
operation starts only when the previous one has returned.  Inputs are
Nyx-like AMR snapshots generated from the workload seed; the program only
ever sees the generated hierarchies.  All writes use the default
configuration (``sz_lr``, relative error bound 1e-3, serial backend).

Each workload has the same life cycle, driven by ``run.py``:

``setup()``
    Build the inputs (and, for the read workloads, write the plotfiles and
    start the server).  Run several times to time it; each setup leaves a
    fingerprint of what it produced so the run can assert that one seed
    reproduces identical plotfile bytes.
``run(seconds, probe, tracer)``
    The timed closed loop.  Outputs are recorded, not checked, so checking
    costs no measured time.  Each operation's wall and process CPU time are
    recorded; ``probe`` samples the machine-speed kernel between steps.  With a ``tracer``, steps alternate between untraced and
    traced (the layers wrapped only for the traced steps, each of which
    opens one root span per operation), so that the two halves see the same
    machine and their difference is the cost of tracing.
``check(phase)``
    Verify every recorded output against the regenerated originals; returns
    the number of failed operations.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.amr.box import Box
from repro.amr.upsample import average_down, covered_mask
from repro.apps.driver import build_run


@dataclass(frozen=True)
class Scale:
    """Input sizes.  :data:`FULL` is what the benchmark measures."""

    #: None keeps the nyx_1 preset's 48^3 coarse grid (2 levels, 6 fields)
    coarse_shape: Optional[Tuple[int, int, int]] = None
    max_grid_size: Optional[int] = None
    write_snapshots: int = 3
    read_files: int = 2
    served_files: int = 3
    #: cold box reads per full read in analysis_read
    boxes_per_round: int = 24
    #: box edge lengths (cells), drawn uniformly from this closed range
    box_edge: Tuple[int, int] = (8, 24)
    #: the served box catalogue, its box edge and its Zipf exponent.  Every
    #: served box has the same shape (8^3 fits inside any patch, since patches
    #: are multiples of the blocking factor 8), so queries differ only in what
    #: they decode, not in how many bytes the transport carries
    catalogue: int = 192
    query_edge: Tuple[int, int] = (8, 8)
    zipf_s: float = 1.1
    #: ChunkCache budget: about a quarter of the decoded working set, so
    #: that one query in six or more misses on every seed and the 90th
    #: percentile shows the decode.  At half the working set the share of
    #: missing queries straddles 10% from seed to seed, and the 90th
    #: percentile jumps between hit and miss latency.
    cache_bytes: int = 4 * 2 ** 20
    #: untimed queries that fill the cache before timing starts
    warm_queries: int = 60


FULL = Scale()
TINY = Scale(coarse_shape=(16, 16, 16), max_grid_size=8, write_snapshots=2,
             read_files=1, served_files=2, boxes_per_round=3, box_edge=(2, 6),
             catalogue=8, query_edge=(2, 2), cache_bytes=2 ** 16, warm_queries=4)


def make_snapshots(seed: int, count: int, scale: Scale):
    """``count`` successive dumps of one Nyx-like run seeded by ``seed``."""
    overrides = {}
    if scale.coarse_shape is not None:
        overrides = {"coarse_shape": scale.coarse_shape,
                     "max_grid_size": scale.max_grid_size}
    sim = build_run("nyx_1", seed=seed, **overrides)
    out = []
    for _ in range(count):
        out.append(sim.hierarchy)
        sim.advance()
    return out


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def array_digest(array: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(),
                           digest_size=16).digest()


def raw_bytes(hierarchy) -> int:
    """Bytes of every stored cell of every field on every level."""
    return sum(level.num_cells for level in hierarchy.levels) \
        * len(hierarchy.component_names) * 8


def bound_violations(original, restored, error_bound: float) -> int:
    """Cells of ``restored`` farther from ``original`` than the bound allows.

    The bound is relative to each level's value range, as the writer applies
    it.  Coarse cells covered by a finer level were dropped before
    compression and refilled by averaging the finer level down, so their
    reference is the average of the original fine cells and their bound the
    finer level's.
    """
    bad = 0
    nlevels = original.nlevels
    for li in range(nlevels):
        lvl, back = original[li], restored[li]
        valid = lvl.boxarray.coverage_mask(lvl.domain)
        covered = covered_mask(original, li) if li + 1 < nlevels else None
        for name in original.component_names:
            ref = lvl.multifab.to_global(name, lvl.domain)
            got = back.multifab.to_global(name, back.domain)
            allowed = np.full(ref.shape, error_bound * lvl.multifab.value_range(name))
            if covered is not None and covered.any():
                fine = original[li + 1]
                ratio = original.ref_ratios[li]
                averaged = average_down(fine.multifab.to_global(name, fine.domain), ratio)
                ref = np.where(covered, averaged, ref)
                allowed[covered] = error_bound * fine.multifab.value_range(name)
            err = np.abs(got - ref)
            bad += int(np.count_nonzero(valid & ~(err <= allowed * (1 + 1e-6))))
    return bad


#: refilled cells are means of finer cells; the box read and the full read
#: average them in a different order, so they may differ by float64 rounding
REFILL_TOLERANCE = 16 * np.finfo(np.float64).eps


def window_matches(original, restored, name: str, level: int, box: Box,
                   window: np.ndarray) -> bool:
    """Whether a box read equals the same window of a full read.

    Exact on every cell read from the file; within :data:`REFILL_TOLERANCE`
    of the window's magnitude on coarse cells refilled from a finer level.
    """
    lvl = restored[level]
    sl = box.slices(origin=lvl.domain.lo)
    expected = lvl.multifab.to_global(name, lvl.domain)[sl]
    if window.shape != expected.shape:
        return False
    refilled = covered_mask(original, level)[sl]
    if not np.array_equal(window[~refilled], expected[~refilled]):
        return False
    if not refilled.any():
        return True
    scale = float(np.max(np.abs(expected[refilled])))
    return bool(np.all(np.abs(window[refilled] - expected[refilled])
                       <= REFILL_TOLERANCE * scale))


def pick_level(rng: np.random.Generator, nlevels: int) -> int:
    """A served box's level: the coarse level three times in four, the same
    mix as a :func:`box_sweep`."""
    if nlevels == 1 or rng.random() < 0.75:
        return 0
    return 1 + int(rng.integers(nlevels - 1))


def box_sweep(rng: np.random.Generator, hierarchy) -> List[Tuple[int, int, int]]:
    """One sweep of box reads, as (field index, level, patch index).

    Every field is read in every coarse patch, and a third as many reads go
    to refined patches, so they are a quarter of the sweep; the order is
    shuffled by the seed.  A fixed mix keeps the latency percentiles from
    moving with how many reads of each kind a random draw makes: a coarse
    read decodes a whole coarse chunk (55-120 ms at nyx_1 scale), a refined
    one a small fine chunk (about 10 ms).
    """
    nfields = len(hierarchy.component_names)
    plan = [(f, 0, p) for f in range(nfields)
            for p in range(len(hierarchy[0].boxarray))]
    if hierarchy.nlevels > 1:
        plan += [(i % nfields, 1, i) for i in range(len(plan) // 3)]
    return [plan[i] for i in rng.permutation(len(plan))]


def random_box(rng: np.random.Generator, hierarchy, level: int,
               edge: Tuple[int, int], patch: Optional[int] = None) -> Box:
    """A random box inside one patch (grid box) of ``level``: patch number
    ``patch`` (modulo the patch count), or a random one.

    A patch belongs to one rank, so the box touches one stored chunk of the
    level and every box read costs about the same decode; a box spanning
    patches would touch one to four chunks and make read latency multimodal.
    """
    n = int(rng.integers(edge[0], edge[1] + 1))
    boxes = list(hierarchy[level].boxarray)
    region = boxes[patch % len(boxes) if patch is not None
                   else int(rng.integers(len(boxes)))]
    lo = []
    hi = []
    for axis in range(3):
        span = region.hi[axis] - region.lo[axis] + 1
        size = min(n, span)
        start = region.lo[axis] + int(rng.integers(span - size + 1))
        lo.append(start)
        hi.append(start + size - 1)
    return Box(tuple(lo), tuple(hi))


#: least loop time between two samples of the speed kernel
PROBE_INTERVAL_S = 0.5


def clock() -> Tuple[float, float]:
    """Wall time and process CPU time (every thread's), now."""
    return time.perf_counter(), time.process_time()


def since(start: Tuple[float, float]) -> Tuple[float, float]:
    """Wall and CPU seconds elapsed since ``start``, a :func:`clock` reading."""
    wall, cpu = clock()
    return wall - start[0], cpu - start[1]


def _op(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


def _mismatch(what: str) -> None:
    print(f"perfbench: check failed: {what}", file=sys.stderr)


@dataclass
class Phase:
    """What one timed loop (or its traced half) did: latencies per operation
    kind plus records."""

    #: time spent in the loop's steps, excluding speed-probe samples, and
    #: the CPU time of that
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: wall seconds of each operation, by kind, and their CPU seconds
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    cpu: Dict[str, List[float]] = field(default_factory=dict)
    #: bytes moved by each kind of operation (raw MB written / reconstructed
    #: / served)
    nbytes: Dict[str, int] = field(default_factory=dict)
    #: outputs kept for the checks, one per operation
    records: List[tuple] = field(default_factory=list)
    #: the first answer to each distinct query (served_queries)
    answers: Dict[int, np.ndarray] = field(default_factory=dict)
    #: operations that raised
    errors: int = 0
    #: layer counters (h5lite, cache), totals over the phase
    counters: Dict[str, float] = field(default_factory=dict)
    #: traced phase only: for each pair of steps, whether the traced step
    #: ran first, and its wall time over the untraced step's
    pairs: List[Tuple[bool, float]] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return sum(len(v) for v in self.latencies.values()) + self.errors

    def add(self, kind: str, elapsed: Tuple[float, float], nbytes: int) -> None:
        """Record one operation: its (wall, CPU) seconds and bytes moved."""
        self.latencies.setdefault(kind, []).append(elapsed[0])
        self.cpu.setdefault(kind, []).append(elapsed[1])
        self.nbytes[kind] = self.nbytes.get(kind, 0) + nbytes

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value


class Workload:
    """Shared plumbing: a private work directory and the setup fingerprint."""

    name = ""
    #: the operation kind whose latencies are the workload's op_p50/op_p90
    latency_kind = ""
    #: the operation kind whose bytes per second is throughput_MBps
    throughput_kind = ""

    def __init__(self, seed: int, workdir: str, scale: Scale = FULL):
        self.seed = int(seed)
        self.workdir = workdir
        self.scale = scale
        self.reports = []
        self.fingerprint: Tuple = ()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    @staticmethod
    def _loop(seconds: float, make_step: Callable, probe=None, tracer=None,
              counters: Optional[Callable[[], Dict[str, float]]] = None,
              round_steps: int = 1) -> List[Phase]:
        """Run steps until each phase has spent ``seconds`` in them, and has
        taken a whole number of rounds of ``round_steps`` steps.

        ``make_step(phase, index)`` returns a ``step(tracer)`` that performs
        one operation (or round) and records it into ``phase``.  Without a
        ``tracer`` there is one phase.  With one there are two, untraced and
        traced, whose steps run in pairs, the traced one second in even
        pairs and first in odd ones (a step that repeats the reads of the
        one before it finds warmer caches); the layers are wrapped only
        around the traced steps.  ``counters()`` returns running totals whose change
        over each step is added to the step's phase.  With a ``probe``, the
        speed kernel is sampled before the first step and then after any
        step that ends :data:`PROBE_INTERVAL_S` or more after the last
        sample, outside the phases' time.
        """
        from perfbench.tracing import instrument, layer_probes

        phases = [Phase() for _ in range(1 if tracer is None else 2)]
        steps = [make_step(phase, i) for i, phase in enumerate(phases)]
        probes = layer_probes() if tracer is not None else ()
        if probe is not None:
            probe.sample()
        sampled = time.perf_counter()
        walls = [0.0] * len(phases)
        for n in itertools.count():
            pair, second = divmod(n, len(phases))
            # checked between pairs, so both phases take as many steps
            if second == 0 and pair % round_steps == 0 \
                    and all(p.wall_s >= seconds for p in phases):
                return phases
            traced_first = pair % 2 == 1
            i = second ^ 1 if traced_first and tracer is not None else second
            before = counters() if counters is not None else None
            with instrument(tracer, probes) if i else nullcontext():
                t0 = clock()
                steps[i](tracer if i else None)
                wall, cpu = since(t0)
            phases[i].wall_s += wall
            phases[i].cpu_s += cpu
            walls[i] = wall
            if tracer is not None and second == 1:
                phases[1].pairs.append((traced_first, walls[1] / walls[0]))
            if counters is not None:
                for name, value in counters().items():
                    phases[i].count(name, value - before[name])
            if probe is not None and \
                    time.perf_counter() - sampled >= PROBE_INTERVAL_S:
                probe.sample()
                sampled = time.perf_counter()

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _write_files(self, prefix: str, count: int) -> None:
        """Generate ``count`` snapshots and write each to one plotfile."""
        self.hierarchies = make_snapshots(self.seed, count, self.scale)
        self.files = [self.path(f"{prefix}{k}.h5z") for k in range(count)]
        self.reports = [repro.write(h, p) for h, p in zip(self.hierarchies, self.files)]
        self.fingerprint = tuple((file_digest(p), r.compression_ratio)
                                 for p, r in zip(self.files, self.reports))

    def file_quality(self) -> Tuple[float, float]:
        """Compression ratio and mean PSNR of the plotfiles the workload uses."""
        raw = sum(r.raw_bytes for r in self.reports)
        stored = sum(r.compressed_bytes for r in self.reports)
        return raw / stored, float(np.mean([r.mean_psnr for r in self.reports]))


# ----------------------------------------------------------------------
class InsituWrite(Workload):
    """Repeated ``repro.write`` of distinct snapshots: the paper's in situ dump."""

    name = "insitu_write"
    latency_kind = throughput_kind = "write"

    def setup(self) -> None:
        super().setup()
        #: plotfile digest -> whether those bytes decoded within the bound
        self._verified: Dict[str, bool] = {}
        self.hierarchies = make_snapshots(self.seed, self.scale.write_snapshots,
                                          self.scale)
        self.fingerprint = tuple(
            hashlib.sha256(b"".join(
                np.ascontiguousarray(fab.data).tobytes()
                for lvl in h.levels for fab in lvl.multifab)).hexdigest()
            for h in self.hierarchies)

    def run(self, seconds: float, probe=None, tracer=None) -> List[Phase]:
        def make_step(phase: Phase, index: int):
            # each phase writes the snapshots in the same order
            writes = itertools.count()

            def write(tracer) -> None:
                k = next(writes) % len(self.hierarchies)
                path = self.path(f"w{k}.h5z")
                t0 = clock()
                try:
                    with _op(tracer, "op.write"):
                        report = repro.write(self.hierarchies[k], path)
                    elapsed = since(t0)
                except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                    _report_failure("write")
                    phase.errors += 1
                    return
                phase.add("write", elapsed, report.raw_bytes)
                phase.count("h5lite.bytes_written", os.path.getsize(path))
                phase.records.append((k, file_digest(path), report.raw_bytes,
                                      report.compressed_bytes, report.mean_psnr))
            return write

        return self._loop(seconds, make_step, probe, tracer)

    def check(self, phase: Phase) -> int:
        """Every write of a snapshot must produce the same bytes, and the file
        must decode within the error bound everywhere."""
        first: Dict[int, tuple] = {}
        for rec in phase.records:
            first.setdefault(rec[0], rec)
        ok_snapshot: Dict[int, bool] = {}
        for k, rec in first.items():
            path = self.path(f"w{k}.h5z")
            if file_digest(path) != rec[1]:
                _mismatch(f"snapshot {k}: the last write's bytes differ from the first's")
                ok_snapshot[k] = False
                continue
            if rec[1] not in self._verified:
                try:
                    with repro.open(path) as handle:
                        bad = bound_violations(self.hierarchies[k], handle.read(),
                                               handle.error_bound)
                except Exception:  # noqa: BLE001
                    _report_failure(f"check of snapshot {k}")
                    bad = -1
                if bad:
                    _mismatch(f"snapshot {k}: {bad} cells outside the error bound")
                self._verified[rec[1]] = bad == 0
            ok_snapshot[k] = self._verified[rec[1]]
        failed = 0
        for rec in phase.records:
            if rec[1:4] != first[rec[0]][1:4]:
                _mismatch(f"snapshot {rec[0]}: bytes or sizes differ between writes")
                failed += 1
            elif not ok_snapshot[rec[0]]:
                failed += 1
        return failed

    def quality(self, phase: Phase) -> Tuple[float, float]:
        raw = sum(r[2] for r in phase.records)
        stored = sum(r[3] for r in phase.records)
        return raw / max(stored, 1), float(np.mean([r[4] for r in phase.records]))


# ----------------------------------------------------------------------
class AnalysisRead(Workload):
    """Full reads and cold box reads of plotfiles written during setup."""

    name = "analysis_read"
    latency_kind = "box_read"
    throughput_kind = "full_read"

    def setup(self) -> None:
        super().setup()
        self._write_files("r", self.scale.read_files)

    def _io(self, phase: Phase, handle) -> None:
        phase.count("h5lite.bytes_read", handle.stats.bytes_read)
        phase.count("h5lite.read_requests", handle.stats.requests)
        phase.count("h5lite.coalesced_reads", handle.stats.coalesced_requests)

    def run(self, seconds: float, probe=None, tracer=None) -> List[Phase]:
        fields = self.hierarchies[0].component_names

        def make_step(phase: Phase, index: int):
            # the same generator in each phase: the traced half replays the
            # untraced half's reads one for one (every read is cold, so the
            # replay costs what the original did)
            rng = np.random.default_rng([self.seed, 1])
            sweep = box_sweep(rng, self.hierarchies[0])
            box_reads = itertools.count()
            reads = itertools.count()
            # a round is one full read and then its box reads
            round_length = self.scale.boxes_per_round + 1

            def full_read(tracer, k: int) -> None:
                t0 = clock()
                try:
                    with _op(tracer, "op.read"):
                        with repro.open(self.files[k]) as handle:
                            restored = handle.read()
                    elapsed = since(t0)
                except Exception:  # noqa: BLE001
                    _report_failure("full read")
                    phase.errors += 1
                    return
                phase.add("full_read", elapsed, raw_bytes(restored))
                self._io(phase, handle)
                phase.records.append(("full", k, restored))

            def box_read(tracer) -> None:
                i = next(box_reads)
                field_index, level, patch = sweep[i % len(sweep)]
                f = i % len(self.files)
                name = fields[field_index]
                box = random_box(rng, self.hierarchies[f], level,
                                 self.scale.box_edge, patch)
                t0 = clock()
                try:
                    with _op(tracer, "op.box_read"):
                        with repro.open(self.files[f]) as handle:
                            window = handle.read_field(name, level=level, box=box)
                    elapsed = since(t0)
                except Exception:  # noqa: BLE001
                    _report_failure("box read")
                    phase.errors += 1
                    return
                phase.add("box_read", elapsed, window.nbytes)
                self._io(phase, handle)
                phase.records.append(("box", f, name, level, box, window))

            def read(tracer) -> None:
                rnd, j = divmod(next(reads), round_length)
                if j == 0:
                    full_read(tracer, rnd % len(self.files))
                else:
                    box_read(tracer)
            return read

        # whole rounds keep the mix of full and box reads, and so ops_per_s,
        # the same from run to run
        return self._loop(seconds, make_step, probe, tracer,
                          round_steps=self.scale.boxes_per_round + 1)

    def check(self, phase: Phase) -> int:
        """Full reads within the error bound; box reads equal to the same
        window of a full read of their file."""
        failed = 0
        reference: Dict[int, object] = {}
        for rec in phase.records:
            if rec[0] != "full":
                continue
            _, k, restored = rec
            bad = bound_violations(self.hierarchies[k], restored,
                                   self.reports[k].error_bound)
            if bad:
                _mismatch(f"full read of file {k}: {bad} cells outside the error bound")
                failed += 1
            else:
                reference.setdefault(k, restored)
        for rec in phase.records:
            if rec[0] != "box":
                continue
            _, f, name, level, box, window = rec
            if f not in reference:
                try:
                    with repro.open(self.files[f]) as handle:
                        restored = handle.read()
                except Exception:  # noqa: BLE001
                    _report_failure(f"reference read of file {f}")
                    failed += 1
                    continue
                if bound_violations(self.hierarchies[f], restored,
                                    self.reports[f].error_bound):
                    _mismatch(f"reference read of file {f} is outside the error bound")
                    failed += 1
                    continue
                reference[f] = restored
            if not window_matches(self.hierarchies[f], reference[f], name, level,
                                  box, window):
                _mismatch(f"box read of file {f} {name} level {level} {box} "
                          "differs from the same window of the full read")
                failed += 1
        return failed

    def quality(self, phase: Phase) -> Tuple[float, float]:
        return self.file_quality()


# ----------------------------------------------------------------------
class ServedQueries(Workload):
    """Zipf-skewed box queries through the HTTP gateway over one engine."""

    name = "served_queries"
    latency_kind = throughput_kind = "query"

    def setup(self) -> None:
        from repro.service import HttpClient, HttpServer, QueryEngine

        super().setup()
        self._write_files("s", self.scale.served_files)
        rng = np.random.default_rng([self.seed, 2])
        fields = self.hierarchies[0].component_names
        self.catalogue = []
        for _ in range(self.scale.catalogue):
            f = int(rng.integers(len(self.files)))
            level = pick_level(rng, self.hierarchies[f].nlevels)
            self.catalogue.append((
                f, fields[int(rng.integers(len(fields)))], level,
                random_box(rng, self.hierarchies[f], level, self.scale.query_edge)))
        ranks = np.arange(1, len(self.catalogue) + 1, dtype=np.float64)
        weights = ranks ** -self.scale.zipf_s
        self.popularity = weights / weights.sum()
        self.engine = QueryEngine(cache_bytes=self.scale.cache_bytes)
        self.server = HttpServer(engine=self.engine, port=0).start()
        self.client = HttpClient(port=self.server.port)

    def teardown(self) -> None:
        # a setup that failed part-way has started only some of these
        if getattr(self, "client", None) is not None:
            self.client.close()
        if getattr(self, "server", None) is not None:
            self.server.stop()
        if getattr(self, "engine", None) is not None:
            self.engine.close()
        self.client = self.server = self.engine = None
        super().teardown()

    def _query(self, index: int) -> np.ndarray:
        f, name, level, box = self.catalogue[index]
        return self.client.read_field(self.files[f], name, level=level, box=box)

    def _counters(self) -> Dict[str, float]:
        """Running totals of the engine's cache and I/O counters."""
        stats = self.engine.stats()
        return {"cache.hits": stats["cache_hits"],
                "cache.misses": stats["cache_misses"],
                "cache.evictions": stats["cache_evictions"],
                "h5lite.bytes_read": stats["io_bytes_read"],
                "h5lite.read_requests": stats["io_requests"],
                "h5lite.coalesced_reads": stats["io_coalesced_requests"]}

    def run(self, seconds: float, probe=None, tracer=None) -> List[Phase]:
        picks = len(self.catalogue)
        warm = np.random.default_rng([self.seed, 3])
        for index in warm.choice(picks, size=self.scale.warm_queries,
                                 p=self.popularity):
            self._query(int(index))

        def make_step(phase: Phase, index: int):
            # a different stream per phase: replaying the untraced half's
            # queries would make every traced query a cache hit
            rng = np.random.default_rng([self.seed, 4, index])

            def query(tracer) -> None:
                index = int(rng.choice(picks, p=self.popularity))
                t0 = clock()
                try:
                    with _op(tracer, "op.query"):
                        answer = self._query(index)
                    elapsed = since(t0)
                except Exception:  # noqa: BLE001
                    _report_failure("query")
                    phase.errors += 1
                    return
                phase.add("query", elapsed, answer.nbytes)
                phase.records.append((index, array_digest(answer)))
                phase.answers.setdefault(index, answer)
            return query

        phases = self._loop(seconds, make_step, probe, tracer, self._counters)
        for phase in phases:
            hits = phase.counters.pop("cache.hits", 0.0)
            misses = phase.counters.pop("cache.misses", 0.0)
            phase.counters["cache.hit_rate"] = hits / max(hits + misses, 1)
        return phases

    def check(self, phase: Phase) -> int:
        """Every answer to one catalogue entry is identical, and identical to
        a direct ``repro.open`` read of the same box."""
        expected: Dict[int, bytes] = {}
        handles = [repro.open(p) for p in self.files]
        try:
            for index, answer in phase.answers.items():
                f, name, level, box = self.catalogue[index]
                try:
                    direct = handles[f].read_field(name, level=level, box=box)
                except Exception:  # noqa: BLE001
                    _report_failure(f"direct read of catalogue entry {index}")
                    continue
                if np.array_equal(direct, answer):
                    expected[index] = array_digest(direct)
                else:
                    _mismatch(f"catalogue entry {index}: the served answer differs "
                              "from a direct read")
        finally:
            for handle in handles:
                handle.close()
        return sum(1 for index, digest in phase.records
                   if expected.get(index) != digest)

    def quality(self, phase: Phase) -> Tuple[float, float]:
        return self.file_quality()


WORKLOADS = {cls.name: cls for cls in (InsituWrite, AnalysisRead, ServedQueries)}
