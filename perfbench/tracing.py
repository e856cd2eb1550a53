"""In-memory span tracing for the traced benchmark run.

The program under test is not edited: :func:`instrument` wraps the public
functions of each layer (``core``, ``compress``, ``h5lite``, ``service``) from
here, for the duration of a ``with`` block, and every call becomes a span.

A span has a name, a start, an end and a parent.  The spans of one operation
(one root span opened by the benchmark loop) share an operation id.  Spans
are appended to plain lists while the run goes on and written out only when
it ends (:meth:`Tracer.dump`).

Self time is a span's duration minus the part of its interval that its
children cover (:func:`self_times`); coverage is the share of the timed wall
time that the layer spans under the operation roots cover (:func:`coverage`).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence


class Span(NamedTuple):
    index: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


class Tracer:
    """Collects spans from any number of threads into one in-memory list.

    Each thread keeps its own stack of open spans, so nesting follows the
    call stack.  A span opened on a thread whose stack is empty (a server
    thread answering a request) is parented to :attr:`remote_parent`, which
    the client-side wrapper sets while a request is in flight; this stands in
    for propagating a trace id over the wire.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._names: List[str] = []
        self._starts: List[float] = []
        self._ends: List[Optional[float]] = []
        self._parents: List[Optional[int]] = []
        self._ops: List[int] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_op = 0
        self.remote_parent: Optional[int] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.remote_parent
        with self._lock:
            index = len(self._names)
            if parent is None:
                op = self._next_op
                self._next_op += 1
            else:
                op = self._ops[parent]
            self._names.append(name)
            self._parents.append(parent)
            self._ops.append(op)
            self._ends.append(None)
            self._starts.append(self.clock())
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._ends[index] = self.clock()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def spans(self) -> List[Span]:
        """Every finished span, in start order."""
        with self._lock:
            rows = list(zip(self._names, self._starts, self._ends,
                            self._parents, self._ops))
        return [Span(i, name, start, end, parent, op)
                for i, (name, start, end, parent, op) in enumerate(rows)
                if end is not None]

    def dump(self, path: str) -> int:
        """Write every span as one JSON line; returns how many were written."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as out:
            for s in spans:
                out.write(json.dumps(s._asdict(), separators=(",", ":")))
                out.write("\n")
        return len(spans)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def covered_length(intervals: Iterable[Sequence[float]], lo: float,
                   hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Overlapping intervals (children on several threads) count once.
    """
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = 0.0
    for a, b in clipped:
        if cur_lo is None or a > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans: Sequence[Span]) -> Dict[Optional[int], List[Span]]:
    out: Dict[Optional[int], List[Span]] = {}
    for s in spans:
        out.setdefault(s.parent, []).append(s)
    return out


def within_ops(spans: Sequence[Span], prefix: str = "op.") -> List[Span]:
    """The spans of operations whose root span's name starts with ``prefix``
    (drops untimed work such as cache warm-up that ran while tracing)."""
    timed = {s.op for s in spans if s.parent is None and s.name.startswith(prefix)}
    return [s for s in spans if s.op in timed]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span index -> duration minus the part its children cover."""
    kids = children_of(spans)
    return {s.index: (s.end - s.start) - covered_length(
                [(c.start, c.end) for c in kids.get(s.index, ())],
                s.start, s.end)
            for s in spans}


@dataclass
class NameTotals:
    """Totals of every span with one name."""

    calls: int = 0
    self_s: float = 0.0
    #: duration of the outermost spans of this name (a span nested in one of
    #: the same name is not counted twice)
    inclusive_s: float = 0.0


def totals_by_name(spans: Sequence[Span]) -> Dict[str, NameTotals]:
    by_index = {s.index: s for s in spans}
    selfs = self_times(spans)
    out: Dict[str, NameTotals] = {}
    for s in spans:
        row = out.setdefault(s.name, NameTotals())
        row.calls += 1
        row.self_s += selfs[s.index]
        parent = s.parent
        nested = False
        while parent is not None and parent in by_index:
            if by_index[parent].name == s.name:
                nested = True
                break
            parent = by_index[parent].parent
        if not nested:
            row.inclusive_s += s.end - s.start
    return out


def coverage(spans: Sequence[Span], wall_s: float,
             through: Iterable[str] = ()) -> float:
    """Share of ``wall_s`` covered by the layer spans under the roots.

    Those are the roots' children, except that a child named in ``through``
    only groups other spans and is replaced by its own children: coverage
    then counts what that grouping span's children name, not the grouping
    span itself.
    """
    through = set(through)
    kids = children_of(spans)

    def frontier(index: int) -> List[Span]:
        out = []
        for c in kids.get(index, ()):
            out.extend(frontier(c.index) if c.name in through else [c])
        return out

    covered = sum(covered_length([(c.start, c.end) for c in frontier(r.index)],
                                 r.start, r.end)
                  for r in kids.get(None, ()))
    return covered / wall_s if wall_s > 0 else 0.0


# ----------------------------------------------------------------------
# wrapping the program's layers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``owner.attr`` recorded as span ``name``.

    ``nested_only`` records the call only when it runs inside a call of the
    same callable (the recursive refill of a box read); ``propagate`` makes
    spans opened on other threads during the call its children.  ``side``
    "client" records only calls made on the thread that installed the probe
    (the benchmark's own), "server" only calls made on other threads; two
    probes of one callable with opposite sides give it a name per side.
    """

    owner: object
    attr: str
    name: str
    nested_only: bool = False
    propagate: bool = False
    side: str = "any"


def _wrap(tracer: Tracer, probe: Probe, fn: Callable, home_thread: int) -> Callable:
    if probe.nested_only:
        depth = threading.local()

        @functools.wraps(fn)
        def nested(*args, **kwargs):
            level = getattr(depth, "n", 0)
            depth.n = level + 1
            try:
                if level == 0:
                    return fn(*args, **kwargs)
                with tracer.span(probe.name):
                    return fn(*args, **kwargs)
            finally:
                depth.n = level
        return nested

    if probe.propagate:
        @functools.wraps(fn)
        def propagating(*args, **kwargs):
            index = tracer.begin(probe.name)
            previous, tracer.remote_parent = tracer.remote_parent, index
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.remote_parent = previous
                tracer.end(index)
        return propagating

    if probe.side != "any":
        on_client = probe.side == "client"

        @functools.wraps(fn)
        def one_side(*args, **kwargs):
            if (threading.get_ident() == home_thread) != on_client:
                return fn(*args, **kwargs)
            with tracer.span(probe.name):
                return fn(*args, **kwargs)
        return one_side

    @functools.wraps(fn)
    def plain(*args, **kwargs):
        with tracer.span(probe.name):
            return fn(*args, **kwargs)
    return plain


@contextmanager
def instrument(tracer: Tracer, probes: Sequence[Probe]):
    """Wrap every probe for the duration of the block, then restore them."""
    home = threading.get_ident()
    saved = []
    try:
        for probe in probes:
            raw = vars(probe.owner)[probe.attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(_wrap(tracer, probe, raw.__func__, home))
            else:
                wrapped = _wrap(tracer, probe, raw, home)
            saved.append((probe.owner, probe.attr, raw))
            setattr(probe.owner, probe.attr, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def layer_probes() -> List[Probe]:
    """The spans of the traced run, layer by layer.

    Functions are wrapped where their callers look them up: a name imported
    into a module is patched in that module's namespace.
    """
    import http.client as httplib

    from repro.compress import container, regression
    from repro.compress.huffman import HuffmanCodec
    from repro.core import pipeline, reader
    from repro.core.filter_mod import AMRICLevelFilter
    from repro.h5lite.file import H5LiteFile
    from repro.service import http
    from repro.service.core import RequestHandler
    from repro.service.engine import QueryEngine

    return [
        # core: write stages
        Probe(pipeline, "plan_write", "write.plan"),
        Probe(pipeline, "pack_dataset", "write.pack"),
        Probe(pipeline, "encode_job", "write.encode"),
        Probe(pipeline, "commit_header", "write.commit"),
        Probe(pipeline, "commit_dataset", "write.commit"),
        Probe(pipeline, "dataset_record", "write.commit"),
        # core: read stages
        Probe(reader.PlotfileHandle, "__init__", "read.open"),
        Probe(reader, "scan_plotfile", "read.scan"),
        Probe(H5LiteFile, "read_chunk_payloads", "read.fetch"),
        Probe(reader, "decode_job", "read.decode"),
        Probe(reader, "place_dataset", "read.place"),
        Probe(reader, "_gather_slot", "read.place"),
        Probe(reader, "fill_covered_from_finer", "read.refill"),
        Probe(reader, "average_down", "read.refill"),
        Probe(reader.PlotfileHandle, "read_field", "read.refill", nested_only=True),
        # compress: encode and decode
        Probe(AMRICLevelFilter, "encode", "codec.predict_quantize"),
        Probe(regression, "fit_and_predict", "codec.regression_fit"),
        Probe(HuffmanCodec, "from_multiple", "codec.entropy_encode"),
        Probe(HuffmanCodec, "encode", "codec.entropy_encode"),
        Probe(container, "zlib_compress", "codec.lossless_encode"),
        Probe(AMRICLevelFilter, "decode", "codec.reconstruct"),
        Probe(HuffmanCodec, "decode", "codec.entropy_decode"),
        Probe(container, "zlib_decompress", "codec.lossless_decode"),
        # service: transport (client side), request core, engine
        Probe(http.HttpClient, "call", "http.client", propagate=True),
        Probe(http, "to_wire", "http.client_encode", side="client"),
        # the client's socket calls; the server thread's spans nest under
        # the one that is open when they start, so their self time is the
        # time spent moving bytes and waiting, not serving
        Probe(httplib.HTTPConnection, "request", "http.transport",
              propagate=True),
        Probe(httplib.HTTPConnection, "getresponse", "http.transport",
              propagate=True),
        Probe(httplib.HTTPResponse, "read", "http.transport", propagate=True),
        Probe(http, "from_wire", "http.client_decode", side="client"),
        Probe(RequestHandler, "handle", "service.handle"),
        Probe(RequestHandler, "refuse", "service.admit"),
        Probe(RequestHandler, "dispatch", "service.dispatch"),
        Probe(QueryEngine, "read_batch", "engine.read_batch"),
        Probe(http, "to_wire", "service.encode", side="server"),
    ]
