"""Span tracing of the program's layers, installed from outside.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces
the public entry points of each layer with timing wrappers for the
length of a traced run and puts the originals back afterwards.  Modules
that bind a name with ``from ... import`` are patched at the use site
(``repro.core.executor.build_packed_index``, not the builder module).

Spans are kept in per-thread column arrays (the serving backend runs on
executor threads, everything else on the event-loop thread) and written
out when the run ends.  A span's *self time* is its duration minus the
durations of its direct children; children never overlap their parent's
other children because each thread keeps its own stack.

Request identity follows the wire: the client sends ``tenant`` =
connection name and an ``id`` per connection, so ``"<tenant>:<id>"``
names one request on both sides.  The server side learns it when the
request frame is decoded (the per-request task inherits it through a
context variable); the admission wait links requests to backend batches
by the identity of the ``spec`` tuple the server built for each request.
"""

from __future__ import annotations

import contextvars
import functools
import json
import threading
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable

from repro.cluster import ClusterCoordinator, ClusterSimulation
from repro.core import executor as executor_module
from repro.core.executor import PlanExecutor
from repro.core.records import RecordStore
from repro.core.wave import WaveIndex
from repro.index import kernels
from repro.index.constituent import ConstituentIndex
from repro.serve import protocol
from repro.serve.admission import AdmissionController, CoordinatorBackend
from repro.storage.allocator import ExtentAllocator
from repro.storage.disk import SimulatedDisk

#: Request id of the frame being served (server side).
RID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_rid", default=None
)
#: Connection name of the client task (client side).
CONN: contextvars.ContextVar[str] = contextvars.ContextVar(
    "perfbench_conn", default="c0"
)

_now = time.perf_counter_ns


class _Columns:
    """One thread's spans as parallel arrays, plus its open-span stack."""

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.code = array("B")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.rid: list[str | None] = []
        self.stack: list[int] = []

    def begin(self, code: int, rid: str | None = None) -> int:
        i = len(self.code)
        self.code.append(code)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.rid.append(rid)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(_now())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = _now()
        self.stack.pop()


class Tracer:
    """Wraps the layers' public calls and keeps what they record."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[_Columns] = []
        self._patches: list[tuple[Any, str, Any]] = []
        #: Counters, updated where the work happens (from several threads).
        self.counts: Counter[str] = Counter()
        self._count_lock = threading.Lock()
        #: id(spec) -> (submit time, request id), until dispatched.
        self._submitted: dict[int, tuple[int, str | None]] = {}
        #: request id -> admission wait (ns), from submit to backend call.
        self.wait_ns: dict[str, int] = {}
        #: id(wire result) -> request id, from frame decode to unmarshal.
        self._wire_rid: dict[int, str] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def add(self, name: str, n: int = 1) -> None:
        with self._count_lock:
            self.counts[name] += n

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def columns(self) -> _Columns:
        cols = getattr(self._local, "cols", None)
        if cols is None:
            cols = self._local.cols = _Columns(threading.current_thread().name)
            self._threads.append(cols)
        return cols

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _span(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        rid: Callable[..., str | None] | None = None,
        after: Callable[[Any], None] | None = None,
    ) -> None:
        """Record a span around ``owner.attr``.

        ``rid`` names the request from the call's arguments; ``after``
        sees the result, outside the span, to update counters.
        """
        code = self.code(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                cols = self.columns()
                i = cols.begin(code, None if rid is None else rid(*args))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    cols.finish(i)
                if after is not None:
                    after(result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def _count(self, owner: Any, attr: str, name: str) -> None:
        def make(fn):
            def wrapper(*args, **kwargs):
                self.add(name)
                return fn(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer listed in the README's per-layer table."""
        self._install_protocol()
        self._install_admission()
        self._span(ClusterCoordinator, "probe_many", "coordinator.probe")
        self._span(ClusterCoordinator, "scan_many", "coordinator.scan")
        self._span(WaveIndex, "probe_many", "wave.probe", after=self._count_probes)
        self._span(WaveIndex, "scan_many", "wave.scan")
        self._span(kernels.RangeFilterCache, "filter", "kernels.filter")
        self._span(kernels, "filter_bucket", "kernels.filter")
        self._install_column_rebuilds()
        self._span(
            RecordStore,
            "grouped_for",
            "records.group",
            after=lambda grouped: self.add(
                "records.postings", sum(len(e) for e in grouped.values())
            ),
        )
        self._span(executor_module, "build_packed_index", "builder.build")
        self._span(ConstituentIndex, "insert_postings", "updates.add")
        self._span(ConstituentIndex, "delete_days", "updates.delete")
        self._span(PlanExecutor, "execute_op", "executor.execute")
        for attr in ("read", "write", "stream_read", "stream_write"):
            self._span(SimulatedDisk, attr, "disk.io")
        self._count(ExtentAllocator, "allocate", "allocator.allocs")
        self._span(ClusterSimulation, "run_transition", "cluster.transition")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install_protocol(self) -> None:
        encode = self.code("protocol.encode")
        decode = self.code("protocol.decode")
        request_encode = self.code("client.encode")
        request_decode = self.code("server.decode")

        def make_encode_frame(fn):
            def wrapper(message):
                cols = self.columns()
                if "ok" in message:
                    i = cols.begin(encode, RID.get())
                else:
                    i = cols.begin(request_encode, f"{CONN.get()}:{message.get('id')}")
                try:
                    frame = fn(message)
                finally:
                    cols.finish(i)
                if "ok" in message:
                    self.add("protocol.resp_bytes", len(frame))
                return frame

            return wrapper

        def make_decode_frame(fn):
            def wrapper(payload):
                cols = self.columns()
                i = cols.begin(decode)
                try:
                    message = fn(payload)
                finally:
                    cols.finish(i)
                if "op" in message:
                    rid = f"{message.get('tenant')}:{message.get('id')}"
                    cols.code[i] = request_decode
                    RID.set(rid)
                else:
                    rid = f"{CONN.get()}:{message.get('id')}"
                    result = message.get("result")
                    if isinstance(result, dict):
                        self._wire_rid[id(result)] = rid
                cols.rid[i] = rid
                return message

            return wrapper

        self._patch(protocol, "encode_frame", make_encode_frame)
        self._patch(protocol, "decode_frame", make_decode_frame)
        self._span(
            protocol, "result_to_wire", "protocol.encode", rid=lambda _r: RID.get()
        )
        self._span(
            protocol,
            "result_from_wire",
            "protocol.decode",
            rid=lambda wire: self._wire_rid.pop(id(wire), None),
        )

    def _install_admission(self) -> None:
        backend = self.code("admission.backend")

        def make_submit(fn):
            async def wrapper(controller, op, spec, **kwargs):
                self._submitted[id(spec)] = (_now(), RID.get())
                return await fn(controller, op, spec, **kwargs)

            return wrapper

        def make_call(fn):
            def wrapper(backend_self, specs):
                cols = self.columns()
                i = cols.begin(backend)
                start = cols.start[i]
                rids = []
                for spec in specs:
                    submitted, rid = self._submitted.pop(id(spec), (start, None))
                    rids.append(rid)
                    if rid is not None:
                        self.wait_ns[rid] = start - submitted
                # The batch span names every request it served.
                cols.rid[i] = ",".join(r for r in rids if r is not None)
                try:
                    return fn(backend_self, specs)
                finally:
                    cols.finish(i)
                    self.add("admission.calls")
                    self.add("admission.requests", len(specs))

            return wrapper

        self._patch(AdmissionController, "submit", make_submit)
        self._patch(CoordinatorBackend, "probe_many", make_call)
        self._patch(CoordinatorBackend, "scan_many", make_call)

    def _install_column_rebuilds(self) -> None:
        """Count rebuilds of a bucket's cached day column.

        ``bucket_day_column`` rebuilds the column when it is missing (a
        new bucket, or one whose entries were replaced) or no longer
        matches the entries; appends extend it in place and are not
        counted.  The throwaway columns ``RangeFilterCache(entries)``
        builds over a scan's gathered entries are not cache rebuilds and
        are left out too.
        """

        def make(fn):
            def wrapper(bucket):
                column = bucket._day_column
                if column is None or len(column) != len(bucket.entries):
                    self.add("kernels.column_rebuilds")
                return fn(bucket)

            return wrapper

        self._patch(kernels, "bucket_day_column", make)

    def _count_probes(self, batch: Any) -> None:
        self.add("wave.probes", len(batch.results))
        self.add("wave.entries", sum(len(r.entries) for r in batch.results))
        self.add("wave.buckets_read", batch.summary.buckets_read)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def root_intervals(self, exclude: str) -> list[tuple[int, int]]:
        """Return ``(start, end)`` of every outermost span not named ``exclude``."""
        code = self._codes.get(exclude)
        intervals = []
        for cols in self._threads:
            for i in range(len(cols.code)):
                if cols.parent[i] < 0 and cols.code[i] != code:
                    intervals.append((cols.start[i], cols.end[i]))
        return intervals

    def self_times(
        self,
    ) -> tuple[Counter[str], Counter[str], Counter[str], Counter[str]]:
        """Return self ns and calls per span name, and the same per root.

        A span's root is the outermost wrapped call it ran under on its
        thread (``cluster.transition`` for maintenance, a protocol or
        ``admission.backend`` span for serving).
        """
        self_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        by_root: Counter[str] = Counter()
        spans_by_root: Counter[str] = Counter()
        for cols in self._threads:
            n = len(cols.code)
            durations = [cols.end[i] - cols.start[i] for i in range(n)]
            own = durations[:]
            root = list(cols.code)
            for i in range(n):
                p = cols.parent[i]
                if p >= 0:
                    own[p] -= durations[i]
                    root[i] = root[p]
            for i in range(n):
                name = self.names[cols.code[i]]
                self_ns[name] += own[i]
                calls[name] += 1
                by_root[self.names[root[i]]] += own[i]
                spans_by_root[self.names[root[i]]] += 1
        return self_ns, calls, by_root, spans_by_root

    def write(self, path: Path) -> None:
        """Write every span, one column list per thread, as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "clock": "time.perf_counter_ns",
            "names": self.names,
            "admission_wait_ns": self.wait_ns,
            "threads": [
                {
                    "thread": cols.thread,
                    "name": cols.code.tolist(),
                    "start": cols.start.tolist(),
                    "end": cols.end.tolist(),
                    "parent": cols.parent.tolist(),
                    "request": cols.rid,
                }
                for cols in self._threads
            ],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def busy_ns(intervals: list[tuple[int, int]]) -> int:
    """Return the length of the union of ``(start, end)`` intervals.

    Spans on the event-loop and executor threads overlap in wall time
    (each waits for the interpreter lock while the other runs), so
    their durations do not add; their union is the time some layer ran.
    """
    total = 0
    covered_to = None
    for start, end in sorted(intervals):
        if covered_to is None or start > covered_to:
            total += end - start
            covered_to = end
        elif end > covered_to:
            total += end - covered_to
            covered_to = end
    return total


def span_overhead_ns(calls: int = 50_000) -> float:
    """Return the wall time one wrapped call adds, measured on a no-op.

    The add-up check subtracts this per recorded span, so that the
    traced layers' sums can be set against the untraced timings.
    """

    class Target:
        def noop(self) -> None:
            return None

    target = Target()

    def timed() -> int:
        start = _now()
        for _ in range(calls):
            target.noop()
        return _now() - start

    plain = min(timed() for _ in range(3))
    tracer = Tracer()
    tracer._span(Target, "noop", "noop")
    try:
        wrapped = min(timed() for _ in range(3))
    finally:
        tracer.uninstall()
    return max(0.0, (wrapped - plain) / calls)
