"""Wall-clock benchmark of the wave-index cluster, serving and maintenance.

Usage::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

Each run generates its inputs from the seed, then sets up a 2-shard
``ClusterSimulation`` over the Netnews-style text store behind an
in-process ``FrontendServer`` (stock ``AdmissionConfig``), five times,
and keeps the last.  Each measured day it runs the daily transition and
then a closed-loop burst of probes and scans through ``FrontendClient``
over loopback TCP.  Every answer is checked against an oracle built from
the generated records.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps each
layer's public calls (``tracer.py``) for the measured days and reports
the per-layer metrics instead; the traced run's own end-to-end figures
and the add-up sums go on the line before the result, and the spans are
written to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"perfbench: no program source at {SRC}; run it from a checkout")
sys.path.insert(0, str(SRC))

from repro.cluster import ClusterConfig, ClusterSimulation  # noqa: E402
from repro.core.records import RecordStore  # noqa: E402
from repro.core.schemes import scheme_by_name  # noqa: E402
from repro.errors import (  # noqa: E402
    BackendError,
    RequestRejected,
    TransportError,
)
from repro.index.config import IndexConfig  # noqa: E402
from repro.index.updates import UpdateTechnique  # noqa: E402
from repro.serve import FrontendClient, FrontendServer  # noqa: E402

from stats import median, nearest_rank  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Inputs,
    Probe,
    Workload,
    check_answer,
    generate,
)

#: String-hash seed every measured interpreter runs with.
HASH_SEED = "0"
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Seconds the calibration loop takes on the reference machine (README).
CALIBRATION_REF_S = 0.0090
#: Mismatches printed to standard error before the rest are only counted.
SHOWN_MISMATCHES = 5


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def calibrate() -> float:
    """Time a fixed pure-Python loop of dict, tuple and list work.

    On a machine shared with other work the speed drifts by a fifth over
    seconds, the same for the program and for this loop, so the mean of
    these samples, taken between days and set-ups, measures how fast the
    machine ran.
    """
    enabled = gc.isenabled()
    gc.disable()  # the collector's work depends on the program's heap
    start = time.perf_counter()
    table: dict[int, int] = {}
    items = []
    for i in range(20_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        items.append((key, i))
    items.sort()
    took = time.perf_counter() - start
    if enabled:
        gc.enable()
    return took


async def set_up(w: Workload, inputs: Inputs):
    """Ingest, partition, build the initial window and boot the frontend."""
    start = time.perf_counter()
    store = RecordStore()
    for day, records in inputs.records.items():
        store.add_records(day, records)
    scheme_cls = scheme_by_name(w.scheme)
    sim = ClusterSimulation(
        lambda: scheme_cls(w.window, w.n_indexes),
        store,
        technique=UpdateTechnique(w.technique),
        cluster=ClusterConfig(n_shards=w.shards, page_cache_bytes=w.cache_bytes),
    )
    sim.run_start()
    server = FrontendServer(sim.coordinator)
    await server.start()
    return sim, server, time.perf_counter() - start


class Ledger:
    """What the measured days produced, in the benchmark's own counters."""

    def __init__(self) -> None:
        self.attempted = {"probe": 0, "scan": 0}
        self.failed = {"probe": 0, "scan": 0}
        self.latency = {"probe": [], "scan": []}
        self.burst_s = 0.0
        self.completed = 0
        self.maint_s = 0.0
        #: Wall time of each day's full collection.
        self.gc_s: list[float] = []
        #: Objects the collector tracks after each day's full collection.
        self.gc_objects: list[int] = []
        #: Calibration-loop samples taken between days.
        self.calibration: list[float] = []
        self.sim_maint_s = 0.0
        self.sim_probe_s = 0.0
        self.probes_answered = 0
        self.space_amp = 0.0
        self.mismatches = 0
        self.days = 0


async def burst(clients, ops, w: Workload, ledger: Ledger):
    """Closed loop: ``in_flight`` workers share the day's operation list."""
    results: list = [None] * len(ops)
    next_op = iter(range(len(ops)))

    async def worker(k: int) -> None:
        conn = f"c{k % len(clients)}"
        tracing.CONN.set(conn)
        client = clients[k % len(clients)]
        for i in next_op:
            op = ops[i]
            kind = "probe" if isinstance(op, Probe) else "scan"
            ledger.attempted[kind] += 1
            start = time.perf_counter()
            try:
                if kind == "probe":
                    result = await client.probe(op.value, op.t1, op.t2, tenant=conn)
                else:
                    result = await client.scan(op.t1, op.t2, tenant=conn)
            except (RequestRejected, BackendError, TransportError) as exc:
                ledger.failed[kind] += 1
                print(f"{kind} failed: {exc!r}", file=sys.stderr)
                continue
            ledger.latency[kind].append(time.perf_counter() - start)
            results[i] = result

    start = time.perf_counter()
    await asyncio.gather(*(worker(k) for k in range(w.in_flight)))
    ledger.burst_s += time.perf_counter() - start
    return results


def check_window(sim: ClusterSimulation, w: Workload, day: int) -> str | None:
    want = set(range(day - w.window + 1, day + 1))
    for shard in sim.shards:
        got = shard.primary.wave.covered_days()
        if got != want:
            return f"day {day} shard {shard.shard_id} serves {sorted(got)}"
    return None


async def measure(sim, server, w: Workload, inputs: Inputs, ledger: Ledger):
    entry_bytes = IndexConfig().entry_size_bytes
    clients = []
    for k in range(w.connections):
        tracing.CONN.set(f"c{k}")
        clients.append(await FrontendClient().connect("127.0.0.1", server.port))
    # The collector runs once a day at a fixed point instead of wherever
    # an allocation count happens to trip it: a full collection takes
    # tens of milliseconds on the reference machine, and landing inside
    # a transition or a burst at random moved maint_ms_per_day and
    # probe_p99_ms by a third between identical runs.  What is
    # controlled is where the pause lands, not what it costs: a full
    # collection walks every tracked object, and their count after the
    # day's collection is the end-to-end gc_tracked_objects.  The median
    # day's collection time is the per-layer gc.collect_ms.
    gc.disable()
    try:
        for day in range(inputs.first_day, inputs.last_day + 1):
            ledger.calibration.append(calibrate())
            start = time.perf_counter()
            stats = sim.run_transition(day)
            ledger.maint_s += time.perf_counter() - start
            ledger.sim_maint_s += stats.maintenance_makespan_seconds
            peak = sum(device.high_water_bytes for device in sim.array.devices)
            window = inputs.oracle.entries_in(day - w.window + 1, day) * entry_bytes
            ledger.space_amp = max(ledger.space_amp, peak / window)
            problem = check_window(sim, w, day)
            if problem is not None:
                ledger.mismatches += 1
                print(f"window: {problem}", file=sys.stderr)
            ops = inputs.ops[day]
            results = await burst(clients, ops, w, ledger)
            for op, result in zip(ops, results):
                if result is None:
                    continue
                ledger.completed += 1
                if isinstance(op, Probe):
                    ledger.sim_probe_s += result.seconds
                    ledger.probes_answered += 1
                problem = check_answer(inputs.oracle, op, result)
                if problem is not None:
                    ledger.mismatches += 1
                    if ledger.mismatches <= SHOWN_MISMATCHES:
                        print(f"day {day} {op}: {problem}", file=sys.stderr)
            ledger.days += 1
            start = time.perf_counter()
            gc.collect()
            ledger.gc_s.append(time.perf_counter() - start)
            ledger.gc_objects.append(len(gc.get_objects()))
            ledger.calibration.append(calibrate())
    finally:
        gc.enable()
        for client in clients:
            await client.close()


def speed_scale(samples: list[float]) -> float:
    """Return the factor that turns this run's wall times into reference ones."""
    return CALIBRATION_REF_S / (sum(samples) / len(samples))


def end_to_end(
    ledger: Ledger, setup_s: float, setup_scale: float
) -> dict[str, tuple[float, str]]:
    """End-to-end metrics; wall times are scaled to the reference speed."""
    scale = speed_scale(ledger.calibration)
    probes = ledger.latency["probe"]
    scans = ledger.latency["scan"]
    return {
        "setup_s": (setup_s * setup_scale, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
        "rps": (ledger.completed / ledger.burst_s / scale, "1/s"),
        "probe_p50_ms": (nearest_rank(probes, 0.50) * 1e3 * scale, "ms"),
        "probe_p99_ms": (nearest_rank(probes, 0.99) * 1e3 * scale, "ms"),
        "scan_p50_ms": (nearest_rank(scans, 0.50) * 1e3 * scale, "ms"),
        "maint_ms_per_day": (ledger.maint_s / ledger.days * 1e3 * scale, "ms"),
        "sim_maint_s_per_day": (ledger.sim_maint_s / ledger.days, "sim_s"),
        "sim_probe_ms": (ledger.sim_probe_s / ledger.probes_answered * 1e3, "sim_ms"),
        "space_amp": (ledger.space_amp, "ratio"),
        "gc_tracked_objects": (
            sum(ledger.gc_objects) / len(ledger.gc_objects), "count"
        ),
    }


def per_layer(
    tracer: tracing.Tracer, ledger: Ledger, io_delta, cache_delta
) -> tuple[dict[str, tuple[float, str]], dict]:
    """Per-layer metrics, plus the layer sums for the README's add-up check."""
    self_ns, calls, by_root, spans_by_root = tracer.self_times()
    overhead_ns = tracing.span_overhead_ns()
    counts = tracer.counts
    days = ledger.days
    probes = ledger.attempted["probe"] - ledger.failed["probe"]
    scans = ledger.attempted["scan"] - ledger.failed["scan"]
    responses = probes + scans
    waits = list(tracer.wait_ns.values())
    touches = cache_delta.hits + cache_delta.misses
    scale = speed_scale(ledger.calibration)

    def per(ns: float, n: float, unit: str) -> tuple[float, str]:
        """Wall nanoseconds per unit of work, at the reference speed."""
        return ns / n / {"us": 1e3, "ms": 1e6}[unit] * scale, unit

    metrics = {
        "protocol.encode_us": per(self_ns["protocol.encode"], responses, "us"),
        "protocol.decode_us": per(self_ns["protocol.decode"], responses, "us"),
        "protocol.resp_bytes": (counts["protocol.resp_bytes"] / responses, "bytes"),
        "admission.wait_us": per(sum(waits), len(waits), "us"),
        "admission.batch_reqs": (
            counts["admission.requests"] / counts["admission.calls"], "count"
        ),
        "coordinator.probe_us": per(self_ns["coordinator.probe"], probes, "us"),
        "coordinator.scan_ms": per(self_ns["coordinator.scan"], scans, "ms"),
        "wave.probe_us": per(self_ns["wave.probe"], probes, "us"),
        "wave.scan_ms": per(self_ns["wave.scan"], scans, "ms"),
        "wave.entries_per_probe": (counts["wave.entries"] / counts["wave.probes"], "count"),
        "wave.buckets_read": (counts["wave.buckets_read"] / counts["wave.probes"], "count"),
        "kernels.filter_us": per(self_ns["kernels.filter"], probes, "us"),
        "kernels.column_rebuilds": (counts["kernels.column_rebuilds"] / days, "count"),
        "kernels.column_rebuilds_per_probe": (
            counts["kernels.column_rebuilds"] / probes, "count"
        ),
        "records.group_ms": per(self_ns["records.group"], days, "ms"),
        "records.postings": (counts["records.postings"] / days, "count"),
        "builder.build_ms": per(self_ns["builder.build"], days, "ms"),
        "updates.add_ms": per(self_ns["updates.add"], days, "ms"),
        "updates.delete_ms": per(self_ns["updates.delete"], days, "ms"),
        "executor.self_ms": per(self_ns["executor.execute"], days, "ms"),
        "disk.io_us": per(self_ns["disk.io"], calls["disk.io"], "us"),
        "disk.seeks": (io_delta.seeks / days, "count"),
        "disk.bytes_read": (io_delta.bytes_read / days, "bytes"),
        "disk.bytes_written": (io_delta.bytes_written / days, "bytes"),
        "allocator.allocs": (counts["allocator.allocs"] / days, "count"),
        "pagecache.hit_rate": (cache_delta.hits / touches, "ratio"),
        "pagecache.evictions": (cache_delta.evictions / days, "count"),
        "cluster.transition_ms": (ledger.maint_s / days * 1e3 * scale, "ms"),
        "gc.collect_ms": (median(ledger.gc_s) * 1e3 * scale, "ms"),
    }
    # One event loop and the interpreter lock serialize the work, so in a
    # closed loop the wall time per request is the time some serving
    # layer ran plus what no wrapper covers (asyncio, sockets).
    # Maintenance is one call tree under run_transition.
    maint = "cluster.transition"
    serving = tracing.busy_ns(tracer.root_intervals(exclude=maint))
    serving_spans = sum(n for root, n in spans_by_root.items() if root != maint)
    addup = {
        "span_overhead_ns": overhead_ns,
        "serve_layers_ms_per_request": (
            (serving - serving_spans * overhead_ns) / responses / 1e6 * scale
        ),
        "maint_layers_ms_per_day": (
            (by_root[maint] - spans_by_root[maint] * overhead_ns) / days / 1e6 * scale
        ),
    }
    return metrics, addup


def summed(snapshots):
    """Add per-device counter snapshots field by field."""
    first = snapshots[0]
    return type(first)(
        **{f: sum(getattr(s, f) for s in snapshots) for f in first.__dataclass_fields__}
    )


async def run(args: argparse.Namespace) -> dict:
    w = WORKLOADS[args.workload]
    inputs = generate(w, args.seed, args.seconds)
    # The inputs live for the whole run; freezing them keeps the
    # collector from re-walking them inside the timed regions.
    gc.collect()
    gc.freeze()
    setups = []
    setup_calibration = []
    for attempt in range(SETUPS):
        setup_calibration.append(calibrate())
        sim, server, took = await set_up(w, inputs)
        setups.append(took)
        setup_calibration.append(calibrate())
        if attempt < SETUPS - 1:
            await server.drain_and_close()
            del sim, server
            gc.collect()
    ledger = Ledger()
    tracer = tracing.Tracer() if args.trace else None
    devices = sim.array.devices
    io_before = [d.stats.snapshot() for d in devices]
    cache_before = [d.page_cache.snapshot() for d in devices]
    if tracer is not None:
        tracer.install()
    try:
        await measure(sim, server, w, inputs, ledger)
    finally:
        if tracer is not None:
            tracer.uninstall()
        await server.drain_and_close()
    attempted = sum(ledger.attempted.values())
    failed = sum(ledger.failed.values())
    detail = {
        "workload": w.name,
        "seed": args.seed,
        "days": ledger.days,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "samples": {k: len(v) for k, v in ledger.latency.items()},
        "setups_s": setups,
        "mismatches": ledger.mismatches,
        "speed_scale": {
            "setup": speed_scale(setup_calibration),
            "measured": speed_scale(ledger.calibration),
        },
    }
    e2e = end_to_end(ledger, median(setups), detail["speed_scale"]["setup"])
    if tracer is None:
        metrics = e2e
    else:
        io_delta = summed([d.stats.snapshot() - b for d, b in zip(devices, io_before)])
        cache_delta = summed(
            [d.page_cache.snapshot() - b for d, b in zip(devices, cache_before)]
        )
        metrics, detail["add_up"] = per_layer(tracer, ledger, io_delta, cache_delta)
        detail["traced_end_to_end"] = {k: v for k, (v, _u) in e2e.items()}
        tracer.write(HERE / "out" / f"spans-{w.name}-seed{args.seed}.json")
    print(json.dumps(detail))
    return {
        "correct": ledger.mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    args = parse_args(sys.argv[1:])
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing decides set and dict layouts all through the
        # program; a random seed per run moved the timings by several
        # per cent.  Start again in an interpreter with the fixed seed.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    # One CPU for the whole process.  The event loop and the backend's
    # executor threads share one interpreter lock; on a two-CPU machine
    # shared with other work, whether they got a CPU each decided rps by
    # a third between runs of the same code.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = asyncio.run(run(args))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
