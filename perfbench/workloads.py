"""Workload definitions, seeded input generation and the answer oracle.

Everything here is the benchmark's own: the program under test only ever
sees the generated ``Record`` objects (through ``RecordStore``) and the
probe/scan requests sent over the wire.  The oracle is built straight
from the generated records, never through ``RecordStore.grouped_for`` or
``DayBatch.postings``, because those are layers under test.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from operator import itemgetter

from repro.core.records import Record
from repro.index.entry import Entry
from repro.workloads.text import NetnewsGenerator, TextWorkloadConfig

#: Sort key for entries: (record_id, day).  ``info`` is ``None`` in the
#: text workload and ``None`` does not order, so it is left out of the key.
ENTRY_KEY = itemgetter(0, 1)


@dataclass(frozen=True)
class Workload:
    """One traffic mix over the 2-shard text cluster.

    ``day_seconds`` is this workload's wall time per simulated day on the
    reference machine (README); ``--seconds`` divided by it fixes the
    number of measured days, so a given ``--seconds`` is always the same
    amount of work and the simulated-clock metrics repeat exactly.
    """

    name: str
    scheme: str
    technique: str
    window: int
    n_indexes: int
    docs_per_day: int
    probes_per_day: int
    scans_per_day: int
    #: Per-device page cache; README gives it against one shard's
    #: window bytes.
    cache_bytes: int
    day_seconds: float
    shards: int = 2
    connections: int = 2
    in_flight: int = 8
    vocabulary: int = 5_000
    words_per_doc: int = 40

    def measured_days(self, seconds: float) -> int:
        return max(2, round(seconds / self.day_seconds))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="serve",
            scheme="REINDEX",
            technique="simple_shadow",
            window=10,
            n_indexes=3,
            docs_per_day=100,
            probes_per_day=1000,
            scans_per_day=2,
            cache_bytes=128 << 10,
            day_seconds=0.6,
        ),
        Workload(
            name="ingest",
            scheme="REINDEX",
            technique="simple_shadow",
            window=10,
            n_indexes=3,
            docs_per_day=400,
            probes_per_day=45,
            scans_per_day=1,
            cache_bytes=512 << 10,
            day_seconds=0.5,
        ),
        Workload(
            name="evolve",
            scheme="DEL",
            technique="in_place",
            window=10,
            n_indexes=3,
            docs_per_day=200,
            probes_per_day=200,
            scans_per_day=10,
            cache_bytes=256 << 10,
            day_seconds=0.55,
        ),
    )
}


@dataclass(frozen=True)
class Probe:
    value: str
    t1: int
    t2: int


@dataclass(frozen=True)
class Scan:
    t1: int
    t2: int


class Oracle:
    """Independent inverted map value -> entries, plus per-day scans.

    Records are generated in increasing ``record_id`` and day order, so
    each value's entry list is sorted by both; a probe's answer is one
    slice of it, found by bisecting a parallel day list.
    """

    def __init__(self, days: dict[int, list[Record]]) -> None:
        self._entries: dict[str, list[Entry]] = {}
        self._days: dict[str, list[int]] = {}
        self._scan: dict[int, list[Entry]] = {}
        for day in sorted(days):
            scan = self._scan[day] = []
            for record in days[day]:
                entry = Entry(record.record_id, record.day, record.info)
                for value in record.values:
                    self._entries.setdefault(value, []).append(entry)
                    self._days.setdefault(value, []).append(record.day)
                    scan.append(entry)
            scan.sort(key=ENTRY_KEY)

    def probe(self, value: str, t1: int, t2: int) -> list[Entry]:
        days = self._days.get(value, [])
        lo = bisect.bisect_left(days, t1)
        hi = bisect.bisect_right(days, t2)
        return self._entries.get(value, [])[lo:hi]

    def scan(self, t1: int, t2: int) -> list[Entry]:
        return list(
            itertools.chain.from_iterable(
                self._scan.get(day, []) for day in range(t1, t2 + 1)
            )
        )

    def entries_in(self, t1: int, t2: int) -> int:
        return sum(len(self._scan.get(day, [])) for day in range(t1, t2 + 1))


def check_answer(oracle: Oracle, op: Probe | Scan, result) -> str | None:
    """Return why ``result`` is wrong for ``op``, or ``None`` if it is right."""
    if result.missing_days:
        return f"missing days {sorted(result.missing_days)}"
    wanted = set(range(op.t1, op.t2 + 1))
    if not wanted <= result.covered_days:
        return f"covered {sorted(result.covered_days)} lacks {sorted(wanted)}"
    if isinstance(op, Probe):
        expected = oracle.probe(op.value, op.t1, op.t2)
    else:
        expected = oracle.scan(op.t1, op.t2)
    got = sorted(result.entries, key=ENTRY_KEY)
    if got != expected:
        return f"{len(got)} entries, oracle has {len(expected)}"
    return None


class ZipfValues:
    """The benchmark's own Zipf(s=1) picker over the text vocabulary."""

    def __init__(self, vocabulary: int, rng: random.Random) -> None:
        weights = [1.0 / rank for rank in range(1, vocabulary + 1)]
        self._cdf = list(itertools.accumulate(weights))
        self._rng = rng

    def pick(self) -> str:
        u = self._rng.random() * self._cdf[-1]
        return f"w{bisect.bisect_left(self._cdf, u) + 1}"


@dataclass
class Inputs:
    """Everything a run needs, generated from the seed before timing."""

    records: dict[int, list[Record]]
    ops: dict[int, list[Probe | Scan]]
    first_day: int
    last_day: int
    oracle: Oracle


def generate(workload: Workload, seed: int, seconds: float) -> Inputs:
    """Build the records of every day and each measured day's requests."""
    w = workload
    last_day = w.window + w.measured_days(seconds)
    generator = NetnewsGenerator(
        TextWorkloadConfig(
            docs_per_day=w.docs_per_day,
            words_per_doc=w.words_per_doc,
            vocabulary=w.vocabulary,
            seed=seed,
        )
    )
    records = {
        day: generator.generate_day(day).records
        for day in range(1, last_day + 1)
    }
    rng = random.Random(f"perfbench:{w.name}:{seed}")
    values = ZipfValues(w.vocabulary, rng)
    ops: dict[int, list[Probe | Scan]] = {}
    for day in range(w.window + 1, last_day + 1):
        oldest = day - w.window + 1
        day_ops: list[Probe | Scan] = []
        for _ in range(w.probes_per_day):
            # A uniform random sub-range of the window.
            t1 = rng.randint(oldest, day)
            t2 = rng.randint(t1, day)
            day_ops.append(Probe(values.pick(), t1, t2))
        # Scans are spread evenly through the day's probes.
        for i in range(w.scans_per_day):
            at = (i + 1) * len(day_ops) // (w.scans_per_day + 1)
            day_ops.insert(at, Scan(day, day))
        ops[day] = day_ops
    return Inputs(records, ops, w.window + 1, last_day, Oracle(records))
