"""The two workloads: an ingest stream with an analyst, on one dataset.

Sync runtime, in memory.  Closed loop over the publications of one
dataset; after every ``query_every`` records the loop issues one range
query, 1, 4 or 16 bins wide, against the same store the ingest writes.
The work is fixed by ``--seconds`` (publication count), not by how fast
the system is, so a faster ingest never makes the queries read a bigger
store.

- ``gowalla-stream``: Gowalla publications of 10,000 records over 626
  leaves.  The per-record path does most of the ingest work:
  dispatch, parse+encrypt, randomer/check, cloud receive.
- ``nasa-stream``: short NASA publications (4,000 records over 3,421
  leaves).  Per-publication fixed costs do: the merger pads every
  leaf's overflow array with single encrypts, and the sync runtime
  blocks on the merge, so it is on the ingest's critical path.

Both report the same metrics, so a change that speeds one path and
slows the other shows in the same figures.
"""

from __future__ import annotations

import gc
import itertools
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy

from repro.core.system import FresqueSystem

from fqbench import inputs, probes
from fqbench.common import (
    Result,
    cipher_for,
    clock,
    freeze_inputs,
    gowalla_config,
    nasa_config,
    peak_rss_mb,
)
from fqbench.hostspeed import HostSpeed
from fqbench.spans import Patches, Tracer
from fqbench.stats import MIN_BEYOND, beyond, percentile

#: Set-ups timed before the first publication, and before every
#: publication, so the set-up samples span the whole run.
SETUP_REPS_AT_START = 4
SETUP_REPS_PER_PUBLICATION = 2


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable
    stream: Callable
    query_start: Callable
    bins: int
    bin_size: int
    per_publication: int
    #: One query per this many records.
    query_every: int
    #: Seconds of ``--seconds`` per publication, calibrated on a 2-CPU
    #: x86 box so a run takes about ``--seconds``.
    seconds_per_publication: float


WORKLOADS = {
    workload.name: workload
    for workload in (
        # 18 publications at 45 s, 720 queries.
        Workload(
            name="gowalla-stream",
            config=gowalla_config,
            stream=inputs.gowalla_stream,
            query_start=inputs.uniform_start(inputs.GOWALLA_BINS, inputs.GOWALLA_BIN),
            bins=inputs.GOWALLA_BINS,
            bin_size=inputs.GOWALLA_BIN,
            per_publication=10_000,
            query_every=250,
            seconds_per_publication=2.5,
        ),
        # 16 publications at 45 s, 615 queries; half the time is merging.
        Workload(
            name="nasa-stream",
            config=nasa_config,
            stream=inputs.nasa_stream,
            query_start=inputs.nasa_start,
            bins=inputs.NASA_BINS,
            bin_size=inputs.NASA_BIN,
            per_publication=4_000,
            query_every=104,
            seconds_per_publication=2.8,
        ),
    )
}


class Inputs:
    """Lines, queries and the reference answers, all drawn untimed."""

    def __init__(self, workload: Workload, seeds, publications: int):
        self.workload = workload
        self.config = workload.config()
        self.stream = workload.stream(
            seeds.rng("lines"), publications, workload.per_publication
        )
        self.queries = inputs.queries(
            seeds.rng("queries"),
            self.stream.total // workload.query_every,
            workload.bin_size,
            workload.query_start,
        )
        self.key = seeds.master_key()
        self.system_seed = seeds.system_seed()
        self.indexed = self.config.schema.indexed_position
        # Where each record sits in the stream, for the precision check,
        # and each query's true in-range count at the moment it runs.
        self.where: dict[tuple, list[int]] = {}
        for position, record in enumerate(itertools.chain(*self.stream.records)):
            self.where.setdefault(record, []).append(position)
        values = numpy.fromiter(
            (record[self.indexed] for record in itertools.chain(*self.stream.records)),
            dtype=numpy.int64,
        )
        every = workload.query_every
        self.expected = [
            int(numpy.count_nonzero(
                (values[:ingested] >= query.low) & (values[:ingested] <= query.high)
            ))
            for ingested, query in zip(
                range(every, len(values) + 1, every), self.queries
            )
        ]


def _set_up(data: Inputs) -> tuple[float, FresqueSystem]:
    """Build and start a deployment; return the time it took.  The
    collector is paused meanwhile: a set-up timed mid-run must not pay
    for collecting the garbage of the store the run has grown."""
    gc.disable()
    try:
        start = clock()
        system = FresqueSystem(data.config, cipher_for(data.key), seed=data.system_seed)
        system.start()
        return clock() - start, system
    finally:
        gc.enable()


def _check_answer(result: Result, data: Inputs, answer, low, high, ingested):
    indexed = data.indexed
    counts = Counter(record.values for record in answer.records)
    for values, count in counts.items():
        positions = data.where.get(tuple(values), ())
        if sum(1 for p in positions if p < ingested) < count:
            result.check(False, f"query [{low}, {high}] returned {values!r} "
                         f"{count}x, not ingested that often")
        if not low <= values[indexed] <= high:
            result.check(False, f"query [{low}, {high}] returned {values!r}")
    for record in answer.records:
        if record.is_dummy:
            result.check(False, f"query [{low}, {high}] returned a dummy")


class Timings:
    """Timed samples, each kept as measured and scaled to the host's
    nominal speed (:mod:`fqbench.hostspeed`)."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)

    def add(self, name: str, seconds: float) -> None:
        self.raw[name].append(seconds)
        self.scaled[name].append(seconds * self.speed.scale())

    def busy_s(self) -> float:
        """Scaled time inside the system's calls: ingest, queries and
        publications."""
        return sum(sum(self.scaled[name]) for name in ("ingest", "query", "publish"))


def _timed_set_up(data: Inputs, timings: Timings) -> FresqueSystem:
    timings.speed.sample()
    seconds, system = _set_up(data)
    timings.add("setup", seconds)
    return system


def run_pass(data: Inputs, tracer: Tracer | None) -> tuple[Result, dict]:
    """One full execution; returns the result and raw measurements."""
    result = Result()
    timings = Timings(HostSpeed())
    for _ in range(SETUP_REPS_AT_START):
        system = _timed_set_up(data, timings)
    with Patches() as patches:
        if tracer is not None:
            probes.wrap_sync_system(tracer, patches, system)
        receipts = probes.record_receipts(patches, system.cloud)
        client = system.make_client()
        if tracer is not None:
            patches.set(client, "range_query", tracer.spanned("client", client.range_query))
            # Queries also cover the records still at the collector
            # (Section 5.3(c)); scanning them is its own cost.
            for owner, name in (
                (system.checking, "buffered_pairs"),
                (system.merger, "pending_removed"),
            ):
                patches.set(owner, name, tracer.spanned("collector.scan", getattr(owner, name)))
        raw = _drive(result, data, system, client, receipts, timings)
    raw["timings"] = timings
    result.attempted = data.stream.total + len(data.queries)
    result.failed = raw["raised"] + probes.refused(system) + probes.truncated(system)
    raw["system"] = system
    return result, raw


def _drive(result, data, system, client, receipts, timings) -> dict:
    """Ingest with interleaved queries.  Time is cut into samples: ingest
    segments between queries, queries, and publications from the close
    call to the cloud's receipt; the host's speed is sampled next to
    each, outside the samples."""
    checking = system.checking
    every = data.workload.query_every
    speed = timings.speed
    raised = returned = expected = ciphertexts = 0
    position = 0
    for lines in data.stream.lines:
        # Throwaway deployments, timed and dropped before the window.
        for _ in range(SETUP_REPS_PER_PUBLICATION):
            _timed_set_up(data, timings)
        publication = system.dispatcher.publication
        dummies = checking.dummies_passed
        removed = checking.records_removed
        total = len(lines)
        speed.sample()
        first = mark = clock()
        for index, line in enumerate(lines):
            try:
                system.pump_dummies((index + 1) / (total + 1))
                system.ingest(line)
            except Exception as error:  # counted; the checks then fail
                raised += 1
                result.notes.append(f"ingest raised {error!r}")
            position += 1
            if position % every:
                continue
            timings.add("ingest", clock() - mark)
            ordinal = position // every - 1
            low, high = data.queries[ordinal].low, data.queries[ordinal].high
            speed.sample()
            start = clock()
            try:
                answer = client.range_query(low, high)
            except Exception as error:
                raised += 1
                result.notes.append(f"query raised {error!r}")
                mark = clock()
                continue
            done = clock()
            timings.add("query", done - start)
            _check_answer(result, data, answer, low, high, position)
            returned += len(answer.records)
            expected += data.expected[ordinal]
            ciphertexts += answer.ciphertexts_received
            mark = clock()
        timings.add("ingest", clock() - mark)
        speed.sample()
        closed = clock()
        system.close_publication()
        if publication not in receipts:
            result.check(False, f"publication {publication} never reached the cloud")
            continue
        at, matched = receipts[publication]
        # The ingest window runs from a publication's first ingest to
        # the cloud's receipt of it; queries have their own metrics.
        timings.add("publish", at - closed)
        removed = checking.records_removed - removed
        dummies = checking.dummies_passed - dummies
        result.check(
            total - removed + dummies == matched,
            f"publication {publication}: {total} real - {removed} removed + "
            f"{dummies} dummies != {matched} matched at the cloud",
        )
    return {
        "raised": raised,
        "returned": returned,
        "expected": expected,
        "ciphertexts": ciphertexts,
    }


def _time_metrics(data: Inputs, samples: dict) -> dict:
    ingest_s = sum(samples["ingest"]) + sum(samples["publish"])
    return {
        "ingest_rps": (data.stream.total / ingest_s, "1/s"),
        "query_p50_s": (percentile(samples["query"], 50.0), "s"),
        "setup_s": (statistics.median(samples["setup"]), "s"),
    }


def end_to_end(result: Result, data: Inputs, raw: dict) -> None:
    timings = raw["timings"]
    queries = len(timings.raw["query"])
    for name, (value, unit) in _time_metrics(data, timings.scaled).items():
        result.metric(name, value, unit)
    result.metric("query_recall", raw["returned"] / raw["expected"], "ratio")
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    measured = _time_metrics(data, timings.raw)
    result.notes.append(
        "as measured, before scaling to nominal host speed: "
        + ", ".join(f"{name} {value:.6g} {unit}" for name, (value, unit) in measured.items())
    )
    kernel = timings.speed.history
    result.notes.append(
        f"{queries} queries; {data.stream.total} records in "
        f"{len(timings.raw['publish'])} publications, publish p50 "
        f"{statistics.median(timings.scaled['publish']):.4f} s; "
        f"{probes.truncated(raw['system'])} removed records truncated at merge; "
        f"host kernel {len(kernel)} runs, median {statistics.median(kernel) * 1e3:.3f} ms"
    )


def per_layer(result: Result, tracer: Tracer, raw: dict) -> None:
    probes.pipeline_metrics(result, tracer, raw["system"])
    layers = tracer.layers()
    result.metric("cloud.query.self_s", layers["cloud.query"].self_s, "s")
    result.metric("collector.scan_s", layers["collector.scan"].self_s, "s")
    result.metric("client.self_s", layers["client"].self_s, "s")
    result.metric("client.ciphertexts", raw["ciphertexts"], "count")
    result.metric(
        "client.useful_frac", raw["returned"] / max(1, raw["ciphertexts"]), "ratio"
    )
    calls, seconds = tracer.leaves_under("client", "crypto.decrypt")
    result.metric("crypto.decrypt.self_s", seconds, "s")
    result.metric("crypto.decrypt.calls", calls, "count")


def run(name: str, seeds, seconds: float, trace: bool) -> tuple[Result, Tracer | None]:
    workload = WORKLOADS[name]

    def size(for_seconds):
        return max(1, round(for_seconds / workload.seconds_per_publication))

    if not trace:
        data = Inputs(workload, seeds, size(seconds))
        freeze_inputs()
        result, raw = run_pass(data, None)
        if result.correct:
            end_to_end(result, data, raw)
        return result, None
    # Traced run: the same half-size work untraced, then traced; the
    # ratio of their busy times is the tracing overhead.
    data = Inputs(workload, seeds, size(seconds / 2))
    freeze_inputs()
    plain, plain_raw = run_pass(data, None)
    plain_raw.pop("system")
    tracer = Tracer()
    result, raw = run_pass(data, tracer)
    result.absorb(plain)
    per_layer(result, tracer, raw)
    result.metric("publish.p50_s", statistics.median(raw["timings"].raw["publish"]), "s")
    queries = raw["timings"].raw["query"]
    result.check(
        beyond(len(queries), 95.0) >= MIN_BEYOND,
        f"{len(queries)} queries are too few for a p95",
    )
    result.metric("query.p95_s", percentile(queries, 95.0), "s")
    result.metric("host.kernel_s", statistics.median(raw["timings"].speed.history), "s")
    result.metric(
        "trace.overhead_frac",
        raw["timings"].busy_s() / plain_raw["timings"].busy_s() - 1,
        "ratio",
    )
    return result, tracer
