"""``serve_hot`` and ``serve_cold_swap``: HTTP reads against the fleet.

Set-up builds, in a spawned child so the serving worker forks from a
small parent, an archive of compiled index generations plus the query
targets, then starts a one-worker
:class:`~repro.serving.fleet.ServingFleet` over it.  The generations
come from detection on a synthetic scenario universe, so the index
holds the program's real mix of prefix lengths, which sets how many
probes a longest-prefix match makes.  The universe keeps its preset's
own seed, so every workload seed serves the same archive; the workload
seed draws the targets and the schedules.

The timed region has two legs from one process over at most ``nproc``
(and at most 2) keep-alive connections, both using
``benchmarks/loadgen.py`` schedules with ``parse=True``:

* **paced** - an open loop at a fixed, light rate (see
  :data:`PACED_RATE`); latency counts from each request's due time.
  Its percentiles are printed and kept as diagnostics.
* **capacity** - every request due at once, so each connection sends
  its next request when the previous answer arrives: a closed loop of
  ``connections`` clients.  Its completed requests per second are the
  capacity, and its round trips (send to answer) give the end-to-end
  latency percentiles.

The load generator, the serving worker and the publisher all run on one
CPU (set-up pins the benchmark process; its children inherit that).  On
a shared virtual machine a hand-off between processes on two CPUs wakes
an idle virtual CPU, and how long that takes depends on the host's
other load: unpinned, the closed-loop capacity moved by 0.46 of itself
between repeats of the timed region in one set-up, pinned by 0.12.
Open-loop latency stayed noisy either way, so it is not an end-to-end
metric.

``serve_cold_swap`` additionally appends a new generation and
``broadcast_swap()``-s it every :data:`SWAP_CADENCE_S` seconds while
both legs run.  The append and its fsync run in a publisher process, so
they do not compete with the load generator for its interpreter.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import datetime
import json
import math
import multiprocessing
import os
import random
import statistics
import threading
import time
import urllib.request
from urllib.parse import urlparse

from benchmarks import loadgen
from perfbench.common import Context, Measurement, nproc, peak_rss_pid_mib
from perfbench.tracing import Recorder, installed

#: size -> (scenario preset, distinct hot / cold targets).
SIZES = {"full": ("small", 1_000, 20_000), "smoke": ("tiny", 50, 5_000)}

#: Offered load of the paced leg, requests/s, frozen so later commits
#: are measured at the same load.  Half of capacity was the first aim,
#: but a shared host's speed drifts: in slow spells capacity fell to
#: ~860 (hot) and ~720 (cold) req/s, and paced legs at a half or a
#: quarter of normal capacity saturated the server (p50 0.6 ms -> 3 to
#: 560 ms).  These rates stay near or below a third of the slowest
#: capacity seen.
PACED_RATE = {"serve_hot": 300.0, "serve_cold_swap": 150.0}

#: Share of ``--seconds`` spent in the paced leg; the capacity leg gets
#: the rest.
PACED_SHARE = 0.4

SWAP_CADENCE_S = 0.5

#: Every SAMPLE_EVERY-th request's answer is compared with the
#: in-process service's answer for the generation it names.
SAMPLE_EVERY = 25

MIX = dict(point=0.8, batch=0.15, snapshot=0.05, batch_size=16)


def build_inputs(archive: str, pending: str, seed: int, preset: str,
                 n_swap: int, n_targets: int) -> list[str]:
    """Archive the detected indexes of the *preset* universe at *archive*
    and *n_swap* generations at *pending* (appended to *archive* during
    the run); return the query targets.

    The archive holds detection on the reference date and one month
    before it.  The swap generations alternate between those two pair
    sets under new dates (one day apart from the reference date on), so
    every swap changes the answers.  Targets are addresses inside
    published prefixes (80 %) or anywhere (20 %), both families, drawn
    from *seed*.
    """
    from repro.analysis.pipeline import detect_at
    from repro.dates import add_months
    from repro.nettypes.addr import format_address
    from repro.serving.index import SiblingLookupIndex
    from repro.storage.index_io import append_index
    from repro.synth import build_universe, scenario

    universe = build_universe(scenario(preset))
    reference = universe.reference_date
    indexes = [
        SiblingLookupIndex.from_siblings(detect_at(universe, date)[0])
        for date in (add_months(reference, -1), reference)
    ]
    for index in indexes:
        append_index(archive, index)
    for position in range(n_swap):
        pairs = indexes[position % len(indexes)].pairs
        date = reference + datetime.timedelta(days=position + 1)
        append_index(pending, SiblingLookupIndex.from_pairs(pairs, date))
    rng = random.Random(seed)
    stored = sorted(
        {prefix for index in indexes for pair in index.pairs
         for prefix in (pair.v4_prefix, pair.v6_prefix)}
    )
    targets: set[str] = set()
    while len(targets) < n_targets:
        if rng.random() < 0.8:
            base = rng.choice(stored)
            value = base.value | rng.getrandbits(base.host_bits)
            targets.add(format_address(base.version, value))
        else:
            version = rng.choice((4, 6))
            bits = rng.getrandbits(32 if version == 4 else 128)
            targets.add(format_address(version, bits))
    return sorted(targets)


def publish(archive: str, pending: str, position: int) -> str:
    """Append generation *position* of *pending* to *archive*; return
    its date.  Runs in the publisher process."""
    from repro.storage.archive import ArchiveReader, ArchiveWriter

    with ArchiveReader.open(pending) as reader:
        generation = reader.generations[position]
        date, meta = generation.date, generation.meta
        segments = {
            name: bytes(generation.segment(name)) for name in generation.segment_names()
        }
    with ArchiveWriter.open(archive) as writer:
        writer.append_generation(date, segments, meta)
    return date


class HonestRunner(loadgen._Runner):
    """A ``loadgen`` connection runner that also records how late each
    request was sent and keeps the answers of sampled requests."""

    def __init__(self, *args, sample: frozenset = frozenset()):
        super().__init__(*args)
        self.sample = sample
        self.lateness: list[float] = []
        self.sent: list[float] = []
        self.bodies: list[tuple] = []
        self._last = None

    def _issue(self, request):
        if request is not self._last:  # a retry is not a new send
            self._last = request
            sent = time.monotonic()
            self.sent.append(sent)
            self.lateness.append(sent - (self.epoch + request.offset))
        status, body = super()._issue(request)
        if id(request) in self.sample:
            self.bodies.append((request, status, body))
        return status, body


@dataclasses.dataclass
class Leg:
    result: object  # loadgen.LoadResult
    epoch: float
    lateness: list
    bodies: list
    round_trips: list  # ms from send to answer, of the ok requests


def run_leg(url: str, schedule, connections: int, stop=None) -> Leg:
    """``loadgen.run_load`` with ``parse=True``, plus lateness and samples."""
    sample = frozenset(id(request) for request in schedule[::SAMPLE_EVERY])
    parsed = urlparse(url)
    epoch = time.monotonic()
    runners = [
        HonestRunner(parsed.hostname, parsed.port, schedule[slot::connections],
                     epoch, True, stop, sample=sample)
        for slot in range(connections)
    ]
    for runner in runners:
        runner.start()
    for runner in runners:
        runner.join()
    elapsed = time.monotonic() - epoch
    records = sorted(
        (record for runner in runners for record in runner.records),
        key=lambda record: record.offset,
    )
    return Leg(
        loadgen.LoadResult(records, elapsed),
        epoch,
        [late for runner in runners for late in runner.lateness],
        [body for runner in runners for body in runner.bodies],
        [
            (record.done_at - sent) * 1e3
            for runner in runners
            for record, sent in zip(runner.records, runner.sent)
            if record.ok
        ],
    )


class _Swapper(threading.Thread):
    """Has the publisher append the next pending generation, then
    broadcasts the swap, on a fixed cadence."""

    def __init__(self, fleet, publisher, archive, pending, count):
        super().__init__(name="perfbench-swapper")
        self.fleet, self.publisher = fleet, publisher
        self.archive, self.pending, self.count = str(archive), str(pending), count
        self.stop_event = threading.Event()
        self.attempts = 0
        self.acks: list[float] = []
        self.problems: list[str] = []

    def run(self) -> None:
        position = 0
        while position < self.count and not self.stop_event.wait(SWAP_CADENCE_S):
            self.attempts += 1
            try:
                date = self.publisher.submit(
                    publish, self.archive, self.pending, position
                ).result()
                start = time.perf_counter()
                acks = self.fleet.broadcast_swap()
                self.acks.append(time.perf_counter() - start)
            except Exception as exc:  # reported as a failed swap
                self.problems.append(f"swap {position}: {exc!r}")
                continue
            finally:
                position += 1
            if [ack.get("snapshot") for ack in acks] != [date]:
                self.problems.append(f"swap to {date}: acks {acks}")


class ServeWorkload:
    def __init__(self, ctx: Context, name: str):
        self.ctx = ctx
        self.name = name
        self.cold = name == "serve_cold_swap"
        self.preset, hot, cold = SIZES[ctx.size]
        self.n_targets = cold if self.cold else hot
        self.n_swap = math.ceil(ctx.seconds / SWAP_CADENCE_S) + 2 if self.cold else 0
        self.connections = min(2, nproc())
        self.fleet = self.publisher = self.affinity = None

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        from repro.serving.fleet import ServiceSource, ServingFleet

        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.affinity)})
        directory = self.ctx.scratch("serve")
        self.archive = directory / "series.sparch"
        self.pending = directory / "pending.sparch"
        spawn = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(1, mp_context=spawn) as pool:
            self.targets = pool.submit(
                build_inputs, str(self.archive), str(self.pending), self.ctx.seed,
                self.preset, self.n_swap, self.n_targets,
            ).result()
        if self.cold:
            self.publisher = concurrent.futures.ProcessPoolExecutor(1, mp_context=spawn)
            self.publisher.submit(int).result()  # started before the timed region
        self.fleet = ServingFleet(
            ServiceSource.archive(self.archive), workers=1, control_port=None
        ).start()
        self.status()  # the worker answers over HTTP

    def teardown(self) -> None:
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None
        if self.publisher is not None:
            self.publisher.shutdown(wait=True)
            self.publisher = None
        if self.affinity is not None:
            os.sched_setaffinity(0, self.affinity)
            self.affinity = None

    def status(self) -> dict:
        with urllib.request.urlopen(self.fleet.url + "/v1/status", timeout=10) as reply:
            return json.load(reply)

    # -- the timed region ----------------------------------------------------------

    def _schedules(self):
        mix = loadgen.TrafficMix(self.name, zipf_s=0.0 if self.cold else 1.1, **MIX)
        rate = PACED_RATE[self.name]
        paced_s = PACED_SHARE * self.ctx.seconds
        paced = loadgen.generate_schedule(
            self.targets, max(1, round(rate * paced_s)), rate, mix, self.ctx.seed
        )
        # Far more requests than the capacity leg can finish; it is cut
        # by time.  A rate of 1e9/s makes every request due at once.
        capacity = loadgen.generate_schedule(
            self.targets, 20_000 + round(5_000 * self.ctx.seconds), 1e9, mix,
            self.ctx.seed + 1,
        )
        return paced, capacity, (1.0 - PACED_SHARE) * self.ctx.seconds

    def measure(self, traced: bool) -> Measurement:
        percentile = loadgen.percentile
        paced_schedule, capacity_schedule, capacity_s = self._schedules()
        recorder = Recorder()
        archive_before = self.archive.stat().st_size
        swapper = _Swapper(
            self.fleet, self.publisher, self.archive, self.pending, self.n_swap
        )
        stop = threading.Event()
        timer = threading.Timer(capacity_s, stop.set)
        begin = time.perf_counter()
        with installed(recorder) if traced else contextlib.nullcontext():
            if self.cold:
                swapper.start()
            try:
                paced = run_leg(self.fleet.url, paced_schedule, self.connections)
                timer.start()
                capacity = run_leg(
                    self.fleet.url, capacity_schedule, self.connections, stop
                )
            finally:
                timer.cancel()
                if timer.ident is not None:
                    timer.join()
                swapper.stop_event.set()
                if self.cold:
                    swapper.join()
        wall = time.perf_counter() - begin
        status = self.status()
        peak = peak_rss_pid_mib(status["worker"]["pid"])
        cache = status["service"]["cache"]

        legs = (paced, capacity)
        records = [record for leg in legs for record in leg.result.records]
        latencies = [r.latency * 1e3 for r in paced.result.records if r.ok]
        p50, p90, p99 = (percentile(latencies, q) for q in (50, 90, 99))
        round_p50, round_p90 = (percentile(capacity.round_trips, q) for q in (50, 90))
        qps = len(capacity.round_trips) / capacity.result.elapsed
        problems = [
            f"{r.kind} request at {r.offset:.4f}s: status {r.status}"
            for r in records if not r.ok
        ]
        problems += [
            f"batch at {r.offset:.4f}s mixes generations {r.snapshots}"
            for r in records if r.kind == "batch" and len(r.snapshots) > 1
        ]
        problems += swapper.problems
        bodies = [body for leg in legs for body in leg.bodies]
        problems += self._check_answers(bodies)
        swaps = [ack * 1e3 for ack in swapper.acks]
        # Only the open-loop leg has due times worth keeping to; the
        # capacity leg's requests are all due at its start.
        lateness = [late * 1e3 for late in paced.lateness]
        named = {
            "lookup_p50_ms": (p50, "ms"),
            "lookup_p90_ms": (p90, "ms"),
            "lookup_p99_ms": (p99, "ms"),
            "lookup_capacity_qps": (qps, "1/s"),
            "round_trip_p50_ms": (round_p50, "ms"),
            "round_trip_p90_ms": (round_p90, "ms"),
            "peak_rss_mib": (peak, "MiB"),
        }
        if self.cold:
            named["swap_p50_ms"] = (statistics.median(swaps) if swaps else 0.0, "ms")
        hits, misses = cache["hits"], cache["misses"]
        layers = {
            "storage.archive_bytes": (self.archive.stat().st_size - archive_before, "bytes"),
            "serving.cache_hit_ratio": (hits / max(1, hits + misses), "ratio"),
            "serving.cache_evictions": (cache["evictions"], "count"),
            "client.lookup_p99_ms": (p99, "ms"),
            "client.send_lateness_p99_ms": (percentile(lateness, 99), "ms"),
            "client.retried": (sum(r.retried for r in records), "count"),
        }
        if traced:
            layers.update(self._replay(paced_schedule, p50))
        return Measurement(
            attempted=len(records) + swapper.attempts,
            failed=len(problems),
            wall_s=wall,
            e2e={
                "peak_rss_mib": peak,
                "p50_ms": round_p50,
                "tail_ms": round_p90,
                "throughput_per_s": qps,
            },
            named=named,
            layers=layers,
            spans=recorder.spans,
            checked=len(records) + swapper.attempts + len(bodies),
            checks=problems,
        )

    # -- checks and in-process replays -------------------------------------------------

    def _check_answers(self, bodies) -> list[str]:
        """Sampled HTTP answers equal the in-process service's answer
        on the generation they name."""
        from repro.obs.metrics import MetricsRegistry
        from repro.serving.service import SiblingQueryService
        from repro.storage.archive import ArchiveReader
        from repro.storage.index_io import KIND, attach_index

        problems = []
        with ArchiveReader.open(self.archive) as reader:
            indexes = {
                date: attach_index(reader, generation)
                for date, generation in reader.generations_by_date(KIND).items()
            }
            try:
                services = {
                    date: SiblingQueryService(index, registry=MetricsRegistry())
                    for date, index in indexes.items()
                }
                for request, status, body in bodies:
                    if status != 200:
                        continue  # already counted as a failed request
                    payload = json.loads(body)
                    if request.kind == "snapshot":
                        named = {payload["index"]["snapshot"]}
                    elif request.kind == "point":
                        named = {payload["snapshot"]}
                    else:
                        named = {row["snapshot"] for row in payload["results"]}
                    if len(named) > 1:
                        continue  # already counted as a mixed batch
                    service = services.get(next(iter(named), None))
                    if service is None:
                        problems.append(f"{request.kind} answer names {sorted(named)}")
                    elif request.kind != "snapshot":
                        expected = (
                            service.lookup(request.queries[0])
                            if request.kind == "point"
                            else {"results": service.batch(request.queries)}
                        )
                        if json.loads(json.dumps(expected)) != payload:
                            problems.append(f"{request.kind} answer differs from in-process")
            finally:
                # The mapping cannot close while attached indexes view it.
                services = None
                for index in indexes.values():
                    index.close()
        return problems

    def _replay(self, schedule, http_p50_ms: float) -> dict:
        """Per-call cost of the layers under HTTP, replayed in-process on
        the paced leg's query stream against the newest generation."""
        from repro.obs.metrics import MetricsRegistry
        from repro.serving.service import SiblingQueryService
        from repro.storage.index_io import load_mapped_index

        requests = [r for r in schedule if r.kind != "snapshot"]
        index = load_mapped_index(self.archive)
        service = SiblingQueryService(index, registry=MetricsRegistry())
        clock = time.perf_counter
        index_us, service_us, encode_us = [], [], []
        try:
            for request in requests:
                point = request.kind == "point"
                start = clock()
                if point:
                    index.lookup(request.queries[0])
                else:
                    index.batch(request.queries)
                index_us.append((clock() - start) * 1e6)
                start = clock()
                answer = (
                    service.lookup(request.queries[0]) if point
                    else {"results": service.batch(request.queries)}
                )
                service_us.append((clock() - start) * 1e6)
                start = clock()
                json.dumps(answer).encode("utf-8")
                encode_us.append((clock() - start) * 1e6)
        finally:
            index.close()
        service_p50 = statistics.median(service_us)
        encode_p50 = statistics.median(encode_us)
        return {
            "serving.index_lookup_us": (statistics.median(index_us), "us"),
            "serving.service_call_us": (service_p50, "us"),
            "serving.json_encode_us": (encode_p50, "us"),
            "serving.http_residual_us": (
                http_p50_ms * 1e3 - service_p50 - encode_p50, "us"
            ),
        }
