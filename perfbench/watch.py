"""``watch_events``: the streaming path, snapshot file to live answer.

Set-up compiles the ``mixed`` event script (seeded by the workload
seed, extended to :data:`SIZES` dates, cast scaled so a steady cycle is
tens of ms), writes every date's snapshot file into a staging
directory, and starts the daemon process: a spawned child holding a
:class:`SnapshotWatcher` with a :class:`SiblingQueryService`, attached
to a fresh archive.  The daemon never holds the event universe (its
routing annotator comes from a one-date build of the same script), so
its heap, garbage-collection pauses and peak RSS are the watcher's own.

The timed region publishes one file per cycle into the watched
directory (an atomic hard link, as an atomic writer's final rename)
and drains it; a cycle's lag runs from the file appearing to the
service answering a lookup from the new date.  Date 0 is the
full-build generation; the rest are steady delta generations.

Outside the timed region, every archived generation is compared with a
batch incremental ``detect_series`` over the same snapshots, and the
series is scored against the event ledger.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import multiprocessing
import os
import pathlib
import statistics
import time

from perfbench.common import Context, Measurement, peak_rss_pid_mib
from perfbench.tracing import Recorder, installed

#: size -> (cast scale factor, dates).  201 dates leave 200 steady
#: generations, 20 of them beyond the p90.  The daemon's full garbage
#: collections stall about one cycle in six; with 100 steady samples at
#: a larger cast they made up 10-15 % of cycles, so the p90 fell on the
#: edge between stalled and normal cycles and jumped between runs.
SIZES = {"full": (8, 201), "smoke": (1, 12)}

#: Quality floors of the ``mixed`` scenario, as in
#: tests/test_scenario_quality.py.  Its raw precision floor (0.90) is
#: not applied: raw precision counts the scenario's designed aliased-
#: cluster false positives, and their share depends on the seed (raw
#: precision 0.87-0.92 over ten seeds at this cast, while non-trap
#: precision stayed 1.0).
RECALL_FLOOR = 0.95
NON_TRAP_PRECISION_FLOOR = 0.99

#: Probe for "the service answers from the new date": any well-formed
#: address works, a miss carries the snapshot date as well.
PROBE = "192.0.2.1"


def _script(seed: int, n_dates: int):
    from repro.synth.events import event_scenario

    return dataclasses.replace(event_scenario("mixed"), n_dates=n_dates, seed=seed)


# -- the daemon process ------------------------------------------------------------

#: The daemon's watcher and service; lives only in the spawned child.
_DAEMON: dict = {}


def start_daemon(directory: str, seed: int, scale: int) -> None:
    from repro.analysis.watch import SnapshotDirectorySource, SnapshotWatcher
    from repro.obs.metrics import MetricsRegistry
    from repro.serving.service import SiblingQueryService
    from repro.synth.events import EventUniverse

    # Every block a deployment ever uses is announced up front, so a
    # one-date build yields the whole series' routing annotator.
    annotator = EventUniverse(_script(seed, 1), scale=scale).annotator_at(None)
    feed = pathlib.Path(directory) / "feed"
    feed.mkdir()
    service = SiblingQueryService(registry=MetricsRegistry())
    _DAEMON.update(
        feed=feed,
        service=service,
        watcher=SnapshotWatcher(
            SnapshotDirectorySource(feed),
            lambda date: annotator,
            pathlib.Path(directory) / "watch.sparch",
            service=service,
            registry=MetricsRegistry(),
        ),
    )


def ingest(files: list[str], dates: list[str], traced: bool) -> dict:
    """Publish and drain one file per cycle; the timed region."""
    watcher, service, feed = _DAEMON["watcher"], _DAEMON["service"], _DAEMON["feed"]
    recorder = Recorder()
    lags, problems = [], []
    begin = time.perf_counter()
    with installed(recorder) if traced else contextlib.nullcontext():
        for path, date in zip(files, dates):
            skipped = watcher.status()["swaps_skipped"]
            start = time.perf_counter()
            os.link(path, feed / os.path.basename(path))
            appended = watcher.run(once=True)
            answer = service.lookup(PROBE)["snapshot"]
            lags.append(time.perf_counter() - start)
            if appended != 1:
                problems.append(f"{date}: {appended} generations appended")
            elif answer != date and watcher.status()["swaps_skipped"] == skipped:
                # A generation with the previous pairs is not swapped
                # in; only then may the answer name an older date.
                problems.append(f"{date}: service answers from {answer}")
    return {
        "lags": lags,
        "problems": problems,
        "wall": time.perf_counter() - begin,
        # VmHWM, not ru_maxrss: the latter carries over the parent's
        # resident set from before the spawn's exec.
        "peak_rss_mib": peak_rss_pid_mib(os.getpid()),
        "spans": recorder.spans,
    }


# -- the workload ------------------------------------------------------------------


class WatchWorkload:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.scale, self.n_dates = SIZES[ctx.size]
        self.pool = None

    def setup(self) -> None:
        from repro.analysis.watch import write_snapshot_file
        from repro.synth.events import EventUniverse

        self.universe = EventUniverse(
            _script(self.ctx.seed, self.n_dates), scale=self.scale
        )
        stage = self.ctx.scratch("watch-stage")
        self.dates = [date.isoformat() for date in self.universe.dates]
        self.files = [
            str(write_snapshot_file(self.universe.snapshot_at(date), stage))
            for date in self.universe.dates
        ]
        run = self.ctx.scratch("watch-run")
        self.archive = run / "watch.sparch"
        self.pool = concurrent.futures.ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("spawn")
        )
        self.pool.submit(start_daemon, str(run), self.ctx.seed, self.scale).result()

    def teardown(self) -> None:
        self.universe = None
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None

    def measure(self, traced: bool) -> Measurement:
        from benchmarks.loadgen import percentile

        run = self.pool.submit(ingest, self.files, self.dates, traced).result()
        lags = run["lags"]
        checked, problems = self._check()
        problems = run["problems"] + problems
        steady = [lag * 1e3 for lag in lags[1:]]
        p50, p90 = statistics.median(steady), percentile(steady, 90)
        return Measurement(
            attempted=len(lags),
            failed=len(problems),
            wall_s=run["wall"],
            e2e={
                "peak_rss_mib": run["peak_rss_mib"],
                "p50_ms": p50,
                "tail_ms": p90,
                "throughput_per_s": len(steady) / (sum(steady) / 1e3),
            },
            named={
                "watch_first_gen_ms": (lags[0] * 1e3, "ms"),
                "watch_lag_p50_ms": (p50, "ms"),
                "watch_lag_p90_ms": (p90, "ms"),
                "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
            },
            layers={"storage.archive_bytes": (self.archive.stat().st_size, "bytes")},
            spans=run["spans"],
            checked=len(lags) + checked,
            checks=problems,
        )

    def _check(self) -> tuple[int, list[str]]:
        """Archived generations equal a batch incremental detect_series,
        and their score against the event ledger meets the quality
        floors.

        Returns (comparisons made, mismatches)."""
        from repro.analysis.pipeline import detect_series
        from repro.analysis.quality import score_series
        from repro.storage import substrate_io
        from repro.storage.archive import ArchiveReader

        universe = self.universe
        expected = detect_series(universe, universe.dates, incremental=True)
        problems = []
        archived = []
        with ArchiveReader.open(self.archive) as reader:
            pool_names = reader.pool_names()
            by_date = reader.generations_by_date(substrate_io.SIBLINGS_KIND)
            for date, siblings in expected:
                generation = by_date.get(date.isoformat())
                if generation is None:
                    problems.append(f"{date}: not archived")
                    continue
                loaded = substrate_io.load_siblings(generation, pool_names)
                if not loaded.same_pairs(siblings):
                    problems.append(f"{date}: archived pairs differ from detect_series")
                archived.append((date, loaded))
        score = score_series(archived, universe.ledger)
        if score.f1 != score_series(expected, universe.ledger).f1:
            problems.append("F1 of archived generations differs from detect_series")
        if score.recall < RECALL_FLOOR:
            problems.append(f"recall {score.recall:.4f} below {RECALL_FLOOR}")
        if score.non_trap_precision < NON_TRAP_PRECISION_FLOOR:
            problems.append(
                f"non-trap precision {score.non_trap_precision:.4f}"
                f" below {NON_TRAP_PRECISION_FLOOR}"
            )
        return len(expected) + 3, problems
