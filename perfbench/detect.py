"""``detect_medium``: the one-shot batch publish path, as a user runs it.

Each operation is one ``repro detect --scenario medium --tune 28,96
--with-rov --archive A --format csv -o F`` child process, timed from
spawn to exit (CSV and archive written).  The scenario pins its own
seed, so the workload seed changes nothing here: the output must equal
the digests recorded below on every run.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from perfbench.common import ROOT, Context, Measurement, child_env

#: Per-size scenario and the outputs this commit produces for it:
#: (scenario, CSV sha256, pair rows, archive segments verified).
EXPECTED = {
    "full": (
        "medium",
        "f3d04cc3b38ab282b0de8bf8322472235daf0b8d437f6570c392f1dd4e0a8e36",
        1743,
        28,
    ),
    "smoke": (
        "tiny",
        "9e019996adfad31374d1ad035c88ae96a3bf56695c6c0d7a8b02e4bef2011234",
        128,
        28,
    ),
}

#: ``--seconds`` per timed invocation (one medium detect takes ~11 s
#: on a 2-core host).
SECONDS_PER_INVOCATION = 10

#: Modules ``repro detect`` imports; set-up imports them once in a child
#: interpreter so byte-compilation and a cold page cache stay out of the
#: timed invocations.
WARM_IMPORTS = (
    "repro.cli, repro.synth, repro.rpki.builder, repro.publish, "
    "repro.analysis.pipeline, repro.core.detection"
)


class DetectWorkload:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.scenario, self.csv_sha256, self.pairs, self.segments = EXPECTED[ctx.size]

    def setup(self) -> None:
        subprocess.run(
            [sys.executable, "-c", f"import {WARM_IMPORTS}"],
            env=child_env(), cwd=ROOT, check=True,
        )

    def teardown(self) -> None:
        pass

    def _command(self, csv_path, archive_path) -> list[str]:
        return [
            "detect", "--scenario", self.scenario, "--tune", "28,96",
            "--with-rov", "--archive", str(archive_path),
            "--format", "csv", "-o", str(csv_path),
        ]

    def _invoke(self, argv: list[str]) -> tuple[float, float, int]:
        """Run a child to completion: (wall s, peak RSS MiB, exit code)."""
        start = time.perf_counter()
        child = subprocess.Popen(
            argv, env=child_env(), cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # ru_maxrss also counts the spawning process's peak from before
        # exec; this process stays far below a detect run's peak.
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, child.returncode

    def _check(self, code: int, csv_path, archive_path) -> list[str]:
        from repro.storage.archive import ArchiveReader

        if code != 0:
            return [f"repro detect exited {code}"]
        data = csv_path.read_bytes()
        problems = []
        digest = hashlib.sha256(data).hexdigest()
        if digest != self.csv_sha256:
            problems.append(f"CSV sha256 {digest} != {self.csv_sha256}")
        pairs = data.count(b"\n") - 2  # a comment line and the column header
        if pairs != self.pairs:
            problems.append(f"{pairs} pairs != {self.pairs}")
        with ArchiveReader.open(archive_path) as reader:
            segments = reader.verify()
        if segments != self.segments:
            problems.append(f"archive verified {segments} segments != {self.segments}")
        return problems

    def measure(self, traced: bool) -> Measurement:
        walls, rss, problems, spans = [], [], [], []
        attempted = failed = checked = 0
        # A fixed count, so a faster commit does not change the sample size.
        invocations = 1 if traced else max(1, round(self.ctx.seconds / SECONDS_PER_INVOCATION))
        for _ in range(invocations):
            out = self.ctx.scratch(f"detect-{attempted}")
            csv_path, archive_path = out / "siblings.csv", out / "siblings.sparch"
            command = self._command(csv_path, archive_path)
            if traced:
                spans_path = out / "spans.json"
                argv = [sys.executable, "perfbench/traced_cli.py", str(spans_path), "--"]
            else:
                argv = [sys.executable, "-m", "repro"]
            wall, peak, code = self._invoke(argv + command)
            attempted += 1
            found = self._check(code, csv_path, archive_path)
            if traced and code == 0:
                spans = [tuple(span) for span in json.loads(spans_path.read_text())]
            checked += 3
            failed += bool(found)
            problems += found
            walls.append(wall)
            rss.append(peak)
            archive_bytes = archive_path.stat().st_size if archive_path.exists() else 0
        wall_ms = [wall * 1e3 for wall in walls]
        return Measurement(
            attempted=attempted,
            failed=failed,
            wall_s=sum(walls),
            e2e={
                "peak_rss_mib": max(rss),
                "p50_ms": statistics.median(wall_ms),
                "tail_ms": max(wall_ms),
                "throughput_per_s": len(walls) / sum(walls),
            },
            named={
                "detect_wall_s": (statistics.median(walls), "s"),
                "peak_rss_mib": (max(rss), "MiB"),
            },
            layers={"storage.archive_bytes": (archive_bytes, "bytes")},
            spans=spans,
            checked=checked,
            checks=problems,
        )
