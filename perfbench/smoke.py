"""Smoke test of the benchmark itself, at reduced size.

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` with ``--size smoke``, untraced
and traced, and asserts that the result line keeps the contract (every
end-to-end or per-layer metric printed with its unit, nothing failed),
that the workload's own named metrics are printed with units, that the
output checks ran, and that no process the run started is left.  Also asserts that a directory holding only the
benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAMED = {
    "detect_medium": {"setup_s": "s", "peak_rss_mib": "MiB", "detect_wall_s": "s"},
    "watch_events": {
        "setup_s": "s", "peak_rss_mib": "MiB", "watch_first_gen_ms": "ms",
        "watch_lag_p50_ms": "ms", "watch_lag_p90_ms": "ms",
    },
    "serve_hot": {
        "setup_s": "s", "peak_rss_mib": "MiB", "lookup_p50_ms": "ms",
        "lookup_p90_ms": "ms", "lookup_p99_ms": "ms", "lookup_capacity_qps": "1/s",
        "round_trip_p50_ms": "ms", "round_trip_p90_ms": "ms",
    },
    "serve_cold_swap": {
        "setup_s": "s", "peak_rss_mib": "MiB", "lookup_p50_ms": "ms",
        "lookup_p90_ms": "ms", "lookup_p99_ms": "ms", "lookup_capacity_qps": "1/s",
        "round_trip_p50_ms": "ms", "round_trip_p90_ms": "ms",
        "swap_p50_ms": "ms",
    },
}


def session_members(session: int) -> list[str]:
    """The processes in *session*, as ``pid state``."""
    members = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == session:
            members.append(f"{stat.parent.name} {fields[0]}")
    return members


def run(workload: str, trace: int, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    """One benchmark run in a session of its own; asserts that no process
    of that session outlives it.

    Output goes to files, not pipes: a process that inherited a pipe
    would hold its reader until that process ended, and so hide it."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        child = subprocess.Popen(
            SPEC["command"] + [
                "--workload", workload, "--seed", "3", "--seconds", "2",
                "--trace", str(trace), "--size", "smoke",
            ],
            cwd=cwd, stdout=out, stderr=err, text=True, start_new_session=True,
        )
        child.wait(timeout=300)
        left = session_members(child.pid)
        assert not left, f"{workload}: processes outlived the run: {left}"
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(child.args, child.returncode, out.read(), err.read())


def check(workload: str, trace: int) -> None:
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    named = NAMED[workload] if not trace else {
        k: v for k, v in NAMED[workload].items() if k != "setup_s"
    }
    for name, unit in named.items():
        assert any(
            line.startswith(f"# {workload} {name} = ") and line.endswith(f" {unit}")
            for line in lines
        ), f"{workload}: {name} [{unit}] not printed"
    checks = [line for line in lines if line.startswith("# checks: ")]
    assert checks and int(checks[0].split()[2]) > 0, "output checks did not run"
    if trace:
        assert "untraced_ms" in done.stderr  # the per-layer table


def test_workloads() -> None:
    for workload in NAMED:
        for trace in (0, 1):
            check(workload, trace)


def test_benchmark_alone_fails() -> None:
    (ROOT / "perfbench" / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench" / "out") as directory:
        alone = pathlib.Path(directory)
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, alone / path, ignore=shutil.ignore_patterns("out"))
        done = run(SPEC["workloads"][0]["name"], 0, cwd=alone)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout


if __name__ == "__main__":
    test_workloads()
    test_benchmark_alone_fails()
    print("perfbench smoke test passed")
    sys.exit(0)
