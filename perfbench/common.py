"""Shared plumbing: paths, run context, measurements, host fingerprint."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Files of the program under test the benchmark drives; without them
#: (a directory holding only the benchmark) every run must fail.
REQUIRED = (SRC / "repro" / "__init__.py", ROOT / "benchmarks" / "loadgen.py")


def missing_sources() -> list[str]:
    return [str(path.relative_to(ROOT)) for path in REQUIRED if not path.is_file()]


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@dataclasses.dataclass
class Context:
    """One benchmark run's knobs; ``size="smoke"`` shrinks every input."""

    seed: int
    seconds: float
    size: str = "full"
    workdir: pathlib.Path = dataclasses.field(init=False)

    def __post_init__(self):
        OUT.mkdir(parents=True, exist_ok=True)
        self.workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=OUT))

    def scratch(self, name: str) -> pathlib.Path:
        """A fresh empty directory under this run's work directory."""
        path = self.workdir / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


@dataclasses.dataclass
class Measurement:
    """What one timed region produced.

    ``e2e`` holds the contract metrics (values only, units come from
    ``run.E2E``); ``named`` the workload's own end-to-end metrics as
    ``name -> (value, unit)``; ``wall_s`` the timed region's wall time,
    against which traced layer self times are accounted; ``layers``
    per-layer values measured outside the span recorder; ``spans`` the
    recorder's spans when the region ran traced; ``checked`` how many
    output comparisons ran and ``checks`` the mismatches they found.
    """

    attempted: int
    failed: int
    wall_s: float
    e2e: dict
    named: dict
    layers: dict = dataclasses.field(default_factory=dict)
    spans: list = dataclasses.field(default_factory=list)
    checked: int = 0
    checks: list = dataclasses.field(default_factory=list)


def peak_rss_pid_mib(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process."""
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> "str | None":
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    result = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True,
    )
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def fingerprint() -> dict:
    """Host and build identity recorded with every result.

    ``commit`` is ``None`` in a checkout without git metadata; the
    ``source_sha256`` over ``src/**/*.py`` identifies the code then.
    """
    from repro.core.kernels import kernel_name

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel": kernel_name(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "platform": platform.platform(),
    }


def _children() -> list[int]:
    """Pids of this process's live children, from ``/proc``."""
    me, pids = os.getpid(), []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(stat.parent.name))
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    A spawned process pool starts multiprocessing's resource tracker,
    which outlives its pool and ends only after this process has exited
    (it waits for a pipe to close), so it would still be running when
    the benchmark returns.  Dropped pools' semaphores are finalized
    first, since their clean-up talks to the tracker and would start it
    again.  Any other child still alive is terminated and reaped.
    """
    from multiprocessing import resource_tracker

    gc.collect()
    tracker = resource_tracker._resource_tracker
    if tracker._pid is not None:  # started by this process, not inherited
        tracker._stop()
    for pid in _children():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def nproc() -> int:
    return max(1, len(os.sched_getaffinity(0)))
