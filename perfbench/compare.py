"""Diff two sets of recorded benchmark results, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result records written by ``perfbench/run.py`` (files
under ``perfbench/out/``) or directories of them.  Records are grouped
by (workload, size, trace); each metric's median over a group is shown
for both sides with the relative change.  Results recorded under
different Step-3/4 kernels (``repro.core.kernels``) measure different
code paths, so comparing them is refused (exit code 2).
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys


def load(path: pathlib.Path) -> dict[tuple, list[dict]]:
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    groups: dict[tuple, list[dict]] = {}
    for file in files:
        record = json.loads(file.read_text())
        key = (record["workload"], record["size"], record["trace"])
        groups.setdefault(key, []).append(record)
    return groups


def kernels(groups) -> set[str]:
    return {record["host"]["kernel"] for records in groups.values() for record in records}


def medians(records: list[dict]) -> dict[str, tuple[float, str]]:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    return {name: (statistics.median(vs), units[name]) for name, vs in values.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(pathlib.Path(arg)) for arg in argv)
    used = kernels(base) | kernels(new)
    if len(used) != 1:
        print(
            f"error: results were recorded under different kernels {sorted(used)}; "
            "refusing to compare",
            file=sys.stderr,
        )
        return 2
    for key in sorted(set(base) & set(new)):
        workload, size, trace = key
        print(f"== {workload} ({size}, trace {trace}): "
              f"{len(base[key])} vs {len(new[key])} run(s)")
        before, after = medians(base[key]), medians(new[key])
        for name in before:
            if name not in after:
                continue
            (old, unit), (now, _) = before[name], after[name]
            change = f"{(now - old) / old:+8.1%}" if old else "       -"
            print(f"  {name:<40} {old:>14.6g} {now:>14.6g} {unit:<6} {change}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
