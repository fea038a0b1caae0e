"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` sets the workload up :func:`setup_repeats` times (the
median is ``setup_s``), runs the timed region once untraced and prints
the end-to-end metrics.  ``--trace 1`` runs the timed region untraced,
then again on a fresh set-up with the layer wrappers installed, and
prints the per-layer metrics; the per-layer table goes to standard
error and to the result file.  Either way every output check runs; a
mismatch counts as a failed operation.  The last line of standard
output is the JSON result; the run's full record (host fingerprint,
named metrics, checks, table) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common, tracing  # noqa: E402

WORKLOADS = ("detect_medium", "watch_events", "serve_hot", "serve_cold_swap")

#: The end-to-end metrics every workload reports, with their units.
#: ``p50_ms``/``tail_ms``/``throughput_per_s`` are the workload's own
#: operation (see perfbench/README.md for the per-workload meaning).
E2E = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "throughput_per_s": "1/s",
}

#: Per-layer metrics measured outside the span recorder.
EXTRA_LAYERS = {
    "storage.archive_bytes": "bytes",
    "serving.index_lookup_us": "us",
    "serving.service_call_us": "us",
    "serving.json_encode_us": "us",
    "serving.http_residual_us": "us",
    "serving.cache_hit_ratio": "ratio",
    "serving.cache_evictions": "count",
    "client.lookup_p99_ms": "ms",
    "client.send_lateness_p99_ms": "ms",
    "client.retried": "count",
    "untraced_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

def setup_repeats(name: str) -> int:
    """Set-ups per untraced run.  ``detect_medium``'s set-up is an import
    warm-up of ~0.5 s whose single runs read 0.37-0.69 s, so a median of
    three moved by a third between runs; more repeats cost it little."""
    return 7 if name == "detect_medium" else 3


def make_workload(name: str, ctx: common.Context):
    if name == "detect_medium":
        from perfbench.detect import DetectWorkload

        return DetectWorkload(ctx)
    if name == "watch_events":
        from perfbench.watch import WatchWorkload

        return WatchWorkload(ctx)
    from perfbench.serve import ServeWorkload

    return ServeWorkload(ctx, name)


def per_layer_names() -> dict[str, str]:
    names = {
        name: unit
        for name, (_, unit) in tracing.layer_metrics(tracing.account([])).items()
    }
    names.update(EXTRA_LAYERS)
    return names


def run_untraced(workload, repeats: int) -> tuple[common.Measurement, dict]:
    setups = []
    try:
        for repeat in range(repeats):
            if repeat:
                workload.teardown()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        measurement = workload.measure(traced=False)
    finally:
        workload.teardown()
    metrics = {"setup_s": statistics.median(setups), **measurement.e2e}
    measurement.named["setup_s"] = (metrics["setup_s"], "s")
    return measurement, {name: (metrics[name], unit) for name, unit in E2E.items()}


def run_traced(workload) -> tuple[common.Measurement, dict, str]:
    passes = []
    for traced in (False, True):
        try:
            workload.setup()
            passes.append(workload.measure(traced=traced))
        finally:
            workload.teardown()
    plain, measurement = passes
    stats = tracing.account(measurement.spans)
    table = tracing.render_table(stats, measurement.wall_s)
    values = {name: 0.0 for name in per_layer_names()}
    values.update({name: value for name, (value, _) in tracing.layer_metrics(stats).items()})
    values.update({name: value for name, (value, _) in measurement.layers.items()})
    values["untraced_ms"] = tracing.untraced_s(stats, measurement.wall_s) * 1e3
    values["trace.overhead_ratio"] = measurement.e2e["p50_ms"] / plain.e2e["p50_ms"] - 1.0
    measurement.attempted += plain.attempted
    measurement.failed += plain.failed
    measurement.checked += plain.checked
    measurement.checks = plain.checks + measurement.checks
    units = per_layer_names()
    return measurement, {name: (values[name], units[name]) for name in units}, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: reduced inputs for the benchmark's own smoke test",
    )
    args = parser.parse_args(argv)
    missing = common.missing_sources()
    if missing:
        print(f"error: program sources not found: {', '.join(missing)}", file=sys.stderr)
        return 2

    ctx = common.Context(seed=args.seed, seconds=args.seconds, size=args.size)
    try:
        workload = make_workload(args.workload, ctx)
        if args.trace:
            measurement, metrics, table = run_traced(workload)
        else:
            measurement, metrics = run_untraced(workload, setup_repeats(args.workload))
            table = None
    finally:
        workload = None
        common.stop_children()
        ctx.close()

    host = common.fingerprint()
    print(f"# host {json.dumps(host, sort_keys=True)}")
    for name, (value, unit) in measurement.named.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    print(f"# checks: {measurement.checked} run, {len(measurement.checks)} problem(s)")
    for problem in measurement.checks[:20]:
        print(f"#   {problem}")
    if table is not None:
        print(table, file=sys.stderr)
    result = {
        "correct": not measurement.checks,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "host": host,
        "named": {name: {"value": v, "unit": u} for name, (v, u) in measurement.named.items()},
        "checked": measurement.checked,
        "checks": measurement.checks,
        "table": table,
        "result": result,
    }
    common.OUT.mkdir(parents=True, exist_ok=True)
    out = common.OUT / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
