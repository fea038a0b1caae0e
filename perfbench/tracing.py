"""Outside-in layer tracing: timing wrappers around public entry points.

The program has no spans of its own at these boundaries, so the traced
run replaces each public function or method listed in :data:`LAYERS`
with a wrapper that records a span (id, parent, layer, start, end,
thread) into an in-memory :class:`Recorder`.  Function wrappers are
installed on every loaded ``repro`` module that holds a reference to
the original, so ``from x import f`` call sites are covered too.
Wrappers exist only while :func:`installed` is active; untraced runs
never see them.

A layer's *busy* time is the summed duration of its outermost spans
(a layer re-entering itself is not counted twice); its *self* time
subtracts the time its child spans cover.  Self times over all layers
add up to the time covered by top-level spans, so
``wall - sum(self)`` is the time no wrapped layer accounts for
(``untraced_ms``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import itertools
import statistics
import sys
import threading
import time


@dataclasses.dataclass(frozen=True)
class Layer:
    """One traced layer: metric stem, unit, and the targets it wraps.

    A target is ``"module:function"`` or ``"module:Class.method"``.
    """

    name: str
    unit: str
    targets: tuple[str, ...]


#: Every traced layer, in the table's order.  Units follow the
#: prediction table in README.md: synthetic-universe stages in
#: seconds, the rest in ms.
LAYERS = (
    Layer("synth.build_universe", "s", ("repro.synth.universe:build_universe",)),
    Layer("synth.snapshot_at", "s", ("repro.synth.universe:Universe.snapshot_at",)),
    Layer("synth.annotator_at", "s", ("repro.synth.universe:Universe.annotator_at",)),
    Layer("rpki.repository", "ms", ("repro.rpki.builder:repository_from_universe",)),
    Layer("core.sptuner", "ms", ("repro.core.sptuner:SpTunerMS.tune_all",)),
    Layer("core.build_index", "ms", ("repro.core.domainsets:build_index",)),
    Layer("core.apply_delta", "ms", ("repro.core.domainsets:PrefixDomainIndex.apply_delta",)),
    Layer("core.select", "ms", ("repro.core.substrate:ColumnarSubstrate.select",)),
    Layer("core.prepare", "ms", ("repro.core.substrate:ColumnarSubstrate.prepare",)),
    Layer(
        "core.content_signature", "ms",
        ("repro.core.domainsets:PrefixDomainIndex.content_signature",),
    ),
    Layer("storage.annotator_digest", "ms", ("repro.storage.substrate_io:annotator_digest",)),
    Layer("dns.read_snapshot_file", "ms", ("repro.analysis.watch:read_snapshot_file",)),
    Layer("dns.delta_to", "ms", ("repro.dns.openintel:DnsSnapshot.delta_to",)),
    Layer(
        "storage.segments", "ms",
        (
            "repro.storage.substrate_io:siblings_segments",
            "repro.storage.substrate_io:state_segments",
            "repro.storage.index_io:index_segments",
        ),
    ),
    Layer(
        "storage.append_generation", "ms",
        ("repro.storage.archive:ArchiveWriter.append_generation",),
    ),
    Layer("publish.enrich_pairs", "ms", ("repro.publish:enrich_pairs",)),
    Layer("publish.write_csv", "ms", ("repro.publish:write_csv",)),
    Layer("analysis.archive_detection", "ms", ("repro.analysis.pipeline:archive_detection",)),
    Layer(
        "serving.index_from_siblings", "ms",
        ("repro.serving.index:SiblingLookupIndex.from_siblings",),
    ),
    Layer(
        "serving.swap_from_archive", "ms",
        ("repro.serving.service:SiblingQueryService.swap_from_archive",),
    ),
    Layer("serving.swap_ack", "ms", ("repro.serving.fleet:ServingFleet.broadcast_swap",)),
)

SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

#: Modules loaded before wrapping, so every by-value import of a wrapped
#: function already exists when :func:`installed` rebinds it.
PRELOAD = (
    "repro.cli",
    "repro.analysis.pipeline",
    "repro.analysis.watch",
    "repro.core.detection",
    "repro.serving.fleet",
    "repro.storage.index_io",
    "repro.synth",
)


class Recorder:
    """In-memory span sink; thread-safe, parent links per thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, layer: str, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, layer, start, end, threading.get_ident())
            )


def _wrap(layer: str, fn, recorder: Recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(layer, fn, args, kwargs)

    return traced


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return module, owner, attr


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Install every layer's wrappers for the duration of the block."""
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    undo: list[tuple[object, str, object]] = []
    try:
        for layer in LAYERS:
            for target in layer.targets:
                module, owner, attr = _resolve(target)
                if owner is module:
                    original = getattr(module, attr)
                    wrapper = _wrap(layer.name, original, recorder)
                    # Rebind the name wherever it was imported by value.
                    for name, loaded in list(sys.modules.items()):
                        if not name.startswith("repro") or loaded is None:
                            continue
                        for key, value in list(vars(loaded).items()):
                            if value is original:
                                undo.append((loaded, key, value))
                                setattr(loaded, key, wrapper)
                else:
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapper = classmethod(_wrap(layer.name, raw.__func__, recorder))
                    else:
                        wrapper = _wrap(layer.name, raw, recorder)
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, wrapper)
        yield recorder
    finally:
        for holder, key, value in reversed(undo):
            setattr(holder, key, value)


# -- accounting -----------------------------------------------------------------


@dataclasses.dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    durations: list = dataclasses.field(default_factory=list)

    @property
    def p50_s(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0


def account(spans) -> dict[str, LayerStats]:
    """Per-layer calls, busy, self time and per-call durations."""
    by_id = {span[0]: span for span in spans}
    child_time: dict[int, float] = {}
    for span_id, parent, _layer, start, end, _thread in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stats = {layer.name: LayerStats() for layer in LAYERS}
    for span_id, parent, layer, start, end, _thread in spans:
        entry = stats.setdefault(layer, LayerStats())
        duration = end - start
        entry.calls += 1
        entry.durations.append(duration)
        entry.self_s += duration - child_time.get(span_id, 0.0)
        ancestor = parent
        while ancestor and by_id[ancestor][2] != layer:
            ancestor = by_id[ancestor][1]
        if not ancestor:
            entry.busy_s += duration
    return stats


def layer_metrics(stats: dict[str, LayerStats]) -> dict[str, tuple[float, str]]:
    """Contract per-layer metrics: busy total, calls, per-call median."""
    metrics = {}
    for layer in LAYERS:
        entry = stats[layer.name]
        scale = SCALE[layer.unit]
        metrics[f"{layer.name}_{layer.unit}"] = (entry.busy_s * scale, layer.unit)
        metrics[f"{layer.name}.calls"] = (entry.calls, "count")
        metrics[f"{layer.name}.p50_{layer.unit}"] = (entry.p50_s * scale, layer.unit)
    return metrics


def render_table(stats: dict[str, LayerStats], wall_s: float) -> str:
    """The per-layer table with its ``untraced_ms`` residual row.

    The ``self ms`` column plus the residual sums to ``wall_s``.
    """
    lines = [
        f"{'layer':<30} {'calls':>7} {'busy ms':>11} {'self ms':>11} "
        f"{'p50 ms':>10} {'self %':>7}"
    ]
    for name, entry in stats.items():
        if not entry.calls:
            continue
        lines.append(
            f"{name:<30} {entry.calls:>7} {entry.busy_s * 1e3:>11.2f} "
            f"{entry.self_s * 1e3:>11.2f} {entry.p50_s * 1e3:>10.3f} "
            f"{100 * entry.self_s / wall_s:>6.1f}%"
        )
    residual = untraced_s(stats, wall_s)
    lines.append(
        f"{'untraced_ms':<30} {'':>7} {'':>11} {residual * 1e3:>11.2f} "
        f"{'':>10} {100 * residual / wall_s:>6.1f}%"
    )
    lines.append(f"{'e2e wall (traced)':<30} {'':>7} {'':>11} {wall_s * 1e3:>11.2f}")
    return "\n".join(lines)


def untraced_s(stats: dict[str, LayerStats], wall_s: float) -> float:
    return wall_s - sum(entry.self_s for entry in stats.values())
