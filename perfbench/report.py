"""Metric names, units and the per-layer numbers of a traced run."""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing as _t

import tracing

__all__ = ["Outcome", "END_TO_END", "PER_LAYER", "OUTPUT_DIR",
           "traced_layers", "layer_shares"]

#: Where traced runs write their spans, relative to the checkout root.
OUTPUT_DIR = ".perfbench"

#: The declared metrics, name -> unit: ``BENCHMARK.json`` is their one
#: list.
_SPEC = json.loads((pathlib.Path(__file__).resolve().parent.parent
                    / "BENCHMARK.json").read_text())
#: End-to-end metrics every workload reports with ``--trace 0``.
END_TO_END: dict[str, str] = {
    metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"]}
#: Per-layer metrics every workload reports with ``--trace 1``.
PER_LAYER: dict[str, str] = {
    metric["name"]: metric["unit"] for metric in _SPEC["per_layer"]}

_SPAN_METRICS = (
    "core.ap_respond", "core.client_fetch", "dnslib.message_encode",
    "dnslib.message_decode", "httplib.url_parse", "httplib.wire",
    "cache.pacm_select", "cache.knapsack", "cache.frequency",
    "cache.store_get", "cache.store_admit", "telemetry.observe",
    "telemetry.span")

#: Counts a later change may rest a claim on: they must repeat exactly
#: across two traced runs of one seed.
DETERMINISTIC_COUNTS = ("core.flag_build.entries_scanned",
                        "cache.pacm.candidates_per_call",
                        "cache.knapsack.items_per_call", "sim.events")


@dataclasses.dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    #: Output checks that failed, one line each (empty = correct).
    problems: list[str]
    #: Facts printed on the line before the result (sample counts ...).
    info: dict[str, _t.Any] = dataclasses.field(default_factory=dict)
    #: Name prefixes of the per-layer metrics for layers this workload
    #: does not run; they are reported as 0 and must not be measured.
    absent: tuple[str, ...] = ()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_layers(recorder: tracing.Recorder) -> dict[str, float]:
    """Calls, self times and work counts of the wrapped layers."""
    self_s = recorder.self_seconds()
    calls = recorder.call_count
    counts = recorder.counts
    metrics: dict[str, float] = {}
    for name in _SPAN_METRICS:
        metrics[f"{name}.calls"] = float(calls(name))
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    metrics["core.flag_build.entries_scanned"] = counts.get(
        "core.flag_build.entries_scanned", 0.0)
    metrics["dnslib.name_new.calls"] = float(calls("dnslib.name_new"))
    metrics["dnslib.name_eq.calls"] = float(calls("dnslib.name_eq"))
    metrics["dnslib.name.self_s"] = (self_s.get("dnslib.name_new", 0.0)
                                     + self_s.get("dnslib.name_eq", 0.0))
    metrics["dnslib.hash_url.calls"] = float(calls("dnslib.hash_url"))
    metrics["cache.pacm.candidates_per_call"] = _ratio(
        counts.get("cache.pacm.candidates", 0.0),
        calls("cache.pacm_select"))
    metrics["cache.knapsack.items_per_call"] = _ratio(
        counts.get("cache.knapsack.items", 0.0), calls("cache.knapsack"))
    metrics["cache.admit_ratio"] = _ratio(
        counts.get("cache.admitted", 0.0), calls("cache.store_admit"))
    metrics["cache.evictions_per_admit"] = _ratio(
        counts.get("cache.evicted", 0.0), calls("cache.store_admit"))
    metrics["net.udp_requests"] = float(calls("net.udp_requests"))
    metrics["net.tcp_exchanges"] = float(calls("net.tcp_exchanges"))
    for layer in sorted(set(tracing.LAYERS.values())):
        metrics[f"{layer}.self_s"] = sum(
            seconds for name, seconds in self_s.items()
            if tracing.LAYERS.get(name) == layer)
    return {name: value for name, value in metrics.items()
            if name in PER_LAYER}


def layer_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Each layer's share of all self time, the residual included."""
    parts = {layer: metrics.get(f"{layer}.self_s", 0.0)
             for layer in ("core", "dnslib", "httplib", "cache",
                           "telemetry", "engine", "sim.kernel")}
    total = sum(parts.values())
    return {layer: round(_ratio(seconds, total), 4)
            for layer, seconds in parts.items()}
