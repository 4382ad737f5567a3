"""Exporters: JSONL span/metric dumps and a text snapshot table.

Every exporter is deterministic — records are sorted by stable keys
(trace id, span id, instrument name, label set) and JSON is emitted with
sorted keys and fixed separators — so two runs of the same seeded
experiment produce **byte-identical** output.  Tests hash these dumps to
catch nondeterminism regressions anywhere in the instrumented stack.
"""

from __future__ import annotations

import json
import typing as _t

from repro.telemetry.instruments import Counter, Gauge, Histogram
from repro.telemetry.registry import Telemetry

__all__ = ["span_records", "spans_to_jsonl", "metric_records",
           "metrics_to_jsonl", "write_spans_jsonl",
           "write_metrics_jsonl", "snapshot_table"]


def _dumps(record: dict[str, object]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      default=str)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def span_records(telemetry: Telemetry) -> list[dict[str, object]]:
    """Finished spans as plain dicts, sorted by (trace, span) id."""
    records = []
    for span in sorted(telemetry.spans,
                       key=lambda span: (span.trace_id, span.span_id)):
        records.append({
            "trace": span.trace_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start_ms": span.start_s * 1e3,
            "duration_ms": span.duration_s * 1e3,
            "status": span.status,
            "attrs": {key: span.attrs[key] for key in sorted(span.attrs)},
        })
    return records


def spans_to_jsonl(telemetry: Telemetry) -> str:
    """One JSON object per finished span, newline-separated."""
    return "\n".join(_dumps(record) for record in span_records(telemetry))


def write_spans_jsonl(telemetry: Telemetry, path: str) -> int:
    """Dump the span log to ``path``; returns the span count."""
    records = span_records(telemetry)
    with open(path, "w") as handle:
        for record in records:
            handle.write(_dumps(record) + "\n")
    return len(records)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def metric_records(telemetry: Telemetry) -> list[dict[str, object]]:
    """Every (instrument, label set) as one record, sorted."""
    records: list[dict[str, object]] = []
    for instrument in telemetry.instruments():
        for labels in instrument.labelsets():
            record: dict[str, object] = {
                "name": instrument.name,
                "kind": instrument.kind,
                "labels": dict(labels),
            }
            keyed = dict(labels)
            if isinstance(instrument, Counter):
                record["value"] = instrument.value(**keyed)
            elif isinstance(instrument, Gauge):
                record["value"] = instrument.value(**keyed)
            elif isinstance(instrument, Histogram):
                record["summary"] = instrument.summary(**keyed)
                record["buckets"] = list(instrument.buckets)
                record["bucket_counts"] = \
                    instrument.bucket_counts(**keyed)
            records.append(record)
    return records


def metrics_to_jsonl(telemetry: Telemetry) -> str:
    """One JSON object per (instrument, label set), newline-separated."""
    return "\n".join(_dumps(record)
                     for record in metric_records(telemetry))


def write_metrics_jsonl(telemetry: Telemetry, path: str) -> int:
    """Dump every metric record to ``path``; returns the record count."""
    records = metric_records(telemetry)
    with open(path, "w") as handle:
        for record in records:
            handle.write(_dumps(record) + "\n")
    return len(records)


# ----------------------------------------------------------------------
# Text snapshot
# ----------------------------------------------------------------------
def _format_labels(labels: _t.Mapping[str, object]) -> str:
    if not labels:
        return "-"
    return ",".join(f"{key}={value}"
                    for key, value in sorted(labels.items()))


def snapshot_table(telemetry: Telemetry) -> str:
    """A fixed-width table of every instrument's current state."""
    rows: list[tuple[str, str, str, str]] = []
    for record in metric_records(telemetry):
        labels = _format_labels(_t.cast(dict, record["labels"]))
        if record["kind"] == "histogram":
            summary = _t.cast(dict, record["summary"])
            if summary.get("count"):
                value = (f"n={summary['count']:.0f} "
                         f"mean={summary['mean']:.3f} "
                         f"p50={summary['p50']:.3f} "
                         f"p95={summary['p95']:.3f} "
                         f"p99={summary['p99']:.3f}")
            else:
                value = "n=0"
        else:
            value = f"{_t.cast(float, record['value']):g}"
        rows.append((_t.cast(str, record["name"]),
                     _t.cast(str, record["kind"]), labels, value))
    if not rows:
        return "(no instruments recorded)"
    headers = ("instrument", "kind", "labels", "value")
    widths = [max(len(headers[index]), *(len(row[index]) for row in rows))
              for index in range(4)]
    lines = ["  ".join(header.ljust(width)
                       for header, width in zip(headers, widths))]
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)))
    return "\n".join(lines)
