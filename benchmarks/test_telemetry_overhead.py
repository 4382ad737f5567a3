"""Telemetry recording-overhead governor: NULL vs exact vs sketch.

Times ``Histogram.observe`` over one deterministic value stream for the
three backends a ``Telemetry`` registry can record through — the
``NullTelemetry`` no-op floor, the exact raw-sample list, and
the mergeable quantile sketch — and publishes the sketch backend's
overhead relative to exact as ``obs:overhead_pct``.

The budget lives in ``[tool.repro-sentry]`` next to the latency
budgets but, like ``kernel:`` floors, is evaluated *here* rather than
by ``repro.cli sentry``: it amends the committed ``BENCH_obs.json``
with an ``obs_overhead`` section.  Wall-clock-derived numbers
(ns/observe, the measured percentage) go under the report's
``timings`` subtree; the ``obs_overhead`` section itself — backends
compared, sample count, budget text, verdict — is deterministic, which
``tools/check.sh`` asserts.
"""

import json
import math
import os
import random
import time
from pathlib import Path

from repro.sim.kernel import Simulator
from repro.telemetry.registry import NullTelemetry, Telemetry
from repro.telemetry.sentry import load_budgets

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "BENCH_obs.json"

#: One deterministic latency stream shared by every backend, spanning
#: the sub-ms to multi-hundred-ms range the simulation produces.
_SEED = 7
_WARMUP = 1_000


def _values(count: int) -> list[float]:
    rng = random.Random(_SEED)
    return [rng.uniform(0.05, 400.0) for _ in range(count)]


def _observe_wall(telemetry, values) -> float:
    """Best-of-3 wall seconds for one pass over ``values``."""
    histogram = telemetry.histogram(
        "bench.latency_ms", help="overhead-governor stream")
    for value in values[:_WARMUP]:
        histogram.observe(value)
    best = math.inf
    for _attempt in range(3):
        started = time.perf_counter()
        for value in values:
            histogram.observe(value)
        best = min(best, time.perf_counter() - started)
    return best


def test_recording_overhead_budget():
    quick = os.environ.get("REPRO_FULL") != "1"
    values = _values(100_000 if quick else 500_000)

    walls = {
        # The no-op floor: what instrumented code pays when telemetry
        # is disabled (the common case in production sweeps).
        "null": _observe_wall(NullTelemetry(), values),
        "exact": _observe_wall(
            Telemetry(Simulator(), histogram_backend="exact"), values),
        "sketch": _observe_wall(
            Telemetry(Simulator(), histogram_backend="sketch"), values),
    }
    overhead_pct = (walls["sketch"] - walls["exact"]) \
        / walls["exact"] * 100.0

    budgets = [budget for budget
               in load_budgets(REPO / "pyproject.toml")
               if budget.selector == "obs:overhead_pct"]
    assert len(budgets) == 1, \
        "pyproject must declare exactly one obs:overhead_pct budget"
    budget = budgets[0]
    assert budget.op == "<="
    ok = overhead_pct <= budget.limit

    document = json.loads(BENCH.read_text(encoding="utf-8"))
    document["obs_overhead"] = {
        "backends": sorted(walls),
        "budget": f"obs:overhead_pct <= {budget.limit:g}",
        "ok": ok,
        "samples": len(values),
    }
    document.setdefault("timings", {})["obs_overhead"] = {
        "overhead_pct": round(overhead_pct, 1),
        **{f"{name}_ns_per_observe":
           round(wall * 1e9 / len(values), 1)
           for name, wall in walls.items()},
    }
    with open(BENCH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True, indent=2)
        handle.write("\n")

    print()
    print(json.dumps(document["timings"]["obs_overhead"],
                     indent=2, sort_keys=True))
    assert ok, (
        f"sketch recording overhead {overhead_pct:.1f}% over exact "
        f"exceeds the obs:overhead_pct <= {budget.limit:g} budget")
    # Sanity: recording through a real backend must cost something
    # over the null floor, or the timer measured nothing.
    assert walls["exact"] > walls["null"]
