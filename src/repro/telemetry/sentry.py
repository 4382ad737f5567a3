"""The regression sentry: declarative latency/throughput budgets.

``python -m repro.cli sentry`` runs one instrumented quick scenario,
evaluates a declarative budget spec against the critical-path
attribution (:mod:`repro.telemetry.analysis`), the metric registry, and
(optionally) the host profile, writes ``BENCH_obs.json``, and exits
non-zero on any violation — the paper's "millisecond-level, almost for
free" claim as a CI gate.

Budgets live in ``pyproject.toml``::

    [tool.repro-sentry]
    budgets = [
        "stage:ap-hit/edge_fetch/count <= 0",
        "stage:ap-hit/total/p95 <= 20",
        "issues <= 0",
    ]

Each budget is ``SELECTOR <= LIMIT`` or ``SELECTOR >= LIMIT`` with one
of six selector forms:

``stage:<source>/<stage>/<stat>``
    From the attribution summary — ``source`` is a request-path source
    label (``ap-hit``, ``edge``, ... or ``*`` for all), ``stage`` a
    span name or ``total``, ``stat`` one of count/mean/p50/p95/p99/max.
    A missing stage reads as ``count = 0`` (that *is* the claim "the
    hit path never touches the edge"); other stats on a missing stage
    are violations.
``metric:<name>{k=v,...}/<stat>``
    From the registry — counters/gauges use stat ``value`` (summed over
    matching label sets); histograms use a summary stat.
``profile:<stat>``
    From the host profile (``events_per_wall_s``,
    ``wall_ms_per_sim_s``).  Wall-clock derived, hence nondeterministic:
    these verdicts are segregated under the report's ``timings`` key
    and skipped entirely when profiling is off.
``kernel:events_per_s``
    The scheduler microbenchmark's throughput floor.  Validated here
    but **evaluated by** ``benchmarks/test_kernel.py`` (which writes
    ``BENCH_kernel.json``); the obs-run sentry skips these.
``lint:wall_ms``
    The warm-cache whole-program lint wall time.  Validated here but
    **evaluated by** ``benchmarks/test_lint_wall.py`` (which writes
    ``BENCH_lint.json``); the obs-run sentry skips these.
``issues``
    The taxonomy/orphan issue count from the span-tree builder.

The written report is byte-deterministic for a given seed *except* the
``timings`` subtree, which ``tools/check.sh`` strips before comparing
two same-seed runs.
"""

from __future__ import annotations

import dataclasses
import json
import typing as _t

from repro.errors import ConfigError
from repro.experiments.common import ExperimentTable
from repro.telemetry.analysis import AttributionReport, STATS
from repro.telemetry.instruments import Counter, Gauge, Histogram
from repro.telemetry.registry import Telemetry

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.obs import ObsRun

__all__ = ["Budget", "BudgetResult", "parse_budget", "load_budgets",
           "load_live_budgets", "evaluate_budgets",
           "evaluate_metric_records", "run_live_sentry",
           "sentry_report", "run_sentry", "DEFAULT_REPORT_PATH"]

DEFAULT_REPORT_PATH = "BENCH_obs.json"

_OPS: dict[str, _t.Callable[[float, float], bool]] = {
    "<=": lambda value, limit: value <= limit,
    ">=": lambda value, limit: value >= limit,
}


@dataclasses.dataclass(frozen=True)
class Budget:
    """One declarative bound: ``selector op limit``."""

    selector: str
    op: str
    limit: float

    @property
    def is_profile(self) -> bool:
        """Wall-clock derived → nondeterministic → ``timings``-only."""
        return self.selector.startswith("profile:")

    def render(self) -> str:
        return f"{self.selector} {self.op} {self.limit:g}"


@dataclasses.dataclass(frozen=True)
class BudgetResult:
    """One evaluated budget."""

    budget: Budget
    #: Observed value; None when the selector resolved to nothing.
    value: float | None
    ok: bool

    def to_json_dict(self) -> dict[str, object]:
        return {
            "budget": self.budget.render(),
            "value": (None if self.value is None
                      else round(self.value, 6)),
            "ok": self.ok,
        }


def parse_budget(text: str) -> Budget:
    """Parse ``"SELECTOR <= LIMIT"`` / ``"SELECTOR >= LIMIT"``."""
    for op in _OPS:
        selector, sep, limit = text.partition(op)
        if sep:
            selector = selector.strip()
            limit = limit.strip()
            if not selector or not limit:
                break
            try:
                bound = float(limit)
            except ValueError:
                raise ConfigError(
                    f"budget {text!r}: limit {limit!r} is not a number")
            _validate_selector(selector, text)
            return Budget(selector=selector, op=op, limit=bound)
    raise ConfigError(
        f"budget {text!r}: expected 'SELECTOR <= LIMIT' or "
        f"'SELECTOR >= LIMIT'")


def _validate_selector(selector: str, source: str) -> None:
    if selector == "issues":
        return
    kind, sep, rest = selector.partition(":")
    if not sep or kind not in ("stage", "metric", "profile", "kernel",
                               "lint"):
        raise ConfigError(
            f"budget {source!r}: unknown selector {selector!r} "
            f"(expected stage:/metric:/profile:/kernel:/lint: or "
            f"'issues')")
    if kind == "stage":
        parts = rest.split("/")
        if len(parts) != 3 or not all(parts):
            raise ConfigError(
                f"budget {source!r}: stage selector needs "
                f"<source>/<stage>/<stat>")
        if parts[2] not in STATS:
            raise ConfigError(
                f"budget {source!r}: stat {parts[2]!r} not in "
                f"{'/'.join(STATS)}")
    elif kind == "metric":
        name, sep, stat = rest.rpartition("/")
        if not sep or not name or not stat:
            raise ConfigError(
                f"budget {source!r}: metric selector needs "
                f"<name>[{{k=v,...}}]/<stat>")
    elif kind == "profile":
        if rest not in ("events_per_wall_s", "wall_ms_per_sim_s"):
            raise ConfigError(
                f"budget {source!r}: profile stat must be "
                f"events_per_wall_s or wall_ms_per_sim_s")
    elif kind == "kernel":
        # Gated by benchmarks/test_kernel.py against BENCH_kernel.json;
        # the obs-run sentry has no scheduler microbenchmark to check.
        if rest != "events_per_s":
            raise ConfigError(
                f"budget {source!r}: kernel stat must be events_per_s")
    elif kind == "lint":
        # Gated by benchmarks/test_lint_wall.py against BENCH_lint.json:
        # the warm-cache whole-program lint must stay an editor-loop
        # tool, not a batch job.
        if rest != "wall_ms":
            raise ConfigError(
                f"budget {source!r}: lint stat must be wall_ms")


def load_budgets(pyproject_path: str,
                 key: str = "budgets") -> list[Budget]:
    """Budgets from ``[tool.repro-sentry].<key>`` in pyproject.

    ``budgets`` gates the simulated sentry run; ``live-budgets`` holds
    the extra gates the parity harness checks against the *live*
    engine's telemetry (``repro.cli parity``, docs/live.md) — live-only
    metrics would resolve as violations on a sim run, so they get
    their own list.
    """
    import tomllib

    with open(pyproject_path, "rb") as handle:
        document = tomllib.load(handle)
    section = document.get("tool", {}).get("repro-sentry", {})
    unknown = set(section) - {"budgets", "live-budgets"}
    if unknown:
        raise ConfigError(
            f"[tool.repro-sentry]: unknown keys {sorted(unknown)}")
    budgets = section.get(key, [])
    if not isinstance(budgets, list) \
            or not all(isinstance(item, str) for item in budgets):
        raise ConfigError(
            f"[tool.repro-sentry].{key} must be a list of strings")
    return [parse_budget(item) for item in budgets]


def load_live_budgets(pyproject_path: str) -> list[Budget]:
    """The gates ``repro.cli parity`` checks against the live run."""
    return load_budgets(pyproject_path, key="live-budgets")


# ----------------------------------------------------------------------
# Selector resolution
# ----------------------------------------------------------------------
def _parse_metric_selector(rest: str) -> tuple[str, dict[str, str], str]:
    spec, _sep, stat = rest.rpartition("/")
    labels: dict[str, str] = {}
    name = spec
    if spec.endswith("}"):
        name, brace, body = spec.partition("{")
        if not brace:
            raise ConfigError(f"metric selector {rest!r}: bad labels")
        for pair in body[:-1].split(","):
            if not pair:
                continue
            key, sep, value = pair.partition("=")
            if not sep:
                raise ConfigError(
                    f"metric selector {rest!r}: label {pair!r} "
                    f"needs k=v")
            labels[key.strip()] = value.strip()
    return name, labels, stat


def _resolve_metric(telemetry: Telemetry, rest: str) -> float | None:
    name, labels, stat = _parse_metric_selector(rest)
    instrument = telemetry.get(name)
    if instrument is None:
        return None
    if isinstance(instrument, Histogram):
        summary = instrument.summary(**labels)
        return summary.get(stat)
    if isinstance(instrument, (Counter, Gauge)):
        if stat != "value":
            return None
        if isinstance(instrument, Counter):
            return instrument.total(**labels)
        return instrument.value(**labels)
    return None


def _resolve_stage(report: AttributionReport, rest: str) -> float | None:
    source, stage, stat = rest.split("/")
    stages = report.summary().get(source)
    if stages is None:
        return None
    stats = stages.get(stage)
    if stats is None:
        # A stage that never ran: its sample count is exactly zero —
        # the checkable form of "the hit path excludes edge_fetch".
        return 0.0 if stat == "count" else None
    return stats.get(stat)


def evaluate_budgets(budgets: _t.Sequence[Budget], run: "ObsRun",
                     report: AttributionReport) -> list[BudgetResult]:
    """Resolve and check every budget against one instrumented run.

    ``profile:`` budgets are skipped (not failed) when the run was not
    profiled; everything else resolves or fails.
    """
    results: list[BudgetResult] = []
    for budget in budgets:
        value: float | None
        if budget.selector == "issues":
            value = float(len(report.issues))
        elif budget.selector.startswith("stage:"):
            value = _resolve_stage(report, budget.selector[6:])
        elif budget.selector.startswith("metric:"):
            value = _resolve_metric(run.telemetry, budget.selector[7:])
        elif budget.selector.startswith("profile:"):
            if run.profile is None:
                continue
            value = _t.cast(
                float, getattr(run.profile, budget.selector[8:]))
        elif budget.selector.startswith("kernel:"):
            # Evaluated by the kernel microbenchmark, not the obs run.
            continue
        elif budget.selector.startswith("lint:"):
            # Evaluated by the lint wall-time benchmark.
            continue
        else:  # pragma: no cover - parse_budget rejects these
            value = None
        ok = value is not None and _OPS[budget.op](value, budget.limit)
        results.append(BudgetResult(budget=budget, value=value, ok=ok))
    return results


def evaluate_metric_records(budgets: _t.Sequence[Budget],
                            records: _t.Sequence[_t.Mapping[str, object]],
                            ) -> list[BudgetResult]:
    """Check ``metric:`` budgets against exported metric JSONL records.

    The offline half of the live gate: a ``repro.cli live
    --export-metrics`` run leaves a records file, and this evaluates
    the ``live-budgets`` against it without re-running anything.
    ``value`` stats sum matching records (the subset-sum reading of
    ``Counter.total``; no matching records reads as an honest 0, the
    state of a pre-registered counter that never fired).  Histogram
    stats need the records: ``count`` sums across matching series,
    other stats resolve only when exactly one series matches (summaries
    of different label sets cannot be merged after export).  Non-metric
    budgets are skipped.
    """
    import math

    results: list[BudgetResult] = []
    for budget in budgets:
        if not budget.selector.startswith("metric:"):
            continue
        name, labels, stat = _parse_metric_selector(budget.selector[7:])
        want = set(labels.items())
        matching = [
            record for record in records
            if record.get("name") == name and want <= set(
                _t.cast(dict, record.get("labels", {})).items())]
        value: float | None
        if stat == "value":
            value = math.fsum(
                _t.cast(float, record["value"]) for record in matching
                if "value" in record)
        else:
            summaries = [_t.cast(dict, record["summary"])
                         for record in matching
                         if record.get("kind") == "histogram"]
            if stat == "count":
                value = math.fsum(summary.get("count", 0.0)
                                  for summary in summaries) \
                    if summaries else None
            elif len(summaries) == 1:
                value = _t.cast("float | None",
                                summaries[0].get(stat))
            else:
                value = None
        ok = value is not None and _OPS[budget.op](value, budget.limit)
        results.append(BudgetResult(budget=budget, value=value, ok=ok))
    return results


def run_live_sentry(metrics_path: str,
                    pyproject: str = "pyproject.toml",
                    extra_budgets: _t.Sequence[str] = (),
                    ) -> tuple[list[ExperimentTable], int]:
    """The ``repro.cli sentry --live-metrics`` core.

    Loads the ``live-budgets`` from pyproject, evaluates them against
    the metric JSONL a live run exported, and returns the verdict
    panel plus the exit code (1 on any violation or unresolved budget)
    — the offline gate ``tools/check.sh`` points at a stall-injected
    run.
    """
    from repro.telemetry.analysis import load_metric_records

    budgets = load_live_budgets(pyproject)
    budgets.extend(parse_budget(text) for text in extra_budgets)
    records = load_metric_records(metrics_path)
    results = evaluate_metric_records(budgets, records)
    table = budget_table(results)
    table.title = "sentry: live-budget verdicts"
    table.notes.append(
        f"evaluated against {len(records)} metric records from "
        f"{metrics_path}")
    violations = [result for result in results if not result.ok]
    if violations:
        table.notes.append(f"{len(violations)} budget violation(s)")
    return [table], (1 if violations else 0)


# ----------------------------------------------------------------------
# Report assembly
# ----------------------------------------------------------------------
def budget_table(results: _t.Sequence[BudgetResult]) -> ExperimentTable:
    table = ExperimentTable(
        title="sentry: budget verdicts",
        columns=["budget", "value", "verdict"])
    for result in results:
        table.add_row(
            budget=result.budget.render(),
            value=("(unresolved)" if result.value is None
                   else f"{result.value:g}"),
            verdict="ok" if result.ok else "VIOLATION")
    if not results:
        table.notes.append("no budgets configured "
                           "([tool.repro-sentry] in pyproject.toml)")
    return table


def sentry_report(run: "ObsRun", report: AttributionReport,
                  results: _t.Sequence[BudgetResult],
                  ) -> dict[str, object]:
    """The ``BENCH_obs.json`` document.

    Deterministic for a given seed except the ``timings`` subtree
    (host-profile numbers and ``profile:`` budget verdicts), which
    comparisons must strip.
    """
    deterministic = [result for result in results
                     if not result.budget.is_profile]
    timed = [result for result in results if result.budget.is_profile]
    document: dict[str, object] = {
        "scenario": {
            "seed": run.seed,
            "duration_s": run.duration_s,
            "system": "APE-CACHE",
            "spans": len(run.telemetry.spans),
            "instruments": len(run.telemetry.instruments()),
        },
        "attribution": report.to_json_dict(),
        "budgets": [result.to_json_dict() for result in deterministic],
        "ok": all(result.ok for result in deterministic),
    }
    timings: dict[str, object] = {}
    if run.profile is not None:
        timings["host_profile"] = {
            "wall_s": run.profile.wall_s,
            "sim_s": run.profile.sim_s,
            "events": run.profile.events,
            "events_per_wall_s": run.profile.events_per_wall_s,
            "wall_ms_per_sim_s": run.profile.wall_ms_per_sim_s,
        }
    if timed:
        timings["budgets"] = [result.to_json_dict()
                              for result in timed]
        timings["ok"] = all(result.ok for result in timed)
    document["timings"] = timings
    return document


def write_report(document: dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True, indent=2)
        handle.write("\n")


def run_sentry(quick: bool = True, seed: int = 0,
               output: str = DEFAULT_REPORT_PATH,
               pyproject: str = "pyproject.toml",
               extra_budgets: _t.Sequence[str] = (),
               profile: bool = False,
               ) -> tuple[list[ExperimentTable], int]:
    """The ``repro.cli sentry`` core: run, judge, write, exit-code.

    Returns the rendered panels plus the process exit code (0 = every
    budget held, 1 = at least one violation, including ``profile:``
    budgets when profiling ran).
    """
    from repro.telemetry.obs import instrumented_run

    budgets = load_budgets(pyproject)
    budgets.extend(parse_budget(text) for text in extra_budgets)
    run = instrumented_run(quick=quick, seed=seed, profile=profile)
    report = run.attribution()
    results = evaluate_budgets(budgets, run, report)

    document = sentry_report(run, report, results)
    write_report(document, output)

    tables = [report.table("sentry: critical-path latency attribution"),
              budget_table(results)]
    tables[1].notes.append(f"report written to {output}")
    if run.profile is not None:
        tables[1].notes.append(run.profile.render())
    violations = [result for result in results if not result.ok]
    if violations:
        tables[1].notes.append(
            f"{len(violations)} budget violation(s)")
    return tables, (1 if violations else 0)
