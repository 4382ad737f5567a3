"""The two discrete-event workloads: ``sim-hit-heavy`` and ``sim-churn``.

Both drive ``Workload.run`` with ``ApeCacheSystem`` on the default
testbed (telemetry on its NULL backend, as in the experiments) and the
same 30-app Zipf suite at 30 executions/min, ten times the paper's rate.
They differ only in AP cache size relative to the ~9 MB catalog:

* ``sim-hit-heavy`` gives the AP 64 MB, so after warm-up almost every
  fetch is a DNS-Cache lookup answered from a full store and PACM never
  runs: the lookup (read) side.
* ``sim-churn`` gives it 3 MB, so a third of the fetches delegate, every
  admission evicts, and about a third of them run PACM victim selection:
  the admission/eviction (write) side of the same store.  (At 1 MB the
  cost per request swung by +-20 % between arrival seeds, as PACM's
  fairness repair flips between regimes that last tens of seconds; at
  3 MB it varies by ~11 % over a 140-virtual-second window and ~3 %
  over 270 s.)

Each run simulates ``warm_s`` virtual seconds untimed, then a window
whose virtual length is proportional to ``--seconds``; set-up timings
interleave with it (``SETUP_CHUNK_S``).  The virtual
length never depends on wall time, so the modeled outputs repeat
exactly for a seed.  The traced run simulates the same span three
times: untraced, then traced twice; the fetch outcomes of all three and
the work counts of the two traced runs must match.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
import time
import typing as _t

import inputs
import report
import tracing
from repro.apps.workload import FetchRecord, Workload, WorkloadConfig
from repro.baselines.ape import ApeCacheSystem
from repro.core.ap_runtime import ApRuntime
from repro.core.config import ApeCacheConfig
from repro.testbed import Testbed, TestbedConfig

__all__ = ["SHAPES", "run_workload"]

MB = 1024 * 1024

#: 10x the paper's 3 executions/min, so a short run holds thousands of
#: fetches.
EXECUTIONS_PER_MIN = 30.0
#: Wall seconds of back-to-back set-ups in one set-up timing.  An
#: untraced run times set-ups before the warm-up, at the start of each
#: quarter of the window (that time is left out of the window's) and
#: after the window; setup_s is the mean of the six medians.  Host speed
#: shifts by up to 1.7x in periods of a few seconds, and one timing
#: would land in just one of them.
SETUP_CHUNK_S = 0.15
#: Set-up timings inside the window, evenly spaced.
SETUP_POINTS = 4
#: A traced run simulates this fraction of the timed window: the lookup
#: path records ~60k spans (24 bytes each) per virtual second, and the
#: traced run goes three times (untraced, then traced twice).
TRACED_WINDOW_SHARE = 0.25


@dataclasses.dataclass(frozen=True)
class SimShape:
    cache_bytes: int
    #: Virtual seconds simulated before the timed window, until the cost
    #: per request stops climbing: the store fills (hit-heavy) and PACM
    #: runs on a full, fairness-constrained store (churn, ~40 s).
    warm_s: float
    #: Virtual seconds of timed window per requested wall second, about
    #: this workload's speed on a 2-core host.
    virtual_per_wall_s: float


SHAPES = {
    "sim-hit-heavy": SimShape(cache_bytes=64 * MB, warm_s=15.0,
                              virtual_per_wall_s=5.0),
    "sim-churn": SimShape(cache_bytes=3 * MB, warm_s=40.0,
                          virtual_per_wall_s=9.0),
}


@dataclasses.dataclass
class SimRun:
    """One ``Workload.run`` and what the metrics need from it."""

    run_wall_s: float
    window_wall_s: float
    window_cpu_s: float
    window: list[FetchRecord]
    fetches: list[FetchRecord]
    digest: str
    events: int
    ap: ApRuntime
    capacity_bytes: int


def _build(shape: SimShape, seed: int,
           duration_s: float) -> tuple[Workload, ApeCacheSystem]:
    workload = Workload(WorkloadConfig(
        n_apps=30, avg_frequency_per_min=EXECUTIONS_PER_MIN,
        duration_s=duration_s, seed=seed))
    workload.apps = inputs.app_suite()
    system = ApeCacheSystem(ApeCacheConfig(
        cache_capacity_bytes=shape.cache_bytes))
    return workload, system


def _setup_seconds(shape: SimShape, seed: int) -> float:
    """Median wall time to build the suite, workload and system and a
    testbed with the system installed (everything before the first
    simulated event), over ``SETUP_CHUNK_S`` of repeats."""
    samples: list[float] = []
    deadline = time.perf_counter() + SETUP_CHUNK_S
    while len(samples) < 3 or time.perf_counter() < deadline:
        started = time.perf_counter()
        _workload, system = _build(shape, seed, shape.warm_s)
        system.install(Testbed(TestbedConfig(seed=seed)))
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _digest(fetches: _t.Sequence[FetchRecord]) -> str:
    """Hash of every fetch outcome in order: source, flag, latency."""
    hasher = hashlib.sha256()
    for record in fetches:
        result = record.result
        hasher.update(f"{record.app_id}/{record.object_name} "
                      f"{result.source} {int(result.flag)} "
                      f"{result.total_latency_s!r}\n".encode())
    return hasher.hexdigest()


def _run(shape: SimShape, seed: int, window_s: float,
         aside: _t.Callable[[], None] | None = None) -> SimRun:
    """Simulate the warm-up, then time the window.  ``aside`` runs at
    the start of each of ``SETUP_POINTS`` equal parts of the window,
    and its wall and CPU time are left out of the window's."""
    workload, system = _build(shape, seed, shape.warm_s + window_s)
    seen: dict[str, _t.Any] = {"aside_wall": 0.0, "aside_cpu": 0.0}

    def mark_warm(bed: Testbed, _system: object,
                  ) -> _t.Generator[object, object, None]:
        seen["bed"] = bed
        yield bed.sim.timeout(shape.warm_s)
        seen["warm_at"] = time.perf_counter()
        seen["warm_cpu"] = time.process_time()
        for point in range(SETUP_POINTS if aside is not None else 0):
            if point:
                yield bed.sim.timeout(window_s / SETUP_POINTS)
            wall, cpu = time.perf_counter(), time.process_time()
            aside()
            seen["aside_wall"] += time.perf_counter() - wall
            seen["aside_cpu"] += time.process_time() - cpu

    started = time.perf_counter()
    result = workload.run(system, extra_processes=[mark_warm])
    ended = time.perf_counter()
    ended_cpu = time.process_time()
    by_result = {id(record.result): record for record in result.fetches}
    window = [by_result[id(fetch)]
              for execution in result.executions
              if execution.finished_at >= shape.warm_s
              for fetch in execution.fetches.values()]
    if system.ap_runtime is None:
        raise RuntimeError("ApeCacheSystem.install did not run")
    return SimRun(
        run_wall_s=ended - started,
        window_wall_s=ended - seen["warm_at"] - seen["aside_wall"],
        window_cpu_s=ended_cpu - seen["warm_cpu"] - seen["aside_cpu"],
        window=window, fetches=result.fetches,
        digest=_digest(result.fetches),
        events=seen["bed"].sim.events_processed,
        ap=system.ap_runtime, capacity_bytes=shape.cache_bytes)


def _delivered(records: list[FetchRecord]) -> list[FetchRecord]:
    """The fetches that returned their object at its hosted size."""
    sizes = {obj.url: obj.size_bytes
             for app in inputs.app_suite() for obj in app.objects}
    return [record for record in records
            if record.result.data_object is not None
            and record.result.data_object.size_bytes
            == sizes.get(record.result.data_object.url)]


def _check(run: SimRun) -> list[str]:
    """Every fetch returned the hosted object; the store fits."""
    problems = []
    wrong = len(run.fetches) - len(_delivered(run.fetches))
    if wrong:
        problems.append(f"{wrong} fetches returned no object or the "
                        f"wrong size")
    store = run.ap.store
    held = sum(entry.size_bytes for entry in store.entries())
    if held != store.used_bytes or held > run.capacity_bytes:
        problems.append(f"AP store holds {held} B, accounts "
                        f"{store.used_bytes} B, capacity "
                        f"{run.capacity_bytes} B")
    if not run.window:
        problems.append("no fetch completed in the timed window")
    return problems


def _end_to_end(run: SimRun) -> dict[str, float]:
    served = _delivered(run.window)
    return {
        "req_per_wall_s": len(served) / run.window_wall_s,
        "hit_ratio": sum(record.result.cache_hit
                         for record in run.window) / len(run.window),
        "ok_ratio": len(served) / len(run.window),
        "cpu_ms_per_req": 1e3 * run.window_cpu_s / len(run.window),
    }


def _modeled_latency(run: SimRun) -> dict[str, float]:
    """Modeled (virtual) object latency in the window: deterministic
    for a seed, so a performance change must leave it unchanged."""
    latencies = [record.result.total_latency_s * 1e3
                 for record in run.window]
    return {"sim.fetch_p50_ms": inputs.percentile(latencies, 50.0),
            "sim.fetch_p99_ms": inputs.percentile(latencies, 99.0)}


def _traced_run(shape: SimShape, seed: int, window_s: float,
                spans_path: str | None = None,
                ) -> tuple[SimRun, tracing.Recorder, list[str]]:
    """One run with every layer wrapper installed, then removed."""
    recorder = tracing.Recorder()
    patches = tracing.Patches()
    tracing.install_layer_wrappers(recorder, patches)
    try:
        run = _run(shape, seed, window_s)
    finally:
        left = patches.restore()
    if spans_path is not None:
        recorder.save(spans_path)
    return run, recorder, [f"wrapper not restored: {name}"
                           for name in left]


def _split_holds(name: str, metrics: dict[str, float],
                 shares: dict[str, float]) -> bool:
    """The layer split each sim is built to show."""
    if name == "sim-hit-heavy":
        lookup = shares["core"] + shares["dnslib"] + shares["httplib"]
        others = [share for layer, share in shares.items()
                  if layer not in ("core", "dnslib", "httplib")]
        return lookup > max(others) and \
            metrics["cache.pacm_select.calls"] == 0
    return shares["cache"] == max(shares.values())


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> report.Outcome:
    shape = SHAPES[name]
    window_s = seconds * shape.virtual_per_wall_s
    if trace:
        window_s *= TRACED_WINDOW_SHARE
    setups: list[float] = []

    def time_setups() -> None:
        setups.append(_setup_seconds(shape, seed))

    if not trace:
        time_setups()
    plain = _run(shape, seed, window_s,
                 aside=None if trace else time_setups)
    problems = _check(plain)
    attempted = len(plain.window)
    failed = attempted - len(_delivered(plain.window))
    info: dict[str, _t.Any] = {
        "window_virtual_s": window_s, "window_fetches": attempted,
        "digest": plain.digest, **_modeled_latency(plain)}
    if not trace:
        time_setups()
        metrics = _end_to_end(plain)
        metrics["setup_s"] = statistics.fmean(setups)
        return report.Outcome(metrics, attempted, failed, problems, info)

    first, recorder, left = _traced_run(
        shape, seed, window_s,
        spans_path=f"{report.OUTPUT_DIR}/{name}.spans.npz")
    metrics = report.traced_layers(recorder)
    metrics.update(_modeled_latency(plain))
    metrics["sim.events"] = float(first.events)
    metrics["sim.kernel.self_s"] = first.run_wall_s - recorder.root_seconds()
    del recorder  # free the first run's spans before the second run
    second, again, left_again = _traced_run(shape, seed, window_s)
    repeat = report.traced_layers(again)
    repeat["sim.events"] = float(second.events)
    del again
    problems += left + left_again
    for label, run in (("first", first), ("second", second)):
        if run.digest != plain.digest:
            problems.append(f"{label} traced run changed the fetch "
                            f"outcomes")
    for count in report.DETERMINISTIC_COUNTS:
        if metrics[count] != repeat[count]:
            problems.append(f"{count} differs between traced runs: "
                            f"{metrics[count]} vs {repeat[count]}")
    ap = first.ap
    metrics["core.ap_served_ratio"] = ap.hits_served / max(
        1, ap.hits_served + ap.delegations)
    metrics["core.ap_memory_bytes"] = float(ap.memory_bytes())
    metrics["sim.events_per_wall_s"] = plain.events / plain.run_wall_s
    metrics["trace.overhead_pct"] = 100.0 * (
        first.run_wall_s / plain.run_wall_s - 1.0)
    shares = report.layer_shares(metrics)
    info["layer_share"] = shares
    info["split_holds"] = _split_holds(name, metrics, shares)
    return report.Outcome(metrics, attempted, failed, problems, info,
                          absent=("engine.", "gen.", "live."))
