"""The ``live-open-loop`` workload: ``LiveStack`` on loopback sockets.

An in-process, single-threaded generator requests objects of Zipf-ranked
apps from a catalog about 1.4x the AP's 5 MB cache, so hits and
delegations mix; one request in six opens its app and so starts with a
DNS-Cache lookup.  At most ``MAX_IN_FLIGHT`` (the host's CPU count)
client fetches run at once.

A run times ``SETUP_REPEATS`` set-ups of the stack, then holds an
open loop at ``FIXED_RATE``: Poisson arrivals that never wait for
replies, except that a request whose slot is taken starts when one
frees up.  Every request there is timed from when it was due, so that
wait counts.  The untraced run then saturates the stack with a closed
loop, every slot busy, for ``req_per_wall_s`` and ``cpu_ms_per_req``:
at ``FIXED_RATE`` the stack has headroom, so the open loop's
completions only echo its arrivals, and its CPU time includes idling.  The traced run holds the open loop for half as long,
untraced and then traced, and ramps the untraced stack through
``RAMP_RATES`` until a step misses the budget, for ``live.max_rps``.
That rate is a per-layer number: with steps a few seconds long it does
not repeat within a tenth.  This is the only workload that exercises
the DNS and HTTP wire codecs, real sockets, the wall-clock engine and
telemetry; the sims bypass all four.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import statistics
import time
import typing as _t

import inputs
import report
import tracing
from repro.core.annotations import CacheableSpec
from repro.core.client_runtime import ClientRuntime, FetchResult
from repro.engine.live import LiveStack
from repro.engine.wallclock import WallClock
from repro.httplib.url import Url

__all__ = ["run_workload"]

#: Concurrent client fetches the generator allows.
MAX_IN_FLIGHT = os.cpu_count() or 1
#: The fixed-rate phase, where the latency metrics come from.
FIXED_RATE = 100.0
#: Ramp steps (req/s), tried in order until one fails.
RAMP_RATES = (150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0, 500.0)
#: A ramp step passes when its p99 stays within this ...
P99_BUDGET_MS = 50.0
#: ... and no more than this many seconds of arrivals wait for a slot
#: when the step ends (completions keep pace with arrivals).
BACKLOG_BUDGET_S = 0.05
#: The generator fell behind (the run is invalid, not fast) when it
#: reached its p99 arrival this late.
LATE_LIMIT_MS = 20.0
#: Set-ups timed per run: two before the measured phases (the second is
#: kept) and one after, so they meet different host-speed periods;
#: setup_s is their mean.
SETUP_REPEATS = 3
#: Seconds to wait for stragglers after the last arrival.
DRAIN_S = 10.0


@dataclasses.dataclass
class Sample:
    """One request: when it was due, started and finished (loop time)."""

    due: float
    started: float
    finished: float = 0.0
    ok: bool = False
    hit: bool = False
    #: How late the generator reached it, not counting time spent
    #: waiting for a slot (0 in the closed loop).
    late: float = 0.0

    @property
    def latency_ms(self) -> float:
        return (self.finished - self.due) * 1e3


@dataclasses.dataclass
class Step:
    rate: float
    samples: list[Sample]
    end: float

    @property
    def p99_ms(self) -> float:
        return inputs.percentile([sample.latency_ms for sample in
                                  self.samples if sample.finished], 99.0)

    @property
    def backlog(self) -> int:
        """Arrivals due by the step's end that had not started by then."""
        return sum(1 for sample in self.samples
                   if sample.due <= self.end < sample.started)

    @property
    def late_p99_ms(self) -> float:
        return _late_p99_ms(self.samples)

    def passes(self) -> bool:
        return (all(sample.finished for sample in self.samples)
                and self.p99_ms <= P99_BUDGET_MS
                and self.backlog <= self.rate * BACKLOG_BUDGET_S
                and self.late_p99_ms <= LATE_LIMIT_MS)


class Deployment:
    """A live stack hosting the catalog, with one device per domain."""

    def __init__(self, catalog: list[inputs.CatalogObject]) -> None:
        self.engine = WallClock()
        self.stack = LiveStack(self.engine)
        self.catalog = catalog
        self.hosts = [Url.parse(obj.url).host for obj in catalog]
        self.specs: dict[str, list[CacheableSpec]] = {}
        #: The app client resident on each domain's device.
        self.clients: dict[str, ClientRuntime] = {}
        for obj, host in zip(catalog, self.hosts):
            self.stack.host_object(obj.url, obj.size_bytes)
            self.specs.setdefault(host, []).append(CacheableSpec(
                url=obj.url, priority=obj.priority, ttl_s=obj.ttl_s))
            if host not in self.clients:
                self.clients[host] = self.stack.add_client(host)
        for host, client in self.clients.items():
            for spec in self.specs[host]:
                client.register_spec(spec)

    def fetch(self, index: int,
              opens_app: bool = False) -> _t.Awaitable[FetchResult]:
        """Fetch catalog object ``index`` from its domain's device.

        The resident client answers from flags it cached for the zone's
        60 s TTL; a request that opens the app gets a fresh client on
        the same device, so its fetch starts with a DNS-Cache lookup.
        """
        host = self.hosts[index]
        client = self.clients[host]
        if opens_app:
            stack = self.stack
            client = ClientRuntime(client.node, stack.transport,
                                   stack.ap.address, app_id=host,
                                   telemetry=stack.telemetry)
            for spec in self.specs[host]:
                client.register_spec(spec)
        return self.stack.fetch(client, self.catalog[index].url)

    async def warm(self) -> None:
        """Fetch every object once, so the AP cache starts full."""
        for index in range(len(self.catalog)):
            await self.fetch(index)


class LoadGenerator:
    """Issues requests, holding every fetch task until it ends."""

    def __init__(self, deployment: Deployment) -> None:
        self.deployment = deployment
        self.tasks: set[asyncio.Task[None]] = set()
        self.slots = asyncio.Semaphore(MAX_IN_FLIGHT)
        self.in_flight = 0
        self.inflight_max = 0
        self.failures: list[str] = []

    async def open_loop(self, arrivals: list[inputs.Arrival],
                        seconds: float) -> list[Sample]:
        """Start each request when due, or when a slot frees up."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        #: When the generator last stopped waiting for a slot.
        freed = start
        samples = []
        for arrival in arrivals:
            due = start + arrival.offset
            if due > loop.time():
                await asyncio.sleep(due - loop.time())
            # Lag is measured on every arrival, so a late wake-up also
            # counts on the arrivals it delays; time spent waiting for a
            # slot is backlog instead.
            late = max(0.0, loop.time() - max(due, freed))
            waits = self.slots.locked()
            await self.slots.acquire()
            if waits:
                freed = loop.time()
            sample = Sample(due=due, started=loop.time(), late=late)
            samples.append(sample)
            task = loop.create_task(self._fetch(sample, arrival.request))
            self.tasks.add(task)
            task.add_done_callback(self.tasks.discard)
        if start + seconds > loop.time():
            await asyncio.sleep(start + seconds - loop.time())
        return samples

    async def closed_loop(self, requests: _t.Iterator[inputs.Request],
                          seconds: float) -> list[Sample]:
        """Keep every slot busy for ``seconds``: a fetch starts as soon
        as the one before it on its slot ends."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + seconds
        samples: list[Sample] = []

        async def slot() -> None:
            while loop.time() < deadline:
                await self.slots.acquire()
                sample = Sample(due=loop.time(), started=loop.time())
                samples.append(sample)
                await self._fetch(sample, next(requests))

        await asyncio.gather(*(slot() for _ in range(MAX_IN_FLIGHT)))
        return samples

    async def _fetch(self, sample: Sample, request: inputs.Request) -> None:
        deployment = self.deployment
        obj = deployment.catalog[request.pick]
        self.in_flight += 1
        self.inflight_max = max(self.inflight_max, self.in_flight)
        try:
            result = await deployment.fetch(request.pick, request.opens_app)
            sample.hit = result.cache_hit
            sample.ok = (result.data_object is not None and
                         result.data_object.size_bytes == obj.size_bytes)
            if not sample.ok:
                self.failures.append(f"{obj.url}: wrong or missing body")
        except Exception as exc:  # a failed fetch is counted, not fatal
            self.failures.append(f"{obj.url}: {type(exc).__name__}: {exc}")
        finally:
            sample.finished = asyncio.get_running_loop().time()
            self.in_flight -= 1
            self.slots.release()

    async def drain(self) -> int:
        """Wait for stragglers; cancel and count what is still running."""
        if self.tasks:
            await asyncio.wait(set(self.tasks), timeout=DRAIN_S)
        stuck = list(self.tasks)
        for task in stuck:
            task.cancel()
        if stuck:
            await asyncio.wait(stuck)
        return len(stuck)


@dataclasses.dataclass
class LiveRun:
    setup_s: float
    fixed: list[Sample]
    #: Process CPU seconds of the fixed-rate phase.
    cpu_s: float
    closed: list[Sample]
    #: From the closed loop's start until its last fetch finished.
    closed_wall_s: float
    #: Process CPU seconds of the closed loop.
    closed_cpu_s: float
    steps: list[Step]
    generator: LoadGenerator
    deployment: Deployment
    stuck: int
    #: Engine counters over the fixed-rate phase.
    counts: dict[str, float]
    problems: list[str]

    @property
    def samples(self) -> list[Sample]:
        return self.fixed + self.closed + [
            sample for step in self.steps for sample in step.samples]


async def _start(catalog: list[inputs.CatalogObject],
                 ) -> tuple[Deployment, float]:
    started = time.perf_counter()
    deployment = Deployment(catalog)
    await deployment.stack.start()
    await deployment.warm()
    return deployment, time.perf_counter() - started


def _engine_counts(deployment: Deployment) -> dict[str, float]:
    """Cumulative wire counters of the stack (differenced per phase)."""
    stack = deployment.stack
    telemetry = stack.telemetry
    return {
        "engine.udp_exchanges": float(stack.transport.udp_exchanges),
        "engine.tcp_exchanges": float(stack.transport.tcp_exchanges),
        "engine.socket_errors":
            telemetry.counter("live.socket_errors").total(),
        "engine.request_timeouts":
            telemetry.counter("live.request_timeouts").total(),
    }


async def _run(seed: int, fixed_s: float, closed_s: float = 0.0,
               ramp_step_s: float = 0.0,
               recorder: tracing.Recorder | None = None) -> LiveRun:
    """Set up, hold ``FIXED_RATE`` for ``fixed_s``, saturate for
    ``closed_s``, then ramp (with ``ramp_step_s`` > 0) until a step
    fails; set up once more at the end."""
    catalog = inputs.live_catalog(seed)
    setups = []
    for _ in range(SETUP_REPEATS - 2):
        deployment, seconds = await _start(catalog)
        setups.append(seconds)
        await deployment.stack.stop()
    deployment, seconds = await _start(catalog)
    setups.append(seconds)
    generator = LoadGenerator(deployment)
    arrivals = inputs.live_arrivals(seed, "fixed", FIXED_RATE, fixed_s)
    if recorder is not None:
        recorder.clear()
    before = _engine_counts(deployment)
    cpu_started = time.process_time()
    fixed = await generator.open_loop(arrivals, fixed_s)
    stuck = await generator.drain()
    cpu_s = time.process_time() - cpu_started
    counts = {name: value - before[name]
              for name, value in _engine_counts(deployment).items()}
    loop = asyncio.get_running_loop()
    closed: list[Sample] = []
    closed_wall_s = closed_cpu_s = 0.0
    if closed_s > 0:
        started = loop.time()
        cpu_started = time.process_time()
        closed = await generator.closed_loop(
            inputs.live_requests(seed, "closed"), closed_s)
        closed_wall_s = max(sample.finished for sample in closed) - started
        closed_cpu_s = time.process_time() - cpu_started
    steps: list[Step] = []
    for rate in RAMP_RATES if ramp_step_s > 0 else ():
        arrivals = inputs.live_arrivals(seed, f"ramp{rate:g}", rate,
                                        ramp_step_s)
        started = loop.time()
        step = Step(rate, await generator.open_loop(arrivals, ramp_step_s),
                    end=started + ramp_step_s)
        stuck += await generator.drain()
        steps.append(step)
        if not step.passes():
            break
    problems = []
    try:
        await deployment.stack.stop()
        deployment.engine.raise_unwaited()
    except Exception as exc:  # reported as a failed output check
        problems.append(f"stack shutdown: {type(exc).__name__}: {exc}")
    if recorder is None:  # a traced run's spans end with its phases
        last, seconds = await _start(catalog)
        setups.append(seconds)
        await last.stack.stop()
    return LiveRun(statistics.fmean(setups), fixed, cpu_s, closed,
                   closed_wall_s, closed_cpu_s, steps, generator,
                   deployment, stuck, counts, problems)


def _max_rps(steps: list[Step]) -> float:
    """The highest ramp rate reached before the first failing step."""
    passed = [step.rate for step in steps if step.passes()]
    return max(passed, default=0.0)


def _check(run: LiveRun) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): every body has its hosted size,
    and socket errors and timeouts count as failures."""
    samples = run.samples
    attempted = len(samples)
    total = _engine_counts(run.deployment)
    wire_errors = int(total["engine.socket_errors"]
                      + total["engine.request_timeouts"])
    failed = min(attempted, sum(not sample.ok for sample in samples)
                 + wire_errors)
    problems = list(run.problems) + run.generator.failures[:5]
    if wire_errors:
        problems.append(f"{wire_errors} socket errors or timeouts")
    if run.stuck:
        problems.append(f"{run.stuck} fetches never finished")
    problems += _fell_behind(run.fixed)
    return attempted, failed, problems


def _fell_behind(samples: list[Sample]) -> list[str]:
    """The run is invalid when the generator itself lagged its schedule."""
    late_ms = _late_p99_ms(samples)
    if late_ms <= LATE_LIMIT_MS:
        return []
    return [f"generator fell behind (run invalid): late p99 "
            f"{late_ms:.1f} ms > {LATE_LIMIT_MS} ms"]


def _latency(samples: list[Sample]) -> dict[str, float]:
    """Wall latency from the due time at ``FIXED_RATE``."""
    latencies = [sample.latency_ms for sample in samples]
    return {"live.p50_ms": inputs.percentile(latencies, 50.0),
            "live.p99_ms": inputs.percentile(latencies, 99.0)}


def _late_p99_ms(samples: list[Sample]) -> float:
    return 1e3 * inputs.percentile([sample.late for sample in samples],
                                   99.0)


def run_workload(seed: int, seconds: float,
                 trace: bool) -> report.Outcome:
    if not trace:
        run = asyncio.run(_run(seed, seconds / 2.0, closed_s=seconds / 2.0))
        attempted, failed, problems = _check(run)
        metrics = {
            "setup_s": run.setup_s,
            "ok_ratio": (attempted - failed) / attempted,
            "hit_ratio": sum(sample.hit for sample in run.fixed)
            / len(run.fixed),
            "req_per_wall_s": sum(sample.ok for sample in run.closed)
            / run.closed_wall_s,
            "cpu_ms_per_req": 1e3 * run.closed_cpu_s / len(run.closed),
        }
        info = {"fixed_rate": FIXED_RATE, "samples": len(run.fixed),
                "closed_samples": len(run.closed),
                "max_in_flight": MAX_IN_FLIGHT,
                "gen.late_p99_ms": _late_p99_ms(run.fixed),
                **_latency(run.fixed)}
        return report.Outcome(metrics, attempted, failed, problems, info)

    plain = asyncio.run(_run(seed, seconds / 2.0,
                             ramp_step_s=seconds / 8.0))
    recorder = tracing.Recorder()
    patches = tracing.Patches()
    tracing.install_layer_wrappers(recorder, patches)
    try:
        traced = asyncio.run(_run(seed, seconds / 2.0, recorder=recorder))
    finally:
        left = patches.restore()
    recorder.save(f"{report.OUTPUT_DIR}/live-open-loop.spans.npz")
    attempted, failed, problems = _check(plain)
    traced_attempted, traced_failed, traced_problems = _check(traced)
    attempted += traced_attempted
    failed += traced_failed
    problems += traced_problems
    problems += [f"wrapper not restored: {name}" for name in left]

    metrics = report.traced_layers(recorder)
    metrics.update(traced.counts)
    ap = traced.deployment.stack.ap_runtime
    metrics["core.ap_served_ratio"] = ap.hits_served / max(
        1, ap.hits_served + ap.delegations)
    metrics["core.ap_memory_bytes"] = float(ap.memory_bytes())
    metrics["engine.loop_lag_p99_ms"] = traced.deployment.stack.telemetry \
        .histogram("live.loop_lag_ms").percentile(99.0)
    metrics["engine.self_s"] = traced.cpu_s - recorder.root_seconds()
    metrics.update(_latency(plain.fixed))
    metrics["gen.late_p99_ms"] = _late_p99_ms(plain.fixed)
    metrics["gen.inflight_max"] = float(plain.generator.inflight_max)
    metrics["live.max_rps"] = _max_rps(plain.steps)
    metrics["trace.overhead_pct"] = 100.0 * (traced.cpu_s / plain.cpu_s
                                             - 1.0)
    # The split this workload is built to show: the engine, telemetry
    # and the HTTP wire codec outweigh the layers the sims also run.
    wire_side = sum(metrics[name] for name in (
        "engine.self_s", "telemetry.self_s", "httplib.wire.self_s"))
    sim_side = sum(metrics[name] for name in (
        "core.self_s", "dnslib.self_s", "cache.self_s",
        "httplib.url_parse.self_s"))
    info = {
        "fixed_rate": FIXED_RATE, "max_in_flight": MAX_IN_FLIGHT,
        "layer_share": report.layer_shares(metrics),
        "split_holds": wire_side > sim_side,
        "ramp": [{"rate": step.rate, "samples": len(step.samples),
                  "p99_ms": round(step.p99_ms, 3),
                  "backlog": step.backlog,
                  "late_p99_ms": round(step.late_p99_ms, 3),
                  "passes": step.passes()} for step in plain.steps]}
    return report.Outcome(metrics, attempted, failed, problems, info,
                          absent=("sim.",))
