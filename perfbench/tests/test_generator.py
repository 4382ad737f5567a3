"""Open-loop generator accounting: lag versus backlog."""

from __future__ import annotations

import asyncio
import time
import types

import inputs
import liveload

OBJECT = inputs.CatalogObject(url="http://app00.example/obj0",
                              size_bytes=10, priority=1, ttl_s=600.0)


class FakeDeployment:
    """Serves one object after ``block_s`` of event-loop-blocking work
    and ``wait_s`` of waiting."""

    catalog = [OBJECT]

    def __init__(self, block_s: float = 0.0, wait_s: float = 0.0) -> None:
        self.block_s = block_s
        self.wait_s = wait_s

    async def fetch(self, index: int,
                    opens_app: bool = False) -> types.SimpleNamespace:
        time.sleep(self.block_s)
        await asyncio.sleep(self.wait_s)
        return types.SimpleNamespace(
            cache_hit=True,
            data_object=types.SimpleNamespace(size_bytes=OBJECT.size_bytes))


def _every(gap_s: float, count: int) -> list[inputs.Arrival]:
    request = inputs.Request(pick=0, opens_app=False)
    return [inputs.Arrival(gap_s * (index + 1), request)
            for index in range(count)]


def _open_loop(deployment: FakeDeployment, slots: int,
               arrivals: list[inputs.Arrival],
               ) -> tuple[liveload.LoadGenerator, list[liveload.Sample]]:
    async def go() -> tuple[liveload.LoadGenerator, list[liveload.Sample]]:
        generator = liveload.LoadGenerator(deployment)  # type: ignore[arg-type]
        generator.slots = asyncio.Semaphore(slots)
        samples = await generator.open_loop(arrivals, 0.0)
        assert await generator.drain() == 0
        return generator, samples

    return asyncio.run(go())


def test_a_generator_that_stays_behind_makes_the_run_invalid() -> None:
    # Each fetch holds the loop for 15 ms while arrivals come every
    # 5 ms, and slots never run out: the generator reaches every
    # arrival later than the last.
    _, samples = _open_loop(FakeDeployment(block_s=0.015), slots=40,
                            arrivals=_every(0.005, 40))
    assert all(sample.ok for sample in samples)
    assert liveload._late_p99_ms(samples) > 100.0
    assert liveload._fell_behind(samples)


def test_slot_waits_are_backlog_not_generator_lag() -> None:
    # One slot and 40 ms fetches against 5 ms gaps: the generator
    # waits for the slot on almost every arrival but never lags.
    generator, samples = _open_loop(FakeDeployment(wait_s=0.04), slots=1,
                                    arrivals=_every(0.005, 20))
    step = liveload.Step(rate=200.0, samples=samples,
                         end=samples[0].due + 0.1)
    assert step.backlog > 5
    assert liveload._fell_behind(samples) == []
    assert generator.inflight_max == 1
