"""Span arithmetic, step timing and wrapper restoration."""

from __future__ import annotations

import asyncio
import dataclasses
import inspect
import itertools
import sys

import numpy as np
import pytest

import simload
import tracing


def test_self_time_of_a_synthetic_nest() -> None:
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9].
    parent = np.array([-1, 0, 1, 0], dtype=np.int32)
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert tracing.self_times(parent, start, end).tolist() == \
        [3.0, 2.0, 1.0, 4.0]


def _ticking_recorder() -> tracing.Recorder:
    ticks = itertools.count()
    return tracing.Recorder(clock=lambda: float(next(ticks)))


def test_nested_calls_record_parents_and_self_time() -> None:
    recorder = _ticking_recorder()
    inner = recorder.timed("inner", lambda value: value + 1)
    outer = recorder.timed("outer", lambda value: inner(value) * 2)
    assert outer(1) == 4
    spans = recorder.spans()
    assert [recorder.names[nid] for nid in spans["name"]] == \
        ["outer", "inner"]
    assert spans["parent"].tolist() == [-1, 0]
    # outer spans ticks 0..3, inner 1..2.
    assert recorder.self_seconds() == {"inner": 1.0, "outer": 2.0}
    assert recorder.root_seconds() == 3.0
    assert recorder.call_count("outer") == recorder.call_count("inner") == 1


def test_generator_steps_are_spans_and_values_pass_through() -> None:
    recorder = _ticking_recorder()

    def child():
        received = yield "child-step"
        return received * 10

    wrapped_child = recorder.stepped("child", child)

    def parent():
        value = yield from wrapped_child()
        try:
            yield "parent-step"
        except KeyError:
            return value + 1
        return -1

    wrapped_parent = recorder.stepped("parent", parent)
    gen = wrapped_parent()
    assert next(gen) == "child-step"
    assert gen.send(4) == "parent-step"
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("delivered into the inner frame"))
    assert stop.value.value == 41
    names = [recorder.names[nid] for nid in recorder.spans()["name"]]
    # Three parent steps; the child ran one step inside each of the
    # first two.
    assert names == ["parent", "child", "parent", "child", "parent"]
    assert recorder.spans()["parent"].tolist() == [-1, 0, -1, 2, -1]
    assert recorder.call_count("parent") == 1
    assert recorder.call_count("child") == 1
    assert recorder.stack == []


def test_coroutine_steps_are_spans() -> None:
    recorder = tracing.Recorder()

    async def work(value: int) -> int:
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        return value * 3

    wrapped = recorder.stepped_async("work", work)
    assert asyncio.run(wrapped(5)) == 15
    assert len(recorder.spans()["name"]) == 3
    assert recorder.call_count("work") == 1
    assert inspect.iscoroutinefunction(wrapped)


def test_clear_forgets_spans_and_counts() -> None:
    recorder = _ticking_recorder()
    traced = recorder.timed("f", lambda: None)
    traced()
    recorder.add("work", 2.0)
    recorder.clear()
    assert len(recorder.spans()["name"]) == 0
    assert recorder.call_count("f") == 0 and recorder.counts == {}
    traced()
    assert recorder.call_count("f") == 1


def _repro_attributes() -> dict[tuple[str, str, str], object]:
    """Every attribute of every loaded repro module and of its classes."""
    snapshot: dict[tuple[str, str, str], object] = {}
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro"):
            continue
        for name, value in vars(module).items():
            snapshot[(module_name, "", name)] = value
            if isinstance(value, type) and \
                    value.__module__.startswith("repro"):
                for attr, member in vars(value).items():
                    snapshot[(module_name, name, attr)] = member
    return snapshot


def test_traced_run_restores_every_wrapped_function() -> None:
    shape = dataclasses.replace(simload.SHAPES["sim-churn"], warm_s=1.0)
    plain = simload._run(shape, 3, 2.0)
    before = _repro_attributes()
    run, recorder, left = simload._traced_run(shape, 3, 2.0)
    after = _repro_attributes()
    assert left == []
    assert [key for key in before if after.get(key) is not before[key]] \
        == []
    assert recorder.call_count("core.client_fetch") > 0
    assert recorder.call_count("cache.pacm_select") > 0
    assert run.digest == plain.digest
