"""Span recording around the layer entry points, from outside ``src/``.

The traced run replaces chosen functions of the program with wrappers
that record one span per call: its name, start, end and parent (the
enclosing wrapped call).  A generator or coroutine function gets one
span per *resume step*, because its body runs in slices between the
engine's events; ``yield from`` chains nest naturally, since an outer
step is still open while the inner step runs.  Nothing in ``src/`` is
edited: :class:`Patches` swaps the attributes and puts the originals
back afterwards.

Spans live in flat arrays (24 bytes each) until the run ends.  The
recorder runs in one thread and every step is synchronous, so the
children of one span never overlap; a span's self time is therefore its
duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import array
import functools
import sys
import time
import typing as _t

import numpy as np

__all__ = ["Recorder", "Patches", "self_times", "install_layer_wrappers",
           "LAYERS"]

#: Span name -> layer.  Every span a wrapper records carries one of
#: these names; the layer totals in the traced report sum over them.
LAYERS: dict[str, str] = {
    "core.ap_respond": "core",
    "core.ap_http": "core",
    "core.client_fetch": "core",
    "dnslib.name_new": "dnslib",
    "dnslib.name_eq": "dnslib",
    "dnslib.message_encode": "dnslib",
    "dnslib.message_decode": "dnslib",
    "dnslib.hash_url": "dnslib",
    "httplib.url_parse": "httplib",
    "httplib.wire": "httplib",
    "cache.pacm_select": "cache",
    "cache.knapsack": "cache",
    "cache.frequency": "cache",
    "cache.store_get": "cache",
    "cache.store_admit": "cache",
    "telemetry.observe": "telemetry",
    "telemetry.span": "telemetry",
}


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self, clock: _t.Callable[[], float] = time.perf_counter,
                 ) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        #: Indices of the spans open right now, innermost last.
        self.stack: list[int] = []
        #: Calls per span name id (generator functions count calls, not
        #: steps).
        self.calls = array.array("q")
        #: Work counts noted by wrappers (entries scanned, items ...).
        self.counts: dict[str, float] = {}

    def clear(self) -> None:
        """Forget every span and count so far (wrappers stay bound)."""
        if self.stack:
            raise RuntimeError("clear() inside an open span")
        for column in (self.span_name, self.span_parent, self.span_start,
                       self.span_end):
            del column[:]
        for nid in range(len(self.calls)):
            self.calls[nid] = 0
        self.counts.clear()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open (at any depth)."""
        nid = self._ids.get(name)
        names = self.span_name
        return nid is not None and any(names[index] == nid
                                       for index in self.stack)

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    # -- wrapper factories ---------------------------------------------
    def _span_hooks(self, name: str) -> tuple[
            int, _t.Callable[[], int], _t.Callable[[int], None]]:
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = self.clock

        def enter() -> int:
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            return index

        def leave(index: int) -> None:
            ends[index] = clock()
            stack.pop()

        return nid, enter, leave

    def timed(self, name: str, fn: _t.Callable[..., _t.Any],
              note: _t.Callable[..., None] | None = None,
              count_calls: bool = True) -> _t.Callable[..., _t.Any]:
        """``fn`` recording one span per call; ``note(result, *args)``
        runs after each call to add work counts."""
        nid, enter, leave = self._span_hooks(name)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            if count_calls:
                calls[nid] += 1
            index = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(index)
            if note is not None:
                note(result, *args)
            return result

        return wrapper

    def stepped(self, name: str, fn: _t.Callable[..., _t.Any],
                ) -> _t.Callable[..., _t.Any]:
        """A generator function recording one span per resume step."""
        nid, enter, leave = self._span_hooks(name)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            calls[nid] += 1
            return _steps(fn(*args, **kwargs), enter, leave)

        return wrapper

    def stepped_async(self, name: str, fn: _t.Callable[..., _t.Any],
                      ) -> _t.Callable[..., _t.Any]:
        """A coroutine function recording one span per resume step."""
        nid, enter, leave = self._span_hooks(name)
        calls = self.calls

        @functools.wraps(fn)
        async def wrapper(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            calls[nid] += 1
            return await _Awaitable(_steps(fn(*args, **kwargs), enter,
                                           leave))

        return wrapper

    def counted(self, name: str, fn: _t.Callable[..., _t.Any],
                note: _t.Callable[..., None] | None = None,
                ) -> _t.Callable[..., _t.Any]:
        """``fn`` counting calls (and ``note`` work) without a span."""
        nid = self.name_id(name)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            calls[nid] += 1
            result = fn(*args, **kwargs)
            if note is not None:
                note(result, *args)
            return result

        return wrapper

    # -- results ------------------------------------------------------
    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays (name id, parent, start, end)."""
        return {
            "name": np.array(self.span_name, dtype=np.int32),
            "parent": np.array(self.span_parent, dtype=np.int32),
            "start": np.array(self.span_start, dtype=np.float64),
            "end": np.array(self.span_end, dtype=np.float64),
        }

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name."""
        spans = self.spans()
        per_span = self_times(spans["parent"], spans["start"], spans["end"])
        totals = np.bincount(spans["name"], weights=per_span,
                             minlength=len(self.names))
        return {name: float(totals[nid])
                for nid, name in enumerate(self.names)}

    def root_seconds(self) -> float:
        """Wall time covered by spans that have no wrapped parent."""
        spans = self.spans()
        roots = spans["parent"] < 0
        return float(np.sum(spans["end"][roots] - spans["start"][roots]))

    def save(self, path: str) -> None:
        """Write the spans and their name table (``np.load`` reads it)."""
        np.savez(path, names=np.array(self.names), **self.spans())


class _Awaitable:
    """Lets a coroutine wrapper ``await`` a stepping generator."""

    def __init__(self, steps: _t.Generator[_t.Any, _t.Any, _t.Any]) -> None:
        self._steps = steps

    def __await__(self) -> _t.Generator[_t.Any, _t.Any, _t.Any]:
        return self._steps


def _steps(inner: _t.Any, enter: _t.Callable[[], int],
           leave: _t.Callable[[int], None],
           ) -> _t.Generator[_t.Any, _t.Any, _t.Any]:
    """Drive ``inner`` (a generator or coroutine), timing each step."""
    value: _t.Any = None
    error: BaseException | None = None
    while True:
        index = enter()
        try:
            if error is None:
                out = inner.send(value)
            else:
                out = inner.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            leave(index)
        try:
            value, error = (yield out), None
        except GeneratorExit:
            inner.close()
            raise
        except BaseException as exc:  # delivered into the inner frame
            value, error = None, exc


def self_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the direct children's
    durations (children of one span never overlap, see module doc)."""
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


class Patches:
    """Attribute swaps that can all be put back.

    A module-level function is also swapped in every ``repro`` module
    that imported it by name, so callers that bound it at import time
    see the wrapper too.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str,
                make: _t.Callable[[_t.Any], _t.Any]) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement: object = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        holders = [(owner, attr)]
        if isinstance(owner, type(sys)):
            holders += [(module, name)
                        for module_name, module in list(sys.modules.items())
                        if module_name.startswith("repro")
                        and module is not owner
                        for name, value in vars(module).items()
                        if value is original]
        for holder, name in holders:
            self._saved.append((holder, name, vars(holder)[name]))
            setattr(holder, name, replacement)

    def restore(self) -> list[str]:
        """Put every original back; returns the attributes that still
        do not hold their original (empty when all went back)."""
        swapped = list(self._saved)
        while self._saved:
            holder, name, original = self._saved.pop()
            setattr(holder, name, original)
        return [f"{getattr(holder, '__name__', holder)}.{name}"
                for holder, name, original in swapped
                if vars(holder).get(name) is not original]


def install_layer_wrappers(recorder: Recorder, patches: Patches) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro.cache import knapsack, store
    from repro.cache.frequency import RequestFrequencyTracker
    from repro.cache.pacm import PacmPolicy
    from repro.core.ap_runtime import ApRuntime
    from repro.core.client_runtime import ClientRuntime
    from repro.dnslib import cache_rr
    from repro.dnslib.message import Message
    from repro.dnslib.name import DomainName
    from repro.httplib import wire
    from repro.httplib.url import Url
    from repro.net.transport import Transport
    from repro.telemetry.instruments import Counter, Gauge, Histogram
    from repro.telemetry.spans import SpanScope

    rec = recorder

    def timed(name: str, note: _t.Callable[..., None] | None = None,
              count_calls: bool = True) -> _t.Callable[[_t.Any], _t.Any]:
        return lambda fn: rec.timed(name, fn, note, count_calls)

    def stepped(name: str) -> _t.Callable[[_t.Any], _t.Any]:
        return lambda fn: rec.stepped(name, fn)

    def counted(name: str, note: _t.Callable[..., None] | None = None,
                ) -> _t.Callable[[_t.Any], _t.Any]:
        return lambda fn: rec.counted(name, fn, note)

    # core: the AP's DNS and HTTP handlers and the client fetch path.
    patches.replace(ApRuntime, "respond", stepped("core.ap_respond"))
    patches.replace(ApRuntime, "_handle_http", stepped("core.ap_http"))
    patches.replace(ClientRuntime, "fetch", stepped("core.client_fetch"))

    def scanned(entries: list[object], *_args: object) -> None:
        if rec.inside("core.ap_respond"):
            rec.add("core.flag_build.entries_scanned", len(entries))

    patches.replace(store.CacheStore, "entries",
                    counted("cache.store_entries", scanned))

    # dnslib: names, the message codec, URL hashing.
    patches.replace(DomainName, "__init__", timed("dnslib.name_new"))
    patches.replace(DomainName, "__eq__", timed("dnslib.name_eq"))
    patches.replace(Message, "encode", timed("dnslib.message_encode"))
    patches.replace(Message, "decode", timed("dnslib.message_decode"))
    patches.replace(cache_rr, "hash_url", timed("dnslib.hash_url"))

    # httplib: URL parsing and the HTTP/1.1 wire codec (live only).
    patches.replace(Url, "parse", timed("httplib.url_parse"))
    for codec in ("encode_request", "encode_response",
                  "encode_payload_response"):
        patches.replace(wire, codec, timed("httplib.wire"))
    for reader in ("read_request", "read_response"):
        patches.replace(wire, reader,
                        lambda fn: rec.stepped_async("httplib.wire", fn))

    # cache: PACM victim selection, its knapsack, frequencies, store.
    def candidates(_victims: object, _policy: object, cache: object,
                   *_rest: object) -> None:
        rec.add("cache.pacm.candidates", len(_t.cast(_t.Sized, cache)))

    def items(_kept: object, utilities: _t.Sized, *_rest: object) -> None:
        rec.add("cache.knapsack.items", len(utilities))

    def admitted(result: _t.Any, *_args: object) -> None:
        rec.add("cache.admitted", 1.0 if result.admitted else 0.0)
        rec.add("cache.evicted", len(result.evicted))

    patches.replace(PacmPolicy, "select_victims",
                    timed("cache.pacm_select", candidates))
    patches.replace(knapsack, "solve_knapsack",
                    timed("cache.knapsack", items))
    patches.replace(RequestFrequencyTracker, "frequency",
                    timed("cache.frequency"))
    patches.replace(store.CacheStore, "get", timed("cache.store_get"))
    patches.replace(store.CacheStore, "admit",
                    timed("cache.store_admit", admitted))

    # net: simulated transport work, counted only (its time stays in
    # the kernel share).
    patches.replace(Transport, "udp_request", counted("net.udp_requests"))
    patches.replace(Transport, "tcp_exchange", counted("net.tcp_exchanges"))

    # telemetry: instrument updates and span scopes (the NULL backend's
    # no-op instruments are separate classes and stay unwrapped).
    patches.replace(Histogram, "observe", timed("telemetry.observe"))
    patches.replace(Counter, "inc", timed("telemetry.observe"))
    patches.replace(Gauge, "set", timed("telemetry.observe"))
    patches.replace(Gauge, "add", timed("telemetry.observe"))
    patches.replace(SpanScope, "__enter__", timed("telemetry.span"))
    patches.replace(SpanScope, "__exit__",
                    timed("telemetry.span", count_calls=False))
