"""Admin-plane scrape cost: /metrics latency and exposition size.

Boots the live demo stack (real loopback sockets, admin plane on an
ephemeral port), drives the demo catalog once, then scrapes
``/metrics`` repeatedly — every scrape must parse under the strict
exposition grammar and return byte-identical text (the idle-scrape
determinism ``tools/check.sh`` gates on), and the wall latency per
scrape lands in ``BENCH_obs.json``.

Following the report convention of ``repro.cli sentry`` (see
:func:`repro.telemetry.sentry.sentry_report`): the ``live_admin``
section carries only deterministic facts (endpoint set, scrape count,
verdict); wall-derived numbers — scrape milliseconds, exposition byte
size (float reprs wiggle run to run) — go under the nondeterministic
``timings`` subtree.
"""

import asyncio
import json
import socket
import statistics
import time
from pathlib import Path

import pytest

from repro.core.annotations import CacheableSpec
from repro.engine.live import LiveStack, LiveStackConfig
from repro.engine.wallclock import WallClock
from repro.telemetry.exposition import parse_exposition

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "BENCH_obs.json"

_SCRAPES = 25
_URL = "http://bench-admin.example/obj.bin"


def _require_loopback() -> None:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
    except OSError as err:  # pragma: no cover - sandbox dependent
        pytest.skip(f"loopback sockets unavailable: {err}")


async def _get(endpoint, path):
    host, port = endpoint
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\n"
                 f"host: {host}:{port}\r\n\r\n".encode("latin-1"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass
    _head, _sep, body = raw.partition(b"\r\n\r\n")
    return body


async def _scrape_loop():
    engine = WallClock()
    stack = LiveStack(engine, config=LiveStackConfig(
        metrics_port=0, watchdog_interval_s=30.0))
    stack.host_object(_URL, 64 * 1024)
    endpoints = await stack.start()
    admin = endpoints["admin/http"]
    client = stack.add_client("bench")
    client.register_spec(CacheableSpec(url=_URL, priority=2,
                                       ttl_s=120.0))
    try:
        await stack.fetch(client, _URL)
        await asyncio.sleep(0.01)  # first watchdog probe lands
        walls = []
        first = None
        for _attempt in range(_SCRAPES):
            started = time.perf_counter()
            body = await _get(admin, "/metrics")
            walls.append((time.perf_counter() - started) * 1e3)
            if first is None:
                first = body
            assert body == first, "idle scrapes must be byte-identical"
        health = json.loads(await _get(admin, "/healthz"))
    finally:
        await stack.stop()
    engine.raise_unwaited()
    return first, walls, health


def test_admin_scrape_latency_and_size():
    _require_loopback()
    exposition, walls, health = asyncio.run(_scrape_loop())

    families = parse_exposition(exposition.decode("utf-8"))
    names = [family.name for family in families]
    assert names == sorted(names)
    assert health["state"] == "serving"
    sources = {family.source for family in families}
    ok = {"live.loop_lag_ms", "live.loop_stalls",
          "live.socket_errors"} <= sources

    document = json.loads(BENCH.read_text(encoding="utf-8"))
    document["live_admin"] = {
        "endpoints": ["/debug/traces", "/healthz", "/metrics"],
        "ok": ok,
        "scrape_determinism": "byte-identical",
        "scrapes": _SCRAPES,
    }
    document.setdefault("timings", {})["live_admin"] = {
        "exposition_bytes": len(exposition),
        "families": len(families),
        "scrape_ms_min": round(min(walls), 3),
        "scrape_ms_p50": round(statistics.median(walls), 3),
    }
    with open(BENCH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True, indent=2)
        handle.write("\n")

    print()
    print(json.dumps(document["timings"]["live_admin"],
                     indent=2, sort_keys=True))
    assert ok, "watchdog/live instruments missing from the exposition"
    # A scrape is a sub-loop round trip; anything near a second means
    # the admin server serialized behind the cache path.
    assert statistics.median(walls) < 1_000.0
