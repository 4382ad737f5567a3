#!/usr/bin/env sh
# The full local gate: determinism/sim-safety lint, then the test suite.
#
# Usage: tools/check.sh [extra pytest args]
#
# Mirrors what CI enforces: `python -m repro.lint` must exit 0 (only
# baselined findings allowed — see docs/linting.md), and the tier-1
# pytest run must pass (which itself re-checks the lint gate via
# tests/test_lint_clean.py, so forgetting this script cannot skip it).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "==> repro.lint"
python -m repro.lint

echo "==> repro.lint program-pass determinism"
# The whole-program passes must be (a) deterministic run to run and
# (b) indistinguishable between a cold build and an incremental-cache
# hit — byte-identical JSON in both comparisons.
lint_cold_a=$(mktemp) lint_cold_b=$(mktemp) lint_cached=$(mktemp)
spans_a=$(mktemp) spans_b=$(mktemp) trace_a=$(mktemp)
sweep_serial=$(mktemp) sweep_parallel=$(mktemp)
merged_serial=$(mktemp) merged_parallel=$(mktemp)
bench_a=$(mktemp) bench_b=$(mktemp) diff_out=$(mktemp)
async_cold=$(mktemp) async_cached=$(mktemp) async_proj=$(mktemp -d)
admin_clean=$(mktemp) admin_stall=$(mktemp) admin_follow=$(mktemp)
trap 'rm -f "$lint_cold_a" "$lint_cold_b" "$lint_cached" \
    "$spans_a" "$spans_b" "$trace_a" \
    "$sweep_serial" "$sweep_parallel" \
    "$merged_serial" "$merged_parallel" \
    "$bench_a" "$bench_b" "$diff_out" \
    "$admin_clean" "$admin_stall" "$admin_follow" \
    "$async_cold" "$async_cached"; rm -rf "$async_proj"' EXIT
python -m repro.lint --format json --no-cache > "$lint_cold_a"
python -m repro.lint --format json --no-cache > "$lint_cold_b"
if ! cmp -s "$lint_cold_a" "$lint_cold_b"; then
    echo "FAIL: two cold repro.lint runs produced different JSON" >&2
    exit 1
fi
python -m repro.lint --format json > /dev/null   # warm the cache
python -m repro.lint --format json > "$lint_cached"
if ! cmp -s "$lint_cold_a" "$lint_cached"; then
    echo "FAIL: cached repro.lint run differs from a cold build" >&2
    exit 1
fi

echo "==> repro.lint async/engine-seam passes"
# The ASYNC/ENG whole-program passes ride the same summary cache: the
# --stats document (which carries the async fact counts the passes run
# on) must agree between a cold build and a cache hit, modulo the
# cache-accounting key itself.
python -m repro.lint --stats --no-cache > "$async_cold"
python -m repro.lint --stats > "$async_cached"
python - "$async_cold" "$async_cached" <<'EOF'
import json, sys
cold, cached = (json.load(open(path)) for path in sys.argv[1:3])
cold.pop("cache"), cached.pop("cache")
assert cold["async"]["coroutines"] > 0, "async extraction saw nothing"
assert cold == cached, \
    "cached --stats differs from a cold build beyond cache accounting"
EOF
# And the passes must actually bite: a scratch project with a dropped
# task handle (the ASYNC102 GC hazard) fails the lint with exit 1.
mkdir -p "$async_proj/src/scratch"
cat > "$async_proj/src/scratch/leak.py" <<'EOF'
import asyncio


async def work() -> None:
    await asyncio.sleep(0)


async def leak() -> None:
    asyncio.create_task(work())
EOF
if python -m repro.lint "$async_proj/src" >/dev/null 2>&1; then
    echo "FAIL: lint passed a project with a dropped task handle" >&2
    exit 1
fi

echo "==> repro.cli obs (telemetry determinism smoke)"
python -m repro.cli obs --spans "$spans_a" \
    --export-trace "$trace_a" >/dev/null
python -m repro.cli obs --spans "$spans_b" >/dev/null
if ! cmp -s "$spans_a" "$spans_b"; then
    echo "FAIL: span JSONL export differs across two same-seed runs" >&2
    exit 1
fi
# The Perfetto export must at least be a well-formed trace document.
python - "$trace_a" <<'EOF'
import json, sys
document = json.load(open(sys.argv[1]))
events = document["traceEvents"]
assert events and any(event["ph"] == "X" for event in events), \
    "trace export has no complete events"
EOF

echo "==> repro.cli sentry (budget gate + report determinism)"
# Two same-seed sentry runs must (a) pass the repo budgets and
# (b) agree byte-for-byte on BENCH_obs.json once the wall-clock-derived
# "timings" subtree is stripped.
python -m repro.cli sentry --report "$bench_a" >/dev/null
python -m repro.cli sentry --report "$bench_b" >/dev/null
python - "$bench_a" "$bench_b" <<'EOF'
import json, sys
a, b = (json.load(open(path)) for path in sys.argv[1:3])
a.pop("timings"), b.pop("timings")
assert a == b, "BENCH_obs.json differs across two same-seed runs"
EOF
# An impossible injected budget must flip the exit code to 1.
if python -m repro.cli sentry --report "$bench_a" \
        --budget "stage:ap-hit/total/p95 <= 0" >/dev/null 2>&1; then
    echo "FAIL: sentry passed despite an impossible injected budget" >&2
    exit 1
fi
# A run diffed against itself is byte-empty.
python -m repro.cli diff "$spans_a" "$spans_b" \
    --output "$diff_out" >/dev/null 2>&1
if [ -s "$diff_out" ]; then
    echo "FAIL: same-seed self-diff is not byte-empty" >&2
    exit 1
fi

echo "==> repro.cli sweep (parallel/serial determinism)"
sweep_args="--systems APE-CACHE,APE-CACHE-LRU --seeds 0,1 \
    --n-apps 4 --duration-s 30 --json"
python -m repro.cli sweep $sweep_args --jobs 1 \
    --output "$sweep_serial" >/dev/null
python -m repro.cli sweep $sweep_args --jobs 2 \
    --output "$sweep_parallel" >/dev/null
if ! cmp -s "$sweep_serial" "$sweep_parallel"; then
    echo "FAIL: sweep --jobs 2 JSON differs from --jobs 1" >&2
    exit 1
fi

echo "==> repro.cli sweep --merged-telemetry (shard-merge determinism)"
# Folding every cell's telemetry shard into one registry must be
# order-independent: the serial and two-worker sweeps hand shards to
# Telemetry.merge in different interleavings, yet the merged metric
# JSONL must agree byte-for-byte (docs/telemetry.md, "merge contract").
python -m repro.cli sweep $sweep_args --jobs 1 \
    --merged-telemetry "$merged_serial" --output /dev/null >/dev/null
python -m repro.cli sweep $sweep_args --jobs 2 \
    --merged-telemetry "$merged_parallel" --output /dev/null >/dev/null
if ! cmp -s "$merged_serial" "$merged_parallel"; then
    echo "FAIL: shard-merged sweep telemetry differs between" \
        "--jobs 1 and --jobs 2" >&2
    exit 1
fi
if ! [ -s "$merged_serial" ]; then
    echo "FAIL: merged sweep telemetry export is empty" >&2
    exit 1
fi

echo "==> live-parity (sim vs live engine replay)"
# Replay one workload through the virtual-time simulator AND the
# wall-clock live stack on loopback sockets, asserting identical
# request taxonomy and stage attributions within the documented
# jitter tolerance (docs/live.md). Needs working loopback sockets;
# sandboxes that forbid them get a printed skip, not a failure.
if python - <<'EOF'
import socket
try:
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.bind(("127.0.0.1", 0))
    probe.close()
except OSError as err:
    raise SystemExit(f"no loopback sockets: {err}")
EOF
then
    python -m repro.cli parity --quick
else
    echo "SKIP: live-parity (loopback sockets unavailable here)" >&2
fi

echo "==> live admin plane (scrape determinism + drain + stall gate)"
# Start the demo stack with the admin plane bound, scrape /metrics
# twice through the strict exposition parser (every line must parse,
# families in sorted order, two idle scrapes byte-identical), follow
# it with `obs --follow`, then watch /healthz flip 200 -> 503 through
# the SIGTERM drain window (docs/live.md).  Same loopback guard as
# the parity stage.
if python - <<'EOF'
import socket
try:
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.bind(("127.0.0.1", 0))
    probe.close()
except OSError as err:
    raise SystemExit(f"no loopback sockets: {err}")
EOF
then
    python - "$admin_follow" <<'EOF'
import json
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

from repro.telemetry.exposition import parse_exposition

process = subprocess.Popen(
    [sys.executable, "-m", "repro.cli", "live", "--serve",
     "--requests", "2", "--metrics-port", "0",
     "--watchdog-interval-s", "30", "--drain-grace-s", "1"],
    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
try:
    port = None
    deadline = time.monotonic() + 30.0
    for line in process.stdout:
        match = re.search(r"admin/http on 127\.0\.0\.1:(\d+)", line)
        if match:
            port = int(match.group(1))
        if "serving (SIGINT" in line:
            break
        assert time.monotonic() < deadline, "stack never reached serving"
    assert port, "no admin/http endpoint printed"
    base = f"http://127.0.0.1:{port}"

    def get(path):
        with urllib.request.urlopen(base + path, timeout=10) as reply:
            return reply.status, reply.read()

    status, first = get("/metrics")
    assert status == 200, f"/metrics -> {status}"
    status, second = get("/metrics")
    assert first == second, "two idle /metrics scrapes differ"
    families = parse_exposition(first.decode("utf-8"))
    names = [family.name for family in families]
    assert names == sorted(names), "families out of sorted order"
    assert any(family.source == "live.loop_lag_ms"
               for family in families), "watchdog histogram missing"

    follow = subprocess.run(
        [sys.executable, "-m", "repro.cli", "obs", "--follow", base,
         "--interval", "0.2", "--count", "2",
         "--export-metrics", sys.argv[1]],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    assert follow.returncode == 0, "obs --follow failed"
    panels = follow.stdout.count("== obs: per-stage latency breakdown")
    assert panels == 2, f"obs --follow rendered {panels} panels, not 2"

    status, body = get("/healthz")
    assert status == 200 and json.loads(body)["state"] == "serving"

    process.send_signal(signal.SIGTERM)
    saw_draining = False
    for _ in range(20):
        try:
            with urllib.request.urlopen(base + "/healthz",
                                        timeout=2) as reply:
                pass
        except urllib.error.HTTPError as err:
            if err.code == 503 and \
                    json.loads(err.read())["state"] == "draining":
                saw_draining = True
                break
        except OSError:
            break
        time.sleep(0.1)
    assert saw_draining, "/healthz never reported 503/draining"
    assert process.wait(timeout=30) == 0, "live stack exited non-zero"
finally:
    if process.poll() is None:
        process.kill()
EOF
    # An injected loop stall must trip the live budget gate (exit 1)...
    python -m repro.cli live --requests 0 --inject-stall-ms 600 \
        --watchdog-interval-s 0.25 \
        --export-metrics "$admin_stall" >/dev/null 2>&1
    if python -m repro.cli sentry \
            --live-metrics "$admin_stall" >/dev/null 2>&1; then
        echo "FAIL: live sentry passed despite an injected loop stall" >&2
        exit 1
    fi
    # ...and a clean demo run must pass it (exit 0).
    python -m repro.cli live --requests 2 \
        --export-metrics "$admin_clean" >/dev/null 2>&1
    python -m repro.cli sentry --live-metrics "$admin_clean" >/dev/null
else
    echo "SKIP: live admin plane (loopback sockets unavailable here)" >&2
fi

echo "==> pytest"
python -m pytest -x -q "$@"
