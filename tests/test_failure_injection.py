"""Failure-injection tests: the system degrades, it does not break.

Scenarios: an AP reboot wiping cache state mid-run, upstream DNS
failures, origin outages behind a warm edge, stale controller state in
Wi-Cache, and clients racing the same cold object.
"""

import pytest

from repro.core import (
    ApRuntime,
    ApeCacheConfig,
    CacheFlag,
    CacheableSpec,
)
from repro.core.client_runtime import ClientRuntime
from repro.errors import DnsError, TransportError
from repro.sim import HOUR, MINUTE
from repro.testbed import Testbed, TestbedConfig

KB = 1024


def make_bed(**ape_kwargs):
    bed = Testbed(TestbedConfig(jitter_fraction=0.0))
    ap = ApRuntime(bed.ap, bed.transport, bed.ldns.address,
                   config=ApeCacheConfig(**ape_kwargs))
    ap.install()
    node = bed.add_client("phone")
    runtime = ClientRuntime(node, bed.transport, bed.ap.address,
                            app_id="faultapp")
    return bed, ap, runtime


def declare(bed, runtime, url, size=10 * KB):
    bed.host_object(url, size, origin_delay_s=0.02)
    runtime.register_spec(CacheableSpec(url, 2, 1 * HOUR))


def fetch(bed, runtime, url):
    return bed.sim.run(until=bed.sim.process(runtime.fetch(url)))


# ----------------------------------------------------------------------
# AP reboot
# ----------------------------------------------------------------------
def test_ap_reboot_recovers_via_delegation():
    bed, ap, runtime = make_bed()
    url = "http://faultapp.example/obj"
    declare(bed, runtime, url)
    fetch(bed, runtime, url)
    assert url in ap.store

    # Power cycle: all volatile state is lost.
    ap.store.clear()
    ap.blocklist.clear()
    ap._cache.clear()  # the DNS forwarder cache

    runtime.flush()
    result = fetch(bed, runtime, url)
    # The unknown hash reads as Delegation, so the client still gets
    # its object in one round and the cache re-warms.
    assert result.flag == CacheFlag.DELEGATION
    assert result.data_object is not None
    assert url in ap.store


def test_client_flag_staleness_after_ap_reboot():
    bed, ap, runtime = make_bed()
    url = "http://faultapp.example/obj"
    declare(bed, runtime, url)
    fetch(bed, runtime, url)
    fetch(bed, runtime, url)  # local flag table now says CACHE_HIT

    ap.store.clear()

    # Client still believes in the hit; the AP falls back to a
    # delegation-style fetch instead of 404ing.
    result = fetch(bed, runtime, url)
    assert result.data_object is not None
    assert ap.stale_fetches >= 1


# ----------------------------------------------------------------------
# DNS failures
# ----------------------------------------------------------------------
def test_unknown_domain_cache_lookup_fails_cleanly():
    bed, _ap, runtime = make_bed()
    runtime.register_spec(CacheableSpec(
        "http://unpublished.example/obj", 1, 1 * HOUR))
    with pytest.raises((TransportError, DnsError)):
        fetch(bed, runtime, "http://unpublished.example/obj")


def test_delegation_for_unresolvable_domain_reports_servfail():
    bed, ap, runtime = make_bed()
    url = "http://vanishing.example/obj"
    declare(bed, runtime, url)
    fetch(bed, runtime, url)  # works while the domain resolves

    # The domain's delegation disappears (registrar failure).
    ap.store.clear()
    ap._cache.clear()
    bed.registry._delegations.pop(
        next(d for d in bed.registry._delegations
             if str(d) == "vanishing.example"))
    runtime.flush()
    bed.ldns_service.flush_cache()
    with pytest.raises((TransportError, DnsError)):
        fetch(bed, runtime, url)


# ----------------------------------------------------------------------
# Origin outages
# ----------------------------------------------------------------------
def test_warm_edge_masks_origin_outage():
    bed, _ap, runtime = make_bed()
    url = "http://faultapp.example/obj"
    declare(bed, runtime, url)
    # Origin goes dark, but the edge was preloaded.
    bed.origin_server._objects.clear()
    result = fetch(bed, runtime, url)
    assert result.data_object is not None


def test_cold_edge_propagates_origin_404():
    bed, ap, runtime = make_bed()
    url = "http://faultapp.example/obj"
    bed.host_object(url, 10 * KB, preload_edge=False)
    runtime.register_spec(CacheableSpec(url, 1, 1 * HOUR))
    bed.origin_server._objects.clear()
    result = fetch(bed, runtime, url)
    assert result.data_object is None
    assert url not in ap.store  # failures are never cached


# ----------------------------------------------------------------------
# Concurrency races
# ----------------------------------------------------------------------
def test_two_clients_racing_cold_object_coalesce():
    bed, ap, runtime_a = make_bed()
    node_b = bed.add_client("phone-b")
    runtime_b = ClientRuntime(node_b, bed.transport, bed.ap.address,
                              app_id="faultapp")
    url = "http://faultapp.example/obj"
    declare(bed, runtime_a, url)
    bed.host_object("http://faultapp.example/other", 1 * KB)
    runtime_b.register_spec(CacheableSpec(url, 2, 1 * HOUR))

    results = []

    def client(runtime):
        result = yield from runtime.fetch(url)
        results.append(result)

    bed.sim.process(client(runtime_a))
    bed.sim.process(client(runtime_b))
    bed.sim.run()
    assert len(results) == 2
    assert all(result.data_object is not None for result in results)
    # Exactly one edge fetch happened; the other request coalesced or
    # was served from the fresh cache entry.
    assert ap.edge_fetches == 1


def test_blocklisted_object_recovers_after_clear():
    bed, ap, runtime = make_bed(blocklist_threshold_bytes=5 * KB)
    url = "http://faultapp.example/big"
    declare(bed, runtime, url, size=50 * KB)
    fetch(bed, runtime, url)
    assert ap.blocklist.is_blocked(url)

    # Operator raises the threshold and clears the list.
    ap.blocklist.clear()
    runtime.flush()
    result = fetch(bed, runtime, url)
    assert result.flag == CacheFlag.DELEGATION
    assert result.data_object is not None
