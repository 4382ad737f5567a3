"""Tests for the distributed (multi-AP) Wi-Cache extension."""

import pytest

from repro.apps import AppRunner, movietrailer_app
from repro.apps.generator import DummyAppParams, generate_apps
from repro.baselines.multi_ap import WiCacheDistributedSystem
from repro.errors import ConfigError
from repro.telemetry import Telemetry, metrics_to_jsonl
from repro.telemetry.instruments import percentile
from repro.testbed import Testbed, TestbedConfig

MB = 1024 * 1024


def deploy(n_aps=2):
    bed = Testbed(TestbedConfig(jitter_fraction=0.0))
    system = WiCacheDistributedSystem(n_aps=n_aps,
                                      cache_capacity_per_ap=5 * MB)
    system.install(bed)
    return bed, system


def test_peer_aps_on_wired_lan():
    bed, system = deploy(n_aps=3)
    assert len(system.agents) == 3
    # Peers sit two Ethernet hops from the primary AP (via the switch).
    assert bed.network.hops("ap", "ap2") == 2
    assert bed.network.hops("ap2", "ap3") == 2
    # And reach the edge through the primary AP's uplink.
    assert bed.network.hops("ap2", "edge") == 9


def test_clients_assigned_round_robin():
    _bed, system = deploy(n_aps=2)
    homes = [system.home_ap_name() for _ in range(4)]
    assert homes == ["ap", "ap2", "ap", "ap2"]


def test_fetcher_bound_to_associated_ap():
    bed, system = deploy(n_aps=2)
    phone = bed.add_client("phone", ap_name="ap2")
    fetcher = system.new_fetcher(bed, phone, "someapp")
    assert fetcher.agent.node.name == "ap2"


def test_neighbor_ap_serves_cached_object():
    bed, system = deploy(n_aps=2)
    app = movietrailer_app()
    for obj in app.objects:
        bed.host_object(obj.url, obj.size_bytes,
                        origin_delay_s=obj.origin_delay_s)

    # User on ap populates the caches...
    first_node = bed.add_client("phone-a", ap_name="ap")
    first = AppRunner(bed.sim, app, system.new_fetcher(
        bed, first_node, app.app_id))
    bed.sim.run(until=bed.sim.process(first.execute()))
    bed.sim.run()  # let background fills finish

    # ...then a user on ap2 gets hits served across the LAN.
    second_node = bed.add_client("phone-b", ap_name="ap2")
    second = AppRunner(bed.sim, app, system.new_fetcher(
        bed, second_node, app.app_id))
    execution = bed.sim.run(until=bed.sim.process(second.execute()))
    hits = [name for name, result in execution.fetches.items()
            if result.cache_hit]
    assert hits
    # Neighbor-AP retrieval is still far cheaper than the edge path.
    for name in hits:
        assert execution.fetches[name].retrieval_latency_s < 0.015


def test_install_required_before_fetchers():
    bed = Testbed(TestbedConfig(jitter_fraction=0.0))
    system = WiCacheDistributedSystem()
    node = bed.add_client("phone")
    with pytest.raises(ConfigError):
        system.new_fetcher(bed, node, "app")


def test_n_aps_validation():
    with pytest.raises(ConfigError):
        WiCacheDistributedSystem(n_aps=0)


def test_aggregate_stats_cover_all_agents():
    bed, system = deploy(n_aps=2)
    app = movietrailer_app()
    for obj in app.objects:
        bed.host_object(obj.url, obj.size_bytes)
    node = bed.add_client("phone", ap_name="ap2")
    runner = AppRunner(bed.sim, app, system.new_fetcher(
        bed, node, app.app_id))
    bed.sim.run(until=bed.sim.process(runner.execute()))
    bed.sim.run()
    stats = system.ap_cache_stats()
    assert stats["background_fills"] > 0
    assert stats["cache_used_bytes"] > 0


def test_fleet_rollup_folds_the_per_ap_shards():
    """An instrumented 2-AP run: the controller's merged view holds
    exactly the shards' counts and samples, in any reporting order."""
    bed = Testbed(TestbedConfig(seed=3, enable_telemetry=True))
    system = WiCacheDistributedSystem(n_aps=2, cache_capacity_per_ap=MB)
    system.install(bed)
    apps = generate_apps(4, seed=3, params=DummyAppParams())

    def drive(runner):
        while True:
            yield bed.sim.timeout(2.0)
            yield bed.sim.process(runner.execute())

    for index, app in enumerate(apps):
        node = bed.add_client(f"client-{index}",
                              ap_name=system.home_ap_name(index))
        for obj in app.objects:
            bed.host_object(obj.url, obj.size_bytes,
                            origin_delay_s=obj.origin_delay_s)
        bed.sim.process(drive(AppRunner(
            bed.sim, app, system.new_fetcher(bed, node, app.app_id))))
    bed.run(until=60.0)

    assert len(system.shards) == 2
    merged = system.fleet_rollup()
    fetches = merged.counter("fleet.fetches")
    for ap, shard in zip(("ap", "ap2"), system.shards):
        shard_total = shard.counter("fleet.fetches").total()
        assert shard_total > 0
        assert fetches.total(ap=ap) == shard_total
    union = [sample for shard in system.shards
             for sample in shard.histogram("fleet.serve_ms").samples()]
    assert union, "the run must serve some AP hits"
    assert merged.histogram("fleet.serve_ms").percentile(95.0) == \
        percentile(union, 95.0)
    reversed_fold = Telemetry.from_states(
        list(reversed(system.fleet_states())))
    assert metrics_to_jsonl(reversed_fold) == metrics_to_jsonl(merged)
