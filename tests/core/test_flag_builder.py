"""Property-based checks of the AP's DNS-Cache flag builder.

Random admit/evict/expire/block sequences drive an AP cache; every
lookup must then answer each requested hash by the rules: blocked →
Cache-Miss, a fresh cached object of the queried domain → Cache-Hit,
anything else (unknown, expired, evicted, another domain's) →
Delegation.  Requested hashes come first in request order, then the
unrequested fresh same-domain objects in store order as Cache-Hits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.entry import CacheEntry
from repro.cache.policies import LruPolicy
from repro.core import ApeCacheConfig, ApRuntime
from repro.dnslib import CacheFlag, CacheLookupRdata, DomainName, hash_url
from repro.httplib import DataObject
from repro.httplib.url import Url
from repro.testbed import Testbed, TestbedConfig

KB = 1024
DOMAIN = "flagapp.example"
#: Objects the AP may hold: six under the queried domain, three under
#: another one.
CACHEABLE = ([f"http://{DOMAIN}/obj{index}" for index in range(6)]
             + [f"http://otherapp.example/obj{index}" for index in range(3)])
#: URLs a client may ask about: the cacheable ones plus some the AP
#: never sees, in both domains.
REQUESTABLE = CACHEABLE + [f"http://{DOMAIN}/never{index}"
                           for index in range(2)] + [
    "http://otherapp.example/never0", "http://third.example/x"]

cacheable = st.integers(min_value=0, max_value=len(CACHEABLE) - 1)
operations = st.lists(st.one_of(
    st.tuples(st.just("admit"), cacheable,
              st.integers(min_value=1, max_value=8),
              st.sampled_from([30.0, 120.0, 600.0])),
    st.tuples(st.just("evict"), cacheable),
    st.tuples(st.just("expire"), st.sampled_from([10.0, 60.0, 300.0])),
    st.tuples(st.just("block"),
              st.integers(min_value=0, max_value=len(REQUESTABLE) - 1)),
), max_size=25)
requests = st.lists(
    st.integers(min_value=0, max_value=len(REQUESTABLE) - 1), max_size=8)


def apply(bed, ap, operation):
    kind = operation[0]
    now = bed.sim.now
    if kind == "admit":
        _kind, index, size_kb, ttl_s = operation
        entry = CacheEntry(
            data_object=DataObject(CACHEABLE[index], size_kb * KB),
            app_id="fuzz", priority=1, stored_at=now,
            expires_at=now + ttl_s, fetch_latency_s=0.0)
        ap.store.admit(entry, LruPolicy(), now)
    elif kind == "evict":
        ap.store.remove(CACHEABLE[operation[1]])
    elif kind == "expire":
        bed.sim.run(until=now + operation[1])
    else:
        ap.blocklist.block(REQUESTABLE[operation[1]])


def expected_flags(ap, now, requested):
    """The flag rules, applied URL by URL against the store."""
    def fresh_here(entry):
        return (not entry.is_expired(now)
                and Url.parse(entry.url).domain == DomainName(DOMAIN))

    held = {entry.url for entry in ap.store.entries() if fresh_here(entry)}
    rows = []
    for url in requested:
        if ap.blocklist.is_blocked(url):
            flag = CacheFlag.CACHE_MISS
        elif url in held:
            flag = CacheFlag.CACHE_HIT
        else:
            flag = CacheFlag.DELEGATION
        rows.append((hash_url(url), flag))
    asked = {hash_url(url) for url in requested}
    rows.extend((hash_url(entry.url), CacheFlag.CACHE_HIT)
                for entry in ap.store.entries()
                if fresh_here(entry) and hash_url(entry.url) not in asked)
    all_hit = bool(requested) and all(
        flag == CacheFlag.CACHE_HIT for _hash, flag in rows[:len(requested)])
    return rows, all_hit


@settings(max_examples=80, deadline=None)
@given(operations, requests)
def test_flags_follow_the_rules_over_random_histories(history, asked):
    bed = Testbed(TestbedConfig(jitter_fraction=0.0))
    ap = ApRuntime(bed.ap, bed.transport, bed.ldns.address,
                   config=ApeCacheConfig(cache_capacity_bytes=16 * KB))
    for operation in history:
        apply(bed, ap, operation)

    requested = [REQUESTABLE[index] for index in asked]
    lookup = CacheLookupRdata()
    for url in requested:
        lookup.add_url(url)
    result = ap._build_flags(lookup, DomainName(DOMAIN))

    rows, all_hit = expected_flags(ap, bed.sim.now, requested)
    assert [(entry.url_hash, entry.flag)
            for entry in result.rdata] == rows
    assert result.all_hit == all_hit
    # Fig. 14 charges for what the AP holds, nothing more.
    assert ap.memory_bytes() == (ap.store.used_bytes
                                 + len(ap.store) * (96 + 56)
                                 + len(ap.blocklist) * 56)
