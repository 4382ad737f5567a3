"""Everything the benchmark feeds the program, made from the seed.

The program under test receives only what these functions return: the
app suite, the live catalog and the live arrival schedule.  The sims
also take the seed itself as the testbed seed, which draws their app
execution times and link jitter.
"""

from __future__ import annotations

import dataclasses
import math
import random
import typing as _t

from repro.apps.generator import generate_apps
from repro.apps.model import AppSpec
from repro.apps.movietrailer import movietrailer_app
from repro.apps.virtualhome import virtualhome_app

__all__ = ["HELD_OUT_SEED", "SUITE_SEED", "CatalogObject", "Request",
           "Arrival", "app_suite", "live_catalog", "live_arrivals",
           "live_requests", "percentile"]

#: The seed later performance claims must also hold on.  It was never
#: used while the benchmark was tuned.
HELD_OUT_SEED = 7919

#: The sims' 30-app suite (2 real apps + 28 dummies) is fixed: which
#: apps land in the suite moves PACM's per-admission cost by up to 3x
#: between suites, which would swamp any regression bound.  The seed
#: varies the execution times drawn against it.
SUITE_SEED = 0

KB = 1024


def app_suite() -> list[AppSpec]:
    """The paper's evaluation suite: MovieTrailer, VirtualHome and 28
    synthesized apps."""
    return ([movietrailer_app(), virtualhome_app()]
            + generate_apps(28, seed=SUITE_SEED))


@dataclasses.dataclass(frozen=True)
class CatalogObject:
    url: str
    size_bytes: int
    priority: int
    ttl_s: float


#: The live catalog: apps (one domain each) x objects per app.
LIVE_APPS = 24
LIVE_OBJECTS_PER_APP = 6
#: App popularity is Zipf by rank with ``WorkloadConfig``'s default
#: exponent, as in the paper's suite.
ZIPF_EXPONENT = 0.8
#: Share of live requests that open their app: in the paper's suite an
#: app execution fetches about six objects after one lookup of its
#: domain.
OPENS_APP_SHARE = 1.0 / 6.0


def live_catalog(seed: int) -> list[CatalogObject]:
    """Objects for the live workload, app by app in popularity order.

    TTLs and priorities follow the paper's dummy-app ranges (10-60 min,
    priority 1 or 2).  Sizes are stratified over its 1-100 KB range
    within each app, so every app has about the same footprint and the
    seed moves which object is large rather than how large the popular
    apps are.  At ~50 KB each the catalog is about 1.4x the AP's
    default 5 MB cache.
    """
    rng = random.Random(f"{seed}:catalog")
    apps = list(range(LIVE_APPS))
    rng.shuffle(apps)
    span = 99 * KB / LIVE_OBJECTS_PER_APP
    catalog = []
    for app in apps:
        sizes = [int(1 * KB + span * (stratum + rng.random()))
                 for stratum in range(LIVE_OBJECTS_PER_APP)]
        rng.shuffle(sizes)
        catalog += [CatalogObject(
            url=f"http://app{app:02d}.example/obj{index}",
            size_bytes=size, priority=rng.choice((1, 2)),
            ttl_s=rng.uniform(600.0, 3600.0))
            for index, size in enumerate(sizes)]
    return catalog


@dataclasses.dataclass(frozen=True)
class Request:
    #: Catalog index: a Zipf-ranked app, then one of its objects.
    pick: int
    #: Whether the request opens its app on the device, so the fetch
    #: starts with a DNS-Cache lookup instead of cached flags.
    opens_app: bool


@dataclasses.dataclass(frozen=True)
class Arrival:
    #: Seconds after the phase starts.
    offset: float
    request: Request


def live_requests(seed: int, phase: str) -> _t.Iterator[Request]:
    """An endless stream of requests for one phase.

    Each picks an app by Zipf rank and one of its objects uniformly;
    ``OPENS_APP_SHARE`` of them open their app.
    """
    rng = random.Random(f"{seed}:{phase}:requests")
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(LIVE_APPS)]
    while True:
        app = rng.choices(range(LIVE_APPS), weights=weights)[0]
        yield Request(app * LIVE_OBJECTS_PER_APP
                      + rng.randrange(LIVE_OBJECTS_PER_APP),
                      rng.random() < OPENS_APP_SHARE)


def live_arrivals(seed: int, phase: str, rate: float,
                  seconds: float) -> list[Arrival]:
    """Poisson arrivals at ``rate``/s for ``seconds``, carrying the
    phase's ``live_requests`` in order."""
    rng = random.Random(f"{seed}:{phase}")
    requests = live_requests(seed, phase)
    arrivals = []
    offset = rng.expovariate(rate)
    while offset < seconds:
        arrivals.append(Arrival(offset, next(requests)))
        offset += rng.expovariate(rate)
    return arrivals


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
