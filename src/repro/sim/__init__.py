"""Discrete-event simulation kernel.

The kernel is deliberately small and dependency-free: a virtual clock
and an event heap driving the engine-agnostic event, process and
resource primitives of :mod:`repro.engine.events` and
:mod:`repro.engine.resources`, plus seeded randomness.  Every other
subsystem in the reproduction (network, DNS, HTTP, the APE-CACHE
runtimes) is built on these primitives.
"""

from repro.sim.kernel import HOUR, MINUTE, MS, SECOND, Simulator
from repro.sim.randomness import (
    ExponentialSampler,
    RandomStreams,
    ZipfSampler,
)

__all__ = [
    "ExponentialSampler",
    "HOUR",
    "MINUTE",
    "MS",
    "RandomStreams",
    "SECOND",
    "Simulator",
    "ZipfSampler",
]
