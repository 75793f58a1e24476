"""Deterministic discrete-event simulation substrate.

The rest of the library is built on these pieces:

- :class:`~repro.sim.loop.EventLoop` — a single-threaded event loop with a
  simulated clock. Determinism is guaranteed: same seed, same schedule.
- :mod:`~repro.sim.coro` — generator-based coroutines (``yield dt``,
  ``yield some_future``) so protocol code reads sequentially.
- :class:`~repro.sim.network.Network` — a region-aware message fabric with
  configurable latency models, partitions, and byte accounting.
- :class:`~repro.sim.host.Host` — a crash/restartable process container
  that separates durable from volatile state.
"""

from repro.sim.coro import Process, SimFuture, all_of, any_of, sleep, with_timeout
from repro.sim.host import DurableStore, Host
from repro.sim.loop import EventLoop, Timer
from repro.sim.network import (
    FixedLatency,
    LatencyModel,
    LogNormalLatency,
    Network,
    NetworkSpec,
    UniformLatency,
)
from repro.sim.rng import RngStream
from repro.sim.tracing import TraceRecord, Tracer

__all__ = [
    "DurableStore",
    "EventLoop",
    "FixedLatency",
    "Host",
    "LatencyModel",
    "LogNormalLatency",
    "Network",
    "NetworkSpec",
    "Process",
    "RngStream",
    "SimFuture",
    "Timer",
    "TraceRecord",
    "Tracer",
    "UniformLatency",
    "all_of",
    "any_of",
    "sleep",
    "with_timeout",
]
