"""Span recording for the traced run.

The benchmark wraps the layers' public entry points *from this file* —
nothing under ``src/`` knows it is being traced. Two mechanisms feed one
span stack:

- **entry-point wrappers**: class-level replacements of the methods in
  ``ledger.ENTRY_POINTS`` that push a span around the original call;
- **dispatch classification**: every event-loop callback runs inside a
  span named after the layer (``src/repro/<module>``) whose code the
  callback executes, so timer- and coroutine-driven work (heartbeat
  ticks, pipeline workers, the applier, the benchmark's own clients) is
  attributed instead of piling up as "loop dispatch".

Wrappers record **only while a root span is open** (``SpanRecorder.span``
opens one). Outside it — warm-up, the untimed checks between slices, and
any wrapper that outlives ``uninstall`` because the program captured it
as a bound method — they call straight through, so nothing can be
attributed that the root span does not cover.

A span's *self* time is its duration minus the part its children cover.
All clocks are integer nanoseconds, so per-layer self-times sum to the
root span exactly. Completed spans are folded into per-name aggregates;
the first ``keep`` spans are also retained verbatim (parent, name, start,
end, tag) so a trace can be read and the arithmetic re-checked.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable

from repro.sim.coro import Process

ROOT = "sim/cluster.run"
UNATTRIBUTED = "unattributed"

# src/repro/<module> (longest prefix wins) → ledger layer.
MODULE_LAYERS = {
    "sim.network": "sim.net",
    "sim": "sim",
    "raft.log_cache": "raft.log_cache",
    "raft": "raft.tick",
    "plugin.binlog_storage": "plugin.log_storage",
    "plugin": "plugin.handle",
    "mysql.pipeline": "mysql.pipeline",
    "mysql.applier": "mysql.applier",
    "mysql.engine": "mysql.engine",
    "mysql.events": "mysql.codec",
    "mysql.binlog": "mysql.codec",
    "mysql": "mysql.server",
    "reads": "reads",
    "flexiraft": "flexiraft",
    "snapshot": "snapshot",
}
CLIENT_LAYER = "workload.client"

# Every layer a self-time can land in; they partition the root span.
LAYERS = sorted(set(MODULE_LAYERS.values()) | {
    "raft.handle", "raft.propose", CLIENT_LAYER, UNATTRIBUTED,
})


def layer_of_file(filename: str) -> str:
    """Ledger layer of the code in ``filename``."""
    path = filename.replace("\\", "/")
    if "/benchmarks/e2e/" in path:
        return CLIENT_LAYER
    _, found, tail = path.rpartition("/repro/")
    if not found:
        return UNATTRIBUTED
    parts = tail[: -len(".py")].split("/") if tail.endswith(".py") else tail.split("/")
    while parts:
        layer = MODULE_LAYERS.get(".".join(parts))
        if layer is not None:
            return layer
        parts.pop()
    return UNATTRIBUTED


def layer_of(name: str) -> str:
    return name.split("/", 1)[0]


class SpanRecorder:
    """One in-memory span stack with per-name aggregates."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns, keep: int = 20_000) -> None:
        self.clock = clock
        # Open spans: [start_ns, child_ns, retained index or -1].
        self.stack: list[list[int]] = []
        # name → [calls, total_ns, self_ns]
        self.totals: dict[str, list[int]] = {}
        # Retained spans: [parent index, name, start_ns, end_ns, tag].
        self.spans: list[list[Any]] = []
        self.keep = keep
        self._code_spans: dict[Any, tuple[str, list[int]]] = {}
        self._patched: list[tuple[Any, str, Any]] = []
        # Observers run after a wrapped call returns: name → fn(args, result).
        self.observers: dict[str, Callable[[tuple, Any], None]] = {}

    # -- spans ---------------------------------------------------------------

    def _aggregate(self, name: str) -> list[int]:
        return self.totals.setdefault(name, [0, 0, 0])

    def _open(self, name: str, tag: Any = None) -> list[int]:
        index = -1
        if len(self.spans) < self.keep:
            index = len(self.spans)
            parent = self.stack[-1][2] if self.stack else -1
            self.spans.append([parent, name, 0, 0, tag])
        frame = [self.clock(), 0, index]
        if index >= 0:
            self.spans[index][2] = frame[0]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list[int], aggregate: list[int]) -> None:
        end = self.clock()
        stack = self.stack
        stack.pop()
        duration = end - frame[0]
        aggregate[0] += 1
        aggregate[1] += duration
        aggregate[2] += duration - frame[1]
        if stack:
            stack[-1][1] += duration
        if frame[2] >= 0:
            self.spans[frame[2]][3] = end

    @contextmanager
    def span(self, name: str, tag: Any = None):
        """Open a span unconditionally: the root of a timed slice."""
        frame = self._open(name, tag)
        try:
            yield
        finally:
            self._close(frame, self._aggregate(name))

    def wrap(self, name: str, fn: Callable, tag_fn: Callable | None = None) -> Callable:
        """``fn`` running inside a span called ``name`` whenever a root
        span is open. Its observer runs either way: observers pair calls
        across the warm-up boundary."""
        aggregate = self._aggregate(name)
        open_span, close_span, stack = self._open, self._close, self.stack
        observers = self.observers

        def traced(*args, **kwargs):
            if not stack:
                result = fn(*args, **kwargs)
            else:
                tag = tag_fn(args) if tag_fn is not None and len(self.spans) < self.keep else None
                frame = open_span(name, tag)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(frame, aggregate)
            observer = observers.get(name)
            if observer is not None:
                observer(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- ledger ----------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def self_ns_by_layer(self) -> dict[str, int]:
        layers = dict.fromkeys(LAYERS, 0)
        for name, (_calls, _total, self_ns) in self.totals.items():
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0) + self_ns
        return layers

    def root_ns(self) -> int:
        return self.totals.get(ROOT, (0, 0, 0))[1]

    # -- class-level patching ------------------------------------------------------

    def install(self, cls: type, method: str, name: str, tag_fn: Callable | None = None) -> None:
        """Replace ``cls.method`` with a traced wrapper (class-level, so
        every instance — present and future — is covered)."""
        original = vars(cls)[method]  # must be defined on cls itself, not inherited
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.wrap(name, original.__func__, tag_fn))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(name, original.__func__, tag_fn))
        else:
            replacement = self.wrap(name, original, tag_fn)
        self._patched.append((cls, method, original))
        setattr(cls, method, replacement)

    def install_dispatch(self, timer_cls: type) -> None:
        """Run every event-loop callback fired under a root span inside a
        ``<layer>/dispatch`` span named after the code the callback
        executes (see ``callback_code``)."""
        original = vars(timer_cls)["_fire"]
        open_span, close_span, stack = self._open, self._close, self.stack
        classify = self._dispatch_span

        def fire(timer) -> None:
            if not stack:
                return original(timer)
            name, aggregate = classify(timer._callback)
            frame = open_span(name)
            try:
                original(timer)
            finally:
                close_span(frame, aggregate)

        self._patched.append((timer_cls, "_fire", original))
        timer_cls._fire = fire

    def uninstall(self) -> None:
        """Restore every patched attribute to the original object."""
        while self._patched:
            cls, method, original = self._patched.pop()
            setattr(cls, method, original)

    def _dispatch_span(self, callback: Any) -> tuple[str, list[int]]:
        """(span name, aggregate) for a loop callback, cached per code object."""
        code = callback_code(callback)
        found = self._code_spans.get(code)
        if found is None:
            layer = layer_of_file(code.co_filename) if code is not None else UNATTRIBUTED
            name = layer + "/dispatch"
            found = self._code_spans[code] = (name, self._aggregate(name))
        return found


# -- dispatch classification ---------------------------------------------------------
#
# The loop has no public "which layer does this callback belong to", so
# this reads three private names: ``Timer._fire``/``Timer._callback``,
# ``Process._gen`` and the ``callback`` cell of ``Host.call_after``'s
# guard. Each is read so that a rename under ``src/`` raises here rather
# than quietly moving the work into the ``sim`` layer; renaming the guard
# itself leaves no Raft timer classified, which every traced run checks
# for (``child.layer_metrics``). ``tests/test_spans.py`` drives the real
# ``Host.call_after`` and ``Process`` through it.

_HOST_GUARD = "Host.call_after.<locals>.guarded"


def callback_code(callback: Any) -> Any:
    """The code object a loop callback will run: the callback guarded by
    ``Host.call_after``, a coroutine's generator for ``Process`` steps,
    else the callable's own code (None for a callable without any)."""
    if getattr(callback, "__qualname__", "") == _HOST_GUARD:
        cells = dict(zip(callback.__code__.co_freevars, callback.__closure__))
        callback = cells["callback"].cell_contents
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, Process):
        return owner._gen.gi_code
    return getattr(getattr(callback, "__func__", callback), "__code__", None)


def self_times(spans: list[list[Any]]) -> dict[str, int]:
    """Self time per span name from retained span records
    ``[parent index, name, start, end, tag]`` — the reference arithmetic
    the in-line aggregates must agree with."""
    covered = [0] * len(spans)
    for parent, _name, start, end, _tag in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, int] = {}
    for index, (_parent, name, start, end, _tag) in enumerate(spans):
        out[name] = out.get(name, 0) + (end - start) - covered[index]
    return out
