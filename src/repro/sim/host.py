"""Crash/restartable simulated hosts.

A :class:`Host` owns one *service* (a Raft node, a MySQL server + plugin, a
semi-sync primary, ...). Crashing a host:

- makes it unreachable (in-flight deliveries drop on arrival);
- cancels every timer and kills every coroutine and commit pipeline the
  service created through the host (nothing volatile survives);
- bumps the incarnation counter, so stale callbacks from a previous life
  can never fire into the new one;
- preserves only the :class:`DurableStore` — the simulated disk.

Services implement ``handle_message(src, message)`` and optionally
``on_crash()`` / ``on_restart()`` hooks.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.errors import HostDownError, SimError
from repro.sim.coro import Process, SimFuture
from repro.sim.loop import EventLoop, Timer
from repro.sim.network import Network
from repro.sim.tracing import Tracer


class DurableStore:
    """The host's simulated disk: a namespaced key-value store.

    Contents survive crashes. Values are stored by reference — services
    must treat stored values as immutable or copy on write, mirroring how
    a real system only trusts what it fsync'd.
    """

    def __init__(self) -> None:
        self._data: dict[str, dict[str, Any]] = {}

    def namespace(self, name: str) -> dict[str, Any]:
        """A mutable dict scoped to ``name`` (created on first use)."""
        return self._data.setdefault(name, {})

    def get(self, namespace: str, key: str, default: Any = None) -> Any:
        return self._data.get(namespace, {}).get(key, default)

    def put(self, namespace: str, key: str, value: Any) -> None:
        self.namespace(namespace)[key] = value

    def wipe(self) -> None:
        """Destroy the disk (used to simulate host replacement)."""
        self._data.clear()


class Host:
    """A network endpoint that can crash and restart."""

    def __init__(
        self,
        loop: EventLoop,
        network: Network,
        name: str,
        region: str,
        tracer: Tracer | None = None,
    ) -> None:
        self.loop = loop
        self.network = network
        self.name = name
        self.region = region
        self.tracer = tracer
        self.alive = True
        self.incarnation = 0
        self.disk = DurableStore()
        self.service: Any = None
        self._timers: list[Timer] = []
        # Volatile tasks: coroutines and callback state machines (anything
        # with kill() and done()); crash() kills them.
        self._tasks: list[Any] = []
        self.paused = False
        # While paused: the future that deferred work waits on (resolved
        # at resume, cancelled by a crash). None while running.
        self.pause_barrier: SimFuture | None = None
        self._paused_inbox: list[tuple[str, Any]] = []
        network.register(self)

    # -- service wiring ----------------------------------------------------

    def attach_service(self, service: Any) -> None:
        if self.service is not None:
            raise SimError(f"host {self.name!r} already has a service")
        self.service = service

    def replace_service(self, service: Any) -> None:
        """Swap the running service (used by enable-raft mid-rollout)."""
        self.service = service

    def receive(self, src: str, message: Any) -> None:
        if not self.alive or self.service is None:
            return
        if self.paused:
            # Stop-the-world stall: the kernel keeps buffering packets
            # while every thread is frozen; they drain at resume.
            self._paused_inbox.append((src, message))
            return
        self.service.handle_message(src, message)

    def send(self, dst: str, message: Any) -> None:
        if not self.alive:
            raise HostDownError(f"host {self.name!r} is down")
        self.network.send(self.name, dst, message)

    # -- timers & processes (volatile; die with the host) -------------------

    def call_after(self, delay: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule a callback that is squelched if the host crashes (or
        crashes-and-restarts) before it fires."""
        if not self.alive:
            raise HostDownError(f"host {self.name!r} is down")
        incarnation = self.incarnation

        def guarded() -> None:
            if not (self.alive and self.incarnation == incarnation):
                return
            if self.paused:
                # Frozen host: the timer "fired" but no thread runs it
                # until resume (it re-checks liveness then).
                assert self.pause_barrier is not None
                self.pause_barrier.add_done_callback(lambda _b: guarded())
                return
            callback(*args)

        timer = self.loop.call_after(delay, guarded)
        self._timers.append(timer)
        if len(self._timers) > 256:
            # Only timers still queued can fire; crash() cancels those.
            self._timers = [t for t in self._timers if t._in_heap]
        return timer

    def spawn(self, gen: Generator[Any, Any, Any], label: str = "") -> Process:
        """Run a coroutine whose life is bound to this host incarnation."""
        if not self.alive:
            raise HostDownError(f"host {self.name!r} is down")
        process = Process(self.loop, gen, label or f"{self.name}:process", self)
        self.adopt(process)
        return process

    def adopt(self, task: Any) -> None:
        """Bind a volatile task (anything with ``kill()`` and ``done()``:
        a process, a commit pipeline) to this incarnation: crash() kills it."""
        if not self.alive:
            raise HostDownError(f"host {self.name!r} is down")
        tasks = self._tasks
        tasks.append(task)
        if len(tasks) > 256:
            self._tasks = [t for t in tasks if not t.done()]

    def future(self, label: str = "") -> SimFuture:
        return SimFuture(self.loop, label=f"{self.name}:{label}")

    # -- crash/restart -----------------------------------------------------

    # -- pause/resume (stop-the-world stall) --------------------------------

    def pause(self) -> None:
        """Freeze the host: timers, coroutines, and message handling all
        stall; nothing is lost. Models a stop-the-world event (GC pause,
        VM migration, SIGSTOP) — the process keeps its volatile state and
        still *believes* whatever it believed, which is exactly the
        stale-leader hazard window the read path must survive."""
        if not self.alive or self.paused:
            return
        self.paused = True
        self.pause_barrier = SimFuture(self.loop, label=f"{self.name}:pause")
        if self.tracer is not None:
            self.tracer.emit("host.pause", host=self.name)

    def resume(self) -> None:
        """Thaw a paused host: deferred timers re-arm and the buffered
        inbox drains, in arrival order, as if the world never stopped."""
        if not self.alive or not self.paused:
            return
        self.paused = False
        barrier, self.pause_barrier = self.pause_barrier, None
        inbox, self._paused_inbox = self._paused_inbox, []
        if self.tracer is not None:
            self.tracer.emit("host.resume", host=self.name)
        for src, message in inbox:
            if self.alive and self.service is not None:
                self.service.handle_message(src, message)
        if barrier is not None:
            barrier.resolve(None)

    def pause_for(self, stall: float) -> None:
        """Pause now and automatically resume after ``stall`` seconds.
        The resume is scheduled on the raw loop — a host timer would be
        frozen by the very pause it is meant to end."""
        self.pause()
        self.loop.call_after(stall, self.resume)

    def crash(self) -> None:
        """Kill the process: volatile state is lost, disk survives."""
        if not self.alive:
            return
        self.alive = False
        self.incarnation += 1
        if self.paused:
            # A crashed host is no longer merely paused; deferred work is
            # released into incarnation guards (which squelch it) and the
            # buffered inbox is lost with the process.
            self.paused = False
            barrier, self.pause_barrier = self.pause_barrier, None
            self._paused_inbox.clear()
            if barrier is not None:
                barrier.cancel()
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        for task in self._tasks:
            task.kill()
        self._tasks.clear()
        if self.tracer is not None:
            self.tracer.emit("host.crash", host=self.name)
        if self.service is not None and hasattr(self.service, "on_crash"):
            self.service.on_crash()

    def restart(self) -> None:
        """Bring the host back; the service recovers from the disk."""
        if self.alive:
            return
        self.alive = True
        if self.tracer is not None:
            self.tracer.emit("host.restart", host=self.name)
        if self.service is not None and hasattr(self.service, "on_restart"):
            self.service.on_restart()

    def crash_for(self, downtime: float) -> None:
        """Crash now and automatically restart after ``downtime`` seconds."""
        self.crash()
        self.loop.call_after(downtime, self.restart)

    def resurrect(self) -> None:
        """Bring a crashed host up *without* recovery hooks — for member
        replacement, where the caller installs a freshly-constructed
        service over a re-seeded disk instead of recovering the old one."""
        if self.alive:
            return
        self.alive = True
        self.incarnation += 1
        if self.tracer is not None:
            self.tracer.emit("host.resurrect", host=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.alive else "down"
        return f"Host({self.name!r}, region={self.region!r}, {state})"
