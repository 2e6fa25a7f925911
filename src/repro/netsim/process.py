"""Coroutine processes on top of the event scheduler.

NS-3 applications are written callback-style; DDoSim's *container payloads*
(shells, `curl`, the Mirai bot, C&C sessions) read much more naturally as
sequential code.  This module provides a small simpy-style process layer:

* :class:`SimFuture` — a one-shot future tied to a simulator.
* :class:`Timeout` — a future that succeeds after a virtual delay.
* :class:`SimProcess` — drives a generator; each ``yield``ed future
  suspends the process until the future resolves.  Failing a future raises
  the exception *inside* the generator, so payload code can use ordinary
  ``try/except``.

Example::

    def bot(sim, sock):
        yield Timeout(sim, 1.0)                  # sleep 1 virtual second
        data = yield sock.recv()                 # wait for network input
        ...

    SimProcess(sim, bot(sim, sock))
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from repro.netsim.simulator import Simulator


class ProcessKilled(Exception):
    """Injected into a generator when its process is killed.

    Mirai kills rival processes; the container runtime raises this inside
    the victim's coroutine so that ``finally`` blocks (releasing ports,
    closing sockets) still run.
    """


class SimFuture:
    """A one-shot future: resolves exactly once with a value or an error."""

    __slots__ = ("sim", "_callbacks", "_done", "value", "error")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._callbacks: List[Callable[["SimFuture"], None]] = []
        self._done = False
        self.value: Any = None
        self.error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self._done

    @property
    def ok(self) -> bool:
        """True when resolved successfully."""
        return self._done and self.error is None

    def add_callback(self, callback: Callable[["SimFuture"], None]) -> None:
        """Register ``callback(self)``; fires immediately if already done."""
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def add_waiter(self, process: "SimProcess") -> None:
        """Suspend ``process`` on this future until it resolves.

        A future that acts on its own before it resolves (a flood's
        callback-paced emitter) overrides this to keep the process and
        check :attr:`SimProcess.killed` before each action.
        """
        self.add_callback(process._resume)

    def succeed(self, value: Any = None) -> None:
        """Resolve the future with ``value`` and run callbacks now."""
        self._resolve(value, None)

    def fail(self, error: BaseException) -> None:
        """Resolve the future with an exception; waiters see it raised."""
        self._resolve(None, error)

    def _resolve(self, value: Any, error: Optional[BaseException]) -> None:
        if self._done:
            raise RuntimeError("future already resolved")
        self._done = True
        self.value = value
        self.error = error
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(SimFuture):
    """A future that succeeds ``delay`` virtual seconds after creation."""

    __slots__ = ("_event",)

    def __init__(self, sim: Simulator, delay: float, value: Any = None):
        super().__init__(sim)
        self._event = sim.schedule(delay, self.succeed, value)

    def cancel(self) -> None:
        """Cancel the underlying timer (no-op once fired)."""
        if not self.done:
            self._event.cancel()


class AllOf(SimFuture):
    """Succeeds when every child future has resolved (errors swallowed).

    The resolved value is the list of child futures, letting the waiter
    inspect individual outcomes.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: Simulator, futures: List[SimFuture]):
        super().__init__(sim)
        self._children = list(futures)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed(self._children)
        else:
            for future in self._children:
                future.add_callback(self._child_done)

    def _child_done(self, _future: SimFuture) -> None:
        self._remaining -= 1
        if self._remaining == 0 and not self.done:
            self.succeed(self._children)


class AnyOf(SimFuture):
    """Succeeds when the first child future resolves; value is that child."""

    __slots__ = ()

    def __init__(self, sim: Simulator, futures: List[SimFuture]):
        super().__init__(sim)
        for future in futures:
            future.add_callback(self._child_done)

    def _child_done(self, future: SimFuture) -> None:
        if not self.done:
            self.succeed(future)


class SimProcess(SimFuture):
    """Drives a generator, suspending on each yielded :class:`SimFuture`.

    The process itself is a future: it resolves with the generator's return
    value (or the exception that escaped it), so processes can wait on each
    other — which is exactly how the emulated shell implements pipelines
    and ``sh -c "curl ... | sh"``.
    """

    __slots__ = ("generator", "name", "killed")

    def __init__(self, sim: Simulator, generator: Generator, name: str = "proc"):
        super().__init__(sim)
        self.generator = generator
        self.name = name
        #: set by :meth:`kill` at once, before the throwing step runs
        self.killed = False
        # Start on the next tick so the creator finishes its own event first.
        sim.schedule_now(self._step, None, None)

    def kill(self, error: Optional[BaseException] = None) -> None:
        """Terminate the process, raising ``ProcessKilled`` inside it."""
        if self.done or self.killed:
            return
        self.killed = True
        self.sim.schedule_now(self._step, None, error or ProcessKilled(self.name))

    def _step(self, send_value: Any, throw_error: Optional[BaseException]) -> None:
        if self.done:
            return
        try:
            if throw_error is not None:
                target = self.generator.throw(throw_error)
            else:
                target = self.generator.send(send_value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except ProcessKilled as killed:
            self.fail(killed)
            return
        except BaseException as error:  # noqa: BLE001 - payload code may raise anything
            self.fail(error)
            return
        if not isinstance(target, SimFuture):
            self.sim.schedule_now(
                self._step,
                None,
                TypeError(f"process {self.name!r} yielded {target!r}, expected SimFuture"),
            )
            return
        target.add_waiter(self)

    def _resume(self, future: SimFuture) -> None:
        if self.killed and not self.done:
            # kill() already queued a throwing step; ignore the wakeup.
            return
        if future.error is not None:
            self._step(None, future.error)
        else:
            self._step(future.value, None)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "done" if self.done else "running"
        return f"<SimProcess {self.name!r} {state}>"
