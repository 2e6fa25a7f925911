"""Runtime determinism sanitizer: what static rules cannot see.

Two dynamic monitors complement the AST linter:

* :class:`TieBreakAuditor` wraps any scheduler (:mod:`repro.netsim.
  scheduler`) and records **same-timestamp collisions between different
  callback sites**.  Ties are broken deterministically by sequence
  number, but when two *different* sites land on one timestamp the
  outcome depends on scheduling order — a refactor that reorders the
  ``schedule()`` calls silently reorders the simulation.  The audit
  surfaces where that fragility lives.

* :class:`RngStreamGuard` accounts randomness by **named stream**.
  Every ``random.Random`` in the repo is seeded per purpose
  (``f"{seed}-churn"``, ``f"{seed}-faults"``...); the guard counts draws
  per registered stream and — via :meth:`RngStreamGuard.guard_module_rng`
  — intercepts any draw from the process-global ``random`` module, the
  runtime twin of lint rule SIM102.

Both produce plain-dict reports so ``repro verify-determinism`` and the
tests can assert on them.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.obs.profiler import site_of

#: module-global draw functions the guard intercepts (names, so this
#: module itself stays SIM102-clean)
_MODULE_DRAW_FNS = (
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "expovariate", "getrandbits",
)

#: cap on recorded collision samples / unregistered draws (reports stay
#: readable even when a run misbehaves everywhere)
_SAMPLE_CAP = 32


class TieBreakAuditor:
    """Scheduler wrapper that audits same-timestamp tie-breaks.

    Drop-in for any scheduler object::

        sim = Simulator(scheduler=TieBreakAuditor(HeapScheduler()))

    or retrofit an assembled run (events already queued keep flowing —
    the auditor delegates to the same inner scheduler)::

        auditor = TieBreakAuditor.attach(ddosim.sim)
        ddosim.run()
        report = auditor.report()
    """

    name = "tiebreak-audit"

    def __init__(self, inner) -> None:
        self._inner = inner
        # per pending timestamp: [event count, set of callback sites]
        self._ties_at: Dict[float, list] = {}
        self.pushes = 0
        self.tied_timestamps = 0      # timestamps that collected >1 event
        self.cross_site_ties = 0      # ties between *different* sites
        self.samples: List[dict] = []

    @classmethod
    def attach(cls, sim) -> "TieBreakAuditor":
        """Wrap a simulator's scheduler in place (forces the generic
        run loop; the inlined heap fast path bypasses wrappers)."""
        auditor = cls(sim._sched)
        sim._sched = auditor
        sim._heap = None
        return auditor

    # -- delegated scheduler protocol ---------------------------------
    def __len__(self) -> int:
        return len(self._inner)

    def peek(self):
        return self._inner.peek()

    def drop_cancelled_head(self) -> int:
        return self._inner.drop_cancelled_head()

    def remove_cancelled(self) -> int:
        return self._inner.remove_cancelled()

    # -- audited operations -------------------------------------------
    def push(self, entry: tuple) -> None:
        self.pushes += 1
        time = entry[0]
        site = site_of(entry[2])
        tie = self._ties_at.get(time)
        if tie is None:
            self._ties_at[time] = [1, {site}]
            self._inner.push(entry)
            return
        tie[0] += 1
        sites = tie[1]
        if tie[0] == 2:
            self.tied_timestamps += 1
        if site not in sites:
            # Same-site ties keep FIFO meaning (a pacer re-arming
            # itself); cross-site ties are the order-fragile ones.
            self.cross_site_ties += 1
            if len(self.samples) < _SAMPLE_CAP:
                self.samples.append({
                    "time": time,
                    "sites": sorted(sites | {site}),
                })
            sites.add(site)
        self._inner.push(entry)

    def pop_next(self, limit: Optional[float] = None):
        entry = self._inner.pop_next(limit)
        if entry is not None and len(self._ties_at) > 8192:
            now = entry[0]
            self._ties_at = {
                time: tie for time, tie in self._ties_at.items()
                if time >= now
            }
        return entry

    def report(self) -> dict:
        return {
            "pushes": self.pushes,
            "tied_timestamps": self.tied_timestamps,
            "cross_site_ties": self.cross_site_ties,
            "samples": list(self.samples),
        }


class _CountedStream:
    """Proxy around one ``random.Random`` that tallies draws per stream."""

    def __init__(self, guard: "RngStreamGuard", name: str, rng: random.Random):
        self._guard = guard
        self._name = name
        self._rng = rng

    def __getattr__(self, attr: str):
        target = getattr(self._rng, attr)
        if attr in _MODULE_DRAW_FNS or attr in (
                "normalvariate", "betavariate", "triangular", "randbytes"):
            guard, name = self._guard, self._name

            def counted(*args, **kwargs):
                guard._record(name)
                return target(*args, **kwargs)
            return counted
        return target


class RngStreamGuard:
    """Named-stream randomness accounting.

    ``stream(name, seed)`` registers a seeded stream and returns a
    counting proxy; ``draws`` maps stream name to draw count after a
    run.  :meth:`guard_module_rng` additionally intercepts the process-
    global ``random`` module for the duration of a ``with`` block — any
    draw there is an *unregistered stream* and gets recorded with its
    caller site.
    """

    def __init__(self) -> None:
        self.draws: Dict[str, int] = {}
        self.unregistered: List[dict] = []

    def stream(self, name: str, seed=None) -> _CountedStream:
        """Register (and return) the named stream, seeded per purpose."""
        return self.register(name, random.Random(seed))

    def register(self, name: str, rng: random.Random) -> _CountedStream:
        if name in self.draws:
            raise ValueError(f"stream {name!r} already registered")
        self.draws[name] = 0
        return _CountedStream(self, name, rng)

    def _record(self, name: str) -> None:
        self.draws[name] += 1

    def _record_unregistered(self, function: str) -> None:
        if len(self.unregistered) < _SAMPLE_CAP:
            frame = sys._getframe(2)
            self.unregistered.append({
                "function": f"random.{function}",
                "site": f"{frame.f_code.co_filename}:{frame.f_lineno}",
            })
        else:
            self.unregistered[-1]["truncated"] = True

    @contextmanager
    def guard_module_rng(self):
        """Intercept module-global ``random`` draws inside the block."""
        originals = {name: getattr(random, name) for name in _MODULE_DRAW_FNS}

        def make_spy(name: str, original):
            def spy(*args, **kwargs):
                self._record_unregistered(name)
                return original(*args, **kwargs)
            return spy

        for name, original in originals.items():
            setattr(random, name, make_spy(name, original))
        try:
            yield self
        finally:
            for name, original in originals.items():
                setattr(random, name, original)

    @property
    def clean(self) -> bool:
        """True when no draw escaped to the process-global RNG."""
        return not self.unregistered

    def report(self) -> dict:
        return {
            "streams": dict(sorted(self.draws.items())),
            "total_draws": sum(self.draws.values()),
            "unregistered_draws": list(self.unregistered),
            "clean": self.clean,
        }


def audit_run(config, guard_module_rng: bool = True) -> dict:
    """Run one config under the full sanitizer.

    Builds a :class:`repro.core.framework.DDoSim`, wraps its scheduler
    in a :class:`TieBreakAuditor`, optionally guards the module-global
    RNG, runs to completion, and returns a combined report::

        {"tiebreak": {...}, "module_rng": {...}, "result": RunResult}
    """
    from repro.core.framework import DDoSim

    guard = RngStreamGuard()
    ddosim = DDoSim(config)
    auditor = TieBreakAuditor.attach(ddosim.sim)
    if guard_module_rng:
        with guard.guard_module_rng():
            result = ddosim.run()
    else:
        result = ddosim.run()
    return {
        "tiebreak": auditor.report(),
        "module_rng": guard.report(),
        "result": result,
    }
