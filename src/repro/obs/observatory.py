"""The Observatory: one object bundling the registry and the tracer.

Every :class:`repro.netsim.simulator.Simulator` carries an observatory
(``sim.obs``); instrumented layers reach it through their simulator
reference, so wiring the whole stack is a single
``sim.attach_observatory(...)`` call.  The default is
:data:`NULL_OBSERVATORY` — null registry, null tracer — under which no
layer records anything.

``Observatory()`` (the :class:`DDoSim` default) carries a *real* registry
but a null tracer: callback gauges and low-rate counters work, telemetry
sources from the registry, and per-event tracing stays off.
``Observatory.full()`` adds the event tracer (``sched.fire`` and every
layer's events), for trace exports, reports and the causal tree
(:func:`repro.obs.report.causal_tree`).  The tracer never touches the
registry, so both observatories give the same metrics snapshot.  The
tracer is also the post-mortem: after a run raises,
``ddosim.obs.tracer.events()`` still holds every event up to the failure.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.trace import EventTracer, NULL_TRACER


class Observatory:
    """Aggregation point for one simulation's measurement instruments."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None, tracer=None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @classmethod
    def full(cls) -> "Observatory":
        """Everything on: registry + event tracer."""
        return cls(tracer=EventTracer())

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def write_metrics_json(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.metrics.snapshot(), handle, indent=2, sort_keys=True)

    def write_trace_chrome(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.tracer.to_chrome_json())


class NullObservatory:
    """The do-nothing default every bare Simulator starts with."""

    metrics = NULL_REGISTRY
    tracer = NULL_TRACER


NULL_OBSERVATORY = NullObservatory()
