"""repro.obs — the unified observability layer.

The instruments, one facade:

* :mod:`repro.obs.metrics` — a metrics registry (:class:`Counter`,
  :class:`Gauge`, labeled families) with snapshot/delta reads;
* :mod:`repro.obs.trace` — a structured event tracer (bounded per-type
  ring buffers of typed events stamped with virtual time and emission
  order) with a Chrome ``trace_event`` exporter; it is the one record of
  a run's lifecycle;
* :mod:`repro.obs.recorder` — an always-on bounded flight recorder
  force-dumped on faults, crashes, and sweep-worker death;
* :mod:`repro.obs.report` — the causal recruitment-and-attack tree
  derived from the event trace (:func:`causal_tree`), self-contained
  HTML reports and NetFlow-style flow exports (``repro report``).

:class:`Observatory` bundles them and rides on the simulator
(``sim.obs``), so every layer — scheduler, queues, links, TCP,
containers, C&C, exploits, churn — reports into one place.  The default
is :data:`NULL_OBSERVATORY`: a no-op shell under which no layer records
anything.

Where the *wall* time of a run goes is a different question, answered
per layer by ``python3 perfbench/run.py --workload packet-50 --trace 1``
and per function by ``python -m cProfile -s tottime -m repro run ...``.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    NullInstrument,
    NullRegistry,
)
from repro.obs.observatory import NULL_OBSERVATORY, NullObservatory, Observatory
from repro.obs.recorder import FlightRecorder, NULL_RECORDER, NullRecorder
from repro.obs.report import (
    causal_tree,
    flows_jsonl,
    render_run_report,
    render_sweep_report,
)
from repro.obs.trace import (
    EventTracer,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    site_of,
)

__all__ = [
    "Counter",
    "EventTracer",
    "FlightRecorder",
    "Gauge",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "NULL_OBSERVATORY",
    "NULL_RECORDER",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullInstrument",
    "NullObservatory",
    "NullRecorder",
    "NullRegistry",
    "NullTracer",
    "Observatory",
    "TraceEvent",
    "causal_tree",
    "flows_jsonl",
    "render_run_report",
    "render_sweep_report",
    "site_of",
]
