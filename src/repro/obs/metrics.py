"""The metrics registry: counters, gauges, labeled families.

Prometheus-shaped but in-process and virtual-time friendly: components
grab their instruments once (``registry.counter("queue_drops_total")``)
and bump them on the hot path; :meth:`MetricsRegistry.snapshot` reads
the whole registry as a dict at any point of a run (``run
--metrics-out`` writes it as JSON).  A *delta* between two snapshots
gives per-window changes, which the flight recorder's dumps carry.

Instrumented code must stay near-zero-cost when nobody is measuring:
:data:`NULL_REGISTRY` hands out a shared :class:`NullInstrument` whose
mutators are no-op method calls, so modules can bind instruments
unconditionally and never branch on "is observability on?".
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

LabelValues = Tuple[str, ...]


def _label_key(label_names: Tuple[str, ...], values: LabelValues) -> str:
    """Canonical string key for one labeled child ("" when unlabeled)."""
    if not label_names:
        return ""
    return ",".join(f"{n}={v}" for n, v in zip(label_names, values))


class Counter:
    """Monotonically increasing count.  ``inc`` is the only mutator."""

    __slots__ = ("name", "label_key", "value")

    def __init__(self, name: str, label_key: str = ""):
        self.name = name
        self.label_key = label_key
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down — or be computed on demand.

    Callback gauges (``fn=...``) cost nothing until read: the framework
    registers e.g. ``bots_connected`` against ``CncServer.bot_count`` and
    the value is pulled only at sampling/export time.
    """

    __slots__ = ("name", "label_key", "_value", "fn")

    def __init__(self, name: str, label_key: str = "",
                 fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.label_key = label_key
        self._value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        self.fn = None
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        self.fn = None
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        self.fn = fn

    @property
    def value(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self._value


class NullInstrument:
    """Shared no-op stand-in for every instrument kind.

    One attribute-less method call per update — the price instrumented
    hot paths pay when observability is off.
    """

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_function(self, fn) -> None:
        pass

    def labels(self, *values: str):
        return self

    @property
    def value(self) -> float:
        return 0.0


NULL_INSTRUMENT = NullInstrument()

_KIND_FACTORIES = {
    "counter": Counter,
    "gauge": Gauge,
}


class MetricFamily:
    """All children of one metric name, keyed by label values."""

    __slots__ = ("name", "kind", "help", "label_names", "children")

    def __init__(self, name: str, kind: str, help: str = "",
                 label_names: Tuple[str, ...] = ()):
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.children: Dict[str, object] = {}

    def labels(self, *values: str):
        """The child instrument for one label-value combination."""
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label values "
                f"{self.label_names}, got {values!r}"
            )
        key = _label_key(self.label_names, tuple(str(v) for v in values))
        child = self.children.get(key)
        if child is None:
            child = _KIND_FACTORIES[self.kind](self.name, key)
            self.children[key] = child
        return child


class MetricsRegistry:
    """Owns every metric family of one simulation run."""

    def __init__(self) -> None:
        self.families: Dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    # Registration (idempotent per name; kind conflicts are errors)
    # ------------------------------------------------------------------
    def _family(self, name: str, kind: str, help: str,
                label_names: Iterable[str]) -> MetricFamily:
        family = self.families.get(name)
        if family is not None:
            if family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"cannot re-register as {kind}"
                )
            return family
        family = MetricFamily(name, kind, help, tuple(label_names))
        self.families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labels: Iterable[str] = ()):
        """A counter (unlabeled) or counter family (with ``labels``)."""
        family = self._family(name, "counter", help, labels)
        return family if family.label_names else family.labels()

    def gauge(self, name: str, help: str = "", labels: Iterable[str] = (),
              fn: Optional[Callable[[], float]] = None):
        """A gauge; ``fn`` makes the unlabeled child a callback gauge."""
        family = self._family(name, "gauge", help, labels)
        if family.label_names:
            return family
        gauge = family.labels()
        if fn is not None:
            gauge.set_function(fn)
        return gauge

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def value(self, name: str, label_key: str = "") -> float:
        """Current value of one counter/gauge child (0.0 if absent)."""
        family = self.families.get(name)
        if family is None:
            return 0.0
        child = family.children.get(label_key)
        if child is None:
            return 0.0
        return child.value

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """Everything, as ``{kind: {name: {label_key: value}}}``.  The
        ``"histograms"`` kind stays, always empty, so snapshot files keep
        their shape."""
        out: Dict[str, Dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, family in sorted(self.families.items()):
            out[family.kind + "s"][name] = {
                key: child.value for key, child in sorted(family.children.items())
            }
        return out

    @staticmethod
    def delta(before: Dict[str, Dict], after: Dict[str, Dict]) -> Dict[str, Dict]:
        """Counter differences between two snapshots.

        Gauges are point-in-time and carry over from ``after`` unchanged.
        """
        out: Dict[str, Dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, children in after.get("counters", {}).items():
            prior = before.get("counters", {}).get(name, {})
            out["counters"][name] = {
                key: value - prior.get(key, 0.0) for key, value in children.items()
            }
        out["gauges"] = dict(after.get("gauges", {}))
        return out


class NullRegistry:
    """Registry stand-in: hands out no-op instruments, exports nothing."""

    def counter(self, name: str, help: str = "", labels: Iterable[str] = ()):
        return NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", labels: Iterable[str] = (),
              fn=None):
        return NULL_INSTRUMENT

    def value(self, name: str, label_key: str = "") -> float:
        return 0.0

    def snapshot(self) -> Dict[str, Dict]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_REGISTRY = NullRegistry()
