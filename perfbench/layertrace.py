"""Per-layer tracing for the benchmark's traced run.

The module -> layer table below is the one place that says which layer a
``repro`` module belongs to.  :class:`Tracer` wraps each layer's public
entry functions, and every callable the program hands to another layer
at the public call that registers it (``Simulator.schedule_at`` /
``schedule_bare`` / ``schedule_bare_at``, ``SimFuture.add_callback``,
``Udp.bind`` / ``set_default_handler`` and ``IpStack.delivery_taps``).
A wrapped callable is named by the module of the code it runs; for a
coroutine step that is the generator's module, so a layer's work never
lands in the scheduler's self time.

Executing a ``repro`` module at import is a span too, so every layer's
import cost is its own and an imported module without a layer fails the
run before any of its code is timed.

Every wrapped call is a span (layer, function, start, end, parent).  A
layer's self time is the time of its spans minus the time of their
child spans; it is accumulated as spans close, so the run's memory does
not grow with its length.  The first ``SPAN_CAP`` spans are also kept in
memory and written out when the run ends.  Nothing here changes what
the simulation computes: wrappers only read the clock and count.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import json
import sys
import time

#: whole subpackages, by their ``repro.<package>`` name
LAYER_OF_PACKAGE = {
    "repro.core": "core",
    "repro.botnet": "botnet",
    "repro.services": "botnet",
    "repro.binaries": "botnet",
    "repro.memsafety": "botnet",
    "repro.container": "container",
    "repro.firmware": "container",
    "repro.obs": "obs",
}

#: single modules; a module missing from both tables has no layer, and
#: running its code fails the traced run
LAYER_OF_MODULE = {
    "repro": "core",
    "repro.serialization": "core",
    "repro.parallel": "parallel",
    "repro.cache": "parallel",
    "repro.netsim": "simulator",
    "repro.netsim.simulator": "simulator",
    "repro.netsim.scheduler": "simulator",
    "repro.netsim.process": "process",
    "repro.netsim.netdevice": "netdevice",
    "repro.netsim.channel": "channel",
    "repro.netsim.queues": "queues",
    "repro.netsim.packet": "packet",
    "repro.netsim.headers": "packet",
    "repro.netsim.ip": "ip",
    "repro.netsim.address": "ip",
    "repro.netsim.node": "ip",
    "repro.netsim.topology": "ip",
    "repro.netsim.tiered": "ip",
    "repro.netsim.udp": "udp",
    "repro.netsim.tcp": "tcp",
    "repro.netsim.sockets": "tcp",
    "repro.netsim.sink": "sink",
    # PacketSink is the only Application the workloads run
    "repro.netsim.application": "sink",
    "repro.netsim.flows": "flows",
    "repro.netsim.tracing": "tracing",
}

LAYERS = (
    "simulator", "process", "netdevice", "channel", "queues", "packet", "ip",
    "udp", "tcp", "sink", "flows", "tracing", "botnet", "container", "core",
    "obs", "parallel",
)

#: public entry functions wrapped as spans: (module, "Class.method")
ENTRY_POINTS = (
    ("repro.netsim.simulator", "Simulator.run"),
    ("repro.netsim.simulator", "ScheduledEvent.cancel"),
    ("repro.netsim.process", "Timeout.__init__"),
    ("repro.netsim.netdevice", "NetDevice.receive"),
    ("repro.netsim.netdevice", "PointToPointDevice.send"),
    ("repro.netsim.channel", "PointToPointChannel.transmit"),
    ("repro.netsim.channel", "PointToPointChannel.fluid_carry"),
    ("repro.netsim.queues", "DropTailQueue.enqueue"),
    ("repro.netsim.queues", "DropTailQueue.dequeue"),
    ("repro.netsim.queues", "DropTailQueue.fluid_drop"),
    ("repro.netsim.packet", "Packet.__init__"),
    ("repro.netsim.packet", "Packet.copy"),
    ("repro.netsim.packet", "Packet.add_header"),
    ("repro.netsim.packet", "Packet.remove_header"),
    ("repro.netsim.packet", "PacketTrain.__init__"),
    ("repro.netsim.packet", "PacketTrain.copy"),
    ("repro.netsim.ip", "IpStack.send"),
    ("repro.netsim.ip", "IpStack.receive"),
    ("repro.netsim.udp", "Udp.send"),
    ("repro.netsim.udp", "Udp.send_datagram"),
    ("repro.netsim.udp", "Udp.send_train"),
    ("repro.netsim.udp", "Udp.receive"),
    ("repro.netsim.tcp", "Tcp.receive"),
    ("repro.netsim.tcp", "TcpConnection.handle_segment"),
    ("repro.netsim.tcp", "TcpConnection.send"),
    ("repro.netsim.sink", "PacketSink.account_fluid"),
    ("repro.netsim.flows", "FlowEngine.start_flow"),
    ("repro.netsim.flows", "FlowEngine.stop_flow"),
    ("repro.netsim.flows", "FlowEngine.on_link_change"),
    ("repro.netsim.flows", "FlowEngine.advance"),
    ("repro.netsim.flows", "FlowEngine.flush"),
    ("repro.botnet.cnc", "CncServer.issue_attack"),
    ("repro.container.runtime", "ContainerRuntime.create"),
    ("repro.container.runtime", "ContainerRuntime.start"),
    ("repro.core.framework", "DDoSim.__init__"),
    ("repro.core.framework", "DDoSim.build"),
    ("repro.core.framework", "DDoSim.run"),
    ("repro.obs.metrics", "Counter.inc"),
    ("repro.obs.metrics", "MetricsRegistry.snapshot"),
)

#: module-level functions wrapped as spans: (module, function)
ENTRY_FUNCTIONS = (
    ("repro.parallel", "run_map"),
    ("repro.serialization", "result_to_json"),
)

#: spans kept in memory and written out; later spans are only summed
SPAN_CAP = 100_000

_TRACED = "__perfbench_traced__"


def layer_of(module: str):
    """The layer of a ``repro`` module, or None when the table has none."""
    layer = LAYER_OF_MODULE.get(module)
    if layer is None:
        layer = LAYER_OF_PACKAGE.get(".".join(module.split(".")[:2]))
    return layer


class UnmappedModule(LookupError):
    """Code from a ``repro`` module ran without a layer in the table."""


class _TapList(list):
    """``IpStack.delivery_taps`` that wraps each tap as it is added."""

    __slots__ = ("_wrap",)

    def __init__(self, wrap):
        super().__init__()
        self._wrap = wrap

    def append(self, tap):
        super().append(self._wrap(tap))

    def remove(self, tap):
        for index, item in enumerate(self):
            if item is tap or getattr(item, "__wrapped__", None) == tap:
                del self[index]
                return
        raise ValueError("tap not registered")


class Tracer:
    """Installs the wrappers and accumulates per-layer spans and counts."""

    def __init__(self):
        self.layer_ids = {name: index for index, name in enumerate(LAYERS)}
        self.self_s = [0.0] * len(LAYERS)
        #: child-time accumulator per open span; [0] sums top-level spans
        self.stack = [0.0]
        #: closed spans, oldest first: (layer, name id, start, end, depth)
        self.spans = []
        self.names = []          # name id -> (layer id, function name)
        self.calls = []          # name id -> call count
        self._name_ids = {}
        self._callable_ids = {}  # function or code object -> name id
        self.step_names = set()  # name ids of coroutine steps
        #: (label, perf_counter) marks: run start/end, attack issued
        self.marks = []

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    def _name_id(self, module: str, name: str) -> int:
        key = (module, name)
        name_id = self._name_ids.get(key)
        if name_id is None:
            layer = layer_of(module)
            if layer is None:
                raise UnmappedModule(f"{module} ({name}) has no layer")
            name_id = len(self.names)
            self._name_ids[key] = name_id
            self.names.append((self.layer_ids[layer], f"{module}:{name}"))
            self.calls.append(0)
        return name_id

    def _callback_id(self, callback) -> int:
        """Name id for a callable handed to another layer."""
        func = getattr(callback, "__func__", None)
        if func is not None and func in self._process_steps:
            # A coroutine step runs the generator's code.
            generator = callback.__self__.generator
            code = generator.gi_code
            name_id = self._callable_ids.get(code)
            if name_id is None:
                frame = generator.gi_frame
                module = frame.f_globals["__name__"] if frame is not None \
                    else callback.__module__
                name_id = self._name_id(module, generator.__qualname__)
                self._callable_ids[code] = name_id
                self.step_names.add(name_id)
            return name_id
        target = func if func is not None else getattr(callback, "func", callback)
        name_id = self._callable_ids.get(target)
        if name_id is None:
            module = getattr(target, "__module__", None)
            name = getattr(target, "__qualname__", None)
            if module is None or name is None:
                raise UnmappedModule(f"cannot name callback {callback!r}")
            name_id = self._name_id(module, name)
            self._callable_ids[target] = name_id
        return name_id

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _span(self, fn, name_id: int):
        """``fn`` wrapped so that each call is a span of ``name_id``."""
        layer = self.names[name_id][0]
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        perf = time.perf_counter

        def traced(*args, **kwargs):
            start = perf()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                elapsed = end - start
                self_s[layer] += elapsed - stack.pop()
                calls[name_id] += 1
                if len(spans) < SPAN_CAP:
                    spans.append((layer, name_id, start, end, len(stack)))
                # This bookkeeping is the tracer's: charge it to no layer.
                stack[-1] += elapsed + (perf() - end)

        return traced

    def _entry(self, fn, module: str, name: str):
        """A span wrapper for a public entry function, marked as traced so
        a bound method of it handed on as a callback is not wrapped twice."""
        traced = self._span(fn, self._name_id(module, name))
        traced.__wrapped__ = fn
        setattr(traced, _TRACED, True)
        return traced

    def wrap_callback(self, callback):
        """A traced stand-in for ``callback`` (None and traced methods pass)."""
        if callback is None:
            return None
        func = getattr(callback, "__func__", callback)
        if getattr(func, _TRACED, False):
            return callback
        traced = self._span(callback, self._callback_id(callback))
        traced.__wrapped__ = callback
        return traced

    def _registrar(self, original):
        """Wrap the callable argument of a registration method, charging
        the wrapping to no layer."""
        wrap = self.wrap_callback
        stack = self.stack
        perf = time.perf_counter

        def register(owner, callback, *args):
            started = perf()
            callback = wrap(callback)
            stack[-1] += perf() - started
            return original(owner, callback, *args)

        return register

    def _scheduler(self, original, name: str):
        """``Simulator.<name>`` as a span, with its callback wrapped first.

        Wrapping is the tracer's own work: its time is charged to no
        layer (it counts as child time of the calling span).
        """
        spanned = self._entry(original, "repro.netsim.simulator", name)
        span = self._span
        callback_id = self._callback_id
        traced_flag = _TRACED
        stack = self.stack
        perf = time.perf_counter

        def schedule(sim, when, callback, *args):
            started = perf()
            func = getattr(callback, "__func__", callback)
            if not getattr(func, traced_flag, False):
                callback = span(callback, callback_id(callback))
            stack[-1] += perf() - started
            return spanned(sim, when, callback, *args)

        return schedule

    def unattributed(self, fn):
        """``fn`` (the benchmark's own code) made to charge its own time to
        no layer; spans inside it still count for their layers."""
        stack = self.stack
        perf = time.perf_counter

        def run(*args, **kwargs):
            start = perf()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                stack[-1] += perf() - start

        return run

    def _marking(self, fn, before: str, after: str = ""):
        marks = self.marks
        perf = time.perf_counter

        def marked(*args, **kwargs):
            marks.append((before, perf()))
            try:
                return fn(*args, **kwargs)
            finally:
                if after:
                    marks.append((after, perf()))

        setattr(marked, _TRACED, True)
        return marked

    def install_import_hook(self) -> None:
        """Make executing each ``repro`` module at import a span of its
        layer.  Call before the first ``repro`` import."""
        sys.meta_path.insert(0, _ImportSpans(self))

    def install(self) -> None:
        """Patch the ``repro`` classes of this process.  Call once, before
        the first simulator is built."""
        from repro.netsim.ip import IpStack
        from repro.netsim.process import SimFuture, SimProcess
        from repro.netsim.simulator import Simulator
        from repro.netsim.udp import Udp

        self._process_steps = (SimProcess._step, SimProcess._resume)
        for module_name, qualname in ENTRY_POINTS:
            class_name, method = qualname.split(".")
            cls = getattr(importlib.import_module(module_name), class_name)
            traced = self._entry(cls.__dict__[method], module_name, qualname)
            if qualname == "Simulator.run":
                traced = self._marking(traced, "run_start", "run_end")
            elif qualname == "CncServer.issue_attack":
                traced = self._marking(traced, "attack")
            setattr(cls, method, traced)
        for module_name, function in ENTRY_FUNCTIONS:
            module = importlib.import_module(module_name)
            setattr(module, function,
                    self._entry(getattr(module, function), module_name, function))
        for method in ("schedule_at", "schedule_bare", "schedule_bare_at"):
            setattr(Simulator, method, self._scheduler(
                Simulator.__dict__[method], f"Simulator.{method}"))
        SimFuture.add_callback = self._registrar(SimFuture.__dict__["add_callback"])
        Udp.set_default_handler = self._registrar(
            Udp.__dict__["set_default_handler"])
        bind = Udp.__dict__["bind"]
        init = IpStack.__dict__["__init__"]
        wrap = self.wrap_callback

        def udp_bind(udp, port, handler):
            return bind(udp, port, wrap(handler))

        def ip_init(ip, *args, **kwargs):
            init(ip, *args, **kwargs)
            ip.delivery_taps = _TapList(wrap)

        Udp.bind = udp_bind
        IpStack.__init__ = ip_init

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_self_s(self) -> dict:
        return {layer: self.self_s[index] for layer, index in self.layer_ids.items()}

    def layer_calls(self, layer: str, *functions: str) -> int:
        """Calls into ``layer`` through the named functions."""
        layer_id = self.layer_ids[layer]
        return sum(
            self.calls[name_id]
            for name_id, (owner, name) in enumerate(self.names)
            if owner == layer_id and name.split(":")[1] in functions
        )

    def traced_top_level_s(self) -> float:
        """Wall time inside top-level spans."""
        return self.stack[0]

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines with parent indices.

        Spans close children-first, so a span's parent is the next span
        to close one level up; spans whose parent was never kept get -1.
        """
        parents = [-1] * len(self.spans)
        pending = {}
        for index, (_layer, _name, _start, _end, depth) in enumerate(self.spans):
            for child in pending.pop(depth + 1, ()):
                parents[child] = index
            pending.setdefault(depth, []).append(index)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (layer, name_id, start, end, _depth) in enumerate(self.spans):
                handle.write(json.dumps([
                    LAYERS[layer], self.names[name_id][1], start, end,
                    parents[index],
                ]) + "\n")


class _ImportSpans:
    """Meta path finder that turns each ``repro`` module's execution at
    import into a span (and rejects modules without a layer)."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path=None, target=None):
        if name != "repro" and not name.startswith("repro."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is not None and spec.loader is not None:
            loader = spec.loader
            loader.exec_module = self.tracer._span(
                loader.exec_module, self.tracer._name_id(name, "<import>"))
        return spec
