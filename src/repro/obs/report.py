"""The causal attack tree and self-contained HTML reports.

:func:`causal_tree` derives the recruitment-and-attack tree of one run
from its event trace: which probe leaked the pointer that built the
exploit that recruited the bot whose flood train delivered which sink
bytes.  It needs no bookkeeping of its own during the run, so it is as
deterministic as the trace that CI's double-run gate already checks.

``repro report`` renders everything the observability stack collected —
result summary, lifecycle timeline, that tree, received-rate sparkline,
fault markers and flight-recorder dumps — into a single HTML file with
**no external assets**: inline CSS, inline SVG, zero JavaScript.  The
file opens from disk on an air-gapped machine and attaches to a bug
report whole.

The module renders only; it never runs a simulation.  The CLI wires it
to a fresh instrumented run (``repro report``) or a cached sweep
(``repro report --figure2``), and :func:`flows_jsonl` serialises
TServer-side flow aggregates into the NetFlow-style JSONL that
``repro.analysis.features.capture_records_from_flows`` reads back.
"""

from __future__ import annotations

import html
import json
from typing import Dict, List, Optional, Sequence

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em auto;
       max-width: 60em; color: #1a1a2e; }
h1 { border-bottom: 2px solid #16213e; padding-bottom: .3em; }
h2 { margin-top: 1.6em; color: #16213e; }
table { border-collapse: collapse; margin: .8em 0; }
th, td { border: 1px solid #cbd5e1; padding: .25em .6em; text-align: left;
         font-size: .9em; }
th { background: #eef2f7; }
.timeline { position: relative; border-left: 1px solid #cbd5e1; }
.lane { position: relative; height: 1.2em; margin: 2px 0; }
.bar { position: absolute; height: 1em; background: #4f6fa5; border-radius: 2px;
       color: #fff; font-size: .65em; overflow: hidden; white-space: nowrap;
       padding: 0 .3em; min-width: 2px; }
.bar.failed { background: #b5483b; }
.fault-marker { position: absolute; top: 0; bottom: 0; width: 2px;
                background: #d1495b; }
.tree ul { list-style: none; border-left: 1px dotted #94a3b8;
           margin: 0 0 0 .6em; padding-left: .9em; }
.tree > ul { border-left: none; margin-left: 0; padding-left: 0; }
.tree li { margin: .15em 0; font-size: .9em; }
.kind { font-weight: 600; color: #16213e; }
.meta { color: #64748b; font-size: .85em; }
.status-failed, .status-crashed, .status-timeout { color: #b5483b; }
pre { background: #f1f5f9; padding: .8em; overflow-x: auto; font-size: .8em; }
svg { display: block; margin: .5em 0; }
"""

#: timeline rendering cap — a worm run can hold tens of thousands of
#: probes; the report keeps the first N nodes by start time and says so.
MAX_TIMELINE_NODES = 400

#: the lifecycle events :func:`causal_tree` joins into the tree
TREE_EVENTS = (
    "scan.probe", "scan.result", "exploit.attempt", "exploit.success",
    "exploit.crash", "loader.attempt", "loader.result", "cnc.recruit",
    "cnc.attack", "attack.start", "attack.stop",
)


def causal_tree(tracer, flow_records: Sequence[dict] = ()) -> List[dict]:
    """The recruitment-and-attack forest of one traced run.

    Walks the lifecycle events in emission order and joins them by the
    keys the layers share: a probe's (scanner, victim), an exploited
    address, a recruited address, an attack order's (method, target,
    port) and a flood train's (source address, source port).  Each node
    is a dict with ``kind`` (``scan.probe``, ``exploit``,
    ``exploit.outcome``, ``loader.attempt``, ``cnc.recruit``,
    ``cnc.command``, ``attack.train``), ``entity``, ``t_start``,
    ``t_end`` and ``status`` (``"open"`` with ``t_end`` None while a
    probe, loader attempt or train had not ended when the run stopped),
    the event's other fields, and ``children`` in start order.  An
    ``attack.train`` reads ``packets_delivered``/``bytes_delivered``
    from ``flow_records`` (:meth:`repro.netsim.sink.PacketSink.flow_records`)
    for its source address and port; ``packets_sent`` minus delivered is
    what the train lost on any hop.  A node whose start event was
    evicted from its ring (``tracer.evicted``) is missing.
    """
    delivered: Dict[tuple, List[int]] = {}
    for record in flow_records:
        totals = delivered.setdefault((record["src"], record["src_port"]), [0, 0])
        totals[0] += record["packets"]
        totals[1] += record["bytes"]
    roots: List[dict] = []
    bound: Dict[tuple, dict] = {}      # join key -> latest node bound to it
    running: Dict[tuple, dict] = {}    # nodes waiting for their end event

    def add(kind, event, entity, parent_key=None, status="ok", **fields):
        node = {"kind": kind, "entity": entity, "t_start": event.t,
                "t_end": None if status == "open" else event.t,
                "status": status, **fields, "children": []}
        parent = bound.get(parent_key)
        (parent["children"] if parent is not None else roots).append(node)
        return node

    def end(key, event, status, **fields):
        node = running.pop(key, None)
        if node is not None:
            node.update(t_end=event.t, status=status, **fields)
        return node

    for event in tracer.events(*TREE_EVENTS):
        name, f = event.name, event.fields
        if name == "scan.probe":
            key = ("probe", f["scanner"], f["victim"])
            running[key] = add("scan.probe", event, f["victim"], status="open",
                               vector=f["vector"], scanner=f["scanner"])
        elif name == "scan.result":
            key = ("probe", f["scanner"], f["victim"])
            node = end(key, event, f["status"])
            if node is not None:
                bound[key] = node
        elif name == "exploit.attempt":
            fields = {k: v for k, v in f.items() if k != "target"}
            probe = ("probe", f["scanner"], f["target"]) if "scanner" in f else None
            bound[("exploit", f["target"])] = add(
                "exploit", event, f["target"], probe, status="sent", **fields)
        elif name in ("exploit.success", "exploit.crash"):
            hijacked = name == "exploit.success"
            fields = {k: v for k, v in f.items() if k not in ("container", "address")}
            node = add("exploit.outcome", event, f["container"],
                       ("exploit", f["address"]),
                       status="hijacked" if hijacked else "crashed", **fields)
            if hijacked:
                bound[("recruit", f["address"])] = node
        elif name == "loader.attempt":
            running[("loader", f["loader"], f["victim"])] = add(
                "loader.attempt", event, f["victim"], status="open",
                loader=f["loader"])
        elif name == "loader.result":
            extra = {"attempts": f["attempts"]} if "attempts" in f else {}
            node = end(("loader", f["loader"], f["victim"]), event,
                       f["status"], **extra)
            if node is not None and f["status"] == "infected":
                bound[("recruit", f["victim"])] = node
        elif name == "cnc.recruit":
            add("cnc.recruit", event, f["address"], ("recruit", f["address"]),
                bot_id=f["bot_id"], architecture=f["architecture"])
        elif name == "cnc.attack":
            fields = {k: v for k, v in f.items() if k != "method"}
            bound[("order", f["method"], f["target"], str(f["port"]))] = add(
                "cnc.command", event, f["method"], **fields)
        elif name == "attack.start":
            source = (f["address"], f["src_port"])
            packets, nbytes = delivered.get(source, (0, 0))
            running[("train",) + source] = add(
                "attack.train", event, f["address"],
                ("order", f["method"], f["target"], str(f["port"])),
                status="open", method=f["method"], target=f["target"],
                port=f["port"], src_port=f["src_port"],
                packets_delivered=packets, bytes_delivered=nbytes)
        elif name == "attack.stop":
            end(("train", f["address"], f["src_port"]), event, "ok",
                packets_sent=f["packets_sent"], bytes_sent=f["bytes_sent"])
    return roots


def _flatten(nodes: Sequence[dict]) -> List[dict]:
    """Every node of a forest, parents before children."""
    out: List[dict] = []
    for node in nodes:
        out.append(node)
        out.extend(_flatten(node["children"]))
    return out


def _escape(value: object) -> str:
    return html.escape(str(value), quote=True)


def _sparkline(values: Sequence[float], width: int = 560, height: int = 64,
               label: str = "") -> str:
    """Inline SVG polyline over ``values`` (empty series → empty note)."""
    points = [float(v) for v in values]
    if not points:
        return "<p class='meta'>(no data)</p>"
    peak = max(points) or 1.0
    step = width / max(len(points) - 1, 1)
    coords = " ".join(
        f"{index * step:.1f},{height - (value / peak) * (height - 4):.1f}"
        for index, value in enumerate(points)
    )
    title = _escape(label) if label else "series"
    return (
        f"<svg width='{width}' height='{height}' role='img' "
        f"aria-label='{title}'>"
        f"<polyline points='{coords}' fill='none' stroke='#4f6fa5' "
        f"stroke-width='1.5'/>"
        f"<text x='2' y='12' font-size='10' fill='#64748b'>"
        f"{title} (peak {peak:.1f})</text>"
        f"</svg>"
    )


def _summary_table(row: Dict[str, object]) -> str:
    cells = "".join(
        f"<tr><th>{_escape(key)}</th><td>{_escape(value)}</td></tr>"
        for key, value in row.items()
    )
    return f"<table>{cells}</table>"


def _rows_table(rows: Sequence[Dict[str, object]]) -> str:
    if not rows:
        return "<p class='meta'>(no rows)</p>"
    columns = list(rows[0].keys())
    head = "".join(f"<th>{_escape(column)}</th>" for column in columns)
    body = "".join(
        "<tr>" + "".join(
            f"<td>{_escape(row.get(column, ''))}</td>" for column in columns
        ) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def _timeline(nodes: Sequence[dict], fault_times: Sequence[float],
              t_end: float) -> str:
    """Percentage-positioned bars over ``[0, t_end]``, one lane per tree
    node, fault-injection instants as red markers."""
    if not nodes:
        return "<p class='meta'>(no lifecycle events traced)</p>"
    horizon = max(t_end, 1e-9)
    shown = nodes[:MAX_TIMELINE_NODES]
    lanes = []
    for node in shown:
        start = float(node.get("t_start", 0.0))
        end = float(node.get("t_end") or start)
        left = 100.0 * start / horizon
        width = max(100.0 * (end - start) / horizon, 0.15)
        status = str(node.get("status", "ok"))
        failed = " failed" if status not in ("ok", "hijacked", "infected",
                                             "sent", "leaked", "open") else ""
        label = f"{node.get('kind')} {node.get('entity', '')} [{status}]"
        markers = "".join(
            f"<div class='fault-marker' title='fault at t={t:.1f}' "
            f"style='left:{100.0 * t / horizon:.2f}%'></div>"
            for t in fault_times
        )
        lanes.append(
            f"<div class='lane'>{markers}"
            f"<div class='bar{failed}' style='left:{left:.2f}%;"
            f"width:{width:.2f}%' title='{_escape(label)} "
            f"t={start:.2f}..{end:.2f}'>{_escape(label)}</div></div>"
        )
    note = ""
    if len(nodes) > len(shown):
        note = (f"<p class='meta'>showing {len(shown)} of "
                f"{len(nodes)} nodes (earliest first)</p>")
    return f"<div class='timeline'>{''.join(lanes)}</div>{note}"


def _tree_html(nodes: Sequence[dict]) -> str:
    """Nested <ul> over :func:`causal_tree` output."""
    if not nodes:
        return ""
    items = []
    for node in nodes:
        status = str(node.get("status", "ok"))
        detail = []
        for key in ("packets_sent", "packets_delivered", "bytes_delivered"):
            if node.get(key):
                detail.append(f"{key.split('_')[1]} {key.split('_')[0]}"
                              f"={node[key]}")
        meta = f" <span class='meta'>{_escape(', '.join(detail))}</span>" if detail else ""
        items.append(
            f"<li><span class='kind'>{_escape(node.get('kind'))}</span> "
            f"{_escape(node.get('entity', ''))} "
            f"<span class='status-{_escape(status)}'>[{_escape(status)}]</span>"
            f"{meta}{_tree_html(node.get('children', ()))}</li>"
        )
    return f"<ul>{''.join(items)}</ul>"


def _dump_sections(recorder) -> str:
    if recorder is None or not getattr(recorder, "dumps", None):
        return "<p class='meta'>(no flight-recorder dumps — nothing crashed)</p>"
    return "".join(
        f"<pre>{_escape(recorder.format_dump(record))}</pre>"
        for record in recorder.dumps
    )


def _page(title: str, sections: Sequence[str]) -> str:
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{_escape(title)}</title><style>{_CSS}</style></head>"
        f"<body><h1>{_escape(title)}</h1>{''.join(sections)}</body></html>"
    )


def render_run_report(
    result,
    tracer=None,
    recorder=None,
    flow_records: Sequence[dict] = (),
    title: str = "DDoSim run report",
) -> str:
    """One run → one self-contained HTML page.

    ``result`` is the run's :class:`repro.core.results.RunResult`;
    ``tracer``/``recorder`` are the matching observatory parts and
    ``flow_records`` the TServer sink's (each optional — missing layers
    render as a note, not an error).
    """
    traced = tracer is not None and tracer.enabled
    tree = causal_tree(tracer, flow_records) if traced else []
    nodes = sorted(_flatten(tree), key=lambda node: node["t_start"])
    fault_times: List[float] = []
    fault_rows: List[Dict[str, object]] = []
    if traced:
        for event in tracer.events("fault.inject"):
            fault_times.append(event.t)
            fault_rows.append({"t": round(event.t, 2), **event.fields})
    t_end = max(
        [float(result.sim_end_time)]
        + [float(node.get("t_end") or 0.0) for node in nodes]
    )
    evicted = sum(tracer.evicted.get(name, 0) for name in TREE_EVENTS) \
        if traced else 0
    tree_note = (f"<p class='meta'>incomplete: {evicted} lifecycle events "
                 "were evicted from the trace</p>" if evicted else "")
    sections = [
        "<h2>Summary</h2>", _summary_table(result.row()),
        "<h2>Received rate (kbps, per second of attack)</h2>",
        _sparkline(result.rate_series_kbps, label="received kbps"),
        "<h2>Lifecycle timeline</h2>", _timeline(nodes, fault_times, t_end),
        "<h2>Recruitment and attack tree</h2>",
        ("<div class='tree'>" + (_tree_html(tree) or
         "<p class='meta'>(no lifecycle events)</p>") + "</div>" + tree_note)
        if traced else "<p class='meta'>(no trace recorded)</p>",
        "<h2>Fault injections</h2>",
        _rows_table(fault_rows) if fault_rows
        else "<p class='meta'>(none)</p>",
        "<h2>Flight-recorder dumps</h2>", _dump_sections(recorder),
    ]
    return _page(title, sections)


def render_sweep_report(
    rows: Sequence[Dict[str, object]],
    title: str = "DDoSim sweep report",
    telemetry_summary: Optional[Dict[str, object]] = None,
) -> str:
    """A sweep's row dicts → one self-contained HTML page: the full
    table plus a sparkline per numeric column (trend at a glance)."""
    sections = ["<h2>Rows</h2>", _rows_table(rows)]
    if rows:
        numeric = [
            column for column in rows[0]
            if all(isinstance(row.get(column), (int, float)) and
                   not isinstance(row.get(column), bool) for row in rows)
        ]
        if numeric:
            sections.append("<h2>Trends</h2>")
            for column in numeric:
                sections.append(
                    _sparkline([row[column] for row in rows], label=column)
                )
    if telemetry_summary:
        sections.append("<h2>Sweep execution</h2>")
        sections.append(_summary_table(telemetry_summary))
    return _page(title, sections)


def flows_jsonl(records: Sequence[dict]) -> str:
    """Flow records (:meth:`repro.netsim.sink.PacketSink.flow_records`)
    as NetFlow-style JSONL — one sorted-key JSON object per line."""
    return "\n".join(
        json.dumps(record, sort_keys=True, default=str) for record in records
    )
