"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``run``         — one DDoSim run with chosen parameters.
* ``figure2``     — Devs x churn sweep (paper Figure 2).
* ``figure3``     — attack-duration sweep (paper Figure 3).
* ``table1``      — host-resource table (paper Table I).
* ``figure4``     — hardware-model vs DDoSim validation (paper Figure 4).
* ``faultsweep``  — fault-plan intensity sweep (``repro.faults``).
* ``recruitment`` — infection rate per CVE x protection profile (R1/R2).
* ``epidemic``    — worm-spread propagation + SI fit (use case V-A2).
* ``report``      — self-contained HTML report of one run (lifecycle
  timeline, the attack tree derived from the event trace, sparklines,
  fault injections) or of the cached Figure 2 sweep, built on the same
  single-run flags; ``--flows`` adds a NetFlow-style JSONL export.
* ``cache``       — run-cache maintenance: ``stats``, ``clear``, ``gc``.
* ``lint``        — determinism linter (``repro.simlint``): the SIM1xx
  rules; nonzero exit on violations (the CI gate).
* ``verify-determinism`` — execute the determinism contract: one config
  twice (first diverging trace event or per-subsystem end-state
  fingerprint on mismatch) and a figure2 sweep at ``--jobs 1`` vs
  ``--jobs N`` (rows must be byte-identical).

Every sweep command accepts ``--csv PATH`` / ``--json PATH`` to archive
the rows, and caches finished grid points under ``--cache-dir``
(default ``.repro-cache``) so a repeated sweep recomputes only changed
points — ``--no-cache`` forces every point to simulate.  ``run``
accepts ``--config PATH`` to load a JSON config
and ``--faults PATH`` to arm a :mod:`repro.faults` plan against it.
``run`` also accepts ``--trace-out`` (the event tracer, written as a
Chrome ``trace_event`` file — load it at
``chrome://tracing`` or https://ui.perfetto.dev) and ``--metrics-out``
(metrics-registry snapshot, byte-identical with or without
``--trace-out``).  A run that raises or is interrupted (^C, SIGTERM)
still writes ``--trace-out`` with every event traced so far.  Every
output path is checked for writing before any work starts, so a bad
path fails at once, not after a run, and a run that fails leaves no
empty output file behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.core.config import SimulationConfig
from repro.core.framework import DDoSim
from repro.core.results import format_table
from repro.serialization import (
    config_from_json,
    result_to_json,
    rows_to_csv,
)


def _add_common_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--devs", type=int, default=20, help="number of Devs")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--churn", choices=("none", "static", "dynamic"),
                        default="none")
    parser.add_argument("--duration", type=float, default=100.0,
                        help="attack duration (s)")
    parser.add_argument("--binary-mix", choices=("mixed", "connman", "dnsmasq"),
                        default="mixed")
    parser.add_argument("--payload", type=int, default=512,
                        help="UDP-PLAIN payload size (bytes)")
    parser.add_argument("--train", type=int, default=1,
                        help="flood packet-train size (1 = exact "
                             "per-packet datapath)")
    parser.add_argument("--flow", choices=("off", "auto", "all"),
                        default="off",
                        help="fluid-flow crossover: off = exact packet "
                             "path, auto = fluid upstream with packet-"
                             "exact bottleneck/sink, all = fully "
                             "analytic flood")
    parser.add_argument("--faults",
                        help="JSON fault plan to arm against the run "
                             "(see repro.faults.FaultPlan)")


def _config_from_args(args: argparse.Namespace) -> SimulationConfig:
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as handle:
            config = config_from_json(handle.read())
    else:
        config = SimulationConfig(
            n_devs=args.devs,
            seed=args.seed,
            churn=args.churn,
            attack_duration=args.duration,
            binary_mix=args.binary_mix,
            attack_payload_size=args.payload,
            sim_duration=max(600.0, args.duration + 150.0),
            flood_train=args.train,
            flood_flow=args.flow,
        )
    if getattr(args, "faults", None):
        from dataclasses import replace

        from repro.faults import load_fault_plan

        config = replace(config, faults=load_fault_plan(args.faults))
    return config


def _emit_rows(rows, args) -> None:
    print(format_table(rows))
    if getattr(args, "csv", None):
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(rows_to_csv(rows))
        print(f"wrote {args.csv}")
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=2)
        print(f"wrote {args.json}")


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--csv", help="write rows as CSV to this path")
    parser.add_argument("--json", help="write rows as JSON to this path")


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    from repro.cache import DEFAULT_CACHE_DIR

    parser.add_argument("--cache", dest="cache", action="store_true",
                        default=True,
                        help="serve unchanged grid points from the run "
                             "cache (default)")
    parser.add_argument("--no-cache", dest="cache", action="store_false",
                        help="always simulate every grid point")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="run-cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")


def _cache_from_args(args: argparse.Namespace):
    """The sweep's RunCache, or ``None`` under ``--no-cache``."""
    if not getattr(args, "cache", False):
        return None
    from repro.cache import RunCache

    return RunCache(root=args.cache_dir)


def _telemetry_from_args(args: argparse.Namespace, label: str):
    """The sweep's :class:`repro.parallel.SweepTelemetry` — chatty under
    ``--progress``, quiet otherwise.  Always constructed, so a sweep at
    any ``--jobs`` reports a worker death, a failed point, or an
    interruption (^C / SIGTERM) on stderr."""
    from repro.parallel import SweepTelemetry

    return SweepTelemetry(label=label,
                          quiet=not getattr(args, "progress", False))


#: every output-path option of any command, checked before work starts
_OUTPUT_ARGS = ("json", "csv", "out", "flows", "trace_out", "metrics_out")


def _check_writable(*paths: Optional[str]) -> None:
    """Fail before the (possibly long) run, not after, on bad out paths.
    A new path is created and removed again, and an existing file is
    opened in append mode, so a run that fails leaves no empty file
    behind and a file from an earlier run keeps its bytes.  The
    exception is ``run --trace-out``: a failed or interrupted run
    writes it with the events traced so far (see :func:`cmd_run`)."""
    for path in paths:
        if not path:
            continue
        try:
            with open(path, "x", encoding="utf-8"):
                pass
        except FileExistsError:
            with open(path, "a", encoding="utf-8"):
                pass
        else:
            os.remove(path)


def _write_trace(ddosim: DDoSim, path: str) -> None:
    ddosim.obs.write_trace_chrome(path)
    print(f"wrote {path} ({sum(ddosim.obs.tracer.counts().values())} events)")


def cmd_run(args: argparse.Namespace) -> int:
    """Run one simulation with the flag-built (or file-loaded) config."""
    from repro.obs import Observatory

    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    observatory = Observatory.full() if trace_out else None

    ddosim = DDoSim(_config_from_args(args), observatory=observatory)
    try:
        result = ddosim.run()
    except BaseException:
        # The post-mortem of a run that raised or was interrupted (^C,
        # SIGTERM): its trace up to that instant.  The error propagates;
        # main() turns an interrupt into exit code 130.
        if trace_out:
            _write_trace(ddosim, trace_out)
        raise
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(result_to_json(result))
        print(f"wrote {args.json}")
    if trace_out:
        _write_trace(ddosim, trace_out)
    if metrics_out:
        ddosim.obs.write_metrics_json(metrics_out)
        print(f"wrote {metrics_out}")
    print(format_table([result.row()]))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render one instrumented run — or a cached sweep — into a
    self-contained HTML report (plus an optional flow JSONL export)."""
    from repro.obs import (
        Observatory,
        flows_jsonl,
        render_run_report,
        render_sweep_report,
    )

    flows_out = getattr(args, "flows", None)
    if args.figure2:
        from repro.core.experiment import FIGURE2_CHURN, run_figure2

        devs_grid = tuple(args.grid) if args.grid else (10, 50, 100, 150)
        telemetry = _telemetry_from_args(args, "figure2")
        # The single-run flags (--flow, --train, --payload, ...) shape
        # every point; the grid sets n_devs and the sweep sets churn.
        rows = run_figure2(devs_grid=devs_grid, churn_modes=FIGURE2_CHURN,
                           seed=args.seed,
                           base_config=_config_from_args(args),
                           jobs=args.jobs, cache=_cache_from_args(args),
                           telemetry=telemetry)
        html = render_sweep_report(
            rows, title=f"Figure 2 sweep (seed {args.seed})",
            telemetry_summary=(telemetry.last_summary
                               if getattr(args, "progress", False) else None),
        )
        if flows_out:
            print("note: --flows applies to single-run reports only",
                  file=sys.stderr)
    else:
        config = _config_from_args(args)
        ddosim = DDoSim(config, observatory=Observatory.full())
        result = ddosim.run()
        records = ddosim.tserver.sink.flow_records()
        html = render_run_report(
            result, tracer=ddosim.obs.tracer, flow_records=records,
            title=f"DDoSim run (devs={config.n_devs}, seed={config.seed}, "
                  f"churn={config.churn})",
        )
        if flows_out:
            with open(flows_out, "w", encoding="utf-8") as handle:
                handle.write(flows_jsonl(records))
            print(f"wrote {flows_out} ({len(records)} flows)")
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(html)
    print(f"wrote {args.out}")
    return 0


def cmd_figure2(args: argparse.Namespace) -> int:
    """Regenerate the Figure 2 sweep (Devs x churn)."""
    from repro.core.experiment import FIGURE2_CHURN, run_figure2

    devs_grid = tuple(args.grid) if args.grid else (10, 50, 100, 150)
    flow = getattr(args, "flow", "off")
    base = SimulationConfig(flood_flow=flow) if flow != "off" else None
    rows = run_figure2(devs_grid=devs_grid, churn_modes=FIGURE2_CHURN,
                       seed=args.seed, base_config=base, jobs=args.jobs,
                       cache=_cache_from_args(args),
                       telemetry=_telemetry_from_args(args, "figure2"))
    _emit_rows(rows, args)
    return 0


def cmd_figure3(args: argparse.Namespace) -> int:
    """Regenerate the Figure 3 sweep (attack durations)."""
    from repro.core.experiment import run_figure3

    devs_grid = tuple(args.grid) if args.grid else (50, 100)
    base = SimulationConfig(n_devs=1, attack_payload_size=1400,
                            flood_flow=getattr(args, "flow", "off"))
    rows = run_figure3(devs_grid=devs_grid, seed=args.seed, base_config=base,
                       jobs=args.jobs, cache=_cache_from_args(args),
                       telemetry=_telemetry_from_args(args, "figure3"))
    _emit_rows(rows, args)
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    """Regenerate Table I (host resources per run)."""
    from repro.core.experiment import TABLE1_DEVS, run_table1

    devs_grid = tuple(args.grid) if args.grid else TABLE1_DEVS
    rows = run_table1(devs_grid=devs_grid, seed=args.seed, jobs=args.jobs,
                      cache=_cache_from_args(args),
                      telemetry=_telemetry_from_args(args, "table1"))
    _emit_rows(rows, args)
    return 0


def cmd_figure4(args: argparse.Namespace) -> int:
    """Regenerate the Figure 4 validation (hardware vs DDoSim)."""
    from repro.core.experiment import run_figure4

    devs_grid = tuple(args.grid) if args.grid else (1, 4, 7, 10, 13, 16, 19)
    rows = run_figure4(devs_grid=devs_grid, seed=args.seed, jobs=args.jobs,
                       cache=_cache_from_args(args),
                       telemetry=_telemetry_from_args(args, "figure4"))
    _emit_rows(rows, args)
    return 0


def cmd_faultsweep(args: argparse.Namespace) -> int:
    """Sweep a fault plan's intensity (graceful-degradation curves)."""
    from repro.core.experiment import run_fault_sweep
    from repro.faults import load_fault_plan

    plan = load_fault_plan(args.plan)
    grid = tuple(args.grid) if args.grid else None
    kwargs = {"n_devs": args.devs, "seed": args.seed, "jobs": args.jobs,
              "cache": _cache_from_args(args),
              "telemetry": _telemetry_from_args(args, "faultsweep")}
    if grid:
        kwargs["intensity_grid"] = grid
    rows = run_fault_sweep(plan, **kwargs)
    _emit_rows(rows, args)
    return 0


def cmd_recruitment(args: argparse.Namespace) -> int:
    """Regenerate the R1/R2 recruitment matrix."""
    from repro.core.experiment import run_recruitment

    rows = run_recruitment(n_devs=args.devs, seed=args.seed, jobs=args.jobs,
                           cache=_cache_from_args(args),
                           telemetry=_telemetry_from_args(args, "recruitment"))
    _emit_rows(rows, args)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Run-cache maintenance: stats / clear / gc."""
    from repro.cache import RunCache

    cache = RunCache(root=args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        last = stats.pop("last_sweep")
        for key in ("dir", "entries", "bytes", "max_bytes",
                    "hits", "misses", "stores"):
            print(f"{key:<10} {stats[key]}")
        lookups = last["hits"] + last["misses"]
        print(f"last sweep {last['hits']}/{lookups} hits "
              f"({last['hit_rate']:.0%})" if lookups
              else "last sweep (none recorded)")
    elif args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached runs from {cache.root}")
    elif args.action == "gc":
        evicted = cache.gc(max_bytes=args.max_bytes)
        print(f"evicted {evicted} cached runs "
              f"({cache.total_bytes()} bytes retained)")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the determinism linter; exit 1 when violations remain."""
    from repro.simlint import format_json, format_text, lint_paths

    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        violations = lint_paths(args.paths, select=select, ignore=ignore)
    except ValueError as exc:  # unknown --select/--ignore code
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(violations))
    else:
        print(format_text(violations))
    return 1 if violations else 0


def cmd_verify_determinism(args: argparse.Namespace) -> int:
    """Prove the determinism contract; exit 1 on the first divergence."""
    import json as json_module

    from repro.simlint import verify_determinism

    report = verify_determinism(
        devs_grid=tuple(args.grid) if args.grid else (2, 4),
        seed=args.seed,
        jobs=args.jobs,
        flow=args.flow,
    )
    if args.format == "json":
        print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format_text())
    return 0 if report.identical else 1


def cmd_epidemic(args: argparse.Namespace) -> int:
    """Run one propagation experiment and fit the SI model."""
    from repro.analysis.epidemic import fit_si_model, run_propagation_experiment

    result = run_propagation_experiment(
        n_devs=args.devs, seed=args.seed, duration=args.duration,
        probes_per_second=args.scan_rate,
    )
    times, infected = result.as_arrays()
    fit = fit_si_model(times, infected, population=args.devs, i0=1)
    print(f"final infected: {result.final_infected}/{args.devs}")
    print(f"SI fit: beta={fit.beta:.4f}/s rmse={fit.rmse:.2f} r2={fit.r_squared:.3f}")
    rows = [
        {"t": t, "infected": i}
        for t, i in zip(result.times, result.infected)
    ]
    if args.csv or args.json:
        _emit_rows(rows, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DDoSim reproduction (DSN 2023) — botnet DDoS simulation",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="one DDoSim run")
    _add_common_run_args(run_parser)
    run_parser.add_argument("--config", help="JSON config file (overrides flags)")
    run_parser.add_argument("--json", help="write the full RunResult as JSON")
    run_parser.add_argument("--trace-out",
                            help="write a Chrome trace_event file "
                                 "(enables the event tracer)")
    run_parser.add_argument("--metrics-out",
                            help="write a metrics-registry snapshot as JSON")
    run_parser.set_defaults(func=cmd_run)

    report_parser = commands.add_parser(
        "report", help="self-contained HTML report of a run or sweep"
    )
    _add_common_run_args(report_parser)
    report_parser.add_argument("--config",
                               help="JSON config file (overrides flags)")
    report_parser.add_argument("--out", default="report.html",
                               help="HTML output path (default: report.html)")
    report_parser.add_argument("--flows",
                               help="also write TServer-side flow aggregates "
                                    "as NetFlow-style JSONL (single-run mode)")
    report_parser.add_argument("--figure2", action="store_true",
                               help="render the Figure 2 sweep (cached) "
                                    "instead of a single run")
    report_parser.add_argument("--grid", type=int, nargs="+",
                               help="Devs grid for --figure2")
    report_parser.add_argument("--jobs", type=int, default=1,
                               help="worker processes for --figure2")
    report_parser.add_argument("--progress", action="store_true",
                               help="stream sweep progress lines (--figure2)")
    _add_cache_args(report_parser)
    report_parser.set_defaults(func=cmd_report)

    for name, func, help_text in (
        ("figure2", cmd_figure2, "Devs x churn sweep (Figure 2)"),
        ("figure3", cmd_figure3, "attack-duration sweep (Figure 3)"),
        ("table1", cmd_table1, "host-resource table (Table I)"),
        ("figure4", cmd_figure4, "hardware vs DDoSim validation (Figure 4)"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--grid", type=int, nargs="+",
                         help="Devs grid (space separated)")
        sub.add_argument("--jobs", type=int, default=1,
                         help="worker processes for grid points "
                              "(1 = serial)")
        sub.add_argument("--progress", action="store_true",
                         help="stream per-point progress lines (cache "
                              "attribution, ETA, stragglers)")
        _add_cache_args(sub)
        _add_output_args(sub)
        if name in ("figure2", "figure3"):
            sub.add_argument("--flow", choices=("off", "auto", "all"),
                             default="off",
                             help="flood datapath: off = per-packet "
                                  "(bit-identical seed path), auto = "
                                  "fluid with packet crossover at the "
                                  "bottleneck, all = fully analytic")
        sub.set_defaults(func=func)

    faultsweep_parser = commands.add_parser(
        "faultsweep", help="fault-plan intensity sweep (repro.faults)"
    )
    faultsweep_parser.add_argument("--plan", required=True,
                                   help="JSON fault plan file")
    faultsweep_parser.add_argument("--devs", type=int, default=20)
    faultsweep_parser.add_argument("--seed", type=int, default=1)
    faultsweep_parser.add_argument("--grid", type=float, nargs="+",
                                   help="intensity grid (space separated)")
    faultsweep_parser.add_argument("--jobs", type=int, default=1,
                                   help="worker processes for grid points")
    faultsweep_parser.add_argument("--progress", action="store_true",
                                   help="stream per-point progress lines")
    _add_cache_args(faultsweep_parser)
    _add_output_args(faultsweep_parser)
    faultsweep_parser.set_defaults(func=cmd_faultsweep)

    recruitment_parser = commands.add_parser(
        "recruitment", help="infection rate per CVE x protections (R1/R2)"
    )
    recruitment_parser.add_argument("--devs", type=int, default=10)
    recruitment_parser.add_argument("--seed", type=int, default=1)
    recruitment_parser.add_argument("--jobs", type=int, default=1,
                                    help="worker processes for grid points")
    recruitment_parser.add_argument("--progress", action="store_true",
                                    help="stream per-point progress lines")
    _add_cache_args(recruitment_parser)
    _add_output_args(recruitment_parser)
    recruitment_parser.set_defaults(func=cmd_recruitment)

    cache_parser = commands.add_parser(
        "cache", help="run-cache maintenance (stats / clear / gc)"
    )
    cache_actions = cache_parser.add_subparsers(dest="action", required=True)
    from repro.cache import DEFAULT_CACHE_DIR, DEFAULT_MAX_BYTES

    for action, help_text in (
        ("stats", "store size plus lifetime and last-sweep hit rates"),
        ("clear", "remove every cached run"),
        ("gc", "evict least-recently-used runs down to the size cap"),
    ):
        action_parser = cache_actions.add_parser(action, help=help_text)
        action_parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                                   help="run-cache directory")
        if action == "gc":
            action_parser.add_argument("--max-bytes", type=int,
                                       default=DEFAULT_MAX_BYTES,
                                       help="size cap to evict down to")
        action_parser.set_defaults(func=cmd_cache)

    lint_parser = commands.add_parser(
        "lint",
        help="determinism linter (SIM1xx; repro.simlint)",
    )
    lint_parser.add_argument("paths", nargs="*", default=["src/repro"],
                             help="files/directories to lint "
                                  "(default: src/repro)")
    lint_parser.add_argument("--format", choices=("text", "json"),
                             default="text")
    lint_parser.add_argument("--select",
                             help="comma-separated rule codes to run "
                                  "(default: all)")
    lint_parser.add_argument("--ignore",
                             help="comma-separated rule codes to skip")
    lint_parser.set_defaults(func=cmd_lint)

    verify_parser = commands.add_parser(
        "verify-determinism",
        help="double-run + jobs-parity determinism gate (repro.simlint)",
    )
    verify_parser.add_argument("--grid", type=int, nargs="+",
                               help="figure2 Devs grid for the checks "
                                    "(default: 2 4)")
    verify_parser.add_argument("--seed", type=int, default=1)
    verify_parser.add_argument("--jobs", type=int, default=4,
                               help="parallel worker count for the "
                                    "jobs-parity check")
    verify_parser.add_argument("--flow", choices=("off", "auto", "all"),
                               default="off",
                               help="run the gate with the fluid-flow "
                                    "datapath in the checked config")
    verify_parser.add_argument("--format", choices=("text", "json"),
                               default="text")
    verify_parser.set_defaults(func=cmd_verify_determinism)

    epidemic_parser = commands.add_parser(
        "epidemic", help="worm propagation + SI fit (use case V-A2)"
    )
    epidemic_parser.add_argument("--devs", type=int, default=25)
    epidemic_parser.add_argument("--seed", type=int, default=4)
    epidemic_parser.add_argument("--duration", type=float, default=400.0)
    epidemic_parser.add_argument("--scan-rate", type=float, default=2.0)
    _add_output_args(epidemic_parser)
    epidemic_parser.set_defaults(func=cmd_epidemic)

    return parser


def _sigterm_to_interrupt(signum, frame):  # pragma: no cover - signal path
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    import signal as signal_module

    parser = build_parser()
    args = parser.parse_args(argv)
    _check_writable(*(getattr(args, name, None) for name in _OUTPUT_ARGS))
    try:
        # SIGTERM gets the same path as ^C: a KeyboardInterrupt that
        # ends the command with exit code 130.
        signal_module.signal(signal_module.SIGTERM, _sigterm_to_interrupt)
    except (ValueError, OSError):  # not the main thread / no signals
        pass
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
