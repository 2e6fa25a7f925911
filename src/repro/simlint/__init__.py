"""repro.simlint: the determinism contract, enforced.

Static half — an AST linter with stable ``SIM1xx`` rules over the
habits that break (config, seed) -> bytes reproducibility (wall-clock
reads, module-global RNG draws, set iteration into ordered sinks,
mutable defaults, float time equality, ``id()`` sort keys, scheduled
closures capturing loop variables, unused imports).

Dynamic half — a double-run harness that executes a config twice and
across ``--jobs`` and localizes the first diverging ``repro.obs`` trace
event or per-subsystem end-state fingerprint.  A schedule reordering
that changes an output fails it, as it fails the golden-output gate.

CLI: ``repro lint`` and ``repro verify-determinism`` (both CI gates).
"""

from repro.simlint.checks import run_checks  # registers every rule
from repro.simlint.engine import in_clock_allowlist, lint_paths, lint_source
from repro.simlint.reporting import (
    SCHEMA_VERSION,
    format_json,
    format_text,
    to_json_document,
)
from repro.simlint.rules import (
    REGISTRY,
    Rule,
    Violation,
    all_codes,
    filter_codes,
    parse_suppressions,
)
from repro.simlint.verify import (
    CheckResult,
    DeterminismReport,
    Divergence,
    canonical_trace_lines,
    capture_fingerprint,
    first_divergence,
    traced_run,
    verify_determinism,
    verify_double_run,
    verify_jobs,
)

__all__ = [
    "REGISTRY",
    "Rule",
    "Violation",
    "all_codes",
    "filter_codes",
    "parse_suppressions",
    "in_clock_allowlist",
    "lint_paths",
    "lint_source",
    "run_checks",
    "SCHEMA_VERSION",
    "format_json",
    "format_text",
    "to_json_document",
    "CheckResult",
    "DeterminismReport",
    "Divergence",
    "canonical_trace_lines",
    "capture_fingerprint",
    "first_divergence",
    "traced_run",
    "verify_determinism",
    "verify_double_run",
    "verify_jobs",
]
