"""repro.simlint: the determinism contract, enforced.

Static half — an AST linter with stable ``SIM1xx`` rules over the
habits that break (config, seed) -> bytes reproducibility (wall-clock
reads, module-global RNG draws, set iteration into ordered sinks,
mutable defaults, float time equality, ``id()`` sort keys, scheduled
closures capturing loop variables, unused imports).  ``repro lint
--fix`` applies the mechanical rewrites (:mod:`repro.simlint.fix`);
``--diff`` and ``--baseline`` keep the gate incremental.

Dynamic half — a double-run harness that executes a config twice and
across ``--jobs`` and localizes the first diverging ``repro.obs`` trace
event or per-subsystem end-state fingerprint.  A schedule reordering
that changes an output fails it, as it fails the golden-output gate.

CLI: ``repro lint`` and ``repro verify-determinism`` (both CI gates).
"""

from repro.simlint.checks import run_checks  # registers every rule
from repro.simlint.engine import (
    changed_python_files,
    in_clock_allowlist,
    lint_paths,
    lint_source,
)
from repro.simlint.fix import FIXABLE_CODES, fix_paths, fix_source
from repro.simlint.reporting import (
    SCHEMA_VERSION,
    apply_baseline,
    format_json,
    format_text,
    load_baseline,
    to_json_document,
    violations_from_json,
    write_baseline,
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
    "changed_python_files",
    "in_clock_allowlist",
    "lint_paths",
    "lint_source",
    "run_checks",
    "FIXABLE_CODES",
    "fix_paths",
    "fix_source",
    "SCHEMA_VERSION",
    "apply_baseline",
    "format_json",
    "format_text",
    "load_baseline",
    "to_json_document",
    "violations_from_json",
    "write_baseline",
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
