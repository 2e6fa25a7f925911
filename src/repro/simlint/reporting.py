"""Reporters: render lint violations as text or machine-readable JSON.

The JSON document is a stable schema (``schema_version`` guards it) so
CI annotations and editor integrations can parse findings without
scraping text output; :func:`violations_from_json` is its exact inverse
(round-trip asserted by ``tests/test_simlint.py``).

The same document doubles as a **baseline**: ``repro lint
--write-baseline findings.json`` snapshots the current findings, and a
later ``--baseline findings.json`` subtracts them so only *new*
violations fail the gate.  Baselined findings match on ``(path, code,
message)`` — line numbers drift with unrelated edits; the message
(which names the symbol) does not.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.simlint.rules import REGISTRY, Violation

#: bump when the JSON document shape changes.
#: 3: rule entries dropped ``scope`` (every rule is per-file);
#: older documents no longer load.
SCHEMA_VERSION = 3


def format_text(violations: List[Violation]) -> str:
    """``path:line:col: CODE message`` per finding, plus a tally."""
    lines = [
        f"{violation.path}:{violation.line}:{violation.col}: "
        f"{violation.code} {violation.message}"
        for violation in violations
    ]
    tally = _tally(violations)
    if violations:
        summary = ", ".join(f"{code}={count}" for code, count in sorted(tally.items()))
        lines.append(f"{len(violations)} violation(s) ({summary})")
    else:
        lines.append("clean: no determinism violations")
    return "\n".join(lines)


def _tally(violations: List[Violation]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for violation in violations:
        counts[violation.code] = counts.get(violation.code, 0) + 1
    return counts


def to_json_document(violations: List[Violation]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "repro.simlint",
        "rules": {
            code: {"name": rule.name, "summary": rule.summary}
            for code, rule in sorted(REGISTRY.items())
        },
        "counts": _tally(violations),
        "violations": [violation.to_dict() for violation in violations],
    }


def format_json(violations: List[Violation], indent: int = 2) -> str:
    return json.dumps(to_json_document(violations), indent=indent, sort_keys=True)


def violations_from_json(text: str) -> List[Violation]:
    """Inverse of :func:`format_json` (violations only)."""
    document = json.loads(text)
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported simlint schema_version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return [Violation.from_dict(item) for item in document["violations"]]


# ----------------------------------------------------------------------
# Baselines: land a new rule strict without a big-bang cleanup
# ----------------------------------------------------------------------
def write_baseline(violations: List[Violation], path: str) -> None:
    """Snapshot ``violations`` as a baseline file (the JSON document)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_json(violations))
        handle.write("\n")


def load_baseline(path: str) -> List[Violation]:
    """Read a baseline file back; raises on schema mismatch."""
    with open(path, encoding="utf-8") as handle:
        return violations_from_json(handle.read())


def apply_baseline(
    violations: List[Violation], baseline: List[Violation]
) -> List[Violation]:
    """Subtract baselined findings; only new violations remain.

    Matching is a multiset over ``(path, code, message)``: two identical
    pre-existing findings need two baseline entries, so fixing one and
    introducing another elsewhere in the same file still fails.
    """
    budget: Dict[tuple, int] = {}
    for item in baseline:
        key = (item.path, item.code, item.message)
        budget[key] = budget.get(key, 0) + 1
    kept: List[Violation] = []
    for violation in violations:
        key = (violation.path, violation.code, violation.message)
        if budget.get(key, 0) > 0:
            budget[key] -= 1
        else:
            kept.append(violation)
    return kept
