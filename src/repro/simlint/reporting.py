"""Reporters: render lint violations as text or machine-readable JSON.

The JSON document (``repro lint --format json``) is a stable schema
(``schema_version`` guards it) so CI annotations and editor
integrations can parse findings without scraping text output.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.simlint.rules import REGISTRY, Violation

#: bump when the JSON document shape changes.
#: 3: rule entries dropped ``scope`` (every rule is per-file).
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
