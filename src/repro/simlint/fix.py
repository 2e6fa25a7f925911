"""Autofixer: mechanical rewrites for the fixable rule subset.

``repro lint --fix`` applies these; everything else stays report-only.
Two rules have safe, purely mechanical fixes:

* **SIM104** (mutable default argument) — replace the default with
  ``None`` and rebuild inside the body::

      def f(items=[]):            def f(items=None):
          ...              -->        if items is None:
                                          items = []
                                      ...

  The rebuild lands after the docstring, so help text stays first.
  Defaults whose expression spans lines are left alone (report-only).

* **SIM108** (unused import) — drop the unused alias; the statement
  disappears entirely when nothing on it is used.  A ``from`` import
  that spans lines keeps the parenthesized one-name-per-line layout,
  and the comments inside it: a comment ending a name's line stays with
  that name, a comment on a line of its own stays above the next name
  that is kept.

Fixes are span edits applied bottom-up, so earlier edits never shift
later ones.  The result must re-parse — if a rewrite would produce a
syntax error the original source is returned untouched.  Running the
fixer twice is a no-op by construction: fixed code no longer matches
either rule (asserted by the round-trip tests).
"""

from __future__ import annotations

import ast
import io
import tokenize
from typing import Dict, List, Optional, Sequence, Tuple

from repro.simlint.checks import (
    _is_mutable_default,
    _names_used,
    _type_checking_nodes,
)
from repro.simlint.rules import parse_suppressions

#: the codes --fix knows how to rewrite
FIXABLE_CODES = ("SIM104", "SIM108")

#: one span edit: (start_line, start_col, end_line, end_col, replacement)
#: — lines 1-based (ast convention), cols 0-based, end exclusive
_Edit = Tuple[int, int, int, int, str]


def _apply_edits(source: str, edits: List[_Edit]) -> str:
    """Apply span edits bottom-up; overlapping edits are a bug upstream."""
    lines = source.splitlines(keepends=True)
    for start_line, start_col, end_line, end_col, text in sorted(
        edits, key=lambda edit: (edit[0], edit[1]), reverse=True
    ):
        head = lines[start_line - 1][:start_col]
        tail = lines[end_line - 1][end_col:]
        lines[start_line - 1:end_line] = [head + text + tail]
    return "".join(lines)


def _indent_of(line: str) -> str:
    return line[:len(line) - len(line.lstrip())]


# ----------------------------------------------------------------------
# SIM104: default to None, rebuild inside
# ----------------------------------------------------------------------
def _mutable_defaults(
    node: ast.AST,
) -> List[Tuple[ast.arg, ast.expr]]:
    """(param, default) pairs with a mutable default, in signature order."""
    args = node.args
    pairs: List[Tuple[ast.arg, ast.expr]] = []
    positional = args.posonlyargs + args.args
    for arg, default in zip(positional[len(positional) - len(args.defaults):],
                            args.defaults):
        pairs.append((arg, default))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            pairs.append((arg, default))
    return [(arg, default) for arg, default in pairs
            if _is_mutable_default(default)]


def _fix_mutable_defaults(
    source: str, tree: ast.AST, suppressions
) -> Tuple[List[_Edit], int]:
    lines = source.splitlines(keepends=True)
    edits: List[_Edit] = []
    fixed = 0
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # a Lambda has no body to rebuild in
        rebuilds: List[str] = []
        for arg, default in _mutable_defaults(node):
            if suppressions.suppressed(default.lineno, "SIM104"):
                continue
            if default.lineno != default.end_lineno:
                continue  # multi-line default: report-only
            default_text = ast.get_source_segment(source, default)
            if default_text is None:  # pragma: no cover - 3.8 fallback
                continue
            edits.append((default.lineno, default.col_offset,
                          default.end_lineno, default.end_col_offset, "None"))
            rebuilds.append((arg.arg, default_text))
            fixed += 1
        if not rebuilds:
            continue
        body = node.body
        anchor = body[0]
        if (isinstance(anchor, ast.Expr)
                and isinstance(anchor.value, ast.Constant)
                and isinstance(anchor.value.value, str)
                and len(body) > 1):
            anchor = body[1]  # keep the docstring first
        indent = _indent_of(lines[anchor.lineno - 1])
        text = "".join(
            f"{indent}if {name} is None:\n"
            f"{indent}    {name} = {default_text}\n"
            for name, default_text in rebuilds
        )
        edits.append((anchor.lineno, 0, anchor.lineno, 0, text))
    return edits, fixed


# ----------------------------------------------------------------------
# SIM108: drop unused aliases
# ----------------------------------------------------------------------
def _alias_text(alias: ast.alias) -> str:
    if alias.asname:
        return f"{alias.name} as {alias.asname}"
    return alias.name


def _import_comments(segment: str):
    """Comments inside one multi-line import statement, by the position
    of the alias they belong to: ``(head, leading, trailing, tail)`` —
    the comment after the opening parenthesis, own-line comments above
    each alias, the comment ending each alias's line, and own-line
    comments after the last alias."""
    head = None
    leading: Dict[int, List[str]] = {}
    trailing: Dict[int, str] = {}
    pending: List[str] = []
    position = -1
    expect_name = False
    alias_row = 0
    for token in tokenize.generate_tokens(io.StringIO(segment).readline):
        kind, text, row = token.type, token.string, token.start[0]
        if kind == tokenize.NAME and text == "import":
            expect_name = True
        elif kind == tokenize.OP and text in ("(", ","):
            expect_name = True
        elif kind == tokenize.NAME and expect_name:
            position += 1
            expect_name = False
            alias_row = row
            if pending:
                leading[position], pending = pending, []
        elif kind == tokenize.COMMENT:
            if position >= 0 and row == alias_row:
                trailing[position] = text
            elif position < 0 and row == 1:
                head = text
            else:
                pending.append(text)
    return head, leading, trailing, pending


def _parenthesized(prefix: str, indent: str, node: ast.ImportFrom,
                   keep: List[ast.alias], segment: str) -> str:
    """``prefix(`` + one kept name per line + ``)``, comments carried."""
    head, leading, trailing, tail = _import_comments(segment)
    lines = [prefix + "(" + (f"  {head}" if head else "")]
    carried: List[str] = []
    for position, alias in enumerate(node.names):
        carried.extend(leading.get(position, ()))
        if alias not in keep:
            continue
        lines.extend(f"{indent}    {comment}" for comment in carried)
        carried = []
        line = f"{indent}    {_alias_text(alias)},"
        if position in trailing:
            line += f"  {trailing[position]}"
        lines.append(line)
    lines.extend(f"{indent}    {comment}" for comment in carried + tail)
    lines.append(f"{indent})")
    return "\n".join(lines)


def _fix_unused_imports(
    source: str, tree: ast.AST, suppressions
) -> Tuple[List[_Edit], int]:
    lines = source.splitlines(keepends=True)
    used = _names_used(tree)
    guarded = _type_checking_nodes(tree)
    edits: List[_Edit] = []
    fixed = 0
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and suppressions.suppressed(node.lineno, "SIM108"):
            continue
        if isinstance(node, ast.Import):
            keep = [alias for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) in used]
            prefix = "import "
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            keep = [alias for alias in node.names
                    if alias.name == "*"
                    or alias.asname == alias.name  # re-export idiom
                    or (alias.asname or alias.name) in used]
            dots = "." * node.level
            prefix = f"from {dots}{node.module or ''} import "
        else:
            continue
        if len(keep) == len(node.names):
            continue
        fixed += len(node.names) - len(keep)
        if keep:
            if isinstance(node, ast.ImportFrom) \
                    and node.end_lineno > node.lineno:
                text = _parenthesized(
                    prefix, _indent_of(lines[node.lineno - 1]), node, keep,
                    ast.get_source_segment(source, node),
                )
            else:
                text = prefix + ", ".join(_alias_text(a) for a in keep)
            # Replace the statement only: whatever follows it on its
            # last line (a comment, ``; more``) stays.
            edits.append((node.lineno, node.col_offset, node.end_lineno,
                          node.end_col_offset, text))
        else:
            # delete the whole statement, trailing newline included
            edits.append((node.lineno, 0, node.end_lineno,
                          len(lines[node.end_lineno - 1]), ""))
    return edits, fixed


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def fix_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
) -> Tuple[str, int]:
    """Apply every enabled fix to one module; returns ``(new_source,
    n_fixes)``.  Unparsable or fix-breaking input comes back unchanged."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return source, 0
    enabled = set(select) if select is not None else set(FIXABLE_CODES)
    suppressions = parse_suppressions(source)
    edits: List[_Edit] = []
    fixed = 0
    if "SIM104" in enabled:
        default_edits, n = _fix_mutable_defaults(source, tree, suppressions)
        edits.extend(default_edits)
        fixed += n
    if "SIM108" in enabled:
        import os

        if os.path.basename(path) != "__init__.py":
            import_edits, n = _fix_unused_imports(source, tree, suppressions)
            edits.extend(import_edits)
            fixed += n
    if not fixed:
        return source, 0
    new_source = _apply_edits(source, edits)
    try:
        ast.parse(new_source, filename=path)
    except SyntaxError:  # pragma: no cover - defensive
        return source, 0
    return new_source, fixed


def fix_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
) -> Tuple[int, List[str]]:
    """Fix every ``.py`` file under ``paths`` in place; returns
    ``(n_fixes, changed_files)``."""
    from repro.simlint.engine import iter_python_files

    total = 0
    changed: List[str] = []
    for filename in iter_python_files(paths):
        with open(filename, encoding="utf-8") as handle:
            source = handle.read()
        new_source, fixed = fix_source(source, path=filename, select=select)
        if fixed:
            with open(filename, "w", encoding="utf-8") as handle:
                handle.write(new_source)
            total += fixed
            changed.append(filename)
    return total, changed
