"""File walking, rule dispatch and reporting for ``repro lint``."""

from __future__ import annotations

import ast
import os
from pathlib import Path, PurePosixPath
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding, Suppressions, parse_suppressions
from repro.lint.rules import BASE_RULES, Rule
from repro.lint.rules_flow import FLOW_RULES

#: The full registry, in rule-code order.
ALL_RULES: Tuple[Rule, ...] = BASE_RULES + FLOW_RULES


def iter_python_files(paths: Sequence[str]) -> Iterable[Path]:
    """Every ``.py`` file under ``paths`` (files are taken verbatim)."""
    seen: Set[str] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            candidates: Iterable[Path] = [path]
        else:
            candidates = sorted(path.rglob("*.py"))
        for candidate in candidates:
            key = os.path.abspath(candidate)
            if key not in seen:
                seen.add(key)
                yield candidate


def lint_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
    virtual_path: Optional[str] = None,
) -> List[Finding]:
    """Lint one source string.

    ``virtual_path`` overrides the path used for rule *scoping* (handy for
    fixture files exercising rules outside their real package layout);
    findings still report ``path``.
    """
    scope = PurePosixPath((virtual_path or path).replace(os.sep, "/"))
    selected = tuple(rules or ALL_RULES)
    active = [rule for rule in selected if rule.applies_to(scope)]
    if not active:
        return []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                code="RL000",
                message=f"syntax error: {exc.msg}",
            )
        ]
    suppressions = parse_suppressions(source)
    findings: List[Finding] = []
    for pragma in suppressions.pragmas:
        if pragma.justified:
            continue
        findings.append(
            Finding(
                path=path,
                line=pragma.line,
                col=1,
                code="RL005",
                message="suppression pragma lacks a '--' justification",
                hint="append ' -- <why>' after the disabled code(s)",
            )
        )
    used: Set[Tuple[int, str]] = set()
    for rule in active:
        for finding in rule.check(tree, source, path, scope_path=str(scope)):
            hits = suppressions.match(finding)
            if hits:
                used.update(hits)
            else:
                findings.append(finding)
    findings.extend(
        _stale_pragma_findings(
            suppressions, used, frozenset(r.code for r in selected), path
        )
    )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def _stale_pragma_findings(
    suppressions: Suppressions,
    used: Set[Tuple[int, str]],
    selected_codes: FrozenSet[str],
    path: str,
) -> List[Finding]:
    """RL005 findings for pragma entries that suppressed nothing.

    An entry is only judged when the run could have produced its
    findings: a plain code must be among the selected rules, ``ALL``
    requires the full rule set.  ``RL005`` entries are never judged —
    RL005 findings are engine-emitted and not suppressible.
    """
    all_codes = {rule.code for rule in ALL_RULES}
    findings: List[Finding] = []
    for index, pragma in enumerate(suppressions.pragmas):
        for code in pragma.codes:
            if (index, code) in used or code == "RL005":
                continue
            if code == "ALL":
                if not all_codes <= selected_codes:
                    continue
                message = "stale suppression: this pragma suppresses nothing"
            else:
                if code not in selected_codes:
                    continue
                message = f"stale suppression: {code} is not triggered here"
            findings.append(
                Finding(
                    path=path,
                    line=pragma.line,
                    col=1,
                    code="RL005",
                    message=message,
                    hint="remove the pragma (or the unused code from it)",
                )
            )
    return findings


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint every Python file under ``paths``; findings in path order."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(
                Finding(
                    path=str(path),
                    line=1,
                    col=1,
                    code="RL000",
                    message=f"unreadable file: {exc}",
                )
            )
            continue
        findings.extend(lint_source(source, str(path), rules=rules))
    return findings


def format_report(findings: Sequence[Finding]) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.format() for finding in findings]
    if findings:
        by_code: Dict[str, int] = {}
        for finding in findings:
            by_code[finding.code] = by_code.get(finding.code, 0) + 1
        summary = ", ".join(
            f"{code}: {count}" for code, count in sorted(by_code.items())
        )
        lines.append(f"reprolint: {len(findings)} finding(s) ({summary})")
    else:
        lines.append("reprolint: clean")
    return "\n".join(lines)
