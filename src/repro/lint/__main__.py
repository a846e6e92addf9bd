"""CLI for reprolint: ``python -m repro.lint [paths...]``.

Exit codes: 0 = clean, 1 = findings, 2 = linter crash (or usage error).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.lint.engine import ALL_RULES, format_report, lint_paths


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description=(
            "Domain-aware static analysis: determinism (RL001), unit "
            "discipline (RL002), float safety (RL003), cache purity "
            "(RL004), suppression hygiene (RL005), exception "
            "transactionality (RL006), asyncio atomicity (RL007), "
            "dimension inference (RL008).  Exit codes: 0 clean, "
            "1 findings, 2 linter crash or usage error."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.name}: {rule.description}")
            print(f"       fix: {rule.autofix_hint}")
        return 0

    try:
        findings = lint_paths(args.paths)
        print(format_report(findings))
    except Exception as exc:  # a linter bug must not masquerade as "clean"
        print(
            f"reprolint: internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
