"""Finding records and ``# reprolint: disable=`` pragma handling.

A finding pins a rule violation to a file position.  Findings can be
suppressed at the line level with a trailing pragma (``RL0xx`` stands
for a real rule code; the placeholder keeps these examples from parsing
as live pragmas of *this* file)::

    t0 = time.time()  # reprolint: disable=RL0xx -- reporting-only timer

The text after ``--`` is the justification; a pragma carrying no
justification is itself reported (RL005), so suppressions stay
reviewable.  The engine also tracks which pragmas actually matched a
finding: a pragma that suppresses nothing is reported as *stale*
(RL005), so fixed code sheds its pragmas instead of fossilizing them.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Tuple

#: Matches one pragma occurrence anywhere in a physical line.
_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*disable\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<why>.*))?$"
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source position."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str = ""

    def format(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if self.hint:
            text += f"  [fix: {self.hint}]"
        return text


@dataclasses.dataclass(frozen=True)
class Pragma:
    """One parsed suppression pragma."""

    #: Physical line the pragma text sits on.
    line: int
    codes: Tuple[str, ...]
    justified: bool


@dataclasses.dataclass(frozen=True)
class Suppressions:
    """Parsed pragmas of one file."""

    #: Every pragma, in source order (indices identify them in ``match``).
    pragmas: Tuple[Pragma, ...]
    #: Line -> indices into ``pragmas`` covering that line.
    by_line: Dict[int, Tuple[int, ...]]

    def match(self, finding: Finding) -> List[Tuple[int, str]]:
        """``(pragma_index, code)`` pairs that suppress ``finding``.

        ``code`` is the entry as written in the pragma (a rule code or
        ``ALL``), so the engine can mark exactly which entries earned
        their keep when hunting stale suppressions.
        """
        hits: List[Tuple[int, str]] = []
        for index in self.by_line.get(finding.line, ()):
            pragma = self.pragmas[index]
            if finding.code in pragma.codes:
                hits.append((index, finding.code))
            elif "ALL" in pragma.codes:
                hits.append((index, "ALL"))
        return hits


def parse_suppressions(source: str) -> Suppressions:
    """Extract every ``reprolint`` pragma from ``source``.

    Pragmas apply to their own physical line; a pragma on a comment-only
    line also covers the next line, so a finding on a long statement can
    carry its justification above it.
    """
    pragmas: List[Pragma] = []
    by_line: Dict[int, List[int]] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(raw)
        if match is None:
            continue
        codes = frozenset(
            code.strip().upper()
            for code in match.group("codes").split(",")
            if code.strip()
        )
        if not codes:
            continue
        index = len(pragmas)
        pragmas.append(
            Pragma(
                line=lineno,
                codes=tuple(sorted(codes)),
                justified=bool((match.group("why") or "").strip()),
            )
        )
        by_line.setdefault(lineno, []).append(index)
        if raw.lstrip().startswith("#"):
            by_line.setdefault(lineno + 1, []).append(index)
    return Suppressions(
        pragmas=tuple(pragmas),
        by_line={line: tuple(indices) for line, indices in by_line.items()},
    )
