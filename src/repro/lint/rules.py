"""The reprolint rule classes (RL001-RL004).

Each rule is an :class:`ast`-based check scoped to the packages where its
invariant matters.  Rules are deliberately *domain-aware*: they encode the
conventions this codebase relies on for reproducibility (seeded random
streams), unit discipline (SI base units everywhere, conversions only
through :mod:`repro.units`), float safety (tolerance helpers instead of
``==``), and cache purity (values handed out by the delay-engine caches are
shared and must never be mutated).
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding


class Rule:
    """Base class: one rule code, its scope, and its AST check."""

    code: str = "RL000"
    name: str = "base"
    description: str = ""
    autofix_hint: str = ""

    def applies_to(self, path: PurePosixPath) -> bool:
        raise NotImplementedError

    def check(
        self,
        tree: ast.Module,
        source: str,
        path: str,
        scope_path: Optional[str] = None,
    ) -> List[Finding]:
        """Findings for one module.

        ``path`` is the display path used in findings; ``scope_path`` is
        the path the rule was scoped against (differs when a fixture is
        linted under a virtual path).  Rules that branch on *where* the
        module lives must consult ``scope_path or path``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------

    def finding(
        self, path: str, node: ast.AST, message: str, hint: Optional[str] = None
    ) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
            hint=self.autofix_hint if hint is None else hint,
        )


def _module_relpath(path: PurePosixPath) -> Optional[PurePosixPath]:
    """The subpath starting at the ``repro`` package, if any."""
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return PurePosixPath(*parts[i:])
    return None


def _in_packages(path: PurePosixPath, packages: Sequence[str]) -> bool:
    rel = _module_relpath(path)
    if rel is None:
        return False
    parts = rel.parts
    return len(parts) >= 2 and parts[1] in packages


#: The one units table of RL002 and RL008: the unit of each repro.units
#: constant (``8 * MS`` is a magnitude times a named unit) and of each
#: repro.units helper's return value.  ``1`` is dimensionless.
UNITS: Dict[str, str] = {
    "KBIT": "bits",
    "MBIT": "bits",
    "GBIT": "bits",
    "BYTE": "bits",
    "KBYTE": "bits",
    "CELL_BITS": "bits",
    "CELL_PAYLOAD_BITS": "bits",
    "CELL_BYTES": "bytes",
    "CELL_PAYLOAD_BYTES": "bytes",
    "FDDI_MAX_FRAME_BYTES": "bytes",
    "MS": "s",
    "US": "s",
    "NS": "s",
    "MS_PER_S": "1",
    "US_PER_S": "1",
    "mbps": "bits/s",
    "kbps": "bits/s",
    "milliseconds": "s",
    "microseconds": "s",
    "bytes_to_bits": "bits",
    "bits_to_bytes": "bytes",
    "seconds_to_ms": "ms",
}

#: Whole variable names with a conventional unit in this codebase.
NAME_UNITS: Dict[str, str] = {
    "ttrt": "s",
    "deadline": "s",
    "latency": "s",
    "timeout": "s",
    "propagation_delay": "s",
    "bandwidth": "bits/s",
    "rate": "bits/s",
}

#: Variable-name suffixes and the unit each promises.
SUFFIX_UNITS: Dict[str, str] = {
    "_s": "s",
    "_sec": "s",
    "_secs": "s",
    "_seconds": "s",
    "_delay": "s",
    "_deadline": "s",
    "_ms": "ms",
    "_us": "us",
    "_ns": "ns",
    "_bits": "bits",
    "_bytes": "bytes",
    "_bps": "bits/s",
}


def unit_of_name(name: str) -> Optional[str]:
    """The unit a variable name promises: a whole-name convention, else
    its longest unit suffix, else None."""
    lowered = name.lower()
    if lowered in NAME_UNITS:
        return NAME_UNITS[lowered]
    suffixes = [suffix for suffix in SUFFIX_UNITS if lowered.endswith(suffix)]
    if not suffixes:
        return None
    return SUFFIX_UNITS[max(suffixes, key=len)]


class _ImportMap(ast.NodeVisitor):
    """Alias resolution for the modules the determinism rule cares about."""

    TRACKED = ("time", "datetime", "random", "numpy", "numpy.random")

    def __init__(self) -> None:
        #: local name -> canonical dotted module it is bound to
        self.aliases: Dict[str, str] = {}
        #: local name -> "module.attr" for from-imports of tracked members
        self.members: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in self.TRACKED:
                self.aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in self.TRACKED:
            for alias in node.names:
                local = alias.asname or alias.name
                self.members[local] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    def resolve_attribute(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of an attribute chain, if its root is a
        tracked module alias (``np.random.default_rng`` ->
        ``numpy.random.default_rng``)."""
        chain: List[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            chain.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        root = self.aliases.get(cur.id)
        if root is None:
            member = self.members.get(cur.id)
            if member is not None and chain:
                return member + "." + ".".join(reversed(chain))
            return None
        if not chain:
            return root
        return root + "." + ".".join(reversed(chain))


class DeterminismRule(Rule):
    """RL001 — no wall-clock or module-level RNG state outside the service.

    Every stochastic choice must route through
    :class:`repro.sim.random.RandomStreams` (or an injected
    ``random.Random``), so a master seed fully determines a run.
    """

    code = "RL001"
    name = "determinism"
    description = (
        "forbid time.time/datetime.now and module-level random/np.random "
        "state outside repro.service and repro.lint"
    )
    autofix_hint = (
        "route randomness through repro.sim.random.RandomStreams or an "
        "injected random.Random; use time.perf_counter() only for "
        "reporting-only timers"
    )

    #: Packages that read the clock on purpose: the standing service
    #: (deadlines, latency metrics) and the linter itself.
    EXEMPT_PACKAGES = ("service", "lint")
    #: time.* attributes that read the wall clock.
    FORBIDDEN_TIME = frozenset(
        {"time", "time_ns", "monotonic", "monotonic_ns", "localtime", "gmtime"}
    )
    #: perf_counter is allowed for reporting-only timing.
    ALLOWED_TIME = frozenset({"perf_counter", "perf_counter_ns", "sleep"})
    FORBIDDEN_DATETIME = frozenset({"now", "utcnow", "today"})
    #: the only sanctioned attributes of the stdlib ``random`` module: class
    #: constructors for *instance* RNGs (which callers must seed/inject).
    ALLOWED_RANDOM = frozenset({"Random"})
    #: numpy.random attributes usable without touching global state (pure
    #: types, not generators of randomness by themselves).
    ALLOWED_NP_RANDOM = frozenset({"Generator", "SeedSequence", "BitGenerator"})

    def applies_to(self, path: PurePosixPath) -> bool:
        rel = _module_relpath(path)
        if rel is None or str(rel) == "repro/sim/random.py":
            return False
        return not _in_packages(path, self.EXEMPT_PACKAGES)

    def check(
        self,
        tree: ast.Module,
        source: str,
        path: str,
        scope_path: Optional[str] = None,
    ) -> List[Finding]:
        imports = _ImportMap()
        imports.visit(tree)
        findings: List[Finding] = []

        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                findings.extend(self._check_from_import(node, path))
            elif isinstance(node, ast.Attribute):
                dotted = imports.resolve_attribute(node)
                if dotted is not None:
                    bad = self._forbidden(dotted)
                    if bad is not None:
                        findings.append(self.finding(path, node, bad))
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name
            ):
                member = imports.members.get(node.func.id)
                if member is not None:
                    bad = self._forbidden(member)
                    if bad is not None:
                        findings.append(self.finding(path, node, bad))
        return findings

    def _check_from_import(
        self, node: ast.ImportFrom, path: str
    ) -> Iterable[Finding]:
        if node.module not in ("time", "datetime", "random", "numpy.random"):
            return []
        out = []
        for alias in node.names:
            bad = self._forbidden(f"{node.module}.{alias.name}")
            if bad is not None:
                out.append(
                    self.finding(path, node, f"import of {bad.split()[0]}")
                )
        return out

    def _forbidden(self, dotted: str) -> Optional[str]:
        """A message when ``dotted`` names a forbidden callable, else None."""
        parts = dotted.split(".")
        if parts[0] == "time" and len(parts) == 2:
            if parts[1] in self.FORBIDDEN_TIME:
                return (
                    f"{dotted}() reads the wall clock; simulation code must "
                    "be reproducible from its seed"
                )
        elif parts[0] == "datetime":
            if parts[-1] in self.FORBIDDEN_DATETIME and len(parts) >= 2:
                return (
                    f"{dotted}() reads the wall clock; simulation code must "
                    "be reproducible from its seed"
                )
        elif parts[0] == "random" and len(parts) == 2:
            if parts[1] not in self.ALLOWED_RANDOM:
                return (
                    f"{dotted} uses the process-global RNG (hidden shared "
                    "state); draw from RandomStreams or an injected "
                    "random.Random"
                )
        elif parts[:2] == ["numpy", "random"] and len(parts) == 3:
            if parts[2] not in self.ALLOWED_NP_RANDOM:
                return (
                    f"{dotted} creates numpy RNG state outside the seed "
                    "plumbing; accept an injected generator instead"
                )
        return None


class UnitDisciplineRule(Rule):
    """RL002 — unit conversions only through :mod:`repro.units`.

    Two checks: (a) *magic conversion literals* — numeric literals whose
    value smells like a unit conversion factor (``8`` bits/byte, ``53``/
    ``48``/``424`` ATM cell geometry, powers of ten between seconds and
    ms/us or bits and Mbits) used as a multiplication/division operand;
    (b) *suffix mismatches* — a variable named ``*_ms`` assigned from a
    helper that returns seconds, ``*_bits`` from one returning bytes, etc.
    Both checks read the shared :data:`UNITS` table.
    """

    code = "RL002"
    name = "unit-discipline"
    description = (
        "flag magic unit-conversion literals outside repro.units and "
        "dimension/suffix mismatches against the units helpers"
    )
    autofix_hint = (
        "use the named constants/helpers in repro.units "
        "(CELL_BYTES, CELL_BITS, MBIT, MS_PER_S, bytes_to_bits, ...)"
    )

    #: Literal values that smell like inline unit conversions.
    SMELL_LITERALS = frozenset(
        {8, 53, 48, 424, 1000, 1_000_000, 1e3, 1e6, 1e9, 1e-3, 1e-6}
    )
    #: Files allowed to spell conversions inline: the unit table itself.
    EXEMPT = frozenset({"repro/units.py"})

    def applies_to(self, path: PurePosixPath) -> bool:
        rel = _module_relpath(path)
        if rel is None:
            return False
        if str(rel) in self.EXEMPT or rel.parts[:2] == ("repro", "lint"):
            return False
        return True

    def check(
        self,
        tree: ast.Module,
        source: str,
        path: str,
        scope_path: Optional[str] = None,
    ) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Mult, ast.Div)
            ):
                for operand, other in (
                    (node.left, node.right),
                    (node.right, node.left),
                ):
                    if self._is_smell_literal(operand) and not (
                        self._scales_units_constant(operand, other)
                    ):
                        value = operand.value  # type: ignore[attr-defined]
                        findings.append(
                            self.finding(
                                path,
                                operand,
                                f"magic conversion literal {value!r} in "
                                "arithmetic; name it in repro.units",
                            )
                        )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                findings.extend(self._check_suffix(node, path))
        return findings

    def _scales_units_constant(self, literal: ast.AST, other: ast.AST) -> bool:
        """A magnitude times a named unit (``8 * MS``) — except ``8`` next
        to a byte count, which is the bits-per-byte conversion spelled
        inline (``FDDI_MAX_FRAME_BYTES * 8``)."""
        if isinstance(other, ast.Name):
            unit = UNITS.get(other.id)
        elif isinstance(other, ast.Attribute):
            unit = UNITS.get(other.attr)
        else:
            return False
        if unit is None:
            return False
        return not (unit == "bytes" and literal.value == 8)  # type: ignore[attr-defined]

    def _is_smell_literal(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
            and node.value in self.SMELL_LITERALS
        )

    def _target_names(self, node: ast.AST) -> List[Tuple[str, ast.AST]]:
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target]  # type: ignore[attr-defined]
        out = []
        for target in targets:
            if isinstance(target, ast.Name):
                out.append((target.id, target))
            elif isinstance(target, ast.Attribute):
                out.append((target.attr, target))
        return out

    def _check_suffix(self, node: ast.AST, path: str) -> Iterable[Finding]:
        value = node.value  # type: ignore[attr-defined]
        if not (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        ):
            return []
        returned = UNITS.get(value.func.id)
        if returned is None:
            return []
        out = []
        for name, target in self._target_names(node):
            expected = unit_of_name(name)
            if expected is not None and expected != returned:
                out.append(
                    self.finding(
                        path,
                        target,
                        f"'{name}' promises {expected} but "
                        f"{value.func.id}() returns {returned}",
                        hint=f"rename the variable or convert the value to "
                        f"{expected}",
                    )
                )
        return out


class FloatSafetyRule(Rule):
    """RL003 — no ``==``/``!=`` between floats in the math kernels.

    Envelope and admission arithmetic accumulates rounding error; exact
    comparison against a float literal (or between two float-annotated
    values) is almost always a latent bug.  Exact *integer-literal*
    sentinels (``latency == 0``) remain allowed — they test "was this left
    at its default", not numeric coincidence.
    """

    code = "RL003"
    name = "float-safety"
    description = (
        "forbid ==/!= against float literals (and between float-annotated "
        "names) in repro.core and repro.envelopes"
    )
    autofix_hint = (
        "use the tolerance helpers (repro.envelopes.curve._is_close / EPS "
        "bands, math.isclose) or an exact integer sentinel"
    )

    PACKAGES = ("core", "envelopes")

    def applies_to(self, path: PurePosixPath) -> bool:
        return _in_packages(path, self.PACKAGES)

    def check(
        self,
        tree: ast.Module,
        source: str,
        path: str,
        scope_path: Optional[str] = None,
    ) -> List[Finding]:
        findings: List[Finding] = []
        float_names = _collect_float_annotated(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if any(_is_float_literal(o) for o in (left, right)):
                    findings.append(
                        self.finding(
                            path,
                            node,
                            "exact ==/!= against a float literal",
                        )
                    )
                elif all(
                    isinstance(o, ast.Name) and o.id in float_names
                    for o in (left, right)
                ):
                    findings.append(
                        self.finding(
                            path,
                            node,
                            "exact ==/!= between float-annotated values",
                        )
                    )
        return findings


def _is_float_literal(node: ast.AST) -> bool:
    # A negated literal parses as UnaryOp(USub, Constant).
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _collect_float_annotated(tree: ast.Module) -> Set[str]:
    """Names annotated ``float`` anywhere in the module (args + AnnAssign)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = list(node.args.args) + list(node.args.kwonlyargs)
            args += list(node.args.posonlyargs)
            for arg in args:
                if _is_float_annotation(arg.annotation):
                    names.add(arg.arg)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            if _is_float_annotation(node.annotation):
                names.add(node.target.id)
    return names


def _is_float_annotation(annotation: Optional[ast.AST]) -> bool:
    return (
        isinstance(annotation, ast.Name) and annotation.id == "float"
    ) or (
        isinstance(annotation, ast.Constant) and annotation.value == "float"
    )


class CachePurityRule(Rule):
    """RL004 — never mutate a shared value (cache entry or breakpoint array).

    The LRU caches and the :class:`IncrementalDelayEngine` memos hand out
    *shared references*; the bit-identical-to-full-recompute guarantee
    assumes cached envelopes/reports are immutable.  This rule taints names
    bound from ``<cache>.get(...)`` / ``<memo>[key]`` and flags attribute
    stores, item stores, deletes, and known mutating method calls on them.

    ``Curve.breakpoints()`` likewise returns the curve's *own* float64
    array without copying (the vectorized kernels share these arrays
    freely), so in-place mutation of a name bound from a
    ``.breakpoints()`` call — item stores, augmented assignment, numpy
    mutator methods, or being the ``out=`` target of a ufunc — is flagged
    everywhere in the tree, not just in the delay engine.
    """

    code = "RL004"
    name = "cache-purity"
    description = (
        "forbid in-place mutation of values obtained from the LRU caches, "
        "IncrementalDelayEngine memos, or Curve.breakpoints() arrays"
    )
    autofix_hint = (
        "copy before mutating (dict(...), list(...), np.array(...), "
        "dataclasses.replace) or build a fresh value and re-put it"
    )

    FILES = frozenset({"repro/core/delay.py", "repro/core/incremental.py"})
    #: Attribute/name fragments that identify a cache-like container.
    CACHE_MARKERS = ("cache", "memo")
    CACHE_NAMES = frozenset(
        {"_reports", "_ports_of", "_load_memo", "_data"}
    )
    MUTATORS = frozenset(
        {
            "append",
            "extend",
            "insert",
            "add",
            "update",
            "pop",
            "popitem",
            "clear",
            "remove",
            "discard",
            "sort",
            "reverse",
            "setdefault",
            "move_to_end",
        }
    )
    #: In-place numpy ndarray methods (``.sort()`` is shared with MUTATORS).
    ARRAY_MUTATORS = frozenset(
        {"sort", "fill", "put", "resize", "partition", "itemset", "byteswap"}
    )

    def applies_to(self, path: PurePosixPath) -> bool:
        # Cache-entry taints are scoped to FILES; breakpoints()-array taints
        # apply to every repro module.
        return _module_relpath(path) is not None

    def check(
        self,
        tree: ast.Module,
        source: str,
        path: str,
        scope_path: Optional[str] = None,
    ) -> List[Finding]:
        where = (scope_path or path).replace("\\", "/")
        rel = _module_relpath(PurePosixPath(where))
        cache_scope = rel is not None and str(rel) in self.FILES
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(
                    self._check_function(node, path, cache_scope=cache_scope)
                )
        return findings

    def _is_cache_container(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            return False
        lowered = name.lower()
        return name in self.CACHE_NAMES or any(
            marker in lowered for marker in self.CACHE_MARKERS
        )

    def _cache_read(self, node: ast.AST) -> bool:
        """Does ``node`` evaluate to a value fetched from a cache?"""
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("get", "__getitem__")
                and self._is_cache_container(func.value)
            ):
                return True
        if isinstance(node, ast.Subscript) and self._is_cache_container(
            node.value
        ):
            return True
        return False

    @staticmethod
    def _breakpoints_read(node: ast.AST) -> bool:
        """Does ``node`` evaluate to a ``<curve>.breakpoints()`` array?"""
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "breakpoints"
            and not node.args
            and not node.keywords
        )

    def _check_function(
        self, func: ast.AST, path: str, cache_scope: bool = True
    ) -> Iterable[Finding]:
        tainted: Set[str] = set()
        bp_tainted: Set[str] = set()
        findings: List[Finding] = []

        for node in ast.walk(func):  # first pass: what is tainted?
            if isinstance(node, ast.Assign):
                if cache_scope and self._cache_read(node.value):
                    sink = tainted
                elif self._breakpoints_read(node.value):
                    sink = bp_tainted
                else:
                    continue
                for target in node.targets:
                    for element in _flatten_targets(target):
                        if isinstance(element, ast.Name):
                            sink.add(element.id)
        if not tainted and not bp_tainted:
            return findings

        def is_tainted(node: ast.AST) -> bool:
            return isinstance(node, ast.Name) and node.id in tainted

        def is_bp_tainted(node: ast.AST) -> bool:
            return isinstance(node, ast.Name) and node.id in bp_tainted

        for node in ast.walk(func):  # second pass: is a tainted value mutated?
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    base = target
                    if isinstance(base, (ast.Attribute, ast.Subscript)):
                        if is_tainted(base.value):
                            findings.append(
                                self.finding(
                                    path,
                                    node,
                                    "mutation of a cached value (store "
                                    "through a name bound from a cache)",
                                )
                            )
                        elif is_bp_tainted(base.value):
                            findings.append(
                                self.finding(
                                    path,
                                    node,
                                    "in-place store into a "
                                    "Curve.breakpoints() array",
                                )
                            )
                # ``arr += x`` on an ndarray mutates in place (unlike a
                # plain-name rebind of an int/list), so a bare Name target
                # of an AugAssign is a mutation for breakpoint arrays.
                if isinstance(node, ast.AugAssign) and is_bp_tainted(
                    node.target
                ):
                    findings.append(
                        self.finding(
                            path,
                            node,
                            "augmented assignment mutates a "
                            "Curve.breakpoints() array in place",
                        )
                    )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(
                        target, (ast.Attribute, ast.Subscript)
                    ) and (is_tainted(target.value) or is_bp_tainted(target.value)):
                        findings.append(
                            self.finding(
                                path, node, "del on a cached value"
                            )
                        )
            elif isinstance(node, ast.Call):
                func_node = node.func
                if isinstance(func_node, ast.Attribute) and (
                    (func_node.attr in self.MUTATORS and is_tainted(func_node.value))
                    or (
                        func_node.attr in self.MUTATORS | self.ARRAY_MUTATORS
                        and is_bp_tainted(func_node.value)
                    )
                ):
                    findings.append(
                        self.finding(
                            path,
                            node,
                            f".{func_node.attr}() on a cached value",
                        )
                    )
                # np.<ufunc>(..., out=arr) writes into arr in place.
                for keyword in node.keywords:
                    if keyword.arg == "out" and (
                        is_bp_tainted(keyword.value)
                        or (
                            isinstance(keyword.value, ast.Tuple)
                            and any(
                                is_bp_tainted(el) for el in keyword.value.elts
                            )
                        )
                    ):
                        findings.append(
                            self.finding(
                                path,
                                node,
                                "ufunc out= targets a "
                                "Curve.breakpoints() array",
                            )
                        )
        return findings


def _flatten_targets(node: ast.AST) -> Iterable[ast.AST]:
    if isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            yield from _flatten_targets(element)
    else:
        yield node


#: The AST-walk rules; the engine appends the flow rules (RL006-RL008)
#: from :mod:`repro.lint.rules_flow` to form the full registry.
BASE_RULES: Tuple[Rule, ...] = (
    DeterminismRule(),
    UnitDisciplineRule(),
    FloatSafetyRule(),
    CachePurityRule(),
)
