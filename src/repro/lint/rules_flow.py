"""Flow-aware reprolint rules (RL006-RL008).

These rules run on the :mod:`repro.lint.cfg` /
:mod:`repro.lint.dataflow` framework rather than on bare AST walks:

RL006 (transactionality)
    In a *registered transactional scope* — topology mutators, the CAC
    ledger paths, journal writes, service state rollback paths — no
    path may mutate ``self``/shared state and subsequently hit an
    explicit ``raise`` without rolling the mutation back.  This is the
    ``connect_switches`` bug class from PR 9: the first loop iteration
    attached a link, the second raised, and a half-connected backbone
    survived the exception.

RL007 (asyncio atomicity)
    In ``repro.service``, shared ``self`` state read before an
    ``await`` and written after it is a lost-update race — every other
    task on the loop can run in between.  Every suspension (``await``,
    ``async for``, ``async with``) makes earlier reads stale; the rule
    flags writes whose supporting read went stale.

RL008 (dimension inference)
    Flow-sensitive dimension tracking (seconds, bits, bits/s,
    dimensionless) seeded from the units table RL002 also reads
    (:data:`repro.lint.rules.UNITS`, :func:`repro.lint.rules.unit_of_name`),
    propagated through assignment and arithmetic.
    Definite cross-dimension ``+``/``-``/comparisons are flagged;
    RL002's lexical checks stay on as the fallback where inference is
    inconclusive (magic literals carry no inferable dimension).

New transactional scopes are declared either in
:data:`TRANSACTIONAL_SCOPES` or inline with a ``# reprolint:
transactional`` marker comment on the ``def`` line (see
CONTRIBUTING.md).
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePosixPath
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.lint.cfg import (
    EVENT_STMT,
    EVENT_TEST,
    FunctionNode,
    build_cfg,
    contains_await,
    function_defs,
    walk_in_function,
)
from repro.lint.dataflow import Analysis, Event, replay, run_forward
from repro.lint.findings import Finding
from repro.lint.rules import (
    UNITS,
    Rule,
    _flatten_targets,
    _module_relpath,
    unit_of_name,
)

# ---------------------------------------------------------------------------
# Shared expression helpers
# ---------------------------------------------------------------------------


def dotted_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """The attribute chain of ``node`` with subscripts erased.

    ``self.topology.rings[rid]`` -> ``("self", "topology", "rings")``;
    returns None when the chain is not rooted at a plain name.
    """
    parts: List[str] = []
    current = node
    while True:
        if isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Name):
            parts.append(current.id)
            return tuple(reversed(parts))
        else:
            return None


def chain_key(chain: Sequence[str]) -> str:
    return ".".join(chain)


def _same_family(a: str, b: str) -> bool:
    """Do two dotted keys name the same object or a part of it?"""
    return a == b or a.startswith(b + ".") or b.startswith(a + ".")


def _mutation_target_key(target: ast.AST) -> Optional[Tuple[str, ...]]:
    """The chain mutated by storing/deleting ``target`` (None for plain
    local rebinds, which mutate nothing shared)."""
    if isinstance(target, ast.Attribute):
        return dotted_chain(target)
    if isinstance(target, ast.Subscript):
        return dotted_chain(target.value)
    return None


#: Method names that mutate their receiver, from the domain's own
#: vocabulary (ledgers, topology construction, container ops).
MUTATOR_METHODS = frozenset(
    {
        "add",
        "add_edge",
        "add_node",
        "allocate",
        "append",
        "attach_link",
        "attach_uplink",
        "clear",
        "discard",
        "extend",
        "fail_link",
        "fail_node",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "put",
        "remove",
        "remove_edge",
        "remove_node",
        "restore",
        "restore_link",
        "restore_node",
        "setdefault",
        "truncate",
        "update",
        "write",
    }
)

#: Method names that *undo* prior mutations of their receiver.
ROLLBACK_METHODS = frozenset({"release", "rollback"})


# ---------------------------------------------------------------------------
# RL006 — exception transactionality
# ---------------------------------------------------------------------------

#: Registered transactional scopes: module relpath -> function names whose
#: state transitions must be all-or-nothing.  Add new scopes here or mark
#: the def line with ``# reprolint: transactional``.
TRANSACTIONAL_SCOPES: Dict[str, FrozenSet[str]] = {
    "repro/network/topology.py": frozenset(
        {
            "add_ring",
            "add_host",
            "add_switch",
            "add_device",
            "connect_switches",
            "fail_link",
            "restore_link",
            "fail_node",
            "restore_node",
        }
    ),
    "repro/core/cac.py": frozenset({"_decide", "_grant", "restore", "release"}),
    "repro/fddi/ring.py": frozenset({"allocate", "release"}),
    "repro/service/journal.py": frozenset(
        {"open_fresh", "open_for_append", "append", "write_snapshot"}
    ),
    "repro/service/server.py": frozenset({"_replay"}),
}

_TRANSACTIONAL_MARKER = "# reprolint: transactional"

#: RL006 state: (mutation facts, derived-name set).  A fact is
#: ``(key, line)`` — an uncommitted mutation of the object named by
#: ``key``; ``derived`` holds local names aliasing self-/param-rooted
#: objects so mutations through them are tracked too.
_TxState = Tuple[FrozenSet[Tuple[str, int]], FrozenSet[str]]


class _TxAnalysis(Analysis[_TxState]):
    def __init__(self, func: FunctionNode) -> None:
        args = func.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            params.append(args.vararg.arg)
        if args.kwarg:
            params.append(args.kwarg.arg)
        self._params = frozenset(params)

    def initial_state(self) -> _TxState:
        return (frozenset(), self._params)

    def join(self, a: _TxState, b: _TxState) -> _TxState:
        return (a[0] | b[0], a[1] | b[1])

    # -- events --------------------------------------------------------

    def transfer(self, state: _TxState, event: Event) -> _TxState:
        facts, derived = state
        node = event.node
        if event.kind == EVENT_TEST and isinstance(node, (ast.For, ast.AsyncFor)):
            # Iterating a derived container yields derived elements.
            iter_chain = dotted_chain(node.iter) or self._call_chain(node.iter)
            if iter_chain is not None and self._is_derived(iter_chain, derived):
                derived = derived | self._target_names(node.target)
            return (facts, derived)
        if event.kind != EVENT_STMT:
            return (facts, derived)

        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            facts, derived = self._apply_assign(node, facts, derived)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                chain = _mutation_target_key(target)
                if chain is not None and self._is_derived(chain, derived):
                    facts = facts | {(chain_key(chain), node.lineno)}
        facts = self._apply_calls(node, facts, derived)
        return (facts, derived)

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _is_derived(chain: Sequence[str], derived: FrozenSet[str]) -> bool:
        return bool(chain) and (chain[0] == "self" or chain[0] in derived)

    @staticmethod
    def _call_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
        """The receiver chain of a (possibly awaited) call expression."""
        if isinstance(node, ast.Await):
            node = node.value
        if isinstance(node, ast.Call):
            return dotted_chain(node.func)
        return None

    @staticmethod
    def _target_names(target: ast.AST) -> FrozenSet[str]:
        names = set()
        for element in _flatten_targets(target):
            if isinstance(element, ast.Name):
                names.add(element.id)
        return frozenset(names)

    def _apply_assign(
        self,
        node: Union[ast.Assign, ast.AnnAssign, ast.AugAssign],
        facts: FrozenSet[Tuple[str, int]],
        derived: FrozenSet[str],
    ) -> Tuple[FrozenSet[Tuple[str, int]], FrozenSet[str]]:
        targets: List[ast.AST]
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        else:
            targets = [node.target]
        for target in targets:
            for element in _flatten_targets(target):
                chain = _mutation_target_key(element)
                if chain is not None and self._is_derived(chain, derived):
                    facts = facts | {(chain_key(chain), node.lineno)}
        value = node.value
        if value is not None and isinstance(node, (ast.Assign, ast.AnnAssign)):
            source = dotted_chain(value) or self._call_chain(value)
            if source is not None and self._is_derived(source, derived):
                for target in targets:
                    derived = derived | self._target_names(target)
        return facts, derived

    def _apply_calls(
        self,
        node: ast.AST,
        facts: FrozenSet[Tuple[str, int]],
        derived: FrozenSet[str],
    ) -> FrozenSet[Tuple[str, int]]:
        for child in walk_in_function(node):
            if not isinstance(child, ast.Call):
                continue
            func = child.func
            if not isinstance(func, ast.Attribute):
                continue
            base = dotted_chain(func.value)
            if base is None or not self._is_derived(base, derived):
                continue
            key = chain_key(base)
            if func.attr in ROLLBACK_METHODS:
                facts = frozenset(
                    f for f in facts if not _same_family(f[0], key)
                )
            elif func.attr in MUTATOR_METHODS:
                facts = facts | {(key, child.lineno)}
        return facts


class TransactionalityRule(Rule):
    """RL006 — mutations must not leak through an exception path.

    A registered transactional function may raise freely *before* its
    first state mutation (validate-then-mutate) or after undoing its
    partial work (``release``/``rollback`` on the mutated object); any
    explicit ``raise`` reachable with live mutation facts is flagged.
    """

    code = "RL006"
    name = "transactionality"
    description = (
        "in registered transactional scopes, forbid paths that mutate "
        "self/shared state and later raise without rolling back"
    )
    autofix_hint = (
        "validate every input before the first mutation, or release/"
        "rollback the partial state in the exception path"
    )

    def applies_to(self, path: PurePosixPath) -> bool:
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
        registered: FrozenSet[str] = frozenset()
        if rel is not None:
            registered = TRANSACTIONAL_SCOPES.get(str(rel), frozenset())
        lines = source.splitlines()
        findings: List[Finding] = []
        for func in function_defs(tree):
            if func.name not in registered and not self._marked(func, lines):
                continue
            findings.extend(self._check_function(func, path))
        return findings

    @staticmethod
    def _marked(func: FunctionNode, lines: List[str]) -> bool:
        if 1 <= func.lineno <= len(lines):
            return _TRANSACTIONAL_MARKER in lines[func.lineno - 1]
        return False

    def _check_function(self, func: FunctionNode, path: str) -> List[Finding]:
        cfg = build_cfg(func)
        analysis = _TxAnalysis(func)
        result = run_forward(cfg, analysis)
        findings: List[Finding] = []
        seen: Set[int] = set()

        def visit(state: _TxState, event: Event) -> None:
            node = event.node
            if event.kind != EVENT_STMT or not isinstance(node, ast.Raise):
                return
            facts = state[0]
            if not facts or id(node) in seen:
                return
            seen.add(id(node))
            ordered = sorted(facts, key=lambda f: (f[1], f[0]))
            first_key, first_line = ordered[0]
            keys = sorted({key for key, _ in ordered})
            findings.append(
                self.finding(
                    path,
                    node,
                    f"raise reachable with {len(ordered)} uncommitted "
                    f"mutation(s) of {', '.join(keys)} (earliest at line "
                    f"{first_line}: {first_key}) in transactional scope "
                    f"'{func.name}'",
                )
            )

        replay(cfg, result, analysis, visit)
        return findings


# ---------------------------------------------------------------------------
# RL007 — asyncio atomicity
# ---------------------------------------------------------------------------

#: Attribute-name fragments identifying synchronization primitives;
#: reads/writes of these are coordination, not shared data.
_SYNC_ATTR_RE = re.compile(r"lock|mutex|sem|wake|event|cond|future")

#: RL007 state: read facts ``(key, line, stale)`` of shared ``self``
#: state; a fact goes stale once a suspension follows the read.
_AtomState = FrozenSet[Tuple[str, int, bool]]


def _is_sync_chain(chain: Sequence[str]) -> bool:
    return any(_SYNC_ATTR_RE.search(part.lower()) for part in chain[1:])


def _evaluated(node: ast.AST) -> List[ast.AST]:
    """What runs at ``node``'s event: a ``with`` header evaluates its
    context managers (its body has events of its own)."""
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in node.items]
    return [node]


class _AtomAnalysis(Analysis[_AtomState]):
    def initial_state(self) -> _AtomState:
        return frozenset()

    def join(self, a: _AtomState, b: _AtomState) -> _AtomState:
        return a | b

    def transfer(self, facts: _AtomState, event: Event) -> _AtomState:
        # Reads, then suspension, then writes — the order the
        # interpreter visits them in the common patterns.
        node = event.node
        parts = _evaluated(node)
        for key, line in self._reads(parts):
            facts = facts | {(key, line, False)}
        if isinstance(node, (ast.AsyncFor, ast.AsyncWith)) or any(
            contains_await(part) for part in parts
        ):
            facts = frozenset((key, line, True) for key, line, _ in facts)
        for key, _node in self._writes(parts):
            facts = frozenset(f for f in facts if not _same_family(f[0], key))
        return facts

    # -- node scanning -------------------------------------------------

    @staticmethod
    def _reads(parts: Sequence[ast.AST]) -> List[Tuple[str, int]]:
        """Shared-state reads: ``self``-rooted attribute chains in Load
        context, excluding sync primitives, bare-method calls and bound-
        method references."""
        out: List[Tuple[str, int]] = []
        nodes = [child for part in parts for child in walk_in_function(part)]
        call_funcs = {
            id(child.func) for child in nodes if isinstance(child, ast.Call)
        }
        # Only maximal chains count: ``self.a.b`` is one read of
        # ``self.a.b``, not also a read of ``self.a`` (subscripted
        # containers like ``self.a.b[k]`` keep ``self.a.b`` maximal).
        sub_chains = {
            id(child.value)
            for child in nodes
            if isinstance(child, ast.Attribute)
        }
        for child in nodes:
            if not isinstance(child, ast.Attribute):
                continue
            if not isinstance(child.ctx, ast.Load) or id(child) in sub_chains:
                continue
            chain = dotted_chain(child)
            if chain is None or chain[0] != "self" or len(chain) < 2:
                continue
            if _is_sync_chain(chain):
                continue
            if id(child) in call_funcs:
                # ``self.method(...)`` is opaque; a deeper chain like
                # ``self.controller.release(...)`` reads ``self.controller``.
                if len(chain) <= 2:
                    continue
                out.append((chain_key(chain[:-1]), child.lineno))
                continue
            if chain[-1] in MUTATOR_METHODS or chain[-1] in ROLLBACK_METHODS:
                continue  # bound-method reference (e.g. a callback)
            out.append((chain_key(chain), child.lineno))
        return sorted(set(out))

    @staticmethod
    def _writes(parts: Sequence[ast.AST]) -> List[Tuple[str, ast.AST]]:
        """Shared-state writes: stores/deletes through ``self``-rooted
        chains and mutator-method calls on them."""
        out: List[Tuple[str, ast.AST]] = []
        for child in (c for part in parts for c in walk_in_function(part)):
            if isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    list(child.targets)
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    for element in _flatten_targets(target):
                        chain = None
                        if isinstance(element, ast.Attribute):
                            chain = dotted_chain(element)
                        elif isinstance(element, ast.Subscript):
                            chain = dotted_chain(element.value)
                        if (
                            chain is None
                            or chain[0] != "self"
                            or len(chain) < 2
                            or _is_sync_chain(chain)
                        ):
                            continue
                        out.append((chain_key(chain), child))
            elif isinstance(child, ast.Delete):
                for target in child.targets:
                    chain = _mutation_target_key(target)
                    if (
                        chain is not None
                        and chain[0] == "self"
                        and len(chain) >= 2
                        and not _is_sync_chain(chain)
                    ):
                        out.append((chain_key(chain), child))
            elif isinstance(child, ast.Call) and isinstance(
                child.func, ast.Attribute
            ):
                if child.func.attr not in MUTATOR_METHODS:
                    continue
                base = dotted_chain(child.func.value)
                if (
                    base is None
                    or base[0] != "self"
                    or len(base) < 2
                    or _is_sync_chain(base)
                ):
                    continue
                out.append((chain_key(base), child))
        return out


class AsyncAtomicityRule(Rule):
    """RL007 — reads-then-writes of shared service state across ``await``.

    An ``await`` yields the event loop; state read before it can be
    changed by any other task before the write lands.  The service runs
    no locks, so the rule assumes none: every suspension makes earlier
    reads stale, erring toward flagging.
    """

    code = "RL007"
    name = "async-atomicity"
    description = (
        "in repro.service, forbid writing shared self state whose "
        "supporting read crossed an unguarded await"
    )
    autofix_hint = (
        "claim the value into a local (write self before the await) and "
        "use that, or re-read the state after the await"
    )

    def applies_to(self, path: PurePosixPath) -> bool:
        rel = _module_relpath(path)
        return rel is not None and rel.parts[:2] == ("repro", "service")

    def check(
        self,
        tree: ast.Module,
        source: str,
        path: str,
        scope_path: Optional[str] = None,
    ) -> List[Finding]:
        findings: List[Finding] = []
        for func in function_defs(tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            findings.extend(self._check_function(func, path))
        return findings

    def _check_function(self, func: ast.AsyncFunctionDef, path: str) -> List[Finding]:
        cfg = build_cfg(func)
        analysis = _AtomAnalysis()
        result = run_forward(cfg, analysis)
        findings: List[Finding] = []
        seen: Set[Tuple[int, str]] = set()

        def visit(facts: _AtomState, event: Event) -> None:
            # Reads recorded by this very statement are not yet stale;
            # only prior facts can flag its writes.
            writes = _AtomAnalysis._writes(_evaluated(event.node))
            for key, write_node in writes:
                stale = sorted(
                    (line, fkey)
                    for fkey, line, is_stale in facts
                    if is_stale and _same_family(fkey, key)
                )
                if not stale:
                    continue
                dedup = (id(write_node), key)
                if dedup in seen:
                    continue
                seen.add(dedup)
                line, fkey = stale[0]
                findings.append(
                    self.finding(
                        path,
                        write_node,
                        f"write to {key} after reading {fkey} at line "
                        f"{line} across an await with no lock held "
                        f"(async '{func.name}')",
                    )
                )

        replay(cfg, result, analysis, visit)
        return findings


# ---------------------------------------------------------------------------
# RL008 — dimension inference
# ---------------------------------------------------------------------------

DIM_TIME = "seconds"
DIM_DATA = "bits"
DIM_RATE = "bits/s"
DIM_SCALAR = "dimensionless"
DIM_UNKNOWN = "?"

_DEFINITE = (DIM_TIME, DIM_DATA, DIM_RATE)

#: The units table's units -> the coarse dimension RL008 tracks.
DIM_OF_UNIT: Dict[str, str] = {
    "s": DIM_TIME,
    "ms": DIM_TIME,
    "us": DIM_TIME,
    "ns": DIM_TIME,
    "bits": DIM_DATA,
    "bytes": DIM_DATA,
    "bits/s": DIM_RATE,
    "1": DIM_SCALAR,
}

_PASSTHROUGH_CALLS = frozenset({"abs", "float", "min", "max", "sum"})


def _join_dim(a: str, b: str) -> str:
    if a == b:
        return a
    return DIM_UNKNOWN


def seed_dim(name: str) -> str:
    """The dimension a bare name promises by convention, if any."""
    return DIM_OF_UNIT.get(unit_of_name(name) or "", DIM_UNKNOWN)


#: RL008 state: sorted (name, dimension) pairs for local names.
_DimState = Tuple[Tuple[str, str], ...]


def _env_of(state: _DimState) -> Dict[str, str]:
    return dict(state)


def _state_of(env: Dict[str, str]) -> _DimState:
    return tuple(sorted(env.items()))


class _DimAnalysis(Analysis[_DimState]):
    def __init__(self, func: FunctionNode) -> None:
        env: Dict[str, str] = {}
        args = func.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            dim = seed_dim(arg.arg)
            if dim != DIM_UNKNOWN:
                env[arg.arg] = dim
        self._initial = _state_of(env)

    def initial_state(self) -> _DimState:
        return self._initial

    def join(self, a: _DimState, b: _DimState) -> _DimState:
        env_a, env_b = _env_of(a), _env_of(b)
        out: Dict[str, str] = {}
        for name in set(env_a) | set(env_b):
            if name in env_a and name in env_b:
                out[name] = _join_dim(env_a[name], env_b[name])
            else:
                out[name] = env_a.get(name, env_b.get(name, DIM_UNKNOWN))
        return _state_of(out)

    def transfer(self, state: _DimState, event: Event) -> _DimState:
        node = event.node
        env = _env_of(state)
        if event.kind == EVENT_TEST and isinstance(node, (ast.For, ast.AsyncFor)):
            dim = dim_of(node.iter, env)
            if isinstance(node.target, ast.Name) and dim in _DEFINITE:
                env[node.target.id] = dim
            return _state_of(env)
        if event.kind != EVENT_STMT:
            return state
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            if node.value is None:
                return state
            dim = dim_of(node.value, env)
            targets = (
                list(node.targets)
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    env[target.id] = dim
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Name
        ):
            current = env.get(node.target.id, seed_dim(node.target.id))
            value = dim_of(node.value, env)
            env[node.target.id] = _binop_dim(node.op, current, value)
        return _state_of(env)


def dim_of(node: ast.AST, env: Dict[str, str]) -> str:
    """The inferred dimension of an expression under ``env``."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(
            node.value, (int, float)
        ):
            return DIM_UNKNOWN
        return DIM_SCALAR
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        return seed_dim(node.id)
    if isinstance(node, ast.Attribute):
        if node.attr in UNITS:
            return DIM_OF_UNIT[UNITS[node.attr]]
        return seed_dim(node.attr)
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        return dim_of(node.operand, env)
    if isinstance(node, ast.BinOp):
        left = dim_of(node.left, env)
        right = dim_of(node.right, env)
        return _binop_dim(node.op, left, right)
    if isinstance(node, ast.IfExp):
        return _join_dim(dim_of(node.body, env), dim_of(node.orelse, env))
    if isinstance(node, ast.Call):
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name in UNITS:
            return DIM_OF_UNIT[UNITS[name]]
        if name in _PASSTHROUGH_CALLS and node.args:
            dims = [dim_of(arg, env) for arg in node.args]
            out = dims[0]
            for dim in dims[1:]:
                if dim == DIM_SCALAR:
                    continue  # min(0.0, x) keeps x's dimension
                out = dim if out == DIM_SCALAR else _join_dim(out, dim)
            return out
    return DIM_UNKNOWN


def _binop_dim(op: ast.operator, left: str, right: str) -> str:
    if isinstance(op, (ast.Add, ast.Sub)):
        if left == right:
            return left
        if left == DIM_SCALAR:
            return right
        if right == DIM_SCALAR:
            return left
        return DIM_UNKNOWN
    if isinstance(op, ast.Mult):
        if DIM_SCALAR in (left, right):
            return right if left == DIM_SCALAR else left
        pair = {left, right}
        if pair == {DIM_TIME, DIM_RATE}:
            return DIM_DATA
        return DIM_UNKNOWN
    if isinstance(op, (ast.Div, ast.FloorDiv)):
        if left == right and left in _DEFINITE:
            return DIM_SCALAR
        if right == DIM_SCALAR:
            return left
        if left == DIM_DATA and right == DIM_RATE:
            return DIM_TIME
        if left == DIM_DATA and right == DIM_TIME:
            return DIM_RATE
        return DIM_UNKNOWN
    return DIM_UNKNOWN


class DimensionRule(Rule):
    """RL008 — flow-sensitive unit-dimension checking.

    Only *definite* mismatches are flagged: both operands must infer to
    concrete, different dimensions (seconds vs bits vs bits/s).
    Dimensionless values absorb (``deadline + 1e-12`` is fine), and
    anything unknown stays silent — RL002 remains the lexical fallback.
    """

    code = "RL008"
    name = "dimension-inference"
    description = (
        "flag +,- and comparisons between expressions inferred to hold "
        "different physical dimensions (seconds / bits / bits-per-s)"
    )
    autofix_hint = (
        "convert through repro.units before combining, or fix the "
        "misnamed variable"
    )

    #: The unit table itself converts freely; the linter is exempt like
    #: RL002.
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
        for func in function_defs(tree):
            findings.extend(self._check_function(func, path))
        return findings

    def _check_function(self, func: FunctionNode, path: str) -> List[Finding]:
        cfg = build_cfg(func)
        analysis = _DimAnalysis(func)
        result = run_forward(cfg, analysis)
        findings: List[Finding] = []
        seen: Set[int] = set()

        def visit(state: _DimState, event: Event) -> None:
            env = _env_of(state)
            for child in walk_in_function(event.node):
                if id(child) in seen:
                    continue
                if isinstance(child, ast.BinOp) and isinstance(
                    child.op, (ast.Add, ast.Sub)
                ):
                    left = dim_of(child.left, env)
                    right = dim_of(child.right, env)
                    if (
                        left in _DEFINITE
                        and right in _DEFINITE
                        and left != right
                    ):
                        seen.add(id(child))
                        op = "+" if isinstance(child.op, ast.Add) else "-"
                        findings.append(
                            self.finding(
                                path,
                                child,
                                f"dimension mismatch: {left} {op} {right}",
                            )
                        )
                elif isinstance(child, ast.Compare):
                    operands = [child.left] + list(child.comparators)
                    for left_node, right_node in zip(operands, operands[1:]):
                        left = dim_of(left_node, env)
                        right = dim_of(right_node, env)
                        if (
                            left in _DEFINITE
                            and right in _DEFINITE
                            and left != right
                        ):
                            seen.add(id(child))
                            findings.append(
                                self.finding(
                                    path,
                                    child,
                                    f"dimension mismatch in comparison: "
                                    f"{left} vs {right}",
                                )
                            )
                            break

        replay(cfg, result, analysis, visit)
        return findings


#: The flow-rule registry, appended to the base rules by the engine.
FLOW_RULES: Tuple[Rule, ...] = (
    TransactionalityRule(),
    AsyncAtomicityRule(),
    DimensionRule(),
)
