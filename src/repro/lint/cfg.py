"""Per-function control-flow graphs for the flow-aware lint rules.

The flow rules (RL006-RL008) need path sensitivity the per-node AST
walks cannot give: "a mutation *followed by* a raise", "a read and a
write *separated by* an ``await``".  This module lowers one function
body into a graph of basic blocks whose entries are :class:`Event`
records at statement granularity.

Design points that matter to the analyses built on top:

* **Exception edges carry pre-statement state.**  Inside a ``try`` body
  every statement opens its own block, and the block records the
  handler entries in ``Block.except_targets``.  The dataflow driver
  propagates the block's *IN* state (not its OUT state) along those
  edges, encoding the domain assumption that an individual statement
  either completes or raises before its effect lands.  This is exactly
  what makes the CAC rollback idiom (``allocate`` in a ``try``, release
  the *prior* allocation in the handler) analyzable without false
  positives.
* **Loops close with back edges**, so facts established in iteration
  *N* are visible at the loop head for iteration *N+1* — the pre-PR-9
  ``connect_switches`` bug (mutate in iteration 1, raise in iteration
  2) is only reachable through that edge.
* A ``with``/``async with`` header is one ``test`` event carrying the
  ``With`` node, followed by its body's events; ``async`` nodes
  (``await``, ``async for``, ``async with``) stay inside their events
  for the atomicity rule to inspect.

Known (documented) approximations: ``break``/``continue`` jump straight
to their loop targets even across an intervening ``finally``, and a
``return`` routes through at most the innermost ``finally``.  Both are
sound for the accumulate-join analyses used here (they only *add*
paths elsewhere, never hide one).
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Event kinds, in the order an executing statement produces them.
EVENT_STMT = "stmt"
EVENT_TEST = "test"


@dataclasses.dataclass(frozen=True)
class Event:
    """One analyzable step inside a block."""

    kind: str
    node: ast.AST


@dataclasses.dataclass
class Block:
    """A straight-line run of events with explicit successor edges."""

    block_id: int
    events: List[Event] = dataclasses.field(default_factory=list)
    #: Normal-flow successors (OUT state propagates here).
    succ: List[int] = dataclasses.field(default_factory=list)
    #: Exception-flow successors (IN state propagates here): the handler
    #: and ``finally`` entries protecting this block.
    except_targets: List[int] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class CFG:
    """The control-flow graph of one function."""

    func: FunctionNode
    blocks: Dict[int, Block]
    entry: int
    exit_id: int

    def block_ids(self) -> List[int]:
        """Block ids in creation (approximately source) order."""
        return sorted(self.blocks)

    def predecessors(self) -> Dict[int, List[int]]:
        preds: Dict[int, List[int]] = {bid: [] for bid in self.blocks}
        for block in self.blocks.values():
            for target in block.succ:
                preds[target].append(block.block_id)
            for target in block.except_targets:
                preds[target].append(block.block_id)
        return preds


class _Builder:
    def __init__(self, func: FunctionNode) -> None:
        self.func = func
        self.blocks: Dict[int, Block] = {}
        self._next_id = 0
        self.entry = self._new_block(protected=False)
        self.exit_id = self._new_block(protected=False)
        self.current: Optional[int] = self.entry
        #: (continue_target, break_target) per enclosing loop.
        self._loops: List[Tuple[int, int]] = []
        #: Stack of handler-entry lists for enclosing ``try`` regions.
        self._handlers: List[List[int]] = []
        #: Stack of ``finally`` entry blocks (for return routing).
        self._finallies: List[int] = []

    # -- plumbing ------------------------------------------------------

    def _new_block(self, protected: bool = True) -> int:
        block = Block(block_id=self._next_id)
        self._next_id += 1
        if protected:
            block.except_targets = self._protection()
        self.blocks[block.block_id] = block
        return block.block_id

    def _protection(self) -> List[int]:
        targets: List[int] = []
        for frame in getattr(self, "_handlers", []):
            for target in frame:
                if target not in targets:
                    targets.append(target)
        return targets

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].succ:
            self.blocks[src].succ.append(dst)

    def _ensure_current(self) -> int:
        if self.current is None:  # unreachable code still gets a block
            self.current = self._new_block()
        return self.current

    def _start_block(self) -> int:
        """Seal the current block and chain a fresh successor."""
        old = self._ensure_current()
        new = self._new_block()
        self._edge(old, new)
        self.current = new
        return new

    def _append(self, event: Event) -> None:
        current = self._ensure_current()
        if self._handlers and self.blocks[current].events:
            # Per-statement blocks inside try regions: the handler must
            # receive the state from *before* each statement.
            current = self._start_block()
        self.blocks[current].events.append(event)

    # -- statement dispatch --------------------------------------------

    def build(self) -> CFG:
        self._visit_body(self.func.body)
        if self.current is not None:
            self._edge(self.current, self.exit_id)
        return CFG(
            func=self.func,
            blocks=self.blocks,
            entry=self.entry,
            exit_id=self.exit_id,
        )

    def _visit_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._visit(stmt)

    def _visit(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._visit_if(stmt)
        elif isinstance(stmt, (ast.While,)):
            self._visit_while(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_for(stmt)
        elif isinstance(stmt, ast.Try):
            self._visit_try(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._visit_with(stmt)
        elif isinstance(stmt, ast.Raise):
            self._visit_raise(stmt)
        elif isinstance(stmt, ast.Return):
            self._visit_return(stmt)
        elif isinstance(stmt, ast.Break):
            self._visit_break_continue(stmt, is_break=True)
        elif isinstance(stmt, ast.Continue):
            self._visit_break_continue(stmt, is_break=False)
        elif isinstance(stmt, ast.Match):
            self._visit_match(stmt)
        else:
            # Simple statements — including nested function/class
            # definitions, which the per-function analyses treat as
            # opaque values.
            self._append(Event(EVENT_STMT, stmt))

    def _visit_if(self, stmt: ast.If) -> None:
        self._append(Event(EVENT_TEST, stmt.test))
        head = self._ensure_current()
        after = self._new_block()

        then_block = self._new_block()
        self._edge(head, then_block)
        self.current = then_block
        self._visit_body(stmt.body)
        if self.current is not None:
            self._edge(self.current, after)

        if stmt.orelse:
            else_block = self._new_block()
            self._edge(head, else_block)
            self.current = else_block
            self._visit_body(stmt.orelse)
            if self.current is not None:
                self._edge(self.current, after)
        else:
            self._edge(head, after)
        self.current = after

    def _visit_while(self, stmt: ast.While) -> None:
        prev = self._ensure_current()
        head = self._new_block()
        self._edge(prev, head)
        self.blocks[head].events.append(Event(EVENT_TEST, stmt.test))
        after = self._new_block()

        body = self._new_block()
        self._edge(head, body)
        self._loops.append((head, after))
        self.current = body
        self._visit_body(stmt.body)
        if self.current is not None:
            self._edge(self.current, head)
        self._loops.pop()

        if stmt.orelse:
            orelse = self._new_block()
            self._edge(head, orelse)
            self.current = orelse
            self._visit_body(stmt.orelse)
            if self.current is not None:
                self._edge(self.current, after)
        else:
            self._edge(head, after)
        self.current = after

    def _visit_for(self, stmt: Union[ast.For, ast.AsyncFor]) -> None:
        prev = self._ensure_current()
        head = self._new_block()
        self._edge(prev, head)
        self.blocks[head].events.append(Event(EVENT_TEST, stmt))
        after = self._new_block()

        body = self._new_block()
        self._edge(head, body)
        self._loops.append((head, after))
        self.current = body
        self._visit_body(stmt.body)
        if self.current is not None:
            self._edge(self.current, head)
        self._loops.pop()

        if stmt.orelse:
            orelse = self._new_block()
            self._edge(head, orelse)
            self.current = orelse
            self._visit_body(stmt.orelse)
            if self.current is not None:
                self._edge(self.current, after)
        else:
            self._edge(head, after)
        self.current = after

    def _visit_with(self, stmt: Union[ast.With, ast.AsyncWith]) -> None:
        self._append(Event(EVENT_TEST, stmt))
        self._visit_body(stmt.body)

    def _visit_raise(self, stmt: ast.Raise) -> None:
        self._append(Event(EVENT_STMT, stmt))
        block = self._ensure_current()
        targets = self._protection()
        if targets:
            for target in targets:
                self._edge(block, target)
        else:
            self._edge(block, self.exit_id)
        self.current = None

    def _visit_return(self, stmt: ast.Return) -> None:
        self._append(Event(EVENT_STMT, stmt))
        block = self._ensure_current()
        if self._finallies:
            self._edge(block, self._finallies[-1])
        else:
            self._edge(block, self.exit_id)
        self.current = None

    def _visit_break_continue(self, stmt: ast.stmt, is_break: bool) -> None:
        self._append(Event(EVENT_STMT, stmt))
        block = self._ensure_current()
        if self._loops:
            head, after = self._loops[-1]
            self._edge(block, after if is_break else head)
        else:  # malformed code; degrade to exit
            self._edge(block, self.exit_id)
        self.current = None

    def _visit_match(self, stmt: ast.Match) -> None:
        self._append(Event(EVENT_TEST, stmt.subject))
        head = self._ensure_current()
        after = self._new_block()
        for case in stmt.cases:
            case_block = self._new_block()
            self._edge(head, case_block)
            self.current = case_block
            self._visit_body(case.body)
            if self.current is not None:
                self._edge(self.current, after)
        self._edge(head, after)  # no case may match
        self.current = after

    def _visit_try(self, stmt: ast.Try) -> None:
        finally_entry: Optional[int] = None
        if stmt.finalbody:
            finally_entry = self._new_block()

        handler_entries: List[int] = []
        for _handler in stmt.handlers:
            handler_entries.append(self._new_block())

        after = self._new_block()
        exits = after if finally_entry is None else finally_entry

        # Body: protected by the handlers (and the finally, for
        # exceptions no handler matches).
        body_targets = list(handler_entries)
        if finally_entry is not None:
            body_targets.append(finally_entry)
        prev = self._ensure_current()
        self._handlers.append(body_targets)
        if finally_entry is not None:
            self._finallies.append(finally_entry)
        body_start = self._new_block()
        self._edge(prev, body_start)
        self.current = body_start
        self._visit_body(stmt.body)
        body_end = self.current
        self._handlers.pop()

        # else: runs after a clean body; this try's handlers no longer
        # protect it, but its finally still does.
        if finally_entry is not None:
            self._handlers.append([finally_entry])
        if stmt.orelse:
            if body_end is not None:
                orelse_start = self._new_block()
                self._edge(body_end, orelse_start)
                self.current = orelse_start
                self._visit_body(stmt.orelse)
                if self.current is not None:
                    self._edge(self.current, exits)
        elif body_end is not None:
            self._edge(body_end, exits)

        # Handlers: protected by this try's finally plus outer frames.
        # (Their entry blocks were created before the finally frame was
        # pushed, so refresh the protection now.)
        for handler, entry in zip(stmt.handlers, handler_entries):
            self.blocks[entry].except_targets = self._protection()
            self.current = entry
            self._visit_body(handler.body)
            if self.current is not None:
                self._edge(self.current, exits)
        if finally_entry is not None:
            self._handlers.pop()
            self._finallies.pop()

        # finally: runs on every path; afterwards either continue
        # normally or re-raise toward the outer protection.
        if finally_entry is not None:
            self.current = finally_entry
            self._visit_body(stmt.finalbody)
            if self.current is not None:
                self._edge(self.current, after)
                outer = self._protection()
                if outer:
                    for target in outer:
                        self._edge(self.current, target)
                else:
                    self._edge(self.current, self.exit_id)
        self.current = after


def build_cfg(func: FunctionNode) -> CFG:
    """The control-flow graph of ``func``'s body (not its nested defs)."""
    return _Builder(func).build()


def function_defs(tree: ast.AST) -> List[FunctionNode]:
    """Every (async) function definition in ``tree``, outermost first."""
    out: List[FunctionNode] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(node)
    out.sort(key=lambda fn: (fn.lineno, fn.col_offset))
    return out


def contains_await(node: ast.AST) -> bool:
    """Does ``node`` contain an ``await`` outside nested functions?"""
    for child in walk_in_function(node):
        if isinstance(child, ast.Await):
            return True
    return False


def walk_in_function(node: ast.AST) -> List[ast.AST]:
    """Like :func:`ast.walk` but stopping at nested function/class defs."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        out.append(current)
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
            ):
                continue
            stack.append(child)
    return out
