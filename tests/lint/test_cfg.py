"""Structural tests for the per-function CFG builder."""

import ast
import textwrap

from repro.lint.cfg import (
    EVENT_STMT,
    EVENT_TEST,
    build_cfg,
    contains_await,
    function_defs,
    walk_in_function,
)


def cfg_of(source):
    tree = ast.parse(textwrap.dedent(source))
    funcs = function_defs(tree)
    assert funcs, "fixture source must define a function"
    return build_cfg(funcs[0])


def blocks_with_kind(cfg, kind):
    return [
        block
        for block in cfg.blocks.values()
        if any(event.kind == kind for event in block.events)
    ]


def reachable_ids(cfg):
    seen = set()
    stack = [cfg.entry]
    while stack:
        bid = stack.pop()
        if bid in seen:
            continue
        seen.add(bid)
        block = cfg.blocks[bid]
        stack.extend(block.succ)
        stack.extend(block.except_targets)
    return seen


class TestLinearFlow:
    def test_straight_line_chains_to_exit(self):
        cfg = cfg_of(
            """
            def f():
                a = 1
                b = 2
                c = a + b
            """
        )
        stmts = [e for b in cfg.blocks.values() for e in b.events]
        assert [e.kind for e in stmts] == [EVENT_STMT] * 3
        assert cfg.exit_id in reachable_ids(cfg)

    def test_unprotected_entry_and_exit(self):
        cfg = cfg_of("def f():\n    pass\n")
        assert cfg.blocks[cfg.entry].except_targets == []
        assert cfg.blocks[cfg.exit_id].except_targets == []


class TestBranches:
    def test_if_else_branches_rejoin(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    y = 1
                else:
                    y = 2
                z = 3
            """
        )
        (head,) = blocks_with_kind(cfg, EVENT_TEST)
        assert len(head.succ) == 2
        preds = cfg.predecessors()
        # the join block (holding ``z = 3``) has both arms as preds
        join = next(
            b
            for b in cfg.blocks.values()
            if any(
                isinstance(e.node, ast.Assign)
                and isinstance(e.node.targets[0], ast.Name)
                and e.node.targets[0].id == "z"
                for e in b.events
            )
        )
        assert len(preds[join.block_id]) == 2

    def test_if_without_else_falls_through(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    y = 1
                z = 2
            """
        )
        (head,) = blocks_with_kind(cfg, EVENT_TEST)
        assert len(head.succ) == 2  # then-arm and fall-through


class TestLoops:
    def test_while_has_back_edge(self):
        cfg = cfg_of(
            """
            def f(n):
                while n:
                    n = n - 1
            """
        )
        (head,) = blocks_with_kind(cfg, EVENT_TEST)
        back = [
            b
            for b in cfg.blocks.values()
            if head.block_id in b.succ and b.block_id != cfg.entry
            and b.block_id > head.block_id
        ]
        assert back, "loop body must edge back to the head"

    def test_for_loop_head_is_the_for_node(self):
        cfg = cfg_of(
            """
            def f(xs):
                for x in xs:
                    y = x
            """
        )
        (head,) = blocks_with_kind(cfg, EVENT_TEST)
        assert isinstance(head.events[0].node, ast.For)

    def test_break_targets_loop_exit(self):
        cfg = cfg_of(
            """
            def f(xs):
                for x in xs:
                    break
                z = 1
            """
        )
        assert cfg.exit_id in reachable_ids(cfg)


class TestTryExcept:
    def test_try_body_statements_carry_handler_targets(self):
        cfg = cfg_of(
            """
            def f(self):
                try:
                    a = 1
                    b = 2
                except ValueError:
                    h = 3
            """
        )
        body_blocks = [
            b
            for b in cfg.blocks.values()
            if b.except_targets and b.events
        ]
        # each protected statement opens its own block
        assert len(body_blocks) >= 2
        handler_targets = {t for b in body_blocks for t in b.except_targets}
        assert len(handler_targets) == 1
        (handler_entry,) = handler_targets
        assert handler_entry in reachable_ids(cfg)

    def test_raise_without_protection_edges_to_exit(self):
        cfg = cfg_of(
            """
            def f():
                raise ValueError("boom")
            """
        )
        raisers = [
            b
            for b in cfg.blocks.values()
            if any(isinstance(e.node, ast.Raise) for e in b.events)
        ]
        assert raisers and cfg.exit_id in raisers[0].succ


class TestFinally:
    def test_return_routes_through_finally(self):
        cfg = cfg_of(
            """
            def f(self):
                try:
                    return 1
                finally:
                    c = 3
            """
        )
        ret_block = next(
            b
            for b in cfg.blocks.values()
            if any(isinstance(e.node, ast.Return) for e in b.events)
        )
        (finally_entry,) = ret_block.succ
        fin = cfg.blocks[finally_entry]
        assert any(
            isinstance(e.node, ast.Assign) for e in fin.events
        ), "return must flow into the finally body, not the exit"
        # the finally both falls through and re-raises toward the exit
        assert cfg.exit_id in fin.succ

    def test_handler_is_protected_by_finally(self):
        cfg = cfg_of(
            """
            def f(self):
                try:
                    a = 1
                except ValueError:
                    h = 2
                finally:
                    c = 3
            """
        )
        handler = next(
            b
            for b in cfg.blocks.values()
            if any(
                isinstance(e.node, ast.Assign)
                and e.node.targets[0].id == "h"
                for e in b.events
            )
        )
        assert handler.except_targets, (
            "an exception raised inside the handler must still run finally"
        )


class TestWithEvents:
    def test_with_header_is_one_test_event(self):
        cfg = cfg_of(
            """
            def f(lock):
                with lock:
                    x = 1
            """
        )
        events = [e for b in cfg.blocks.values() for e in b.events]
        assert [e.kind for e in events] == [EVENT_TEST, EVENT_STMT]
        assert isinstance(events[0].node, ast.With)


class TestHelpers:
    def test_function_defs_in_source_order(self):
        tree = ast.parse(
            "def b():\n    pass\n\ndef a():\n    pass\n"
        )
        assert [f.name for f in function_defs(tree)] == ["b", "a"]

    def test_contains_await_ignores_nested_defs(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                async def outer():
                    async def inner():
                        await thing()
                    return inner
                """
            )
        )
        outer = function_defs(tree)[0]
        assert outer.name == "outer"
        assert not contains_await(outer)

    def test_walk_in_function_stops_at_class_defs(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                def f():
                    class C:
                        hidden = 1
                    visible = 2
                """
            )
        )
        func = function_defs(tree)[0]
        names = {
            n.id for n in walk_in_function(func) if isinstance(n, ast.Name)
        }
        assert "visible" in names
        assert "hidden" not in names
