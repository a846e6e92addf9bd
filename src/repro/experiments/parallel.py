"""Process-parallel execution of independent runs: one pool, :func:`run_parallel`.

Every experiment sweep (Figures 7/8, the ablations, the survivability
study) is an embarrassingly parallel grid: each point runs one
:class:`~repro.sim.connection_sim.ConnectionSimulator` with its own seeded
random streams and no shared mutable state (:func:`run_sims` maps those
runs through :func:`run_parallel`; the scenario fuzzer and the corpus
checker map their own work through it).  The pool fans runs out over
worker processes while keeping the results **bit-identical** to a serial
sweep:

* each task carries a fully-specified, picklable ``ConnectionSimConfig``
  (and optionally a policy instance), so a worker reproduces exactly the
  run the serial loop would have performed;
* results come back in task order (``Pool.map`` preserves ordering), so
  aggregation code consumes them exactly as the serial loops did;
* ``jobs <= 1`` short-circuits to a plain in-process loop — the parallel
  path is opt-in via ``--jobs N`` and never changes default behavior.

Tasks that cannot be pickled (e.g. a closure-built policy) silently fall
back to the serial path rather than failing the sweep.

Failure semantics: a worker exception does not hang the sweep or discard
its traceback.  Each worker wraps its run and ships failures back as data;
the parent terminates the pool and raises :class:`SweepCellError` naming
the failed cell (index + config summary) with the worker's formatted
traceback attached.  A ``KeyboardInterrupt`` in the parent also terminates
the pool before propagating, so Ctrl-C never leaves orphaned workers.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import pickle
import traceback
from typing import (
    Any,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.policies import AllocationPolicy
from repro.errors import ReproError
from repro.sim.connection_sim import (
    ConnectionSimConfig,
    ConnectionSimulator,
    SimResult,
)


class SweepCellError(ReproError):
    """One cell of a parallel sweep failed in its worker process.

    Carries the cell index, a human-readable description of the cell's
    configuration, and the worker's formatted traceback (the original
    exception object may not survive pickling, its traceback never does).
    """

    def __init__(
        self, index: int, cell: str, exc_name: str, message: str, tb: str
    ) -> None:
        super().__init__(
            f"sweep cell {index} ({cell}) failed in worker: "
            f"{exc_name}: {message}\n--- worker traceback ---\n{tb}"
        )
        self.index = index
        self.cell = cell
        self.exc_name = exc_name


@dataclasses.dataclass(frozen=True)
class SimTask:
    """One simulation run: a config plus an optional allocation policy."""

    config: ConnectionSimConfig
    policy: Optional[AllocationPolicy] = None

    def describe(self) -> str:
        """Short cell label for failure reports."""
        cfg = self.config
        label = f"U={cfg.utilization:g} beta={cfg.beta:g} seed={cfg.seed}"
        if self.policy is not None:
            label += f" policy={type(self.policy).__name__}"
        return label


_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

#: (index, ("ok", result)) or (index, ("err", (name, message, traceback))).
#: Tagged because a generic result may itself be a tuple.
_TaggedOutcome = Tuple[int, Tuple[str, Any]]


def _run_item_safe(
    fn: Callable[[Any], Any], item: Tuple[int, Any]
) -> _TaggedOutcome:
    """Worker entry point; failures ship back as data.

    Catches ``BaseException``: a ``KeyboardInterrupt`` delivered to a
    worker must surface as that cell's failure, not kill the pool from
    within (the parent decides how to unwind).
    """
    index, payload = item
    try:
        return index, ("ok", fn(payload))
    except BaseException as exc:  # noqa: BLE001 — see docstring
        return index, (
            "err",
            (type(exc).__name__, str(exc), traceback.format_exc()),
        )


def run_parallel(
    fn: Callable[[_ItemT], _ResultT],
    items: Sequence[_ItemT],
    jobs: int = 1,
    describe: Callable[[_ItemT], str] = repr,
) -> List[_ResultT]:
    """Map ``fn`` over ``items`` and return the results *in item order*.

    With ``jobs <= 1`` (or a single item) this is a plain loop, and so is
    work that cannot be pickled (e.g. a closure-built policy).  Otherwise
    the items are mapped over a process pool with ``chunksize=1`` — runs
    in a sweep have very uneven durations (heavy-load points take far
    longer), so fine-grained dispatch keeps the workers balanced.

    Raises :class:`SweepCellError` naming the item via ``describe`` when a
    worker fails; terminates the pool on any error or interrupt instead
    of hanging.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    try:
        pickle.dumps((fn, items))
    except Exception:
        return [fn(item) for item in items]
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    pool = ctx.Pool(processes=min(jobs, len(items)))
    try:
        outcomes = pool.map(
            functools.partial(_run_item_safe, fn),
            list(enumerate(items)),
            chunksize=1,
        )
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()

    results: List[_ResultT] = []
    for index, (tag, payload) in outcomes:
        if tag == "err":
            exc_name, message, tb = payload
            raise SweepCellError(
                index, describe(items[index]), exc_name, message, tb
            )
        results.append(payload)
    return results


def _run_task(task: SimTask) -> SimResult:
    """Worker entry point (module-level so it pickles under spawn)."""
    return ConnectionSimulator(task.config, policy=task.policy).run()


def run_sims(tasks: Sequence[SimTask], jobs: int = 1) -> List[SimResult]:
    """Run every task through :func:`run_parallel`, results in task order."""
    return run_parallel(_run_task, tasks, jobs, SimTask.describe)
