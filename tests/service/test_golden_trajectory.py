"""The service's golden test: the scripted workload's pinned outcome.

:func:`repro.service.bench.trajectory_ops` runs through a fully
deterministic service (inline decisions, tick clock, inert ladder, exact
analysis, journal on).  Every verdict, every ``repr``-exact delay bound,
the final recovery signature and the state counters must match.
"""

import asyncio

from repro.service.bench import _fresh_service, apply_ops, trajectory_ops

#: (op, conn_id, verdict, repr(delay_bound)) of every answered request.
PINNED_DECISIONS = [
    ("admit", "bg1-0", "ADMITTED", "0.04049527571990833"),
    ("admit", "bg1-1", "ADMITTED", "0.04280175720138981"),
    ("admit", "bg1-2", "ADMITTED", "0.045364514403035905"),
    ("admit", "bg1-3", "ADMITTED", "0.04869609876517582"),
    ("admit", "bg3-0", "ADMITTED", "0.04049527571990833"),
    ("admit", "bg3-1", "ADMITTED", "0.04280175720138981"),
    ("admit", "bg3-2", "ADMITTED", "0.045364514403035905"),
    ("admit", "bg3-3", "ADMITTED", "0.04869609876517582"),
    ("admit", "bg5-0", "ADMITTED", "0.04049527571990833"),
    ("admit", "bg5-1", "ADMITTED", "0.04280175720138981"),
    ("admit", "bg5-2", "ADMITTED", "0.045364514403035905"),
    ("admit", "bg5-3", "ADMITTED", "0.04869609876517582"),
    ("admit", "reject-1", "REJECTED", None),
    ("admit", "x-1", "ADMITTED", "0.04357058436188364"),
    ("admit", "x-1", "ERROR", None),
    ("release", "ghost", "UNKNOWN", None),
    ("admit", "probe-0", "ADMITTED", "0.05228395884748035"),
    ("release", "bg1-0", "RELEASED", None),
    ("admit", "rb-0", "ADMITTED", "0.05228395884748035"),
    ("release", "probe-0", "RELEASED", None),
    ("admit", "probe-1", "ADMITTED", "0.05228395884748035"),
    ("release", "bg1-1", "RELEASED", None),
    ("admit", "rb-1", "ADMITTED", "0.05228395884748035"),
    ("release", "probe-1", "RELEASED", None),
    ("admit", "probe-2", "ADMITTED", "0.05228395884748035"),
    ("release", "bg1-2", "RELEASED", None),
    ("admit", "rb-2", "ADMITTED", "0.05228395884748035"),
    ("release", "probe-2", "RELEASED", None),
    ("release", "x-1", "RELEASED", None),
    ("admit", "tail-1", "ADMITTED", "0.051515131686986515"),
]
PINNED_SIGNATURE = "7b76a0a315d62771ec87ffd71e654bdbdd7d457471ab18828597fba75339c65d"


def test_trajectory_is_pinned(tmp_path):
    async def scenario():
        service = _fresh_service(str(tmp_path / "wal"))
        decisions = []
        await service.start()
        await apply_ops(service, trajectory_ops(), decisions)
        state = service.state
        counters = (
            service.n_requests,
            service.n_admitted,
            len(state.active),
            len(state.shards),
            state.n_merges,
        )
        signature = service.signature()
        await service.stop()
        return decisions, signature, counters

    decisions, signature, counters = asyncio.run(scenario())
    fields = ("op", "conn_id", "verdict", "delay_bound")
    assert [tuple(d[f] for f in fields) for d in decisions] == PINNED_DECISIONS
    assert signature == PINNED_SIGNATURE
    # n_requests, n_admitted, n_active, n_shards, n_merges
    assert counters == (21, 20, 13, 2, 1)
