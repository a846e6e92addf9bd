"""Kill-at-any-journal-offset recovery: restore must be bit-identical.

The property (satellite of the crash-recovery tentpole): for *any* prefix
of the scripted workload, killing the server after that prefix and
restoring from snapshot + journal tail yields

* the exact recovery signature the dead server had (prefix identity), and
* after replaying the remaining operations, the exact final signature of
  an uninterrupted run (continuation identity) — with a clean ledger
  audit at every shutdown.
"""

import asyncio
import itertools
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import CACConfig, build_network
from repro.service.bench import (
    TickClock,
    _fresh_service,
    _network_config,
    apply_ops,
    deterministic_config,
    trajectory_ops,
)
from repro.service.server import AdmissionService

OPS = trajectory_ops(with_faults=True)


def _restore(wal):
    return AdmissionService.restore(
        build_network(_network_config()),
        wal,
        network_config=_network_config(),
        cac_config=CACConfig(),
        service_config=deterministic_config(),
        clock=TickClock(),
    )


class _Reference:
    """Uninterrupted run, computed once: signature after every op."""

    signatures = None
    final = None

    @classmethod
    async def get(cls):
        if cls.signatures is None:
            import tempfile

            with tempfile.TemporaryDirectory() as tmp:
                service = _fresh_service(os.path.join(tmp, "ref"))
                signatures = []
                await service.start()
                await apply_ops(service, OPS, signatures=signatures)
                final = service.signature()
                await service.stop()
                cls.signatures, cls.final = signatures, final
        return cls.signatures, cls.final


_WAL_IDS = itertools.count()


async def _kill_restore_continue(tmp_path, offset, garbage=b""):
    signatures, final = await _Reference.get()
    # Unique per invocation: hypothesis reuses tmp_path across examples,
    # and a stale directory would hand restore() a snapshot from the
    # previous example's continuation phase.
    wal = os.path.join(str(tmp_path), f"wal-{next(_WAL_IDS)}")
    victim = _fresh_service(wal)
    await victim.start()
    await apply_ops(victim, OPS[:offset])
    await victim.simulate_kill()
    if garbage:
        with open(os.path.join(wal, "journal.jsonl"), "ab") as fh:
            fh.write(garbage)
    restored, report = _restore(wal)
    expected = (
        signatures[offset - 1] if offset else restored.signature()
    )
    assert report.signature == expected, f"prefix mismatch at offset {offset}"
    await restored.start(fresh_journal=False)
    await apply_ops(restored, OPS[offset:])
    assert restored.signature() == final, f"continuation mismatch at {offset}"
    await restored.stop()
    return report


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(offset=st.integers(min_value=0, max_value=len(OPS)))
def test_kill_at_any_offset_restores_bit_identically(tmp_path, offset):
    asyncio.run(_kill_restore_continue(tmp_path, offset))


@pytest.mark.parametrize(
    "offset", [0, 1, 6, 15, len(OPS) // 2, len(OPS) - 2, len(OPS)]
)
def test_kill_at_boundary_offsets(tmp_path, offset):
    asyncio.run(_kill_restore_continue(tmp_path, offset))


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(garbage=st.binary(min_size=1, max_size=60))
@example(garbage=b'{"seq": 99999, "op": "adm')  # a record torn mid-write
def test_torn_tail_never_corrupts_state(tmp_path, garbage):
    report = asyncio.run(
        _kill_restore_continue(tmp_path, len(OPS) // 2, garbage=garbage)
    )
    # Random garbage cannot extend the trusted chain: it is either an
    # unterminated line or a line the decoder rejects, and both are cut.
    assert report.truncated_tail


def test_restore_uses_snapshot_plus_tail(tmp_path):
    async def scenario():
        wal = os.path.join(str(tmp_path), "wal")
        victim = _fresh_service(wal, snapshot_every=5)
        await victim.start()
        await apply_ops(victim, OPS)
        pre_kill = victim.signature()
        await victim.simulate_kill()
        restored, report = _restore(wal)
        assert report.snapshot_seq > 0
        assert report.n_snapshot_records > 0
        assert report.n_replayed > 0
        assert report.signature == pre_kill
        await restored.start(fresh_journal=False)
        await restored.stop()

    asyncio.run(scenario())


def test_restore_rejects_snapshot_newer_than_journal(tmp_path):
    """A snapshot whose seq exceeds the journal's last trusted record
    means durable journal entries vanished; restore must fail loudly
    instead of silently resurrecting stale state."""
    from repro.errors import JournalError

    async def scenario():
        wal = os.path.join(str(tmp_path), "wal")
        victim = _fresh_service(wal, snapshot_every=5)
        await victim.start()
        await apply_ops(victim, OPS)
        await victim.simulate_kill()
        # Truncate the journal behind the snapshot's back.
        with open(os.path.join(wal, "journal.jsonl"), "w"):
            pass
        with pytest.raises(JournalError, match="out-of-band"):
            _restore(wal)

    asyncio.run(scenario())


def test_restore_is_idempotent(tmp_path):
    async def scenario():
        wal = os.path.join(str(tmp_path), "wal")
        victim = _fresh_service(wal)
        await victim.start()
        await apply_ops(victim, OPS[: len(OPS) // 2])
        await victim.simulate_kill()
        first, report_a = _restore(wal)
        second, report_b = _restore(wal)
        assert report_a.signature == report_b.signature
        assert first.signature() == second.signature()

    asyncio.run(scenario())
