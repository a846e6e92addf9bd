"""End-to-end verdict and robustness tests for the admission service."""

import asyncio

import pytest

from repro.config import CACConfig, NetworkConfig, ServiceConfig, build_network
from repro.core import AdmissionController
from repro.errors import AuditError
from repro.network.connection import ConnectionSpec
from repro.service.bench import TickClock
from repro.service.degrade import EXACT, FROZEN
from repro.service.server import (
    ADMITTED,
    BUSY,
    ERROR,
    REJECTED,
    RELEASED,
    TIMEOUT,
    UNKNOWN,
    AdmissionService,
)
from repro.sim.random import RandomStreams
from repro.traffic import DualPeriodicTraffic

NET = NetworkConfig(n_rings=4, hosts_per_ring=4)
TRAFFIC = DualPeriodicTraffic(c1=60_000.0, p1=0.015, c2=30_000.0, p2=0.005)
HOPELESS = DualPeriodicTraffic(
    c1=2_000_000.0, p1=0.015, c2=1_000_000.0, p2=0.005
)


def _spec(cid, src="host1-1", dst="host2-1", deadline=0.09, traffic=TRAFFIC):
    return ConnectionSpec(cid, src, dst, traffic, deadline)


def _service(clock=None, journal_dir=None, **overrides):
    defaults = dict(default_timeout=1e6, snapshot_every=0)
    defaults.update(overrides)
    return AdmissionService(
        build_network(NET),
        network_config=NET,
        cac_config=CACConfig(),
        service_config=ServiceConfig(**defaults),
        journal_dir=journal_dir,
        clock=clock or TickClock(),
    )


def run(coro):
    return asyncio.run(coro)


def _journaled(records):
    """(op, conn_id) of each journal record."""
    return [
        (r.op, r.data["spec"]["conn_id"] if r.op == "admit" else r.data["conn_id"])
        for r in records
    ]


class TestVerdicts:
    def test_admit_reject_release_unknown_duplicate(self):
        async def scenario():
            async with _service() as service:
                admitted = await service.submit_admit(_spec("c1"))
                rejected = await service.submit_admit(
                    _spec("c2", traffic=HOPELESS)
                )
                duplicate = await service.submit_admit(_spec("c1"))
                released = await service.submit_release("c1")
                unknown = await service.submit_release("c1")
                return admitted, rejected, duplicate, released, unknown

        admitted, rejected, duplicate, released, unknown = run(scenario())
        assert admitted.verdict == ADMITTED
        assert admitted.delay_bound is not None
        assert admitted.delay_bound <= 0.09
        assert rejected.verdict == REJECTED
        assert duplicate.verdict == ERROR
        assert "already active" in duplicate.reason
        assert duplicate.conn_id == "c1"
        assert released.verdict == RELEASED
        assert unknown.verdict == UNKNOWN

    def test_no_route_rejects(self):
        async def scenario():
            async with _service() as service:
                await service.inject_node_failure("id3")
                return await service.submit_admit(
                    _spec("c1", "host3-1", "host4-1")
                )

        response = run(scenario())
        assert response.verdict == REJECTED
        assert "route" in response.reason

    def test_not_running_is_busy(self):
        service = _service()
        response = run(service.submit_admit(_spec("c1")))
        assert response.verdict == BUSY

    def test_counters_and_metrics(self):
        async def scenario():
            async with _service() as service:
                await service.submit_admit(_spec("c1"))
                await service.submit_admit(_spec("c2", traffic=HOPELESS))
                await service.submit_release("c1")
                return service.metrics_snapshot()

        snap = run(scenario())
        assert snap["n_requests"] == 2
        assert snap["n_admitted"] == 1
        assert snap["verdicts"][ADMITTED] == 1
        assert snap["verdicts"][REJECTED] == 1
        assert snap["verdicts"][RELEASED] == 1


class TestTimeouts:
    def test_deadline_expired_at_dequeue(self):
        # Every clock read advances 10 ms; a 5 ms deadline is already in
        # the past by the time the dispatcher looks at the request.
        async def scenario():
            async with _service(clock=TickClock(step=0.010)) as service:
                return await service.submit_admit(
                    _spec("late"), timeout=0.005
                )

        response = run(scenario())
        assert response.verdict == TIMEOUT
        assert response.retry_after is not None
        assert response.retry_after > 0.0

    def test_generous_deadline_admits(self):
        async def scenario():
            async with _service(clock=TickClock(step=0.010)) as service:
                return await service.submit_admit(_spec("ok"), timeout=60.0)

        assert run(scenario()).verdict == ADMITTED


def _leftovers(service):
    """Active connections and non-zero ledger discrepancies."""
    leaks = {
        rid: diff
        for rid, diff in service.controller.audit_allocations().items()
        if diff != 0.0
    }
    return dict(service.controller.connections), leaks


class TestShardLifecycle:
    """A refused or timed-out admit leaves nothing behind."""

    def test_refused_admits_leave_no_shard(self):
        async def scenario():
            async with _service() as service:
                responses = [
                    await service.submit_admit(
                        _spec(f"r{k}", "host1-1", "host2-2", traffic=HOPELESS)
                    )
                    for k in range(5)
                ]
                return responses, _leftovers(service), service.metrics_snapshot()

        responses, leftovers, snap = run(scenario())
        assert [r.verdict for r in responses] == [REJECTED] * 5
        assert leftovers == ({}, {})
        assert snap["n_active"] == 0

    def test_timed_out_admit_leaves_no_shard(self):
        # Clock reads 10 ms apart: the request passes the dequeue check
        # (20 ms < 35 ms) but the post-decision check (50 ms) is late, so
        # the admission is rolled back.
        async def scenario():
            async with _service(clock=TickClock(step=0.010)) as service:
                response = await service.submit_admit(
                    _spec("slow"), timeout=0.025
                )
                return response, _leftovers(service)

        response, leftovers = run(scenario())
        assert response.verdict == TIMEOUT
        assert "decision exceeded" in response.reason
        assert leftovers == ({}, {})


class TestBackpressure:
    def test_priority_shedding_and_queue_bound(self):
        async def scenario():
            async with _service(queue_capacity=2) as service:
                # All four submissions enqueue before the dispatcher runs
                # (task creation order is the event-loop ready order).
                t_a = asyncio.create_task(
                    service.submit_admit(_spec("a", "host1-1", "host2-1"), priority=1)
                )
                t_b = asyncio.create_task(
                    service.submit_admit(_spec("b", "host1-2", "host2-2"), priority=1)
                )
                t_c = asyncio.create_task(
                    service.submit_admit(_spec("c", "host1-3", "host2-3"), priority=0)
                )
                t_d = asyncio.create_task(
                    service.submit_admit(_spec("d", "host3-1", "host4-1"), priority=2)
                )
                responses = await asyncio.gather(t_a, t_b, t_c, t_d)
                return responses, service.metrics.n_shed

        (a, b, c, d), n_shed = run(scenario())
        # c (lowest priority) bounced off the full queue; b (youngest of
        # the lowest remaining priority) was displaced by high-priority d.
        assert a.verdict == ADMITTED
        assert b.verdict == BUSY and "shed" in b.reason
        assert c.verdict == BUSY and "full" in c.reason
        assert d.verdict == ADMITTED
        assert n_shed == 2

    def test_releases_are_never_shed(self):
        async def scenario():
            async with _service(queue_capacity=1) as service:
                await service.submit_admit(_spec("keep"))
                tasks = [
                    asyncio.create_task(service.submit_admit(_spec("a")))
                ]
                tasks.append(
                    asyncio.create_task(service.submit_release("keep"))
                )
                return await asyncio.gather(*tasks)

        admit, release = run(scenario())
        assert release.verdict == RELEASED

    def test_busy_retry_hints_follow_retry_policy_substream(self):
        async def scenario(seed):
            async with _service(queue_capacity=1, seed=seed) as service:
                hints = []
                for _ in range(3):
                    t_a = asyncio.create_task(
                        service.submit_admit(_spec("fill", "host1-1", "host2-1"))
                    )
                    t_b = asyncio.create_task(
                        service.submit_admit(_spec("bounce", "host1-2", "host2-2"))
                    )
                    a, b = await asyncio.gather(t_a, t_b)
                    assert b.verdict == BUSY
                    hints.append(b.retry_after)
                    await service.submit_release("fill")
                return hints

        first = run(scenario(seed=5))
        second = run(scenario(seed=5))
        other = run(scenario(seed=6))
        assert first == second
        assert first != other
        # Exponential shape: each hint roughly doubles (jitter <= 10%).
        assert first[0] < first[1] < first[2]

    def test_retry_hint_matches_policy_substream_exactly(self):
        async def scenario():
            async with _service(queue_capacity=1, seed=11) as service:
                t_a = asyncio.create_task(
                    service.submit_admit(_spec("fill", "host1-1", "host2-1"))
                )
                t_b = asyncio.create_task(
                    service.submit_admit(_spec("bounce", "host1-2", "host2-2"))
                )
                _, b = await asyncio.gather(t_a, t_b)
                return b.retry_after, service._retry_policy

        hint, policy = run(scenario())
        expected = policy.delay(1, RandomStreams(11).stream("retry:bounce"))
        assert hint == expected


class TestFreeze:
    def test_freeze_sheds_and_thaws(self):
        async def scenario():
            clock = TickClock(step=1e-6)
            service = _service(
                clock=clock,
                latency_window=4,
                min_dwell=4,
                freeze_probe_every=4,
            )
            async with service:
                # Overload: every decision measures as one second.
                clock.step = 1.0
                busy = 0
                for j in range(12):
                    response = await service.submit_admit(
                        _spec(f"hot-{j}", f"host1-{(j % 4) + 1}", f"host2-{(j % 4) + 1}", 0.15)
                    )
                    if response.verdict == BUSY:
                        busy += 1
                frozen = service.ladder.level
                # Recovery: decisions measure fast, the ladder walks down.
                clock.step = 1e-6
                for j in range(40):
                    await service.submit_admit(
                        _spec(f"cool-{j}", "host3-1", "host4-1")
                    )
                    await service.submit_release(f"cool-{j}")
                return busy, frozen, service.ladder.level

        busy, frozen, final = run(scenario())
        assert frozen == FROZEN
        assert busy > 0
        assert final == EXACT


class TestConcurrencyRegressions:
    """Races found by reprolint RL007 and fixed with explicit idioms."""

    def test_concurrent_stops_are_idempotent(self):
        # stop() claims the dispatcher handle before awaiting it, so a
        # second stop (racing or sequential) never awaits the same task.
        async def scenario():
            service = _service()
            await service.start()
            await asyncio.gather(service.stop(), service.stop())
            await service.stop()
            return service._dispatcher

        assert run(scenario()) is None

    def test_kill_then_stop_is_safe(self):
        async def scenario():
            service = _service()
            await service.start()
            await service.simulate_kill()
            await service.simulate_kill()  # double kill: handle claimed
            await service.stop()
            return service._dispatcher

        assert run(scenario()) is None

    def test_concurrent_duplicate_admits_one_winner(self, tmp_path):
        # Decisions run inline in dispatch order: the first admit commits
        # before the second is dequeued, and the duplicate check refuses
        # the second before its route is analysed.  The loser's route is
        # disjoint from the winner's.
        async def scenario():
            async with _service(journal_dir=str(tmp_path / "wal")) as service:
                first, second = await asyncio.gather(
                    service.submit_admit(_spec("dup", "host1-1", "host2-1")),
                    service.submit_admit(_spec("dup", "host3-1", "host4-1")),
                )
                records = service.journal.scan_tail(after_seq=0).records
                return first, second, records, dict(service.controller.connections)

        first, second, records, active = run(scenario())
        assert (first.verdict, second.verdict) == (ADMITTED, ERROR)
        assert "already active" in second.reason
        assert _journaled(records) == [("admit", "dup")]
        assert active["dup"].route.source_ring == "ring1"

    def test_gathered_ops_journal_in_dispatch_order(self, tmp_path):
        # Admits and releases in flight together on two disjoint ring
        # pairs (rings 1-2 and 3-4) are decided, and journaled, in
        # dispatch order: priority first, then arrival.  Replaying that
        # journal must rebuild the live state exactly.
        wal = str(tmp_path / "wal")
        batch = [
            ("admit", _spec("a1", "host1-2", "host2-2"), 0),
            ("release", "a0", 0),
            ("admit", _spec("b1", "host3-2", "host4-2"), 2),
            ("release", "b0", 0),
            ("admit", _spec("b2", "host3-3", "host4-3"), 1),
            ("admit", _spec("a2", "host1-3", "host2-3"), 2),
        ]

        def _submit(service, op):
            kind, target, priority = op
            if kind == "admit":
                return service.submit_admit(target, priority=priority)
            return service.submit_release(target)

        async def scenario():
            service = _service(journal_dir=wal)
            await service.start()
            await service.submit_admit(_spec("a0", "host1-1", "host2-1"))
            await service.submit_admit(_spec("b0", "host3-1", "host4-1"))
            responses = await asyncio.gather(
                *(_submit(service, op) for op in batch)
            )
            records = service.journal.scan_tail(after_seq=2).records
            live = service.signature()
            await service.simulate_kill()
            return responses, records, live

        responses, records, live = run(scenario())
        assert [r.verdict for r in responses] == [
            ADMITTED, RELEASED, ADMITTED, RELEASED, ADMITTED, ADMITTED
        ]
        order = sorted(range(len(batch)), key=lambda i: (-batch[i][2], i))
        expected = [
            (
                batch[i][0],
                batch[i][1].conn_id if batch[i][0] == "admit" else batch[i][1],
            )
            for i in order
        ]
        assert _journaled(records) == expected
        assert expected[0] == ("admit", "b1")
        restored, report = AdmissionService.restore(
            build_network(NET),
            wal,
            network_config=NET,
            cac_config=CACConfig(),
            service_config=ServiceConfig(default_timeout=1e6, snapshot_every=0),
            clock=TickClock(),
        )
        assert report.n_replayed == 8
        assert report.signature == live
        assert restored.signature() == live

    def test_overlap_merge_handoff_admits_and_audits_clean(self):
        # Successive admissions whose routes share rings chain three
        # ring pairs together; the exit audit in stop() proves no
        # allocation leaked.
        async def scenario():
            async with _service() as service:
                r1 = await service.submit_admit(
                    _spec("m1", "host1-1", "host2-1")
                )
                r2 = await service.submit_admit(
                    _spec("m2", "host2-2", "host3-1")
                )
                r3 = await service.submit_admit(
                    _spec("m3", "host1-2", "host3-2")
                )
                for cid in ("m1", "m2", "m3"):
                    await service.submit_release(cid)
                return r1, r2, r3

        r1, r2, r3 = run(scenario())
        assert (r1.verdict, r2.verdict, r3.verdict) == (
            ADMITTED,
            ADMITTED,
            ADMITTED,
        )

    def test_journal_write_with_no_journal_is_noop(self):
        async def scenario():
            async with _service() as service:
                assert service.journal is None
                service._journal("admit", {"conn_id": "ghost"})
                return await service.submit_admit(_spec("c1"))

        assert run(scenario()).verdict == ADMITTED


#: Disjoint ring pairs: (1,2) and (3,4) share no port and no ring.
GROUP_A = [_spec(f"a{j}", f"host1-{j + 1}", f"host2-{j + 1}") for j in range(3)]
GROUP_B = [_spec(f"b{j}", f"host3-{j + 1}", f"host4-{j + 1}") for j in range(3)]
BRIDGE = _spec("x", "host1-1", "host3-1")


class TestDecisionEquivalence:
    """The service must decide exactly as a bare controller does."""

    def test_service_matches_bare_controller(self):
        """Same admit sequence through the service, same verdicts,
        bit-identical bounds and ledgers."""
        reference = AdmissionController(
            build_network(NET), cac_config=CACConfig()
        )
        specs = GROUP_A + GROUP_B + [BRIDGE, _spec("a9", "host1-4", "host2-1")]
        service = _service()

        async def scenario():
            async with service:
                return [await service.submit_admit(spec) for spec in specs]

        responses = run(scenario())
        for spec, got in zip(specs, responses):
            ref = reference.request(spec)
            assert (got.verdict == ADMITTED) == ref.admitted, spec.conn_id
            if ref.admitted:
                mine = service.controller.connections[spec.conn_id]
                assert repr(got.delay_bound) == repr(
                    ref.record.delay_bound
                ), spec.conn_id
                assert repr(mine.h_source) == repr(ref.record.h_source)
                assert repr(mine.h_dest) == repr(ref.record.h_dest)
        ref_rings = reference.topology.rings
        for rid, ring in service.controller.topology.rings.items():
            assert repr(ring.allocated_sync_time) == repr(
                ref_rings[rid].allocated_sync_time
            )

    def test_audit_clean_after_churn(self):
        async def scenario():
            async with _service() as service:
                for spec in GROUP_A + GROUP_B:
                    await service.submit_admit(spec)
                await service.submit_release("a1")
                await service.submit_admit(_spec("a1b", "host1-2", "host2-2"))
                return service.controller.audit_allocations()

        leaks = run(scenario())
        assert max(abs(d) for d in leaks.values()) < 1e-12


class TestShutdownAudit:
    def test_stop_raises_on_ledger_leak(self):
        async def scenario():
            service = _service()
            async with service:
                await service.submit_admit(_spec("c1"))
                # Sabotage the ledger behind the controller's back.
                ring = service.controller.topology.rings["ring1"]
                ring.allocate("ghost", 1e-3)

        with pytest.raises(AuditError, match="leaked"):
            run(scenario())

    def test_clean_stop_passes_audit(self):
        async def scenario():
            async with _service() as service:
                await service.submit_admit(_spec("c1"))
                await service.submit_release("c1")

        run(scenario())
