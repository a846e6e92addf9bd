"""The service CLI's ``--scenario`` lowering runs the spec's own network.

``soak --scenario`` and ``replay --scenario`` lower a scenario-spec file
through :mod:`repro.scenario.loader`.  The 10-ring line family's scalar
``topology`` config still says 3 rings of 4 hosts, so a lowering that
ignored the declarative ``topo`` would soak the reference mesh instead,
on which none of the spec's standing connections has endpoints.

The soak's fault step fails the device the most live connections ride
(:func:`repro.service.__main__.fault_target`), so it displaces some.
"""

import asyncio
import json
import os
from types import SimpleNamespace

from repro.scenario import codec, loader
from repro.service import __main__ as cli
from repro.service.server import ADMITTED, AdmissionService

LINE_10 = os.path.join(
    os.path.dirname(__file__), "..", "..", "corpus", "families", "line-10.json"
)


def test_scenario_lowering_runs_the_specs_own_network(tmp_path, capsys):
    spec = codec.load_file(LINE_10)
    topology = loader.build_topology(spec)
    cac_config = loader.cac_config(spec)
    assert spec.topo is not None
    assert len(topology.rings) == spec.topo.n_rings == 10
    wal = str(tmp_path / "wal")

    async def scenario():
        service = AdmissionService(
            topology,
            network_config=spec.topology,
            cac_config=cac_config,
            journal_dir=wal,
        )
        await service.start()
        responses = [
            await service.submit_admit(conn)
            for conn in spec.connections
        ]
        live = service.signature()
        await service.simulate_kill()
        return responses, live

    responses, live = asyncio.run(scenario())
    assert [r.verdict for r in responses] == [ADMITTED] * 3

    restored, report = AdmissionService.restore(
        loader.build_topology(spec),
        wal,
        network_config=spec.topology,
        cac_config=cac_config,
    )
    assert report.n_active == 3
    assert report.signature == live
    assert sorted(restored.controller.connections) == sorted(
        conn.conn_id for conn in spec.connections
    )

    assert cli.main(["replay", wal, "--scenario", LINE_10]) == 0
    replayed = json.loads(capsys.readouterr().out)
    assert replayed["n_active"] == 3
    assert replayed["signature"] == live


def _controller(*routes):
    """A stand-in controller whose live connections ride ``routes``,
    each a ``(source_device, dest_device)`` pair."""
    return SimpleNamespace(
        connections={
            f"c{i}": SimpleNamespace(
                route=SimpleNamespace(source_device=src, dest_device=dst)
            )
            for i, (src, dst) in enumerate(routes)
        }
    )


def test_fault_target_is_the_most_ridden_device():
    assert cli.fault_target(_controller()) is None
    # Ring-local connections ride no device.
    assert cli.fault_target(_controller((None, None))) is None
    assert cli.fault_target(_controller(("id4", "id2"), ("id2", "id9"))) == "id2"
    # A tie goes to the lowest id in string order, whatever the order of
    # the connections.
    assert cli.fault_target(_controller(("id3", "id2"), ("id9", "id10"))) == "id10"
    assert cli.fault_target(_controller(("id9", "id10"), ("id3", "id2"))) == "id10"


def test_soak_fault_displaces_a_standing_connection():
    # The line-10 spec's standing connections ride id1 (two of them),
    # id3, id8 and id10; the fixed id9 the soak used to fail rides none.
    spec = codec.load_file(LINE_10)

    async def scenario():
        service = AdmissionService(
            loader.build_topology(spec),
            network_config=spec.topology,
            cac_config=loader.cac_config(spec),
        )
        await service.start()
        for conn in spec.connections:
            await service.submit_admit(conn)
        target = cli.fault_target(service.controller)
        displaced = await service.inject_node_failure(target)
        await service.repair_node(target)
        await service.stop()
        return target, displaced

    target, displaced = asyncio.run(scenario())
    assert target == "id1"
    assert len(displaced) == 2
