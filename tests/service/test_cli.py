"""The service CLI's ``--scenario`` lowering runs the spec's own network.

``soak --scenario`` and ``replay --scenario`` lower a scenario-spec file
through :mod:`repro.scenario.loader`.  The 10-ring line family's scalar
``topology`` config still says 3 rings of 4 hosts, so a lowering that
ignored the declarative ``topo`` would soak the reference mesh instead,
on which none of the spec's standing connections has endpoints.
"""

import asyncio
import json
import os

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
            for conn in loader.offered_connections(spec)
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
        conn.conn_id for conn in loader.offered_connections(spec)
    )

    assert cli.main(["replay", wal, "--scenario", LINE_10]) == 0
    replayed = json.loads(capsys.readouterr().out)
    assert replayed["n_active"] == 3
    assert replayed["signature"] == live
