"""Command-line entry points: ``python -m repro service <command>``.

* ``serve``  — run the JSON-lines TCP front-end on a fresh network;
* ``soak``   — a time-boxed churn soak with one injected node failure and
  one kill/restore cycle (the CI smoke job); exits non-zero on any leak,
  recovery mismatch, or missed degradation.  ``--scenario SPEC`` soaks the
  topology, analysis knobs and standing population of a scenario-spec file
  (e.g. a fuzz reproducer) instead of the built-in 6-ring setup;
* ``replay`` — inspect an existing journal directory: restore it and report.
  ``--scenario SPEC`` restores against a scenario-spec file's topology.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import tempfile
import time
from typing import List, Optional

from repro.config import CACConfig, NetworkConfig, ServiceConfig, build_network
from repro.service import frontend
from repro.service.bench import _admit, _spec_of, apply_ops, trajectory_ops
from repro.service.server import AdmissionService


def _network(n_rings: int) -> NetworkConfig:
    return NetworkConfig(n_rings=n_rings, hosts_per_ring=4)


def _load_scenario(path: str):
    """A scenario-spec file as (spec, network config, CAC config).

    Lets ``soak`` and ``replay`` run against the exact topology and
    analysis knobs of a serialized :class:`~repro.scenario.spec.ScenarioSpec`
    (e.g. a fuzz reproducer) instead of the built-in defaults.
    """
    from repro.scenario import codec as scenario_codec
    from repro.scenario import loader as scenario_loader

    spec = scenario_codec.load_file(path)
    cac_cfg = scenario_loader.cac_config(spec)
    if cac_cfg is None:
        cac_cfg = CACConfig(beta=spec.cac.beta)
    return spec, spec.topology, cac_cfg


def cmd_serve(args: argparse.Namespace) -> int:
    config = _network(args.rings)

    async def _run() -> None:
        service = AdmissionService(
            build_network(config),
            network_config=config,
            journal_dir=args.journal_dir,
        )
        await service.start()
        print(
            f"admission service on {args.host}:{args.port} "
            f"({args.rings} rings, "
            f"journal={args.journal_dir or 'off'})",
            flush=True,
        )
        try:
            await frontend.serve(service, args.host, args.port)
        finally:
            await service.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_soak(args: argparse.Namespace) -> int:
    """Churn for ~``--seconds``, fail/repair a node, kill and restore."""
    scenario = None
    if args.scenario:
        scenario, config, cac_cfg = _load_scenario(args.scenario)
        print(f"[soak] scenario {scenario.name!r} from {args.scenario}")
    else:
        config = _network(6)
        cac_cfg = CACConfig()
    problems: List[str] = []
    n_rings = config.n_rings
    fail_node = f"id{max(2, n_rings - 1)}"
    host_idx = min(2, config.hosts_per_ring)

    def _churn_op(r: int):
        if scenario is None:
            # The historical 6-ring pattern (rings 1/3/5 -> 2/4/6).
            return _admit(
                f"soak-{r}",
                f"host{(r % 3) * 2 + 1}-1",
                f"host{(r % 3) * 2 + 2}-2",
            )
        src_ring = (r % n_rings) + 1
        dst_ring = (src_ring % n_rings) + 1
        return _admit(
            f"soak-{r}",
            f"host{src_ring}-1",
            f"host{dst_ring}-{host_idx}",
        )

    async def _run() -> None:
        with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
            wal = os.path.join(tmp, "wal")
            service = AdmissionService(
                build_network(config),
                network_config=config,
                cac_config=cac_cfg,
                service_config=ServiceConfig(snapshot_every=25),
                journal_dir=wal,
            )
            await service.start()
            if scenario is None:
                await apply_ops(service, trajectory_ops())
            else:
                # Standing population: the spec's explicit connections.
                from repro.scenario.loader import offered_connections

                for conn in offered_connections(scenario):
                    await service.submit_admit(conn)
            deadline = time.monotonic() + args.seconds
            r = 0
            failed = repaired = False
            while time.monotonic() < deadline:
                await service.submit_admit(_spec_of(_churn_op(r)))
                await service.submit_release(f"soak-{r}")
                r += 1
                if not failed and time.monotonic() > deadline - args.seconds / 2:
                    displaced = await service.inject_node_failure(fail_node)
                    print(
                        f"[soak] failed {fail_node}, "
                        f"displaced {len(displaced)}"
                    )
                    failed = True
                elif failed and not repaired and time.monotonic() > (
                    deadline - args.seconds / 4
                ):
                    await service.repair_node(fail_node)
                    print(f"[soak] repaired {fail_node}")
                    repaired = True
            if not failed:
                displaced = await service.inject_node_failure(fail_node)
                print(
                    f"[soak] failed {fail_node}, displaced {len(displaced)}"
                )
            if not repaired:
                await service.repair_node(fail_node)
                print(f"[soak] repaired {fail_node}")
            pre_kill = service.signature()
            decided = service.metrics.decision_latency.n
            # Kill: abandon without stop(); the journal is the survivor.
            await service.simulate_kill()
            restored, report = AdmissionService.restore(
                build_network(config),
                wal,
                network_config=config,
                cac_config=cac_cfg,
            )
            print(
                f"[soak] {r} churn rounds, {decided} decisions; restore: "
                f"snapshot seq {report.snapshot_seq}, "
                f"{report.n_replayed} replayed, {report.n_active} active"
            )
            if report.signature != pre_kill:
                problems.append(
                    "restored signature differs from pre-kill state"
                )
            await restored.start(fresh_journal=False)
            await apply_ops(
                restored,
                [
                    _admit(
                        "post-restore",
                        f"host1-{config.hosts_per_ring}",
                        "host2-1",
                    )
                ],
            )
            await restored.stop()  # raises AuditError on any leak

    asyncio.run(_run())
    for problem in problems:
        print(f"SOAK FAILED: {problem}", file=sys.stderr)
    if not problems:
        print("service soak: OK (recovered bit-identically, zero leaks)")
    return 1 if problems else 0


def cmd_replay(args: argparse.Namespace) -> int:
    # Restoring opens the journal for append, which would create a
    # missing directory and report an empty state as if it were real.
    if not os.path.isdir(args.journal_dir):
        print(f"no journal directory at {args.journal_dir!r}", file=sys.stderr)
        return 1
    cac_cfg = None
    if args.scenario:
        _, config, cac_cfg = _load_scenario(args.scenario)
    else:
        config = _network(args.rings)
    _, report = AdmissionService.restore(
        build_network(config),
        args.journal_dir,
        network_config=config,
        cac_config=cac_cfg,
    )
    print(
        json.dumps(
            {
                "snapshot_seq": report.snapshot_seq,
                "n_snapshot_records": report.n_snapshot_records,
                "n_replayed": report.n_replayed,
                "truncated_tail": report.truncated_tail,
                "corruption": report.corruption,
                "signature": report.signature,
                "n_requests": report.n_requests,
                "n_admitted": report.n_admitted,
                "n_active": report.n_active,
            },
            indent=2,
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro service",
        description="Standing admission-control service over the CAC.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the JSON-lines TCP front-end")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument("--rings", type=int, default=3)
    serve.add_argument("--journal-dir", default=None)
    serve.set_defaults(func=cmd_serve)

    soak = sub.add_parser(
        "soak", help="time-boxed churn with a node failure and kill/restore"
    )
    soak.add_argument("--seconds", type=float, default=60.0)
    soak.add_argument(
        "--scenario",
        default=None,
        metavar="SPEC",
        help="soak the topology/knobs/standing-population of a scenario "
        "spec file instead of the built-in 6-ring setup",
    )
    soak.set_defaults(func=cmd_soak)

    replay = sub.add_parser("replay", help="inspect a journal directory")
    replay.add_argument("journal_dir")
    replay.add_argument("--rings", type=int, default=3)
    replay.add_argument(
        "--scenario",
        default=None,
        metavar="SPEC",
        help="restore against the topology/knobs of a scenario spec file "
        "(overrides --rings)",
    )
    replay.set_defaults(func=cmd_replay)

    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    raise SystemExit(main())
