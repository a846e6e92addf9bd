"""Operator CLI: ``python -m repro <command>``.

Commands
--------
``topology``
    Print the reference network (rings, hosts, devices, switches, links).
``demo``
    Admit a few connections and print the state report and per-hop budget.
``buffers``
    Admit the demo connections and print the buffer-dimensioning report.
``experiments ...``
    Forwards to :mod:`repro.experiments` (``figure7``, ``figure8``,
    ``validation``, ``ablation-*``, ``survivability``, ``all``).
``service ...``
    Forwards to :mod:`repro.service` (``serve``, ``soak``, ``replay``) —
    the standing admission-control server.
``scenario ...``
    Forwards to :mod:`repro.scenario` (``generate``, ``replay``, ``fuzz``,
    ``manifest``) — unified scenario specs + differential fuzzing.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import CACConfig, NetworkConfig, build_network
from repro.core import AdmissionController, ConnectionLoad, network_state
from repro.core.buffers import dimension_buffers
from repro.network.connection import ConnectionSpec
from repro.traffic import DualPeriodicTraffic
from repro.units import MBIT, MS_PER_S, US_PER_S

DEMO_TRAFFIC = DualPeriodicTraffic(c1=120_000.0, p1=0.015, c2=60_000.0, p2=0.005)
DEMO_REQUESTS = [
    ("video-1", "host1-1", "host2-1", 0.090),
    ("video-2", "host2-2", "host3-1", 0.090),
    ("control", "host3-2", "host1-2", 0.070),
]


def cmd_topology(args) -> str:
    cfg = NetworkConfig(n_rings=args.rings, hosts_per_ring=args.hosts)
    topo = build_network(cfg)
    lines = [f"{topo!r}", "", "Rings:"]
    for ring in topo.rings.values():
        hosts = ", ".join(h.host_id for h in topo.hosts_on_ring(ring.ring_id))
        device = topo.device_of_ring(ring.ring_id)
        switch = topo.device_switch[device.device_id]
        lines.append(
            f"  {ring.ring_id}: TTRT {ring.ttrt * MS_PER_S:.1f} ms, "
            f"{ring.bandwidth / MBIT:.0f} Mbps | hosts: {hosts} | "
            f"bridge {device.device_id} -> {switch}"
        )
    lines.append("Backbone:")
    for a in sorted(topo.switches):
        for b in sorted(topo.switches):
            if a < b:
                link = topo.switch_link(a, b)
                lines.append(
                    f"  {a} <-> {b}: {link.rate / MBIT:.2f} Mbps "
                    f"({link.propagation_delay * US_PER_S:.0f} us)"
                )
    return "\n".join(lines)


def _demo_controller() -> AdmissionController:
    topo = build_network()
    cac = AdmissionController(topo, cac_config=CACConfig(beta=0.5))
    for cid, src, dst, deadline in DEMO_REQUESTS:
        cac.request(ConnectionSpec(cid, src, dst, DEMO_TRAFFIC, deadline))
    return cac


def cmd_demo(args) -> str:
    del args
    cac = _demo_controller()
    lines = [network_state(cac).format(), "", "Per-hop budget of video-1:"]
    loads = [
        ConnectionLoad(r.spec, r.route, r.h_source, r.h_dest)
        for r in cac.connections.values()
    ]
    report = cac.analyzer.compute(loads)["video-1"]
    for hop, delay in report.per_hop:
        lines.append(f"  {hop:40s} {delay * US_PER_S:10.1f} us")
    lines.append(f"  {'TOTAL':40s} {report.total_delay * US_PER_S:10.1f} us")
    return "\n".join(lines)


def cmd_buffers(args) -> str:
    del args
    cac = _demo_controller()
    loads = [
        ConnectionLoad(r.spec, r.route, r.h_source, r.h_dest)
        for r in cac.connections.values()
    ]
    plan = dimension_buffers(cac.topology, loads, analyzer=cac.analyzer)
    return plan.format_report()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["experiments"]:
        # Forward verbatim (argparse's REMAINDER would swallow a leading
        # "-h"/"--quick" and reject it at this level).
        from repro.experiments.__main__ import main as experiments_main

        return experiments_main(argv[1:])
    if argv[:1] == ["lint"]:
        from repro.lint.__main__ import main as lint_main

        return lint_main(argv[1:])
    if argv[:1] == ["service"]:
        from repro.service.__main__ import main as service_main

        return service_main(argv[1:])
    if argv[:1] == ["scenario"]:
        from repro.scenario.__main__ import main as scenario_main

        return scenario_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FDDI-ATM-FDDI real-time CAC — operator utilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_topo = sub.add_parser("topology", help="print the reference network")
    p_topo.add_argument("--rings", type=int, default=3)
    p_topo.add_argument("--hosts", type=int, default=4)
    p_topo.set_defaults(func=cmd_topology)

    p_demo = sub.add_parser("demo", help="admit demo connections, print state")
    p_demo.set_defaults(func=cmd_demo)

    p_buf = sub.add_parser("buffers", help="buffer dimensioning for the demo")
    p_buf.set_defaults(func=cmd_buffers)

    sub.add_parser(
        "experiments",
        help="run the paper's experiments (see repro.experiments)",
        add_help=False,
    )

    sub.add_parser(
        "lint",
        help="run reprolint, the domain-aware static analyzer (see repro.lint)",
        add_help=False,
    )

    sub.add_parser(
        "service",
        help="standing admission-control service (serve/soak/replay)",
        add_help=False,
    )

    sub.add_parser(
        "scenario",
        help="unified scenario specs + differential fuzzing "
        "(generate/replay/fuzz/manifest)",
        add_help=False,
    )

    args = parser.parse_args(argv)
    print(args.func(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
