"""Declarative topology layer: a serializable spec that lowers to
:class:`~repro.network.topology.NetworkTopology` through one builder.

The paper's Figure-1 network is one point in a much larger space: any set
of FDDI rings, each bridged by exactly one interface device to some ATM
switch, with an arbitrary directed backbone edge list joining the
switches.  A :class:`TopologySpec` names that space declaratively — typed
ring/switch/device entries, explicit ring -> switch attachment, per-link
rates and propagation delays — and :meth:`TopologySpec.build` lowers it to
the live object graph every engine consumes.

Design rules (same as :mod:`repro.scenario.spec`):

* every entry is a frozen, scalar-field dataclass, so specs hash, compare
  structurally and round-trip through the strict scenario codec;
* per-entry parameters are ``Optional`` and default to the values a
  :class:`~repro.config.NetworkConfig` supplies at build time, so a spec
  only records what deviates from the reference parameters;
* cheap per-entry validation happens at construction; cross-entry
  structural validation (dangling references, unbridged rings, backbone
  connectivity) is :meth:`TopologySpec.validate`, which the scenario-spec
  layer calls before a spec is ever written to disk.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from repro.atm.switch import AtmSwitch
from repro.config import NetworkConfig
from repro.errors import TopologyError
from repro.fddi.ring import FDDIRing
from repro.interface_device.device import InterfaceDevice
from repro.network.topology import NetworkTopology


@dataclasses.dataclass(frozen=True)
class RingSpec:
    """One FDDI ring and its attached host population.

    ``None`` parameters inherit from the build-time
    :class:`~repro.config.NetworkConfig` defaults.  Host stations are named
    ``<host_prefix><j>`` for ``j`` in ``1..n_hosts``; the default prefix
    ``<ring_id>-h`` keeps names unique across rings, and the generator
    families override it to the paper's ``host<i>-<j>`` convention.
    """

    ring_id: str
    n_hosts: int = 4
    ttrt: Optional[float] = None
    bandwidth: Optional[float] = None
    overhead: Optional[float] = None
    propagation: Optional[float] = None
    host_prefix: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.ring_id:
            raise TopologyError("ring_id must be non-empty")
        if self.n_hosts < 1:
            raise TopologyError(f"ring {self.ring_id!r}: need at least one host")
        for label in ("ttrt", "bandwidth"):
            value = getattr(self, label)
            if value is not None and value <= 0:
                raise TopologyError(f"ring {self.ring_id!r}: {label} must be positive")
        for label in ("overhead", "propagation"):
            value = getattr(self, label)
            if value is not None and value < 0:
                raise TopologyError(
                    f"ring {self.ring_id!r}: {label} must be non-negative"
                )

    def host_ids(self) -> List[str]:
        """The ring's host station names, in attachment order."""
        prefix = self.host_prefix if self.host_prefix is not None else f"{self.ring_id}-h"
        return [f"{prefix}{j}" for j in range(1, self.n_hosts + 1)]


@dataclasses.dataclass(frozen=True)
class SwitchSpec:
    """One ATM backbone switch."""

    switch_id: str
    fabric_delay: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.switch_id:
            raise TopologyError("switch_id must be non-empty")
        if self.fabric_delay is not None and self.fabric_delay < 0:
            raise TopologyError(
                f"switch {self.switch_id!r}: fabric_delay must be non-negative"
            )


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    """One interface device: the explicit ring -> switch attachment."""

    device_id: str
    ring_id: str
    switch_id: str
    uplink_rate: Optional[float] = None
    propagation: Optional[float] = None

    def __post_init__(self) -> None:
        for label in ("device_id", "ring_id", "switch_id"):
            if not getattr(self, label):
                raise TopologyError(f"device entry: {label} must be non-empty")
        if self.uplink_rate is not None and self.uplink_rate <= 0:
            raise TopologyError(
                f"device {self.device_id!r}: uplink_rate must be positive"
            )
        if self.propagation is not None and self.propagation < 0:
            raise TopologyError(
                f"device {self.device_id!r}: propagation must be non-negative"
            )


@dataclasses.dataclass(frozen=True)
class BackboneLinkSpec:
    """One backbone edge (``bidirectional`` creates both directed links)."""

    a: str
    b: str
    rate: Optional[float] = None
    propagation: Optional[float] = None
    bidirectional: bool = True

    def __post_init__(self) -> None:
        if not self.a or not self.b:
            raise TopologyError("backbone link endpoints must be non-empty")
        if self.a == self.b:
            raise TopologyError(f"backbone link {self.a!r}: self-loops not allowed")
        if self.rate is not None and self.rate <= 0:
            raise TopologyError(f"link {self.a}->{self.b}: rate must be positive")
        if self.propagation is not None and self.propagation < 0:
            raise TopologyError(
                f"link {self.a}->{self.b}: propagation must be non-negative"
            )

    def directed_pairs(self) -> List[Tuple[str, str]]:
        return [(self.a, self.b), (self.b, self.a)] if self.bidirectional else [
            (self.a, self.b)
        ]


@dataclasses.dataclass(frozen=True)
class TopologySpec:
    """A complete declarative network description.

    The entry lists are order-significant only for host naming and build
    determinism; semantics are purely structural.  ``validate()`` checks
    everything the builder would reject, plus backbone strong connectivity,
    without constructing any live object.
    """

    rings: Tuple[RingSpec, ...]
    switches: Tuple[SwitchSpec, ...]
    devices: Tuple[DeviceSpec, ...]
    links: Tuple[BackboneLinkSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.rings:
            raise TopologyError("a topology needs at least one ring")
        if not self.switches:
            raise TopologyError("a topology needs at least one switch")

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Structural completeness, or :class:`TopologyError`."""
        ring_ids = [r.ring_id for r in self.rings]
        switch_ids = [s.switch_id for s in self.switches]
        device_ids = [d.device_id for d in self.devices]
        for label, ids in (
            ("ring", ring_ids),
            ("switch", switch_ids),
            ("device", device_ids),
        ):
            seen: Set[str] = set()
            for entry_id in ids:
                if entry_id in seen:
                    raise TopologyError(f"duplicate {label} id {entry_id!r}")
                seen.add(entry_id)

        hosts: Set[str] = set()
        for ring in self.rings:
            for host_id in ring.host_ids():
                if host_id in hosts:
                    raise TopologyError(f"duplicate host id {host_id!r}")
                hosts.add(host_id)

        switch_set = set(switch_ids)
        bridged: Dict[str, str] = {}
        for dev in self.devices:
            if dev.ring_id not in set(ring_ids):
                raise TopologyError(
                    f"device {dev.device_id!r}: unknown ring {dev.ring_id!r}"
                )
            if dev.switch_id not in switch_set:
                raise TopologyError(
                    f"device {dev.device_id!r}: unknown switch {dev.switch_id!r}"
                )
            if dev.ring_id in bridged:
                raise TopologyError(
                    f"ring {dev.ring_id!r} bridged by both "
                    f"{bridged[dev.ring_id]!r} and {dev.device_id!r}"
                )
            bridged[dev.ring_id] = dev.device_id
        for ring_id in ring_ids:
            if ring_id not in bridged:
                raise TopologyError(f"ring {ring_id!r} has no interface device")

        directed: Set[Tuple[str, str]] = set()
        for link in self.links:
            for src, dst in link.directed_pairs():
                if src not in switch_set or dst not in switch_set:
                    raise TopologyError(
                        f"backbone link references unknown switch in "
                        f"({src!r}, {dst!r})"
                    )
                if (src, dst) in directed:
                    raise TopologyError(f"duplicate backbone link {src}->{dst}")
                directed.add((src, dst))

        if len(switch_set) > 1 and not _strongly_connected(switch_set, directed):
            raise TopologyError("backbone is not strongly connected")

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------

    def build(self, defaults: Optional[NetworkConfig] = None) -> NetworkTopology:
        """Lower the spec to a live :class:`NetworkTopology`.

        ``defaults`` supplies every parameter an entry leaves ``None``
        (and the device/port latencies, which are global knobs).  The
        result is validated before it is returned.
        """
        self.validate()
        cfg = defaults if defaults is not None else NetworkConfig()
        topo = NetworkTopology()
        for ring in self.rings:
            topo.add_ring(
                FDDIRing(
                    ring_id=ring.ring_id,
                    ttrt=ring.ttrt if ring.ttrt is not None else cfg.ttrt,
                    bandwidth=(
                        ring.bandwidth
                        if ring.bandwidth is not None
                        else cfg.fddi_bandwidth
                    ),
                    overhead=(
                        ring.overhead
                        if ring.overhead is not None
                        else cfg.ring_overhead
                    ),
                    propagation_delay=(
                        ring.propagation
                        if ring.propagation is not None
                        else cfg.ring_propagation
                    ),
                )
            )
            for host_id in ring.host_ids():
                topo.add_host(host_id, ring.ring_id)
        for switch in self.switches:
            topo.add_switch(
                AtmSwitch(
                    switch.switch_id,
                    fabric_delay=(
                        switch.fabric_delay
                        if switch.fabric_delay is not None
                        else cfg.switch_fabric_delay
                    ),
                    port_buffer_bits=cfg.port_buffer_bits,
                    port_latency=cfg.port_latency,
                )
            )
        for dev in self.devices:
            topo.add_device(
                InterfaceDevice(
                    device_id=dev.device_id,
                    ring_id=dev.ring_id,
                    input_port_delay=cfg.id_input_port_delay,
                    frame_switch_delay=cfg.id_frame_switch_delay,
                    frame_processing_delay=cfg.id_frame_processing_delay,
                    port_buffer_bits=cfg.port_buffer_bits,
                    port_latency=cfg.port_latency,
                ),
                switch_id=dev.switch_id,
                uplink_rate=(
                    dev.uplink_rate
                    if dev.uplink_rate is not None
                    else cfg.atm_link_rate
                ),
                link_propagation=(
                    dev.propagation
                    if dev.propagation is not None
                    else cfg.link_propagation
                ),
            )
        for link in self.links:
            topo.connect_switches(
                link.a,
                link.b,
                rate=link.rate if link.rate is not None else cfg.atm_link_rate,
                propagation_delay=(
                    link.propagation
                    if link.propagation is not None
                    else cfg.link_propagation
                ),
                bidirectional=link.bidirectional,
            )
        topo.validate()
        return topo

    # ------------------------------------------------------------------
    # Lookup helpers (used by the fuzz generator and experiments)
    # ------------------------------------------------------------------

    @property
    def n_rings(self) -> int:
        return len(self.rings)

    @property
    def n_switches(self) -> int:
        return len(self.switches)

    def ring(self, ring_id: str) -> RingSpec:
        for ring in self.rings:
            if ring.ring_id == ring_id:
                return ring
        raise TopologyError(f"unknown ring {ring_id!r}")


def _strongly_connected(
    nodes: Set[str], edges: Set[Tuple[str, str]]
) -> bool:
    """Strong connectivity via forward + reverse reachability (no deps)."""
    fwd: Dict[str, List[str]] = {n: [] for n in nodes}
    rev: Dict[str, List[str]] = {n: [] for n in nodes}
    for src, dst in edges:
        fwd[src].append(dst)
        rev[dst].append(src)
    start = next(iter(sorted(nodes)))
    for adjacency in (fwd, rev):
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if seen != nodes:
            return False
    return True
