"""The active connection set, sharded by the interference partition.

Two connections interact through exactly two mechanisms:

* **delay coupling** — they share an ATM output port (transitively), the
  interference partition of :mod:`repro.core.incremental`;
* **ledger coupling** — they draw synchronous bandwidth from the same
  FDDI ring's TTRT budget.  This is *not* implied by port sharing: a
  connection sourcing on ring X and one terminating on ring X compete for
  ring X's ledger while their routes can share no port at all.

A connection's **shard footprint** is therefore its route's port names
plus a ``ring:<id>`` token for each endpoint ring.  Shards are the
transitive closure of footprint overlap: two shards never share a port
*or* a ring, so each shard's controller analyses only the connections
that can affect one another, and its verdicts and bounds equal those of
one controller holding the whole set.  The service decides one request
at a time; what the split buys over that single controller (smaller
fixed points, warmer per-shard caches) has not been measured.

Shards only ever grow: a bridging connection merges them, and a release
sheds tokens only when its shard empties.  A footprint touching no live
shard gets a fresh shard that joins :attr:`ShardedAdmissionState.shards`
only when a record commits into it, so a refused or rolled-back
admission leaves no shard behind.  Membership moves go through the
controller's ``forget_record``/``adopt_record`` pair, which never touch
the ring ledgers — the ledgers are global, owned by the shared topology,
and only admit/restore/release mutate them.

Determinism: every structure here iterates in **global admission order**
(the insertion order of :attr:`ShardedAdmissionState.active`), so a state
rebuilt by journal replay produces the same shard controllers with the
same internal orderings — and hence bit-identical delay analyses — as
the process that wrote the journal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import CACConfig, NetworkConfig
from repro.core.cac import AdmissionController, AdmissionResult, ledger_discrepancies
from repro.core.delay import route_port_names
from repro.errors import ConfigurationError
from repro.network.connection import ConnectionRecord, ConnectionSpec
from repro.network.routing import Route, compute_route
from repro.network.topology import NetworkTopology


def shard_footprint(topology: NetworkTopology, route: Route) -> Tuple[str, ...]:
    """Port names plus endpoint-ring tokens (sorted, deduplicated)."""
    tokens = set(route_port_names(topology, route))
    tokens.add(f"ring:{route.source_ring}")
    tokens.add(f"ring:{route.dest_ring}")
    return tuple(sorted(tokens))


class Shard:
    """One independent slice of the active set with its own controller."""

    def __init__(
        self,
        shard_id: int,
        topology: NetworkTopology,
        network_config: NetworkConfig,
        cac_config: CACConfig,
    ) -> None:
        self.shard_id = shard_id
        self.controller = AdmissionController(
            topology, network_config, cac_config
        )
        #: Footprint tokens this shard owns (ports + ring:<id>).
        self.tokens: set = set()

    def __repr__(self) -> str:
        return (
            f"Shard({self.shard_id}, conns={len(self.controller.connections)},"
            f" tokens={len(self.tokens)})"
        )


class ShardedAdmissionState:
    """All active connections, partitioned into independent shards."""

    def __init__(
        self,
        topology: NetworkTopology,
        network_config: Optional[NetworkConfig] = None,
        cac_config: Optional[CACConfig] = None,
    ) -> None:
        self.topology = topology
        self.network_config = network_config or NetworkConfig()
        self.cac_config = cac_config or CACConfig()
        self.shards: Dict[int, Shard] = {}
        self._next_shard_id = 1
        #: token -> shard id owning it.
        self._token_shard: Dict[str, int] = {}
        #: Active records in global admission order (dicts preserve
        #: insertion order; deletion keeps the survivors' relative order).
        self.active: Dict[str, ConnectionRecord] = {}
        self._conn_shard: Dict[str, int] = {}
        #: Shard merges performed (metrics surface).
        self.n_merges = 0

    # -- shard resolution ----------------------------------------------

    def _new_shard(self) -> Shard:
        """A fresh shard, registered only by :meth:`_attach`."""
        shard = Shard(
            self._next_shard_id,
            self.topology,
            self.network_config,
            self.cac_config,
        )
        self._next_shard_id += 1
        return shard

    def _merge(self, target: Shard, source: Shard) -> None:
        """Fold ``source`` into ``target`` in global admission order."""
        moving = [
            cid
            for cid in self.active
            if self._conn_shard.get(cid) == source.shard_id
        ]
        for cid in moving:
            record = source.controller.forget_record(cid)
            target.controller.adopt_record(record)
            self._conn_shard[cid] = target.shard_id
        target.tokens |= source.tokens
        for token in source.tokens:
            self._token_shard[token] = target.shard_id
        del self.shards[source.shard_id]
        self.n_merges += 1
        if moving:
            # Adopted records join the target's next fixed point; compute
            # it now so stale bounds never linger across decisions.
            target.controller.refresh_bounds()

    def resolve(self, route: Route) -> Tuple[Shard, Tuple[str, ...]]:
        """The shard that must decide for ``route`` (merging as needed).

        With no overlapping shard the result is a fresh, unregistered
        shard; it joins :attr:`shards` when a record commits into it.
        """
        footprint = shard_footprint(self.topology, route)
        overlap_ids: List[int] = []
        for token in footprint:
            sid = self._token_shard.get(token)
            if sid is not None and sid not in overlap_ids:
                overlap_ids.append(sid)
        if not overlap_ids:
            return self._new_shard(), footprint
        overlap_ids.sort()
        target = self.shards[overlap_ids[0]]
        for sid in overlap_ids[1:]:
            self._merge(target, self.shards[sid])
        return target, footprint

    def route_of(self, spec: ConnectionSpec) -> Route:
        return compute_route(self.topology, spec.source_host, spec.dest_host)

    # -- state mutation -------------------------------------------------

    def _attach(
        self, shard: Shard, footprint: Tuple[str, ...], record: ConnectionRecord
    ) -> None:
        """Register ``record`` (and ``shard``, if new) as active."""
        self.shards[shard.shard_id] = shard
        self.active[record.conn_id] = record
        self._conn_shard[record.conn_id] = shard.shard_id
        shard.tokens.update(footprint)
        for token in footprint:
            self._token_shard[token] = shard.shard_id

    def commit_admit(
        self,
        shard: Shard,
        footprint: Tuple[str, ...],
        result: AdmissionResult,
    ) -> None:
        """Record a successful admission decided by ``shard``."""
        record = result.record
        if record is None:
            raise ConfigurationError("commit_admit needs an admitted result")
        self._attach(shard, footprint, record)

    def restore_record(
        self,
        spec: ConnectionSpec,
        h_source: float,
        h_dest: float,
        *,
        route: Route,
        delay_bound: Optional[float] = None,
    ) -> ConnectionRecord:
        """Replay primitive: re-apply a journaled admission verbatim."""
        shard, footprint = self.resolve(route)
        record = shard.controller.restore(
            spec, h_source, h_dest, route=route, delay_bound=delay_bound
        )
        self._attach(shard, footprint, record)
        return record

    def shard_of(self, conn_id: str) -> Optional[Shard]:
        sid = self._conn_shard.get(conn_id)
        return None if sid is None else self.shards[sid]

    def release(self, conn_id: str) -> ConnectionRecord:
        """Tear one connection down; empty shards are garbage-collected."""
        shard = self.shard_of(conn_id)
        if shard is None:
            raise ConfigurationError(f"unknown connection {conn_id!r}")
        record = shard.controller.release(conn_id)
        del self.active[conn_id]
        del self._conn_shard[conn_id]
        if not shard.controller.connections:
            for token in list(shard.tokens):
                if self._token_shard.get(token) == shard.shard_id:
                    del self._token_shard[token]
            del self.shards[shard.shard_id]
        return record

    # -- maintenance -----------------------------------------------------

    def refresh_all_bounds(self) -> None:
        for shard in self.shards.values():
            shard.controller.refresh_bounds()

    # -- inspection ------------------------------------------------------

    def records_in_order(self) -> List[ConnectionRecord]:
        """Active records in global admission order."""
        return list(self.active.values())

    def audit_allocations(self) -> Dict[str, float]:
        """Cross-shard ledger audit: ring totals minus all live grants.

        The per-shard ``audit_allocations`` is meaningless here (each
        ledger holds every shard's grants), so the whole active set is
        audited against the shared ledgers.
        """
        return ledger_discrepancies(self.topology, self.active.values())

    def stats(self) -> Dict[str, int]:
        return {
            "n_shards": len(self.shards),
            "n_active": len(self.active),
            "n_merges": self.n_merges,
            "largest_shard": max(
                (len(s.controller.connections) for s in self.shards.values()),
                default=0,
            ),
        }
