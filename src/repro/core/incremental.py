"""Incremental delay analysis over the interference partition.

The admission controller's binary search re-evaluates the whole network at
every probe, yet a probe changes exactly *one* connection's load.  In the
decomposition engine (:mod:`repro.core.delay`) connections are coupled only
through the shared FIFO stages — the ATM output ports (a ring-local
connection shares nothing; dedicated stages see only their own
connection's envelope).  Hence the **interference-partition invariant**:

    two connections can influence each other's delay reports if and only
    if their routes share an ATM output port, transitively closed.

The engine partitions the load set into those interference components and,
between consecutive computations, recomputes only the components that
contain an added, removed or changed member.  Every other component's
previous fixed-point reports are reused *verbatim* — bit-identical to a
full recomputation, because the feed-forward fixed point factorizes over
components: analyzing a component in isolation performs exactly the same
floating-point operations as analyzing it inside the full set.

Falls back to a full recomputation when:

* the topology mutated since the last computation (link/node failures or
  repairs, structural edits) — detected via
  :attr:`NetworkTopology.change_count`;
* a load's identity key cannot be formed (unhashable traffic descriptor);
* two loads carry the same key (duplicate connection ids);
* the engine is cold (first computation).
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.delay import (
    ConnectionLoad,
    DelayAnalyzer,
    DelayReport,
    route_port_names,
)
from repro.lru import LRUCache


class IncrementalDelayEngine:
    """Caches per-component fixed points of a :class:`DelayAnalyzer`."""

    def __init__(self, analyzer: DelayAnalyzer) -> None:
        self.analyzer = analyzer
        #: load key -> DelayReport from the last successful computation.
        self._reports: Dict[tuple, DelayReport] = {}
        #: load key -> shared-port footprint it was computed under.
        self._ports_of: Dict[tuple, Tuple[str, ...]] = {}
        #: Load keys of the last committed computation.  Dirty detection
        #: diffs the current key set against this one: a load's key covers
        #: everything that can change its analysis, so membership changes
        #: at a port are exactly the added/removed keys that traverse it.
        self._prev_keys: frozenset = frozenset()
        #: id(load) -> (weakref, key, ports): the controller keeps one
        #: ConnectionLoad object per active connection, so key and port
        #: footprint are computed once per object (the weakref guards id
        #: reuse).
        self._load_memo: Dict[int, tuple] = {}
        #: Traffic descriptors interned to small ints so load keys hash
        #: cheaply in the hot dict lookups.
        self._traffic_ids: Dict[object, int] = {}
        #: port-footprint tuple -> (component roots, port -> root map).
        self._partition_cache = LRUCache(1024)
        self._topo_version = analyzer.topology.change_count
        # Instrumentation (consumed by benches and the equivalence tests).
        self.n_full = 0
        self.n_partial = 0
        self.n_loads_computed = 0
        self.n_loads_reused = 0

    # ------------------------------------------------------------------

    def load_key(self, load: ConnectionLoad) -> Optional[tuple]:
        """Everything that determines one connection's own server chain and
        source envelope; ``None`` when no hashable key can be formed."""
        spec = load.spec
        try:
            traffic_id = self._traffic_ids.get(spec.traffic)
        except TypeError:
            return None
        if traffic_id is None:
            traffic_id = len(self._traffic_ids)
            self._traffic_ids[spec.traffic] = traffic_id
        route = load.route
        reg = load.regulator
        return (
            spec.conn_id,
            traffic_id,
            float(load.h_source),
            float(load.h_dest),
            route.source_ring,
            route.dest_ring,
            route.source_device,
            route.dest_device,
            tuple(route.switch_path),
            None if reg is None else (reg.sigma, reg.rho, reg.peak),
        )

    def _key_and_ports(
        self, load: ConnectionLoad
    ) -> Tuple[Optional[tuple], Optional[Tuple[str, ...]]]:
        memo = self._load_memo.get(id(load))
        if memo is not None and memo[0]() is load:
            return memo[1], memo[2]
        key = self.load_key(load)
        ports = (
            route_port_names(self.analyzer.topology, load.route)
            if key is not None
            else None
        )
        try:
            ref = weakref.ref(load)
        except TypeError:
            return key, ports
        self._load_memo[id(load)] = (ref, key, ports)
        if len(self._load_memo) > 8192:
            self._load_memo = {
                i: m for i, m in self._load_memo.items() if m[0]() is not None
            }
        return key, ports

    def invalidate(self) -> None:
        """Drop every cached fixed point (next computation runs full)."""
        self._reports.clear()
        self._ports_of.clear()
        self._prev_keys = frozenset()
        # Port footprints depend on the topology; drop them with the rest.
        self._load_memo.clear()
        self._partition_cache.clear()

    # ------------------------------------------------------------------

    def compute(self, loads: Sequence[ConnectionLoad]) -> Dict[str, DelayReport]:
        """The delay report of every load, as :meth:`DelayAnalyzer.compute`."""
        return self.compute_with_resources(loads)

    def compute_with_resources(
        self, loads: Sequence[ConnectionLoad]
    ) -> Dict[str, DelayReport]:
        """The body of :meth:`compute`.

        The engine keeps no per-port usage, so only the reports come
        back.  The name stays because perfbench's tracer times the engine
        by wrapping this method; the buffer and concatenation analyses
        that need a :class:`~repro.core.delay.ResourceUsage` call
        :meth:`DelayAnalyzer.compute_with_resources` directly.
        """
        loads = list(loads)
        topo_version = self.analyzer.topology.change_count
        if topo_version != self._topo_version:
            self.invalidate()
            self._topo_version = topo_version
        keys = []
        ports: List[Optional[Tuple[str, ...]]] = []
        for load in loads:
            key, port_names = self._key_and_ports(load)
            keys.append(key)
            ports.append(port_names)
        trackable = None not in keys and len(set(keys)) == len(keys)
        if not trackable:
            self.n_full += 1
            self.n_loads_computed += len(loads)
            self.invalidate()  # cannot diff against an untracked state
            return self.analyzer.compute(loads)

        partition_key = tuple(ports)
        partition = self._partition_cache.get(partition_key)
        if partition is None:
            components = _port_components(ports)
            roots = [components.find(i) for i in range(len(ports))]
            port_root: Dict[str, int] = {}
            for i, names in enumerate(ports):
                for name in names:
                    port_root[name] = roots[i]
            partition = (roots, port_root)
            self._partition_cache.put(partition_key, partition)
        roots, port_root = partition

        # A load key covers everything that determines its own analysis, so
        # a component is dirty iff it contains a key not seen last time, or
        # a port whose previous traverser set lost a member (a key that
        # disappeared): both port-membership changes and load changes reduce
        # to key-set differences — no per-port membership snapshots needed.
        current_keys = frozenset(keys)
        dirty_roots = set()
        for i, key in enumerate(keys):
            if key not in self._reports or self._ports_of.get(key) != ports[i]:
                dirty_roots.add(roots[i])
        for key in self._prev_keys - current_keys:
            for name in self._ports_of.get(key, ()):
                root = port_root.get(name)
                if root is not None:
                    dirty_roots.add(root)

        dirty = [i for i in range(len(loads)) if roots[i] in dirty_roots]
        clean = [i for i in range(len(loads)) if roots[i] not in dirty_roots]

        sub_reports: Dict[str, DelayReport] = {}
        if dirty:
            sub_reports = self.analyzer.compute([loads[i] for i in dirty])
            if clean:
                self.n_partial += 1
            else:
                self.n_full += 1
        self.n_loads_computed += len(dirty)
        self.n_loads_reused += len(clean)

        # Commit: replace the snapshot with exactly the current load set.
        new_reports: Dict[tuple, DelayReport] = {}
        new_ports_of: Dict[tuple, Tuple[str, ...]] = {}
        result: Dict[str, DelayReport] = {}
        for i in clean:
            report = self._reports[keys[i]]
            new_reports[keys[i]] = report
            new_ports_of[keys[i]] = ports[i]
            result[loads[i].spec.conn_id] = report
        for i in dirty:
            report = sub_reports[loads[i].spec.conn_id]
            new_reports[keys[i]] = report
            new_ports_of[keys[i]] = ports[i]
            result[loads[i].spec.conn_id] = report

        self._reports = new_reports
        self._ports_of = new_ports_of
        self._prev_keys = current_keys
        return result

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        total = self.n_loads_computed + self.n_loads_reused
        return {
            "full_computations": self.n_full,
            "partial_computations": self.n_partial,
            "loads_computed": self.n_loads_computed,
            "loads_reused": self.n_loads_reused,
            "reuse_fraction": self.n_loads_reused / total if total else 0.0,
        }


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _port_components(ports: List[Tuple[str, ...]]) -> _UnionFind:
    """Union loads that share any ATM output port."""
    uf = _UnionFind(len(ports))
    first_traverser: Dict[str, int] = {}
    for i, names in enumerate(ports):
        for name in names:
            j = first_traverser.setdefault(name, i)
            if j != i:
                uf.union(j, i)
    return uf
