"""Planted defects: what reprolint catches in the real tree must stay caught.

Each entry is one defect of the kind a rule targets, written as a text
edit to a real module under ``src/repro``.  The test applies the edit in
memory, lints the edited source under the module's real path, and
requires the defect's rule code among the findings.  A later cut to the
linter that silently drops one of these catches fails here.

The table holds only defects reprolint catches; the planted defects it
misses are listed in CHANGES.md beside these.
"""

from pathlib import Path
from typing import NamedTuple

import pytest

from repro.lint import lint_source

SRC = Path(__file__).resolve().parents[2] / "src"


class Defect(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    code: str


DEFECTS = [
    # -- RL001 determinism ---------------------------------------------
    Defect(
        "rl001-sim-wall-clock",
        "repro/sim/engine.py",
        "        self.now = max(self.now, t_end)\n",
        "        import time\n\n"
        "        self.now = max(self.now, t_end, time.time())\n",
        "RL001",
    ),
    Defect(
        "rl001-retry-global-rng",
        "repro/faults/retry.py",
        "raw *= 1.0 + self.jitter * rng.random()",
        "raw *= 1.0 + self.jitter * random.random()",
        "RL001",
    ),
    Defect(
        "rl001-failover-shuffle",
        "repro/core/failover.py",
        "        specs.sort(key=lambda s: (s.deadline, s.conn_id))\n",
        "        import random\n\n"
        "        random.shuffle(specs)\n"
        "        specs.sort(key=lambda s: s.deadline)\n",
        "RL001",
    ),
    Defect(
        "rl001-ring-grant-timestamp",
        "repro/fddi/ring.py",
        "        self._allocations[conn_id] = float(sync_time)\n",
        "        import time\n\n"
        "        self._allocations[conn_id] = float(sync_time)\n"
        "        self.granted_at = time.monotonic()\n",
        "RL001",
    ),
    # -- RL002 unit discipline -----------------------------------------
    Defect(
        "rl002-audit-inline-ms",
        "repro/faults/audit.py",
        "+{overrun * MS_PER_S:.3f} ms",
        "+{overrun * 1000:.3f} ms",
        "RL002",
    ),
    Defect(
        "rl002-timeout-ms-holds-seconds",
        "repro/fddi/mac_server.py",
        "from repro.units import MS_PER_S\n",
        "from repro.units import MS_PER_S, milliseconds\n\n"
        "DEFAULT_TIMEOUT_MS = milliseconds(5)\n",
        "RL002",
    ),
    Defect(
        "rl002-cell-geometry-inline",
        "repro/atm/cell.py",
        "frame_bits / CELL_PAYLOAD_BITS - 1e-12",
        "frame_bits / (48 * 8) - 1e-12",
        "RL002",
    ),
    Defect(
        "rl002-repr-inline-mbps",
        "repro/fddi/ring.py",
        '            f"{len(self._allocations)} connections)"\n',
        '            f"bw={self.bandwidth / 1e6:.0f}Mb/s, "\n'
        '            f"{len(self._allocations)} connections)"\n',
        "RL002",
    ),
    Defect(
        "rl002-frame-bytes-times-eight",
        "repro/fddi/timed_token.py",
        "MAX_FRAME_BITS = int(bytes_to_bits(FDDI_MAX_FRAME_BYTES))\n",
        "MAX_FRAME_BITS = int(FDDI_MAX_FRAME_BYTES * 8)\n",
        "RL002",
    ),
    # -- RL003 float safety --------------------------------------------
    Defect(
        "rl003-is-close-exact",
        "repro/envelopes/curve.py",
        "    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))\n",
        "    return a == b\n",
        "RL003",
    ),
    Defect(
        "rl003-staircase-exact-zero",
        "repro/envelopes/staircase.py",
        "if abs(x - nearest) < 1e-9 * max(1.0, abs(x)):",
        "if abs(x - nearest) == 0.0:",
        "RL003",
    ),
    Defect(
        "rl003-policy-sentinel-unsuppressed",
        "repro/core/policies.py",
        "        # reprolint: disable=RL003 -- exact config sentinel: beta=0.0"
        " selects the pure min-need policy\n",
        "",
        "RL003",
    ),
    # -- RL004 cache purity --------------------------------------------
    Defect(
        "rl004-tidy-writes-breakpoints",
        "repro/core/delay.py",
        "        envelope = envelope.simplify()\n",
        "        envelope = envelope.simplify()\n"
        "        xs = envelope.breakpoints()\n"
        "        xs[0] = max(xs[0], 0.0)\n",
        "RL004",
    ),
    Defect(
        "rl004-trajectory-clips-breakpoints",
        "repro/traffic/descriptor.py",
        "        for x in env.breakpoints():\n",
        "        xs = env.breakpoints()\n"
        "        np.minimum(xs, duration, out=xs)\n"
        "        for x in xs:\n",
        "RL004",
    ),
    Defect(
        "rl004-stage-cache-hit-mutated",
        "repro/core/delay.py",
        "        hit = self._stage_cache.get(key)\n"
        "        if hit is not None:\n"
        "            return hit\n",
        "        hit = self._stage_cache.get(key)\n"
        "        if hit is not None:\n"
        "            if not output:\n"
        "                hit.output = None\n"
        "            return hit\n",
        "RL004",
    ),
    Defect(
        "rl004-breakpoints-sorted-in-place",
        "repro/envelopes/operations.py",
        "    # reprolint: disable=RL003 -- only an exactly zero slope",
        "    xs = service.breakpoints()\n"
        "    xs.sort()\n"
        "    # reprolint: disable=RL003 -- only an exactly zero slope",
        "RL004",
    ),
    # -- RL005 suppression hygiene -------------------------------------
    Defect(
        "rl005-pragma-without-justification",
        "repro/envelopes/operations.py",
        "    # reprolint: disable=RL003 -- only an exactly zero slope keeps"
        " S's value bit-identical across a span\n",
        "    # reprolint: disable=RL003\n",
        "RL005",
    ),
    Defect(
        "rl005-pragma-outlives-its-finding",
        "repro/core/policies.py",
        "        if self.beta == 0.0:\n",
        "        if not self.beta:\n",
        "RL005",
    ),
    Defect(
        "rl005-pragma-names-wrong-rule",
        "repro/envelopes/operations.py",
        "    # reprolint: disable=RL003 -- only an exactly",
        "    # reprolint: disable=RL002 -- only an exactly",
        "RL005",
    ),
    # -- RL006 exception transactionality ------------------------------
    Defect(
        "rl006-decide-drops-rollback",
        "repro/core/cac.py",
        "            except Exception:\n"
        "                ring_s.release(record.conn_id)\n"
        "                raise\n",
        "            except Exception:\n"
        "                raise\n",
        "RL006",
    ),
    Defect(
        "rl006-add-host-mutates-before-validating",
        "repro/network/topology.py",
        "        if ring_id not in self.rings:\n"
        '            raise TopologyError(f"unknown ring {ring_id!r}")\n'
        "        host = Host(host_id, ring_id)\n"
        "        self.hosts[host_id] = host\n",
        "        host = Host(host_id, ring_id)\n"
        "        self.hosts[host_id] = host\n"
        "        if ring_id not in self.rings:\n"
        '            raise TopologyError(f"unknown ring {ring_id!r}")\n',
        "RL006",
    ),
    Defect(
        "rl006-ring-records-before-budget-check",
        "repro/fddi/ring.py",
        "        if sync_time > self.available_sync_time + 1e-12:\n",
        "        self._allocations[conn_id] = float(sync_time)\n"
        "        if sync_time > self.available_sync_time + 1e-12:\n",
        "RL006",
    ),
    Defect(
        "rl006-journal-bumps-seq-before-open-check",
        "repro/service/journal.py",
        "        if self._fh is None:\n"
        '            raise JournalError("journal is not open")\n'
        "        record = JournalRecord(seq=self.next_seq, op=op, data=data)\n",
        "        self.next_seq += 1\n"
        "        if self._fh is None:\n"
        '            raise JournalError("journal is not open")\n'
        "        record = JournalRecord(seq=self.next_seq - 1, op=op, data=data)\n",
        "RL006",
    ),
    # -- RL007 asyncio atomicity ---------------------------------------
    Defect(
        "rl007-stop-check-then-await",
        "repro/service/server.py",
        "        dispatcher = self._dispatcher\n"
        "        self._dispatcher = None\n"
        "        if dispatcher is not None:\n"
        "            await dispatcher\n"
        "        for queued in self._queue:\n",
        "        if self._dispatcher is not None:\n"
        "            await self._dispatcher\n"
        "            self._dispatcher = None\n"
        "        for queued in self._queue:\n",
        "RL007",
    ),
    Defect(
        "rl007-submit-admit-restores-stale-record",
        "repro/service/server.py",
        '        return await self._submit("admit", spec.conn_id, spec,'
        " priority, timeout)\n",
        "        known = self.controller.connections.get(spec.conn_id)\n"
        "        response = await self._submit(\n"
        '            "admit", spec.conn_id, spec, priority, timeout\n'
        "        )\n"
        "        if known is not None:\n"
        "            self.controller.connections[spec.conn_id] = known\n"
        "        return response\n",
        "RL007",
    ),
    Defect(
        "rl007-submit-counter-lost-update",
        "repro/service/server.py",
        "        self._wake.set()\n"
        "        return await queued.future\n",
        "        pending = self.metrics.queue_high_water\n"
        "        self._wake.set()\n"
        "        response = await queued.future\n"
        "        self.metrics.queue_high_water = pending\n"
        "        return response\n",
        "RL007",
    ),
    # -- RL008 dimension inference -------------------------------------
    Defect(
        "rl008-bandwidth-vs-ttrt",
        "repro/fddi/mac_server.py",
        "        if ttrt <= 0 or bandwidth <= 0:\n",
        "        if ttrt <= 0 or bandwidth <= ttrt:\n",
        "RL008",
    ),
    Defect(
        "rl008-ttrt-vs-frame-bits",
        "repro/fddi/timed_token.py",
        "    if ttrt <= 0:\n"
        '        raise ConfigurationError("TTRT must be positive")\n'
        "    return 2.0 * ttrt\n",
        "    if ttrt <= MAX_FRAME_BITS:\n"
        '        raise ConfigurationError("TTRT must be positive")\n'
        "    return 2.0 * ttrt\n",
        "RL008",
    ),
    Defect(
        "rl008-buffer-plus-ttrt",
        "repro/fddi/mac_server.py",
        "    if backlog > server.buffer_bits + 1e-9:\n",
        "    if backlog > server.buffer_bits + server.ttrt:\n",
        "RL008",
    ),
]


def _source(path: str) -> str:
    return (SRC / path).read_text(encoding="utf-8")


@pytest.mark.parametrize("defect", DEFECTS, ids=lambda d: d.name)
def test_planted_defect_is_caught(defect):
    source = _source(defect.path)
    assert source.count(defect.old) == 1, f"anchor drifted in {defect.path}"
    edited = source.replace(defect.old, defect.new)
    findings = lint_source(edited, str(SRC / defect.path))
    assert defect.code in {f.code for f in findings}, findings


@pytest.mark.parametrize("path", sorted({d.path for d in DEFECTS}))
def test_unedited_file_is_clean(path):
    assert lint_source(_source(path), str(SRC / path)) == []
