"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations

from typing import Optional, Tuple


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A configuration object failed validation."""


class CurveError(ReproError):
    """An envelope-algebra operation received invalid curves."""


class UnstableSystemError(ReproError):
    """A server analysis diverged: long-term arrival rate exceeds service rate.

    In the paper's terms, the busy interval of the server is unbounded and the
    worst-case delay is infinite.  Admission control treats this as an
    automatic rejection.
    """


class BufferOverflowError(ReproError):
    """The worst-case backlog exceeds the buffer provisioned at a server.

    Theorem 1 defines the worst-case delay to be infinite in this case; the
    CAC must therefore reject the allocation that produced it.
    """


class TopologyError(ReproError):
    """The network topology is malformed or a route cannot be found."""


class RoutingError(TopologyError):
    """No route exists between the requested endpoints."""


class AdmissionError(ReproError):
    """A connection could not be admitted.

    Carries a human-readable ``reason`` so simulators and examples can report
    why the CAC said no.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class CyclicDependencyError(ReproError):
    """The per-port envelope propagation graph is not feed-forward.

    The decomposition analysis of Section 4 propagates traffic envelopes
    server-by-server in topological order; routes that create a cyclic
    mutual dependency between shared servers fall back to the monotone
    fixed-point iteration (see :mod:`repro.core.delay`).  This error is
    reserved for internal consistency failures of the feed-forward
    worklist itself (a stuck connection with no unresolved shared port).
    """


class FixedPointDivergenceError(UnstableSystemError):
    """The cyclic-interference fixed-point iteration failed to converge.

    The per-port shift map is monotone and non-decreasing on the quantized
    delay lattice, so divergence means the iterates climbed past the
    configured ``fixed_point_max_iterations`` cap — the cyclic dependency
    admits no stable bound at this load.  Subclasses
    :class:`UnstableSystemError`, so admission control treats it as an
    automatic rejection.
    """


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class AuditError(ReproError):
    """An end-of-run audit found leaked resources or broken contracts.

    Raised by the survivability experiment and the admission service on
    shutdown when :func:`repro.faults.audit.audit_controller` (or the
    service's ledger audit of its controller) reports leaked synchronous
    bandwidth or deadline violations.  The message carries the full audit report.
    """


class ScenarioSpecError(ReproError):
    """A scenario spec failed to parse, validate or serialize.

    Raised by :mod:`repro.scenario.codec` for structural problems: unknown
    top-level or nested fields, missing required fields, values of the
    wrong type, or traffic models outside the closed registry.  Parsing is
    strict by design — a mistyped knob must fail loudly, not silently run
    the default scenario.
    """


class ScenarioInvariantError(ReproError):
    """A fuzzed scenario violated the differential invariant suite.

    Raised by :mod:`repro.scenario.fuzz` after shrinking: carries the
    violated invariant names, the offending spec's content hash, the
    generator seed (``None`` for hand-written specs), and the path of the
    minimal reproducer written to disk, so the failure is reproducible with
    ``python -m repro scenario replay <reproducer.json>``.
    """

    def __init__(
        self,
        message: str,
        *,
        invariants: Tuple[str, ...] = (),
        spec_hash: str = "",
        seed: Optional[int] = None,
        reproducer_path: Optional[str] = None,
    ) -> None:
        details = [message]
        if invariants:
            details.append(f"violated: {', '.join(invariants)}")
        if spec_hash:
            details.append(f"spec {spec_hash[:12]}")
        if seed is not None:
            details.append(f"seed {seed}")
        if reproducer_path:
            details.append(f"reproducer: {reproducer_path}")
        super().__init__(" | ".join(details))
        self.invariants = invariants
        self.spec_hash = spec_hash
        self.seed = seed
        self.reproducer_path = reproducer_path


class JournalError(ReproError):
    """The admission service's write-ahead journal is malformed.

    Raised for structural problems a recovery cannot safely skip (e.g. a
    snapshot that fails validation, or replaying an operation against a
    state it cannot apply to).  A torn *tail* is not an error — recovery
    truncates it and reports the fact instead.
    """
