"""The mutable state one scenario run threads through its actors.

:class:`RunState` holds everything one run mutates: the deployment handles
(CA, CDN, fleet runtimes, victim), the run's timeline, and every
accumulator the period loop updates — issuance batches, provability queue,
fault bookkeeping, gossip detections, fleet/contention accounting.  Actors
and observers receive the one shared instance instead of reaching into the
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cdn import CDNNetwork, GeoLocation
from repro.dictionary.authdict import CADictionary
from repro.net import Link
from repro.net.clock import SimulatedClock
from repro.pki import CertificationAuthority, SerialNumber, TrustStore
from repro.ritm import RITMCertificationAuthority, RITMConfig, RevocationAgent
from repro.ritm.dissemination import PullResult, RADisseminationClient
from repro.scenarios.config import FaultSpec, ScenarioConfig
from repro.scenarios.engine.mailbox import Mailbox


@dataclass
class PendingProvability:
    """A revocation waiting to become provable at each agent."""

    event_time: float
    cumulative_size: int


@dataclass
class AgentRuntime:
    """Per-agent state the engine tracks across periods."""

    spec_name: str
    agent: RevocationAgent
    client: RADisseminationClient
    location: GeoLocation
    #: The agent's position in the fleet (drives stagger offsets and the
    #: ``mixed`` link profile's cycle).
    fleet_index: int = 0
    #: The modelled uplink, or ``None`` for the serial runner's behaviour.
    link: Optional[Link] = None
    #: This agent's message queue (head announcements, client batches).
    mailbox: Mailbox = field(default_factory=lambda: Mailbox(""))
    #: Index into the pending-provability list: entries before it are provable.
    provability_cursor: int = 0
    max_lag_seconds: float = 0.0
    missed_pulls: int = 0
    #: Pull results of clients discarded by a crash restart, so dissemination
    #: totals cover the whole run, not just the current process incarnation.
    archived_pulls: List[PullResult] = field(default_factory=list)
    #: Crash-restart state: checkpoint directory (durable mode), whether a
    #: restore must run before the next pull, which crash mode hit this
    #: agent, and the metrics of its first post-crash recovery pull.
    checkpoint_dir: Optional[str] = None
    pending_restore: bool = False
    crashed_mode: Optional[str] = None
    recovery: Optional[Dict[str, object]] = None
    #: Per-source CA-origin egress attributed to this agent at crash time,
    #: so recovery cost can be measured as a delta (region-outage study).
    egress_baseline: int = 0

    def pull_results(self) -> List[PullResult]:
        """Every pull this agent completed, across crash restarts."""
        return self.archived_pulls + self.client.pull_history

    def total_bytes_downloaded(self) -> int:
        """Bytes fetched from the CDN across the agent's whole lifetime."""
        return sum(pull.bytes_downloaded for pull in self.pull_results())


@dataclass
class VictimRuntime:
    """State for the scenario's victim certificate and its connections."""

    chain: object
    trust_store: TrustStore
    ca_public_keys: Dict[str, object]
    serial: SerialNumber
    initial_accepted: bool = False
    final_accepted: bool = False
    final_rejection: str = ""
    status_size_bytes: int = 0
    revoked_at: Optional[float] = None
    detected_at: Optional[float] = None
    deployment: Optional[object] = None
    clock: Optional[SimulatedClock] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary for the report's extras."""
        return {
            "serial": str(self.serial),
            "initial_handshake_accepted": self.initial_accepted,
            "final_handshake_accepted": self.final_accepted,
            "final_rejection": self.final_rejection,
            "status_size_bytes": self.status_size_bytes,
            "revoked_at": self.revoked_at,
            "detected_at": self.detected_at,
            "detection_lag_seconds": (
                self.detected_at - self.revoked_at
                if self.detected_at is not None and self.revoked_at is not None
                else None
            ),
        }


@dataclass
class RunState:
    """Everything one run's actors and observers share.

    Construction happens in :class:`~repro.scenarios.engine.core.FleetEngine`;
    afterwards the instance is append/update-only until the report is
    assembled from it.
    """

    config: ScenarioConfig
    ritm_config: RITMConfig
    authority: CertificationAuthority
    ca: RITMCertificationAuthority
    cdn: CDNNetwork
    #: ``(period index, bin start time)`` pairs.
    periods: List[Tuple[int, float]]
    #: Per-period ``(serial count, revoke-victim flag, reason)`` work items.
    counts: List[Tuple[int, bool, str]]
    runtimes: List[AgentRuntime] = field(default_factory=list)
    victim: Optional[VictimRuntime] = None
    serial_pool: Optional[object] = None

    # -- the period loop's accumulators -------------------------------------------
    events: List[Dict[str, object]] = field(default_factory=list)
    pending: List[PendingProvability] = field(default_factory=list)
    batches: List[List[SerialNumber]] = field(default_factory=list)
    numbered: List[Tuple[int, SerialNumber]] = field(default_factory=list)
    backlog: List[Tuple[float, List[SerialNumber], str, bool]] = field(
        default_factory=list
    )
    revocations_issued: int = 0
    checkpoint_dirs: List[str] = field(default_factory=list)
    #: Sharded mode: serial value → assigned certificate expiry, the
    #: unsharded oracle dictionary, and the per-period storage timeline.
    expiries: Dict[int, int] = field(default_factory=dict)
    expiry_cycle: int = 0
    oracle: Optional[CADictionary] = None
    storage_timeline: List[Dict[str, object]] = field(default_factory=list)
    #: Adversarial control-plane state: every head publication's raw bytes
    #: (ammunition for the replay injector), the CA's rotation history with
    #: the retired epochs' signed roots, the rotation cache probes,
    #: replay-fault replica-integrity counters, the planted equivocation
    #: summary, and the gossip ring's detections.
    head_archive: List[bytes] = field(default_factory=list)
    rotations: List[Dict[str, object]] = field(default_factory=list)
    rotation_probes: List[Dict[str, object]] = field(default_factory=list)
    replay_probes: int = 0
    replay_mutations: int = 0
    forgery_attempts: int = 0
    forgery_errors: int = 0
    equivocation: Optional[Dict[str, object]] = None
    hidden_serial: Optional[SerialNumber] = None
    misbehavior_reports: List[object] = field(default_factory=list)
    first_detection_period: Optional[int] = None

    # -- fleet/contention accounting -----------------------------------------------
    #: ``(start, end)`` of every completed pull, for overlap metrics.
    pull_intervals: List[Tuple[float, float]] = field(default_factory=list)
    handshakes_served: int = 0
    handshake_roots_verified: int = 0
    scheduler_events_processed: int = 0
    #: The streamed client-load generator
    #: (:class:`repro.workloads.streaming.StreamingWorkload`) when the config
    #: declares a ``client_stream``; actors regenerate events from it in
    #: ``O(batch_size)`` memory.
    client_stream: Optional[object] = None
    #: Per-period soak timeline samples (throughput, storage, memory) the
    #: ``SoakRecorder`` observer appends for client-stream runs.
    soak_timeline: List[Dict[str, object]] = field(default_factory=list)

    # -- helpers shared by actors and observers --------------------------------------

    def event(self, period: int, kind: str, detail: str) -> None:
        """Append one timeline entry (period -1/-2/-3 = setup/closing/audit)."""
        self.events.append({"period": period, "kind": kind, "detail": detail})

    def active_fault(self, kind: str, period: int) -> Optional[FaultSpec]:
        """The configured fault of ``kind`` covering ``period``, if any."""
        for fault in self.config.faults:
            if fault.kind == kind and fault.covers(period):
                return fault
        return None

    def restart_fault_for(
        self, runtime: AgentRuntime, period: int
    ) -> Optional[FaultSpec]:
        """The ``ra-restart`` fault keeping ``runtime`` down this period.

        Unlike :meth:`active_fault` this considers *every* restart fault,
        so several agents can restart in the same window (the crash-recovery
        scenario runs a durable and a cold restart side by side).
        """
        for fault in self.config.faults:
            if fault.kind != "ra-restart" or not fault.covers(period):
                continue
            target = fault.agent or self.runtimes[-1].spec_name
            if runtime.spec_name == target:
                return fault
        return None

    def region_outage_fault_for(
        self, runtime: AgentRuntime, period: int
    ) -> Optional[FaultSpec]:
        """The ``region-outage`` fault keeping ``runtime`` down this period.

        An agent is down when its own region is the failed one; RAs in
        other regions ride out the outage (their CDN resolution never even
        changes) and serve as anti-entropy peers afterwards.
        """
        for fault in self.config.faults:
            if fault.kind != "region-outage" or not fault.covers(period):
                continue
            if runtime.location.region == fault.geo_region():
                return fault
        return None

    def record_issuance(self, issuance, event_time: float) -> None:
        """Track an issuance for provability accounting and replay phases."""
        self.batches.append(list(issuance.serials))
        self.numbered.extend(issuance.numbered_serials())
        self.revocations_issued += len(issuance.serials)
        if self.oracle is not None and not self.config.sharded:
            # Crash-recovery study: mirror every revocation into the
            # in-memory oracle the recovered replicas are checked against.
            self.oracle.insert(list(issuance.serials), int(event_time))
        self.pending.append(
            PendingProvability(
                event_time=event_time,
                cumulative_size=issuance.first_number + len(issuance.serials) - 1,
            )
        )

    def assign_expiry(self, serial: SerialNumber, now: float) -> int:
        """Deterministic expiry churn: 1..cert_lifetime_periods periods out."""
        lifetime = self.config.cert_lifetime_periods
        offset = (self.expiry_cycle % lifetime) + 1
        self.expiry_cycle += 1
        expiry = int(now + offset * self.config.delta_seconds)
        self.expiries[serial.value] = expiry
        return expiry

    def advance_provability(self, runtime: AgentRuntime, available_at: float) -> None:
        """Record dissemination lag for every batch the agent now covers.

        In sharded mode shard pruning shrinks replica sizes, so coverage is
        tracked by cumulative serials *applied* (which only grows) instead
        of the replica's current size.
        """
        if self.config.sharded:
            size = sum(pull.serials_applied for pull in runtime.client.pull_history)
        else:
            replica = runtime.agent.replica_for(self.ca.name)
            size = replica.size if replica is not None else 0
        while runtime.provability_cursor < len(self.pending):
            entry = self.pending[runtime.provability_cursor]
            if entry.cumulative_size > size:
                break
            lag = available_at - entry.event_time
            runtime.max_lag_seconds = max(runtime.max_lag_seconds, lag)
            runtime.provability_cursor += 1
