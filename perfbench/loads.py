"""The four workloads (three benchmarked, one profile-only) and their metrics.

Every workload is a closed loop on one thread: the next operation starts
when the previous one returns.  Each reports the same end-to-end metrics,
defined per workload by what one operation is:

================================  ======================  ====================  ===========================
workload                          ``throughput_per_s``    ``latency_*_ms``      ``bytes_per_op``
================================  ======================  ====================  ===========================
``handshake-new-clients``         handshakes/s            per handshake         wire bytes per handshake
``handshake-returning-clients``   handshakes/s            per handshake         wire bytes per handshake
``revocation-stream``             revoked serials/s       per batch, revoke()   pull bytes per revoked
                                  provable at every RA    to last RA's pull     serial
``fleet-soak``                    simulated Δ periods/s   per period            CDN bytes per period
================================  ======================  ====================  ===========================

The oracle lives here too: every handshake verdict is checked against the
world's ground truth, every revocation batch against the CA's root and a
proof sample, every soak run against its own verdict checks.  Batch and
soak checks run outside the timed window.
"""

from __future__ import annotations

import gc
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.net.clock import SimulatedClock
from repro.perf import VerifiedRootCache
from repro.ritm.client import RejectionReason
from repro.ritm.deployment import build_close_to_client_deployment
from repro.scenarios import run_scenario
from repro.scenarios.config import (
    AgentSpec,
    ClientStreamSpec,
    RevocationEvent,
    ScenarioConfig,
    WorkloadSpec,
)
from repro.tls.connection import ChainValidationCache

from tracer import NullTracer
from world import DELTA_SECONDS, World, WorldShape, build_world

#: One RA serves every handshake; three CAs with ten sites each.
HANDSHAKE_SHAPE = WorldShape(sites_per_ca=10, prefill_per_ca=10_000, agents=1)
#: Few sites (the CAs are what matter) and an RA in each of two regions.
REVOCATION_SHAPE = WorldShape(sites_per_ca=2, agents=2)
#: Handshakes per simulated Δ in ``handshake-returning-clients``.
HANDSHAKES_PER_DELTA = 2_000
#: Serials each CA revokes per Δ in ``handshake-returning-clients``.
TRICKLE_PER_CA = 5
#: Serials per CA revocation batch in ``revocation-stream``.
REVOCATION_BATCH = 200
#: Revoked serials whose proofs are checked per RA and batch.
PROOF_SAMPLE = 3
#: ``throughput_per_s`` is the median rate over this many equal slices of
#: the timed phase, so that a few seconds of a noisy neighbour on a shared
#: machine move it less than a mean over the whole phase would.
THROUGHPUT_WINDOWS = 5
#: Tracebacks printed before further failures are only counted.
MAX_TRACEBACKS = 3


@dataclass
class Outcome:
    """What one timed phase did, checked against the oracle."""

    attempted: int = 0
    failed: int = 0
    #: ``(wall seconds, units of work)`` per timed operation, in order.
    ops: List[Tuple[float, float]] = field(default_factory=list)
    #: Latency samples, seconds.
    latencies: List[float] = field(default_factory=list)
    bytes: int = 0
    #: Divisor turning ``bytes`` into ``bytes_per_op``.
    byte_units: float = 0.0

    @property
    def busy_s(self) -> float:
        return sum(seconds for seconds, _ in self.ops)

    def throughput(self) -> float:
        """Median work rate over :data:`THROUGHPUT_WINDOWS` slices of busy time."""
        budget = self.busy_s / THROUGHPUT_WINDOWS
        rates = []
        seconds = work = 0.0
        for op_seconds, op_work in self.ops:
            seconds += op_seconds
            work += op_work
            if seconds >= budget:
                rates.append(work / seconds)
                seconds = work = 0.0
        if seconds > 0 and not rates:
            rates.append(work / seconds)
        return statistics.median(rates) if rates else 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= MAX_TRACEBACKS:
            print(f"FAILED: {what}", file=sys.stderr)
            if sys.exc_info()[0] is not None:
                traceback.print_exc()


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to set it up, run it, and name its numbers."""

    name: str
    why: str
    setup: Callable[[int], object]
    run: Callable[[object, float, object], Outcome]
    #: Percentile reported as ``latency_tail_ms``.  Far more than ten samples
    #: lie beyond it in a default-length run; the handshake workloads stop at
    #: p95 because above it a sub-millisecond operation measures scheduler
    #: preemption on a shared machine more than the program (README.md).
    tail: float
    #: Workload-specific names of the generic metrics, printed alongside.
    aliases: Dict[str, str]


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]; 0.0 without samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- handshakes -----------------------------------------------------------------


def _handshake(world: World, chain, now: float, outcome: Outcome, tracer,
               root_cache=None, validation_cache=None) -> None:
    """One full TLS handshake through the world's RA, timed and checked.

    The latency sample is ``run_handshake`` alone; the operation also
    builds the client and path, which throughput pays for.
    """
    outcome.attempted += 1
    op_started = time.perf_counter()
    with tracer.op():
        deployment = build_close_to_client_deployment(
            server_chain=chain,
            trust_store=world.trust_store,
            ca_public_keys=world.ca_keys,
            config=world.config,
            agent=world.agent,
            clock=SimulatedClock(now),
            root_cache=root_cache,
            validation_cache=validation_cache,
        )
        started = time.perf_counter()
        try:
            accepted = deployment.run_handshake()
        except Exception:  # noqa: BLE001 - a raising handshake is a counted failure
            outcome.ops.append((time.perf_counter() - op_started, 0))
            outcome.fail(f"handshake to {chain.leaf.subject} raised")
            return
        finished = time.perf_counter()
    revoked = world.is_revoked(chain)
    rejection = deployment.client.rejection
    if accepted == revoked or (
        not accepted and rejection is not RejectionReason.CERTIFICATE_REVOKED
    ):
        outcome.ops.append((finished - op_started, 0))
        outcome.fail(
            f"{chain.leaf.subject}: accepted={accepted} revoked={revoked} rejection={rejection}"
        )
        return
    outcome.ops.append((finished - op_started, 1))
    outcome.latencies.append(finished - started)
    outcome.bytes += deployment.engine.total_wire_bytes()
    outcome.byte_units += 1


def setup_handshakes(seed: int, shape: WorldShape = HANDSHAKE_SHAPE) -> World:
    return build_world(seed, shape)


def run_new_clients(world: World, seconds: float, tracer) -> Outcome:
    """Cold clients: no root or chain cache survives a handshake."""
    outcome = Outcome()
    sequence = world.site_sequence
    now = world.now + 2
    index = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        chain = world.sites[sequence[index % len(sequence)]]
        index += 1
        _handshake(world, chain, now, outcome, tracer)
    return outcome


@dataclass
class ReturningWorld:
    """A handshake world plus the client fleet's shared caches."""

    world: World
    root_cache: VerifiedRootCache
    validation_cache: ChainValidationCache


def setup_returning_clients(seed: int, shape: WorldShape = HANDSHAKE_SHAPE) -> ReturningWorld:
    """The handshake world, with every site contacted once to fill the caches."""
    world = build_world(seed, shape)
    state = ReturningWorld(
        world,
        VerifiedRootCache(maxsize=world.config.root_cache_size),
        ChainValidationCache(),
    )
    primed = Outcome()
    for chain in world.sites:
        _handshake(world, chain, world.now + 2, primed, NullTracer(),
                   state.root_cache, state.validation_cache)
    if primed.failed:
        raise RuntimeError(f"{primed.failed} handshakes failed while priming the caches")
    return state


def _next_delta(world: World, outcome: Outcome, tracer) -> None:
    """Cross a Δ boundary: every CA refreshes and revokes a trickle, the RA pulls."""
    outcome.attempted += 1
    started = time.perf_counter()
    with tracer.op():
        world.now += DELTA_SECONDS
        for ca in world.cas:
            ca.refresh(now=world.now)
            world.revoke(ca, world.serials.take(TRICKLE_PER_CA), now=world.now)
        results = [client.pull(now=world.now + 1) for client in world.fleet]
    outcome.ops.append((time.perf_counter() - started, 0))
    for result in results:
        if result.errors:
            outcome.fail(f"pull errors: {result.errors}")


def run_returning_clients(state: ReturningWorld, seconds: float, tracer) -> Outcome:
    """Clients sharing root and chain caches, while Δ periods pass."""
    world = state.world
    outcome = Outcome()
    sequence = world.site_sequence
    index = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if index and index % HANDSHAKES_PER_DELTA == 0:
            _next_delta(world, outcome, tracer)
        chain = world.sites[sequence[index % len(sequence)]]
        index += 1
        _handshake(world, chain, world.now + 2, outcome, tracer,
                   state.root_cache, state.validation_cache)
    return outcome


# -- revocation stream ------------------------------------------------------------


def setup_revocation_stream(seed: int, shape: WorldShape = REVOCATION_SHAPE) -> World:
    return build_world(seed, shape)


def _check_batch(world: World, ca, batch, absent, outcome: Outcome) -> bool:
    """Every RA holds the CA's root; sampled serials prove as the oracle says."""
    expected_root = ca.dictionary.root()
    for client in world.fleet:
        replica = client.agent.replica_for(ca.name)
        signed_root = replica.signed_root
        if signed_root is None or not expected_root == signed_root.root == replica.root():
            outcome.fail(f"{client.agent.name} root differs from {ca.name}'s")
            return False
        for serial in (*batch[:PROOF_SAMPLE], absent):
            status = replica.prove(serial)
            revoked = serial.value in world.revoked[ca.name]
            if status.is_revoked != revoked or not status.proof.verify(signed_root.root):
                outcome.fail(f"{client.agent.name}: proof for {serial} does not match")
                return False
    return True


def run_revocation_stream(world: World, seconds: float, tracer) -> Outcome:
    """Batches of random serials into large dictionaries, pulled by a fleet.

    One batch is one Δ: a CA revokes, every CA refreshes, and every RA pulls.
    """
    outcome = Outcome()
    batch_number = 0
    while outcome.busy_s < seconds:
        ca = world.cas[batch_number % len(world.cas)]
        batch_number += 1
        batch = world.serials.take(REVOCATION_BATCH)
        absent = world.serials.take(1)[0]  # never revoked: an absence proof
        world.now += DELTA_SECONDS
        outcome.attempted += 1
        pulled = 0
        errors: List[str] = []
        started = time.perf_counter()
        with tracer.op():
            try:
                world.revoke(ca, batch, now=world.now)
                for authority in world.cas:
                    authority.refresh(now=world.now)
                for client in world.fleet:
                    result = client.pull(now=world.now + 1)
                    pulled += result.bytes_downloaded
                    errors.extend(result.errors)
            except Exception:  # noqa: BLE001 - a raising batch is a counted failure
                outcome.ops.append((time.perf_counter() - started, 0))
                outcome.fail(f"batch {batch_number} raised")
                continue
        elapsed = time.perf_counter() - started
        if errors:
            outcome.ops.append((elapsed, 0))
            outcome.fail(f"batch {batch_number} pull errors: {errors}")
            continue
        if not _check_batch(world, ca, batch, absent, outcome):
            outcome.ops.append((elapsed, 0))
            continue
        outcome.ops.append((elapsed, len(batch)))
        outcome.latencies.append(elapsed)
        outcome.bytes += pulled
        outcome.byte_units += len(batch)
    return outcome


# -- fleet soak ----------------------------------------------------------------------

SOAK_PERIODS = 48


def soak_config(seed: int) -> ScenarioConfig:
    """A soak-shaped scenario, sized to finish in a few seconds.

    Built here rather than taken from the scenario registry, so that edits
    to the registered ``soak`` scenario cannot change this workload.  It
    keeps the soak's shape: durable-compact store, WAL segment streaming,
    an RA fleet over three regions, a Zipf/diurnal client stream, steady
    churn and one mass-revocation burst.
    """
    return ScenarioConfig(
        name="bench-fleet-soak",
        title="Benchmark fleet soak",
        summary="Soak-shaped fleet run for the benchmark.",
        description="Soak-shaped fleet run for the benchmark.",
        delta_seconds=10_800,
        duration_periods=SOAK_PERIODS,
        agents=(
            AgentSpec("soak-us", "UNITED_STATES"),
            AgentSpec("soak-eu", "EUROPE"),
            AgentSpec("soak-ap", "JAPAN"),
        ),
        workload=WorkloadSpec(
            kind="scripted",
            serial_seed=seed,
            events=tuple(
                RevocationEvent(at_period=period, count=12, reason="steady churn")
                for period in range(SOAK_PERIODS)
            )
            + (RevocationEvent(at_period=SOAK_PERIODS // 2, count=400, reason="mass compromise"),),
        ),
        store_engine="durable-compact",
        segment_streaming=True,
        fleet_size=4,
        rng_seed=seed,
        client_stream=ClientStreamSpec(
            clients=200_000,
            sites=4_000,
            events_total=6_000,
            zipf_exponent=1.1,
            diurnal_amplitude=0.7,
            batch_size=1_024,
            seed=seed,
        ),
    )


def setup_fleet_soak(seed: int) -> int:
    """Nothing to build ahead: each run builds its config from a derived seed."""
    soak_config(seed)  # fail early on an invalid config
    return seed


def run_fleet_soak(seed: int, seconds: float, tracer) -> Outcome:
    """Whole soak scenario runs, one after another, until time is up."""
    outcome = Outcome()
    run_number = 0
    while outcome.busy_s < seconds:
        run_number += 1
        config = soak_config(seed * 1_000 + run_number)
        # Start each run from a collected heap, as a fresh process would, so
        # that peak RSS does not depend on how many runs fit in the time.
        gc.collect()
        started = time.perf_counter()
        with tracer.op():
            try:
                report = run_scenario(config)
            except Exception:  # noqa: BLE001 - a raising run is a counted failure
                outcome.ops.append((time.perf_counter() - started, 0))
                outcome.attempted += SOAK_PERIODS
                outcome.fail(f"soak run {run_number} raised")
                outcome.failed += SOAK_PERIODS - 1  # every period of the run failed
                continue
        elapsed = time.perf_counter() - started
        timeline = report.extras["soak"]["timeline"]
        outcome.attempted += SOAK_PERIODS
        failed = report.failed_checks()
        if failed or len(timeline) != SOAK_PERIODS:
            outcome.ops.append((elapsed, 0))
            outcome.fail(f"soak run {run_number}: failed checks {[c.name for c in failed]}")
            outcome.failed += SOAK_PERIODS - 1
            continue
        walls = [sample["wall_seconds"] for sample in timeline]
        outcome.latencies.extend(later - earlier for earlier, later in zip(walls, walls[1:]))
        outcome.ops.append((elapsed, SOAK_PERIODS))
        outcome.bytes += report.metrics["dissemination"]["bytes_downloaded"]
        outcome.byte_units += SOAK_PERIODS
    return outcome


#: Workloads that run and trace like the others but are not listed in
#: ``BENCHMARK.json``: on the shared reference machine their timings do not
#: repeat within the bounds (README.md).
PROFILE_ONLY = ("handshake-returning-clients",)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="handshake-new-clients",
            why="Cold clients: Ed25519 on the chain and the status root dominates each handshake.",
            setup=setup_handshakes,
            run=run_new_clients,
            tail=0.95,
            aliases={
                "throughput_per_s": "handshakes_per_s",
                "latency_p50_ms": "handshake_p50_ms",
                "latency_tail_ms": "handshake_p95_ms",
                "bytes_per_op": "wire_bytes_per_handshake",
            },
        ),
        Workload(
            name="handshake-returning-clients",
            why="Shared caches while Δ passes: codecs, path and proof cache dominate, little Ed25519.",
            setup=setup_returning_clients,
            run=run_returning_clients,
            tail=0.95,
            aliases={
                "throughput_per_s": "handshakes_per_s",
                "latency_p50_ms": "handshake_p50_ms",
                "latency_tail_ms": "handshake_p95_ms",
                "bytes_per_op": "wire_bytes_per_handshake",
            },
        ),
        Workload(
            name="revocation-stream",
            why="Write path: random serials into large dictionaries, pulled by a two-region RA fleet.",
            setup=setup_revocation_stream,
            run=run_revocation_stream,
            tail=0.90,
            aliases={
                "throughput_per_s": "revocations_per_s",
                "latency_p50_ms": "propagation_p50_ms",
                "latency_tail_ms": "propagation_p90_ms",
                "bytes_per_op": "pull_bytes_per_serial",
            },
        ),
        Workload(
            name="fleet-soak",
            why="Soak-shaped scenario: the only workload on the fleet engine, streaming and replication.",
            setup=setup_fleet_soak,
            run=run_fleet_soak,
            tail=0.90,
            aliases={
                "throughput_per_s": "periods_per_s",
                "latency_p50_ms": "period_p50_ms",
                "latency_tail_ms": "period_p90_ms",
                "bytes_per_op": "cdn_bytes_per_period",
            },
        ),
    )
}
