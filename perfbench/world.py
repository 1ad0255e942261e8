"""The seeded RITM world the handshake and revocation workloads run against.

Everything here is set-up: it runs before the first timed operation and is
charged to ``setup_s``.  Every input derives from the ``--seed`` value, and
the program only ever receives the generated inputs:

* a multi-CA certificate corpus (``repro.workloads.generate_corpus``), one
  RITM CA per issuing (intermediate) CA;
* each CA's dictionary prefilled with random 3-byte serials
  (``repro.workloads.serials_for_count``), never a corpus serial, so a
  random draw cannot revoke a site by accident;
* a fixed set of popularity ranks whose sites are revoked, so the share of
  handshakes that need a presence proof is the same on every seed while the
  revoked identities change;
* a Zipf site sequence from ``repro.workloads.StreamingWorkload``;
* an RA fleet, synced once before timing starts.

The world keeps its own ground truth of revoked serials per CA: the
benchmark's correctness oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Set

from repro.cdn.geography import GeoLocation, Region
from repro.cdn.network import CDNNetwork
from repro.pki.certificate import CertificateChain
from repro.pki.serial import SerialNumber
from repro.ritm.agent import RevocationAgent
from repro.ritm.ca_service import RITMCertificationAuthority
from repro.ritm.config import RITMConfig
from repro.ritm.dissemination import RADisseminationClient, attach_agent_to_cas
from repro.workloads import generate_corpus, serials_for_count
from repro.workloads.streaming import StreamConfig, StreamingWorkload

EPOCH = 1_400_000_000
DELTA_SECONDS = 10
#: RA regions, in fleet order; the first RA serves every handshake.
FLEET_REGIONS = (Region.EUROPE, Region.UNITED_STATES, Region.JAPAN)
#: Popularity ranks (0 = most popular) whose sites are revoked: one site in
#: ten, at fixed ranks, so about 9% of Zipf(1.0) handshakes hit a revoked
#: leaf on every seed.
REVOKED_RANKS = frozenset(range(3, 1_000, 10))
ZIPF_EXPONENT = 1.0
#: Length of the generated site sequence; a run longer than this cycles.
SITE_SEQUENCE_LENGTH = 20_000


@dataclass(frozen=True)
class WorldShape:
    """Sizes of one world; the seed picks the contents."""

    cas: int = 3
    sites_per_ca: int = 20
    prefill_per_ca: int = 20_000
    agents: int = 1


class SerialSource:
    """Fresh 3-byte serials from the seed, never a corpus or used serial.

    Draws successive chunks from ``serials_for_count`` with derived seeds,
    so a run of any length gets serials without a fixed reserve.
    """

    CHUNK = 50_000

    def __init__(self, seed: int, excluded: Set[int]) -> None:
        self._seed = seed
        self._used = set(excluded)
        self._chunk = 0
        self._pending: Iterator[int] = iter(())

    def take(self, count: int) -> List[SerialNumber]:
        taken: List[SerialNumber] = []
        while len(taken) < count:
            value = next(self._pending, None)
            if value is None:
                self._chunk += 1
                self._pending = iter(
                    serials_for_count(self.CHUNK, seed=self._seed * 1_000 + self._chunk)
                )
                continue
            if value not in self._used:
                self._used.add(value)
                taken.append(SerialNumber(value))
        return taken


@dataclass
class World:
    """A synced RITM deployment plus the benchmark's ground truth."""

    config: RITMConfig
    trust_store: object
    cas: List[RITMCertificationAuthority]
    cdn: CDNNetwork
    fleet: List[RADisseminationClient]
    sites: List[CertificateChain]
    site_sequence: Sequence[int]
    serials: SerialSource
    #: CA name → revoked serial values: the oracle every verdict is checked
    #: against.
    revoked: Dict[str, Set[int]] = field(default_factory=dict)
    now: float = EPOCH + 3

    @property
    def agent(self) -> RevocationAgent:
        return self.fleet[0].agent

    @property
    def ca_keys(self) -> Dict[str, object]:
        return {ca.name: ca.public_key for ca in self.cas}

    def is_revoked(self, chain: CertificateChain) -> bool:
        leaf = chain.leaf
        return leaf.serial.value in self.revoked[leaf.issuer]

    def revoke(self, ca: RITMCertificationAuthority, serials: List[SerialNumber], now: float):
        """Revoke through the CA and record the serials in the oracle."""
        issuance = ca.revoke(serials, now=now, reason="benchmark")
        self.revoked[ca.name].update(serial.value for serial in serials)
        return issuance


def site_sequence(sites: int, seed: int) -> List[int]:
    """Zipf-ranked site indices (rank 0 most popular) from the stream generator."""
    stream = StreamingWorkload(
        StreamConfig(
            clients=1_000_000,
            sites=sites,
            events_total=SITE_SEQUENCE_LENGTH,
            duration_seconds=86_400,
            start_time=EPOCH,
            zipf_exponent=ZIPF_EXPONENT,
            seed=seed,
        )
    )
    ranks: List[int] = []
    for batch in stream.batches():
        ranks.extend(batch.sites)
    return ranks


def build_world(seed: int, shape: WorldShape) -> World:
    """Build, prefill and sync one world; deterministic in ``seed``."""
    rng = random.Random(seed)
    config = RITMConfig(delta_seconds=DELTA_SECONDS)
    corpus = generate_corpus(
        ca_count=shape.cas,
        domains_per_ca=shape.sites_per_ca,
        use_intermediates=True,
        now=EPOCH,
        seed=seed,
    )
    cdn = CDNNetwork()
    cas = []
    for authority in corpus.authorities:
        if authority.parent is None:
            continue  # roots sign intermediates only; leaves name the intermediate
        ca = RITMCertificationAuthority(authority, config, cdn)
        ca.bootstrap(now=EPOCH + 1)
        cas.append(ca)

    # Site popularity: a seeded permutation maps Zipf rank → chain.
    sites = list(corpus.chains)
    rng.shuffle(sites)
    corpus_serials = {
        certificate.serial.value for chain in corpus.chains for certificate in chain
    }
    serials = SerialSource(seed, corpus_serials)
    world = World(
        config=config,
        trust_store=corpus.trust_store,
        cas=cas,
        cdn=cdn,
        fleet=[],
        sites=sites,
        site_sequence=site_sequence(len(sites), seed),
        serials=serials,
        revoked={ca.name: set() for ca in cas},
    )

    by_name = {ca.name: ca for ca in cas}
    revoked_sites: Dict[str, List[SerialNumber]] = {ca.name: [] for ca in cas}
    for rank, chain in enumerate(sites):
        if rank in REVOKED_RANKS:
            revoked_sites[chain.leaf.issuer].append(chain.leaf.serial)
    for ca in cas:
        batch = serials.take(shape.prefill_per_ca) + revoked_sites[ca.name]
        world.revoke(by_name[ca.name], batch, now=EPOCH + 2)

    for index in range(shape.agents):
        region = FLEET_REGIONS[index % len(FLEET_REGIONS)]
        agent = RevocationAgent(f"bench-ra-{index}", config)
        client = attach_agent_to_cas(agent, cas, cdn, GeoLocation(region))
        client.pull(now=EPOCH + 3)
        world.fleet.append(client)
    return world
