"""Tests of the benchmark itself: workloads at tiny size, oracle, tracer.

Run with ``python -m pytest perfbench`` from the repository root; the
default test run does not collect this directory.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path

import pytest

import loads
import run
from tracer import OP_SPAN, NullTracer, Tracer
from world import REVOKED_RANKS, WorldShape, build_world

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY = WorldShape(cas=2, sites_per_ca=5, prefill_per_ca=300, agents=2)
TINY_SETUPS = {
    "handshake-new-clients": functools.partial(loads.setup_handshakes, shape=TINY),
    "handshake-returning-clients": functools.partial(loads.setup_returning_clients, shape=TINY),
    "revocation-stream": functools.partial(loads.setup_revocation_stream, shape=TINY),
    "fleet-soak": loads.setup_fleet_soak,
}


@pytest.fixture
def short_soak(monkeypatch):
    monkeypatch.setattr(loads, "SOAK_PERIODS", 8)


def tiny(name: str) -> loads.Workload:
    return dataclasses.replace(loads.WORKLOADS[name], setup=TINY_SETUPS[name])


def test_benchmark_file_names_every_workload_but_the_profile_only_ones():
    listed = [name for name in loads.WORKLOADS if name not in loads.PROFILE_ONLY]
    assert [w["name"] for w in BENCHMARK["workloads"]] == listed


@pytest.mark.parametrize("name", list(loads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_reports_every_metric_and_passes_the_oracle(name, trace, short_soak):
    outcome, metrics, _ = run.measure(tiny(name), seed=7, seconds=0.4, trace=trace, import_s=0.0)
    assert outcome.failed == 0
    assert outcome.attempted > 0
    expected = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    assert sorted(metrics) == sorted(expected)
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"] + BENCHMARK["end_to_end"]}
    for metric, value in metrics.items():
        assert (run.UNITS.get(metric) or run.per_layer_unit(metric)) == units[metric]
        if not trace:
            assert value > 0, metric


def test_same_seed_same_inputs():
    first, second = build_world(3, TINY), build_world(3, TINY)
    assert list(first.site_sequence) == list(second.site_sequence)
    assert [c.leaf.subject for c in first.sites] == [c.leaf.subject for c in second.sites]
    assert first.revoked == second.revoked
    assert first.serials.take(5) == second.serials.take(5)


def test_prefill_never_revokes_a_site_by_accident():
    world = build_world(5, TINY)
    for rank, chain in enumerate(world.sites):
        assert world.is_revoked(chain) == (rank in REVOKED_RANKS)


def test_oracle_counts_a_verdict_that_disagrees_with_ground_truth():
    world = build_world(5, TINY)
    revoked_site = next(c for c in world.sites if world.is_revoked(c))
    world.revoked[revoked_site.leaf.issuer].discard(revoked_site.leaf.serial.value)
    outcome = loads.Outcome()
    loads._handshake(world, revoked_site, world.now + 2, outcome, NullTracer())
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_cold_handshake_verifies_its_chain_and_its_status_root():
    world = build_world(5, TINY)
    chain = next(c for c in world.sites if not world.is_revoked(c))
    outcome = loads.Outcome()
    with Tracer() as tracer:
        loads._handshake(world, chain, world.now + 2, outcome, tracer)
    metrics = tracer.metrics()
    assert outcome.failed == 0
    # One signature per certificate (the root's is self-signed), plus the
    # status's signed root, which goes through the batch verifier.
    certificates = len(chain.certificates)
    assert metrics["crypto.signing.PublicKey.verify.calls"] == certificates
    assert metrics["crypto.signing.verify_batch.calls"] == 1
    assert metrics["crypto.signing.signatures_verified"] == certificates + 1
    assert metrics["crypto.signing.verify_failures"] == 0


def test_self_times_partition_the_root_span():
    world = build_world(5, TINY)
    with Tracer() as tracer:
        loads.run_revocation_stream(world, 0.2, tracer)
    self_s, _ = tracer.self_times()
    op = tracer.names.index(OP_SPAN)
    root_total = sum(
        end - start
        for name_id, (start, end, _, _) in zip(tracer.span_names, tracer.spans)
        if name_id == op
    )
    layer_total = sum(s for name_id, s in enumerate(self_s) if name_id != op)
    assert all(s >= -1e-9 for s in self_s)
    assert 0 < layer_total <= root_total
    assert sum(self_s) == pytest.approx(root_total)
    assert tracer.metrics()["crypto.hashing.hash_node.calls"] > 0


def test_tracer_rebinds_imported_names_and_restores_them():
    import repro.crypto.hashing as hashing
    import repro.store.incremental as incremental

    original = hashing.hash_node
    assert incremental.hash_node is original
    with Tracer():
        assert hashing.hash_node is not original
        assert incremental.hash_node is hashing.hash_node
    assert hashing.hash_node is original
    assert incremental.hash_node is original
