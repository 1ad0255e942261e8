#!/usr/bin/env python
"""Pin the named verdicts of scenario reports written by ``python -m repro run``.

``run`` already exits nonzero on any failed check.  This guard also fails
when a refactor silently drops a check (leaving the rest green): each
scenario in :data:`PINNED` must report every listed check as passed.  A
few scenarios carry extra assertions over their report blocks
(:data:`EXTRA_CHECKS`): the ``metrics.fleet`` counts of the contention
scenarios, ``extras.replication`` of the region outage, and the memory and
subsystem fields of ``extras.soak``.

Usage::

    python -m repro run soak region-outage --smoke --out results/
    python tools/check_verdicts.py results soak region-outage

Exits 0 when every named scenario holds, 1 with one line per failure
otherwise, and 2 on a usage error: a scenario without pins, a missing
argument, or ``python -O`` (which would strip every assertion).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Scenario name → the check names its report must show as passed.
PINNED: Dict[str, Tuple[str, ...]] = {
    # adversarial
    "replayed-head": (
        "replayed-head-rejected",
        "replica-unmutated-by-replay",
    ),
    "rotated-ca-key": (
        "retired-key-forgery-rejected",
        "key-rotation-learned",
        "retired-key-valid-inside-overlap",
        "retired-key-rejected-after-overlap",
        "cached-matches-uncached-across-rotation",
    ),
    "equivocating-ca": (
        "equivocation-detected-within-one-round",
        "equivocation-evidence-valid",
        "targeted-ra-blind-before-gossip",
    ),
    # fleet
    "thundering-herd": (
        "client-load-served",
        "thundering-herd-overlap",
        "fleet-converged-within-bound",
    ),
    "staggered-pulls": (
        "stagger-flattens-pull-peak",
        "staggered-fleet-within-bound",
    ),
    "slow-ra-holb": (
        "fleet-unblocked-by-slow-ra",
        "slow-ra-out-of-bound",
    ),
    # replication
    "region-outage": (
        "peers-absorb-within-2delta",
        "ca-egress-less-than-N-cold-syncs",
        "restored-ra-syncs-from-peer",
        "verdicts-match-unsharded-oracle",
    ),
    # soak
    "soak": (
        "soak-verdicts-match-oracle",
        "memory-bounded",
        "all-subsystems-exercised",
        "client-load-served",
    ),
}


def _fleet_counts(report: dict) -> None:
    """Every contention report carries a populated ``metrics.fleet`` block."""
    fleet = report["metrics"]["fleet"]
    assert fleet["scheduler_events_processed"] > 0, fleet
    assert fleet["fleet_size"] > 0, fleet


def _replication(report: dict) -> None:
    """Anti-entropy recovered the outage from peers, not cold syncs."""
    study = report["extras"]["replication"]
    assert study["verdict_mismatches"] == 0, study
    assert study["recovery_origin_bytes"] < study["cold_sync_bytes_fleet"], study
    for agent, record in study["restored_agents"].items():
        assert record["segments_from_peer"] >= 1, (agent, record)
        assert record["cold_sync_fallbacks"] == 0, (agent, record)
    replication = report["metrics"]["replication"]
    assert replication["segments_from_peer"] >= 1, replication


def _soak(report: dict) -> None:
    """The soak study's verdicts, memory bound and subsystem coverage."""
    study = report["extras"]["soak"]
    assert study["verdict_mismatches"] == 0, study
    assert study["verdicts_checked"] > 0, study
    memory = study["memory"]
    assert memory["bounded"] is True, memory
    assert memory["peak_batch_bytes"] <= memory["batch_budget_bytes"], memory
    subsystems = study["subsystems"]
    assert subsystems["handshakes_served"] == study["events_total"], subsystems
    assert subsystems["resyncs"] == 0, subsystems
    assert len(study["timeline"]) > 0, "soak timeline is empty"


#: Scenario name → assertions over its report beyond the pinned check names.
EXTRA_CHECKS: Dict[str, Callable[[dict], None]] = {
    "thundering-herd": _fleet_counts,
    "staggered-pulls": _fleet_counts,
    "slow-ra-holb": _fleet_counts,
    "region-outage": _replication,
    "soak": _soak,
}


def check_report(scenario: str, report: dict) -> None:
    """Raise :class:`AssertionError` unless ``report`` holds its pins."""
    checks = {c["name"]: c["passed"] for c in report["checks"]}
    for name in PINNED[scenario]:
        assert checks.get(name) is True, (scenario, name, checks)
    extra = EXTRA_CHECKS.get(scenario)
    if extra is not None:
        extra(report)


def main(argv: Optional[List[str]] = None) -> int:
    """Check ``<results dir> <scenario>...``; returns the process exit code."""
    if not __debug__:
        print("check_verdicts.py asserts its pins; run it without -O", file=sys.stderr)
        return 2
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 2:
        print("usage: check_verdicts.py RESULTS_DIR SCENARIO...", file=sys.stderr)
        return 2
    results, scenarios = Path(args[0]), args[1:]
    unknown = [name for name in scenarios if name not in PINNED]
    if unknown:
        print(f"no pinned verdicts for: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for scenario in scenarios:
        with open(results / f"{scenario}.json") as handle:
            report = json.load(handle)
        try:
            check_report(scenario, report)
        except AssertionError as exc:
            print(f"{scenario}: FAILED {exc}")
            failed += 1
        else:
            print(f"{scenario}: {len(PINNED[scenario])} pinned verdicts passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
