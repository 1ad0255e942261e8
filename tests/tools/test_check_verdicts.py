"""``tools/check_verdicts.py`` passes a complete report and fails a broken one."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def check_verdicts():
    """The guard module, imported from tools/ by path."""
    spec = importlib.util.spec_from_file_location(
        "check_verdicts", REPO / "tools" / "check_verdicts.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _staggered_report(passed=True, scheduler_events=12, drop_first_check=False):
    """A hand-built staggered-pulls report holding every pinned verdict."""
    checks = [
        {"name": "stagger-flattens-pull-peak", "passed": True, "detail": ""},
        {"name": "staggered-fleet-within-bound", "passed": passed, "detail": ""},
        {"name": "unpinned-check", "passed": True, "detail": ""},
    ]
    return {
        "scenario": "staggered-pulls",
        "checks": checks[1:] if drop_first_check else checks,
        "metrics": {
            "fleet": {"scheduler_events_processed": scheduler_events, "fleet_size": 2}
        },
    }


def _write(directory: Path, report: dict) -> None:
    (directory / f"{report['scenario']}.json").write_text(json.dumps(report))


def test_complete_report_passes(check_verdicts, tmp_path, capsys):
    _write(tmp_path, _staggered_report())
    assert check_verdicts.main([str(tmp_path), "staggered-pulls"]) == 0
    assert "staggered-pulls: 2 pinned verdicts passed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "report",
    [
        _staggered_report(passed=False),
        _staggered_report(drop_first_check=True),
        _staggered_report(scheduler_events=0),
    ],
    ids=["failed-pinned-check", "dropped-pinned-check", "empty-fleet-block"],
)
def test_broken_report_fails(check_verdicts, tmp_path, capsys, report):
    _write(tmp_path, report)
    assert check_verdicts.main([str(tmp_path), "staggered-pulls"]) == 1
    assert "staggered-pulls: FAILED" in capsys.readouterr().out


def test_unknown_scenario_is_a_usage_error(check_verdicts, tmp_path):
    assert check_verdicts.main([str(tmp_path), "quickstart"]) == 2
