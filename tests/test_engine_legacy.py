"""Backward compatibility with registries written by older engines.

``tests/fixtures/legacy_engine_runs`` is a run registry written by an
engine that still had backend pools (hedging, replica fallback), an
AIMD batch limiter, a token-bucket rate limiter and a per-call timeout
layer.  Its ledgers carry ``hedged``/``adaptive_high_water`` stats
counters and ``replica``/``fallbacks``/``hedged``/``rate_wait_s``
trail keys, and its ``history.jsonl`` carries ``hedged``.  Those
layers are gone; every reader must still load and render such a
registry, ignoring the keys it no longer knows.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine.telemetry import EngineStats
from repro.obs.history import read_history
from repro.obs.trail import trail_from_dict
from repro.runs import RunRegistry, load_run

FIXTURE = Path(__file__).parent / "fixtures" / "legacy_engine_runs"
BATCHED_RUN = "cc74dc3547fb-01"
POOLED_RUN = "e51927e5bba7-01"
BASELINE = (Path(__file__).parent.parent / "benchmarks" / "baselines"
            / "obs_check_baseline.json")


@pytest.fixture()
def runs_dir(tmp_path):
    root = tmp_path / "runs"
    shutil.copytree(FIXTURE, root)
    return root


def _cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_fixture_carries_the_removed_keys():
    ledger = (FIXTURE / POOLED_RUN / "ledger.jsonl").read_text()
    for key in ("replica", "fallbacks", "hedged", "hedge_won",
                "rate_wait_s"):
        assert f'"{key}"' in ledger, key
    batched = (FIXTURE / BATCHED_RUN / "ledger.jsonl").read_text()
    assert '"adaptive_high_water":5' in batched
    assert '"hedged"' in (FIXTURE / "history.jsonl").read_text()


def test_legacy_stats_and_trails_decode(runs_dir):
    registry = RunRegistry(runs_dir)
    for run_id in (BATCHED_RUN, POOLED_RUN):
        state = registry.state(run_id)
        stats = EngineStats.from_dict(state.stats)
        assert stats.records == state.recorded_questions
        assert "hedged" not in stats.to_dict()
        assert "adaptive_high_water" not in stats.to_dict()
        result = load_run(run_id, registry=registry)
        assert result.replayed == stats.records
    trails = [record.trail for cell in
              load_run(POOLED_RUN, registry=registry).cells.values()
              for record in cell.records]
    assert trails and all(trail is not None for trail in trails)
    assert trail_from_dict({"replica": 1, "fallbacks": [0],
                            "rate_wait_s": 0.5, "hedged": True,
                            "attempts": 2}).attempts == 2


def test_runs_show_renders_legacy_runs(capsys, runs_dir):
    for run_id in (BATCHED_RUN, POOLED_RUN):
        code, out = _cli(capsys, "runs", "show", run_id,
                         "--runs-dir", str(runs_dir))
        assert code == 0
        assert f"run {run_id} [finished" in out
        assert "Engine stats (run-finished snapshot)" in out
        code, out = _cli(capsys, "runs", "show", run_id, "--json",
                         "--runs-dir", str(runs_dir))
        assert code == 0
        assert json.loads(out)["manifest"]["run_id"] == run_id


def test_obs_why_and_trails_render_legacy_trails(capsys, runs_dir):
    code, out = _cli(capsys, "obs", "why", POOLED_RUN, "0",
                     "--runs-dir", str(runs_dir))
    assert code == 0
    assert "cache: miss" in out
    assert "cost:" in out
    code, out = _cli(capsys, "obs", "trails", POOLED_RUN,
                     "--runs-dir", str(runs_dir))
    assert code == 0
    assert "Provenance trails" in out
    assert "32 questions (32 with trails)" in out
    code, out = _cli(capsys, "obs", "trails", POOLED_RUN, "--json",
                     "--runs-dir", str(runs_dir))
    assert code == 0
    assert json.loads(out)["totals"]["with_trail"] == 32


def test_obs_history_and_check_load_legacy_history(capsys, runs_dir):
    entries = read_history(RunRegistry(runs_dir))
    assert [entry.run_id for entry in entries] == [BATCHED_RUN,
                                                   POOLED_RUN]
    code, out = _cli(capsys, "obs", "history",
                     "--runs-dir", str(runs_dir))
    assert code == 0
    assert BATCHED_RUN in out and POOLED_RUN in out
    # The fixture run is smaller than the committed baseline's, so the
    # gate may flag it; what must hold is that both entries load and
    # the report renders every gated metric.
    code, out = _cli(capsys, "obs", "check", "--baseline-file",
                     str(BASELINE), "--json",
                     "--runs-dir", str(runs_dir))
    assert code in (0, 1)
    report = json.loads(out)
    assert report["candidate"] == POOLED_RUN
    assert report["checks"]
