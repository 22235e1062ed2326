"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section: str) -> list[str]:
    return [metric["name"] for metric in BENCHMARK[section]]


def test_benchmark_json_describes_the_workloads():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.description()) for w in WORKLOADS.values()]


def test_the_report_lists_every_span_name():
    wrapped = {name for name, _, _ in layers.LAYERS}
    assert sorted(layers.LABELS) == sorted(
        wrapped | {layers.ORACLE_SETUP, layers.SHARD, layers.ROOT})


def _ledger(path: Path, lines: list[dict]) -> Path:
    path.write_text("".join(json.dumps(line, separators=(",", ":"))
                            + "\n" for line in lines))
    return path


def _cell(cell: str, responses: list[str], trail=None) -> list[dict]:
    records = [{"event": "record", "cell": cell, "i": i,
                "response": text} for i, text in enumerate(responses)]
    if trail is not None:
        for record in records:
            record["trail"] = trail
    return ([{"event": "cell-started", "cell": cell, "n": len(responses)}]
            + records
            + [{"event": "cell-finished", "cell": cell, "accuracy": 1.0}])


def test_compare_ledgers_ignores_trails_and_names_the_first_mismatch(
        tmp_path):
    reference = probe.ledger_digests(_ledger(tmp_path / "ref.jsonl", [
        {"event": "run-started", "ts": 1.0},
        *_cell("a", ["Yes.", "No."]), *_cell("b", ["Yes."])]))
    same = _ledger(tmp_path / "same.jsonl", [
        {"event": "run-started", "ts": 2.0},
        *_cell("a", ["Yes.", "No."], trail={"attempts": 1}),
        *_cell("b", ["Yes."])])
    check = probe.compare_ledgers(same, reference)
    assert (check["questions"], check["mismatched"]) == (3, 0)
    assert check["trail_bytes"] == 2 * len(',"trail":{"attempts":1}')

    differs = _ledger(tmp_path / "differs.jsonl", [
        *_cell("a", ["Yes.", "Yes."]), *_cell("b", ["Yes."])])
    check = probe.compare_ledgers(differs, reference)
    assert check["mismatched"] == 1
    assert check["first_mismatch"] == "cell a: record 1 differs"

    unsealed = _ledger(tmp_path / "unsealed.jsonl",
                       [*_cell("a", ["Yes.", "No."]),
                        *_cell("b", ["Yes."])[:-1]])
    check = probe.compare_ledgers(unsealed, reference)
    assert check["mismatched"] == 1
    assert check["first_mismatch"] == "cell b: cell-finished line"


def test_self_time_subtracts_children(tmp_path):
    recorder = layers.SpanRecorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    recorder.wrap("outer", outer_body)()
    recorder.dump(tmp_path / "spans.npz")
    spans = layers.ProcessSpans(tmp_path / "spans.npz")
    table = layers.layer_table([spans])
    assert table["inner"]["calls"] == 2
    assert 0.04 <= table["inner"]["self_s"] < 0.2
    assert 0.01 <= table["outer"]["self_s"] < 0.1
    assert spans.parent.tolist() == [-1, 0, 0]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "grid-zero-shot", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""


def test_smoke_runs_every_workload_with_every_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()
             if line.startswith("{")]
    results = {line["workload"]: line for line in lines[:-1]}
    assert sorted(results) == sorted(WORKLOADS)
    for result in results.values():
        for section in ("end_to_end", "per_layer"):
            outcome = result[section]
            assert outcome["correct"] and outcome["failed"] == 0
            assert outcome["attempted"] >= 1
            assert list(outcome["metrics"]) == _names(section)
    assert lines[-1] == {"smoke": "ok", "workloads": list(WORKLOADS)}
