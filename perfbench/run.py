"""End-to-end and per-layer benchmark of the real ``repro run`` path.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-zero-shot --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

One invocation measures one workload (see ``workloads.py``) at one
seed.  Every step runs in a fresh process (``probe.py``) with its own
artifact store and runs directory under ``.bench_build/perfbench``:

1. set-up: cold builds of the workload's question pools, each into an
   empty store, repeated while the builds so far stay short;
2. measured runs against the warm store, layer timers off, at least
   one and more while their ``run_s`` fits in ``--seconds``: peak RSS,
   bytes on disk and a line-by-line comparison of the ledger with the
   sequential, untraced reference of the request, then reloads.  A
   sequential workload's first run is that reference, so it runs at
   least twice; for the others the set-up process runs the reference.
   Reference digests stay under ``.bench_build/perfbench/references``,
   keyed by the program's sources and the request, so a later
   invocation with the same sources, request and seed reuses them;
3. with ``--trace 1`` one more run with every layer wrapped in spans,
   which gives the per-layer table; its extra time over the untraced
   runs is the tracing overhead.

The last line of standard output is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 1 when a step fails or any question's ledger lines
differ from the reference, 2 when the checkout holds no program.
``--smoke`` runs every workload at a tiny sample size, traced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import SMOKE_SAMPLE, WORKLOADS  # noqa: E402

#: Cold builds (at least one) and reloads (at least two per measured
#: run) repeat while their sum stays under these budgets; medians are
#: reported.
SETUP_BUDGET_S = 5.0
RELOAD_BUDGET_S = 1.0
#: Reference digests kept under .bench_build/perfbench/references.
KEEP_REFERENCES = 24
#: Whole invocation, below the 180 s a run may take.
DEADLINE_S = 170.0

class StepError(RuntimeError):
    """A benchmark step failed or ran out of time."""


class Steps:
    """Runs ``probe.py`` steps as child processes of their own."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.count = 0

    def run(self, step: str, workload: str, seed: str,
            sample: int | None, store: Path, runs: Path,
            *extra: str) -> dict:
        self.count += 1
        out = self.work / f"{step}-{self.count}.json"
        command = [sys.executable, str(HERE / "probe.py"), step,
                   "--workload", workload, "--seed", seed,
                   "--runs", str(runs), "--out", str(out), *extra]
        if sample is not None:
            command += ["--sample", str(sample)]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                   REPRO_STORE_DIR=str(store),
                   REPRO_RUNS_DIR=str(runs))
        # A session of its own, so a timeout also stops shard workers.
        child = subprocess.Popen(command, cwd=self.root, env=env,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True,
                                 start_new_session=True)
        try:
            _, err = child.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise StepError(f"{step} step of {workload} ran out of "
                            f"time") from None
        if child.returncode != 0:
            raise StepError(f"{step} step of {workload} failed "
                            f"(exit {child.returncode}):\n"
                            f"{err[-3000:]}")
        return json.loads(out.read_text(encoding="utf-8"))


def measure_workload(root: Path, name: str, seed: str, seconds: float,
                     trace: bool, sample: int | None = None) -> dict:
    """Every number of one invocation (see the module docstring)."""
    workload = WORKLOADS[name]
    started = time.monotonic()
    bench = root / ".bench_build" / "perfbench"
    work = bench / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    steps = Steps(root, work, started + DEADLINE_S)
    store = work / "store"
    reference = (bench / "references"
                 / f"{reference_key(root, workload, seed, sample)}.json")
    try:
        # A sequential workload's first measured run is its reference.
        setups = steps.run(
            "setup", name, seed, sample, store, work / "reference",
            "--budget", str(SETUP_BUDGET_S),
            *([] if reference.exists() or workload.sequential
              else ["--reference", str(reference)]))["setup_s"]

        measured: list[dict] = []
        least = 2 if workload.sequential else 1
        while len(measured) < least or _fits(measured, seconds):
            runs = work / f"runs-{len(measured)}"
            run = steps.run("measure", name, seed, sample, store, runs,
                            "--reference", str(reference))
            run.update(steps.run(
                "reload", name, seed, sample, store, runs,
                "--run-id", run["run_id"],
                "--questions", str(run["questions"]),
                "--budget", str(RELOAD_BUDGET_S)))
            measured.append(run)
            shutil.rmtree(runs)
        questions = json.loads(reference.read_text("utf-8"))["questions"]
        # Other seeds draw pools a few questions larger or smaller.
        if (sample is None and seed == ""
                and questions != workload.questions):
            raise StepError(f"{name} asks {questions} questions, not "
                            f"{workload.questions}")
        traced = None
        if trace:
            traced = steps.run(
                "measure", name, seed, sample, store,
                work / "runs-traced", "--reference", str(reference),
                "--trace", "--spans", str(work / "spans"))
            traced["layers"] = _layers(work / "spans")
        _prune(reference.parent)
        return {"workload": workload, "setups": setups,
                "reference_questions": questions,
                "measured": measured, "traced": traced}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _fits(measured: list[dict], seconds: float) -> bool:
    """Whether one more run of the mean length stays within
    ``seconds`` of measured run time."""
    spent = sum(run["run_s"] for run in measured)
    return spent + spent / len(measured) <= seconds


def reference_key(root: Path, workload, seed: str,
                  sample: int | None) -> str:
    """Content address of a reference: the program's sources and the
    request fields a sequential run depends on."""
    digest = hashlib.sha256()
    fields = workload.request_fields(seed, sample)
    for engine_shape in ("workers", "coalesce", "trail"):
        fields.pop(engine_shape)
    digest.update(json.dumps(fields, sort_keys=True).encode())
    source = root / "src"
    for path in sorted(source.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(source)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:32]


def _prune(references: Path) -> None:
    """Keep the newest references only."""
    kept = sorted(references.glob("*.json"),
                  key=lambda path: path.stat().st_mtime, reverse=True)
    for path in kept[KEEP_REFERENCES:]:
        path.unlink(missing_ok=True)


def _layers(spans_dir: Path) -> dict:
    main = layers.ProcessSpans(spans_dir / "main.npz")
    workers = [layers.ProcessSpans(path)
               for path in sorted(spans_dir.glob("worker-*.npz"))]
    table = layers.layer_table([main, *workers])
    root = main.mask(layers.ROOT)
    engine = main.mask("engine.run")
    asks = main.mask("core.ask") & ~main.main
    shards = [float(spans.duration[spans.mask(layers.SHARD)].sum())
              for spans in workers]
    return {"table": table,
            "run_s": float(main.duration[root].sum()),
            "engine_wall_s": float(main.duration[engine].sum()),
            "engine_ask_s": float(main.duration[asks].sum()),
            "shard_s": shards}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(result: dict) -> dict[str, tuple[float, str]]:
    measured = result["measured"]
    questions = measured[0]["questions"]
    run_s = _median(m["run_s"] for m in measured)
    return {
        "setup_s": (_median(result["setups"]), "s"),
        "run_s": (run_s, "s"),
        "questions_per_s": (questions / run_s, "1/s"),
        "reload_s": (_median(sample for m in measured
                             for sample in m["reload_s"]), "s"),
        "peak_rss_mb": (_median(m["peak_rss_mb"] for m in measured),
                        "MB"),
        "disk_bytes_per_question": (
            _median(m["disk_bytes"] for m in measured) / questions,
            "B"),
    }


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    traced = result["traced"]
    spans = traced["layers"]
    table = spans["table"]
    questions = traced["questions"]
    untraced_run_s = _median(m["run_s"] for m in result["measured"])

    def self_s(label: str) -> float:
        return table.get(label, {}).get("self_s", 0.0)

    def calls(label: str) -> int:
        return table.get(label, {}).get("calls", 0)

    def wall(label: str) -> float:
        return table.get(label, {}).get("wall_s", 0.0)

    engine = traced["engine"] or {}
    lookups = engine.get("cache_hits", 0) + engine.get("cache_misses", 0)
    engine_wall = spans["engine_wall_s"]
    workers = result["workload"].workers
    shards = spans["shard_s"]
    return {
        "store.build_s": (_median(result["setups"]), "s"),
        "store.load_s": (self_s("store.load"), "s"),
        "llm.oracle.setup_s": (self_s("llm.oracle.setup"), "s"),
        "llm.oracle.taxonomies_built": (calls("llm.oracle.setup"),
                                        "count"),
        "llm.oracle.resolve.self_s": (self_s("llm.oracle.resolve"), "s"),
        "llm.prompting.self_s": (self_s("llm.prompting"), "s"),
        "llm.prompt_parsing.self_s": (self_s("llm.prompt_parsing"), "s"),
        "llm.parsing.self_s": (self_s("llm.parsing"), "s"),
        "llm.generate.self_s": (self_s("llm.generate"), "s"),
        "obs.cost.count_tokens.self_s": (
            self_s("obs.cost.count_tokens"), "s"),
        "core.ask.self_s": (self_s("core.ask"), "s"),
        "core.score.self_s": (self_s("core.score"), "s"),
        "runs.ledger.record.self_s": (self_s("runs.ledger.record"), "s"),
        "runs.ledger.bytes_per_question": (
            traced["ledger_bytes"] / questions, "B"),
        "runs.load.self_s": (self_s("runs.load"), "s"),
        "obs.spans.count": (calls("obs.spans.write"), "count"),
        "obs.spans.write.self_s": (self_s("obs.spans.write"), "s"),
        "obs.spans.bytes_per_question": (
            traced["spans_bytes"] / questions, "B"),
        "obs.trail.bytes_per_question": (
            traced["check"]["trail_bytes"] / questions, "B"),
        "engine.run.wall_s": (engine_wall, "s"),
        "engine.busy_ratio": (
            spans["engine_ask_s"] / (workers * engine_wall)
            if engine_wall else 0.0, "ratio"),
        "engine.backend_calls_per_question": (
            engine.get("calls", 0) / questions, "ratio"),
        "engine.cache_hit_rate": (
            engine.get("cache_hits", 0) / lookups if lookups else 0.0,
            "ratio"),
        "engine.coalesced": (engine.get("coalesced", 0), "count"),
        "dist.plan_s": (wall("dist.plan"), "s"),
        "dist.shard_s.max": (max(shards, default=0.0), "s"),
        "dist.shard_skew": (
            max(shards) / min(shards) if shards and min(shards) > 0
            else 0.0, "ratio"),
        "dist.merge_s": (wall("dist.merge"), "s"),
        "unattributed_s": (self_s(layers.ROOT), "s"),
        "traced_run_s": (spans["run_s"], "s"),
        "tracing_overhead_s": (spans["run_s"] - untraced_run_s, "s"),
    }


def checked(result: dict) -> tuple[int, int, str | None]:
    """(questions compared, mismatched, first mismatch) over every
    measured run."""
    runs = list(result["measured"])
    if result["traced"] is not None:
        runs.append(result["traced"])
    attempted = sum(run["check"]["questions"] for run in runs)
    failed = sum(run["check"]["mismatched"] for run in runs)
    first = next((run["check"]["first_mismatch"] for run in runs
                  if run["check"]["first_mismatch"]), None)
    if attempted == 0:      # a reference without questions checks nothing
        return 1, 1, "the reference run recorded no questions"
    return attempted, failed, first


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def report(result: dict) -> str:
    workload = result["workload"]
    attempted, failed, first = checked(result)
    lines = [f"== {workload.name}: {workload.command_line()}",
             f"   {result['reference_questions']} questions; "
             f"{len(result['setups'])} cold set-ups, "
             f"{len(result['measured'])} measured run(s); "
             f"record_mismatch_rate {failed / attempted:.6f} "
             f"({failed} of {attempted} compared)"]
    if first:
        lines.append(f"   first mismatch: {first}")
    for name, (value, unit) in end_to_end(result).items():
        lines.append(f"   {name:<26} {value:>14.4f} {unit}")
    if result["traced"] is None:
        return "\n".join(lines)
    spans = result["traced"]["layers"]
    run_s = spans["run_s"]
    lines.append(f"   per-layer self time of the traced run "
                 f"(run_s {run_s:.3f} s; shares of it; worker threads "
                 f"and shard processes overlap the main thread):")
    lines.append(f"   {'layer':<24}{'calls':>10}{'self_s':>10}"
                 f"{'share':>8}{'main_self_s':>13}")
    table = spans["table"]
    for label in layers.LABELS:
        row = table.get(label)
        if row is None:
            lines.append(f"   {label:<24}{'absent':>10}")
            continue
        shown = "unattributed (run)" if label == layers.ROOT else label
        # The traced reload happens after the run, outside run_s.
        share = ("reload" if label == "runs.load"
                 else f"{row['self_s'] / run_s:.1%}")
        lines.append(f"   {shown:<24}{row['calls']:>10}"
                     f"{row['self_s']:>10.3f}{share:>8}"
                     f"{row['main_self_s']:>13.3f}")
    traced = result["traced"]
    engine = traced["engine"] or {}
    questions = traced["questions"]
    untraced = _median(m["run_s"] for m in result["measured"])
    lines += [
        f"   tracing overhead: {run_s:.3f} s traced - {untraced:.3f} s "
        f"untraced = {run_s - untraced:+.3f} s",
        f"   engine busy: {spans['engine_ask_s']:.3f} s of ask on "
        f"engine threads / ({workload.workers} workers x "
        f"{spans['engine_wall_s']:.3f} s engine.run)",
        f"   backend calls {engine.get('calls', 0)} / {questions} "
        f"questions; cache hits {engine.get('cache_hits', 0)} / "
        f"{engine.get('cache_hits', 0) + engine.get('cache_misses', 0)}"
        f" lookups; coalesced {engine.get('coalesced', 0)}",
        f"   bytes: ledger {traced['ledger_bytes']}, spans "
        f"{traced['spans_bytes']}, trails "
        f"{traced['check']['trail_bytes']}, run dir "
        f"{traced['disk_bytes']} over {questions} questions",
        "   shards: " + (", ".join(f"{s:.3f} s" for s in spans["shard_s"])
                         or "none"),
    ]
    missing = traced.get("missing_layers") or []
    if missing:
        lines.append(f"   layers the program lacks: {', '.join(missing)}")
    return "\n".join(lines)


def summary(result: dict, trace: bool) -> dict:
    attempted, failed, _ = checked(result)
    metrics = per_layer(result) if trace else end_to_end(result)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def smoke(root: Path) -> int:
    """Every workload end to end at a tiny sample size, traced."""
    status = 0
    for name in WORKLOADS:
        result = measure_workload(root, name, "smoke", 0.0, trace=True,
                                  sample=SMOKE_SAMPLE)
        print(report(result))
        outcomes = {"workload": name,
                    "end_to_end": summary(result, trace=False),
                    "per_layer": summary(result, trace=True)}
        print(json.dumps(outcomes), flush=True)
        if not outcomes["per_layer"]["correct"]:
            status = 1
    print(json.dumps({"smoke": "ok" if status == 0 else "failed",
                      "workloads": list(WORKLOADS)}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", default="",
                        help="RunRequest.seed ('' = the paper pools)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="time budget of the measured runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {root / 'src' / 'repro'} is "
              f"missing (run from the root of a checkout)",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    try:
        result = measure_workload(root, args.workload, args.seed,
                                  args.seconds, bool(args.trace))
    except StepError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(report(result), flush=True)
    outcome = summary(result, bool(args.trace))
    if not outcome["correct"]:
        _, failed, first = checked(result)
        print(f"{failed} question(s) differ from the sequential "
              f"reference; first: {first}", file=sys.stderr)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
