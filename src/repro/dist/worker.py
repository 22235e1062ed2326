"""Shard workers: execute one shard of a run in its own process.

Each shard owns a *shard directory* (``<run>/shards/shard-NN/``) with
the same artifact shapes as a whole run — ``ledger.jsonl``,
``spans.jsonl``, ``heartbeat.json``, optionally ``cache.json`` — so
every durability property proven for single-process runs carries over
file for file: appends are single locked writes, a torn final line is
the crash signature, the heartbeat separates "slow" from "gone".

A shard ledger speaks the run ledger's event language with two
additions, ``shard-started`` / ``shard-finished``, bracketing each
attempt the way ``run-started`` / ``run-finished`` bracket a run.
Cells are *never* sealed here: a shard may own only a range of a
cell's questions, so ``cell-finished`` is the merge's exclusive right
— which is also what lets the merge detect coverage holes instead of
trusting K workers' self-reports.

Crash-safe resume is per shard: :func:`run_shard` replays its own
ledger first and re-asks only the question indices of its tasks that
have no record yet, exactly the ``resume_run`` contract scoped down to
one shard.  Because pools, prompts and the simulated backends are pure
functions of the request, a shard's records are bit-identical whether
it ran clean, crashed and resumed, or ran inline in the driver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.results import QuestionRecord
from repro.core.runner import EvaluationRunner
from repro.engine.cache import ResponseCache
from repro.engine.telemetry import EngineStats, Telemetry
from repro.errors import RunError
from repro.llm.prompting import PromptSetting
from repro.llm.registry import get_model
from repro.obs.export import JsonlSpanSink
from repro.obs.tracer import NullTracer, Tracer
from repro.runs.driver import (ModelResolver, _pool_for,
                               _resolve_tracer, build_request_pools,
                               engine_for)
from repro.runs.heartbeat import HeartbeatWriter
from repro.runs.ledger import CellState, RunLedger, replay_ledger
from repro.obs.jsonl import iter_jsonl
from repro.dist.planner import ShardPlan, load_shard_plan
from repro.runs.registry import RunRegistry


class ShardLedger(RunLedger):
    """A run ledger plus the shard attempt bracket events."""

    def shard_started(self, run_id: str, shard: int,
                      attempt: int = 1) -> None:
        self._append({"event": "shard-started", "run_id": run_id,
                      "shard": shard, "attempt": attempt,
                      "ts": time.time()}, sync=self._sync_boundary())

    def shard_finished(self, shard: int,
                       stats: dict | None = None) -> None:
        self._append({"event": "shard-finished", "shard": shard,
                      "stats": stats, "ts": time.time()},
                     sync=self._sync_boundary())


@dataclass
class ShardState:
    """One shard ledger folded back into state."""

    shard: int
    attempts: int = 0
    finished: bool = False
    stats: dict | None = None
    cells: dict[str, CellState] = field(default_factory=dict)

    @property
    def recorded_questions(self) -> int:
        return sum(len(cell.records) for cell in self.cells.values())

    def done_for(self, cell_id: str,
                 indices) -> dict[int, QuestionRecord]:
        """Already-persisted records of one task's index range."""
        cell = self.cells.get(cell_id)
        if cell is None:
            return {}
        return {index: cell.records[index] for index in indices
                if index in cell.records}


def replay_shard(path, shard: int) -> ShardState:
    """Fold a shard ledger into :class:`ShardState`.

    Cell/record folding is delegated to the run ledger's replayer
    (shard brackets are unknown events to it, skipped by design); the
    brackets themselves are folded in a second tolerant pass.  A
    missing file is simply a shard that never started.
    """
    state = ShardState(shard=shard)
    try:
        run_state = replay_ledger(path)
    except FileNotFoundError:
        return state
    state.cells = run_state.cells
    for _, event in iter_jsonl(path).records:
        kind = event.get("event") if isinstance(event, dict) else None
        if kind == "shard-started":
            try:
                attempt = int(event.get("attempt", 1))
            except (TypeError, ValueError):
                attempt = 1
            state.attempts = max(state.attempts, attempt)
            state.finished = False      # a new attempt reopens it
        elif kind == "shard-finished":
            state.finished = True
            stats = event.get("stats")
            state.stats = stats if isinstance(stats, dict) else None
    return state


@dataclass(frozen=True, slots=True)
class ShardResult:
    """Outcome of one :func:`run_shard` invocation."""

    run_id: str
    shard: int
    evaluated: int
    replayed: int
    stats: EngineStats | None = None

    def to_dict(self) -> dict[str, object]:
        return {"run_id": self.run_id, "shard": self.shard,
                "evaluated": self.evaluated,
                "replayed": self.replayed,
                "stats": (self.stats.to_dict()
                          if self.stats is not None else None)}


def run_shard(run_id: str, shard: int,
              registry: RunRegistry | None = None,
              resolve_model: ModelResolver | None = None,
              plan: ShardPlan | None = None,
              durability: str = "cell",
              trace: bool = True,
              tracer: "Tracer | NullTracer | None" = None,
              warm_cache: str | None = None) -> ShardResult:
    """Execute (or resume) one shard of a sharded run.

    Idempotent: a shard whose ledger already carries a
    ``shard-finished`` event returns a pure replay summary with zero
    model calls.  A partially recorded shard re-asks only its holes.

    ``warm_cache`` names a pre-existing shared cache file to seed the
    shard's response cache from (read-only — concurrent shards may
    all load it); the shard's final cache (seed + its own responses)
    is persisted to the shard directory, never to the shared path.
    """
    registry = registry if registry is not None else RunRegistry()
    resolve = resolve_model if resolve_model is not None else get_model
    request = registry.request(run_id)
    if plan is None:
        plan = load_shard_plan(registry, run_id)
    if not 0 <= shard < plan.num_shards:
        raise RunError(f"run {run_id} has {plan.num_shards} shards; "
                       f"no shard {shard}")
    tasks = plan.shards[shard]
    ledger_path = registry.shard_ledger_path(run_id, shard)
    state = replay_shard(ledger_path, shard)
    if state.finished:
        return ShardResult(
            run_id=run_id, shard=shard, evaluated=0,
            replayed=state.recorded_questions,
            stats=(EngineStats.from_dict(state.stats)
                   if state.stats else None))

    pools = build_request_pools(request)
    cache = (ResponseCache.load(warm_cache)
             if warm_cache is not None else None)
    # Each shard's cache is its own object persisted to its own file:
    # no shared mutable state crosses a process boundary.
    engine = engine_for(request, cache=cache)
    tracer = _resolve_tracer(tracer, trace)
    if (engine is not None and tracer.enabled
            and not engine.tracer.enabled):
        engine.tracer = tracer
    telemetry = Telemetry() if engine is None else None
    sink = None
    if tracer.enabled and tracer.sink is None:
        sink = JsonlSpanSink(registry.shard_spans_path(run_id, shard))
        tracer.sink = sink

    evaluated = 0
    replayed = 0
    heartbeat = HeartbeatWriter(
        registry.shard_heartbeat_path(run_id, shard))
    try:
        with ShardLedger(ledger_path, durability=durability) as ledger:
            ledger.shard_started(run_id, shard,
                                 attempt=state.attempts + 1)
            runner = EvaluationRunner(variant=request.variant,
                                      keep_records=False,
                                      engine=engine, ledger=ledger,
                                      tracer=tracer,
                                      telemetry=telemetry,
                                      trail=request.trail)
            started = time.perf_counter()
            with tracer.span("shard", run_id=run_id, shard=shard,
                             tasks=len(tasks),
                             attempt=state.attempts + 1):
                for task in tasks:
                    pool = _pool_for(task.cell, pools)
                    if len(pool) != task.n:
                        raise RunError(
                            f"shard plan sized cell "
                            f"{task.cell.cell_id} at {task.n} "
                            f"questions but the request now builds "
                            f"{len(pool)} — the plan predates a "
                            f"generator change")
                    done = state.done_for(task.cell.cell_id,
                                          task.indices)
                    replayed += len(done)
                    evaluated += task.size - len(done)
                    runner.evaluate_slice(
                        resolve(task.cell.model), pool,
                        PromptSetting(task.cell.setting),
                        task.indices, done=done)
            if telemetry is not None:
                telemetry.record_run(time.perf_counter() - started, 1)
            stats = (engine.stats() if engine is not None
                     else telemetry.snapshot())
            ledger.shard_finished(shard, stats.to_dict())
        if cache is not None:
            cache.save(registry.shard_cache_path(run_id, shard))
    finally:
        heartbeat.close()
        if sink is not None:
            tracer.sink = None
            sink.close()
    return ShardResult(run_id=run_id, shard=shard,
                       evaluated=evaluated, replayed=replayed,
                       stats=stats)


def shard_entry(root: str, run_id: str, shard: int,
                durability: str = "cell", trace: bool = True,
                warm_cache: str | None = None,
                resolve_model: ModelResolver | None = None
                ) -> dict[str, object]:
    """Process-pool entry point (module-level, so it pickles).

    ``resolve_model`` must itself be picklable when crossing a
    process boundary — a module-level function, or ``None`` for the
    model registry's resolver.
    """
    result = run_shard(run_id, shard, registry=RunRegistry(root),
                       resolve_model=resolve_model,
                       durability=durability, trace=trace,
                       warm_cache=warm_cache)
    return result.to_dict()
