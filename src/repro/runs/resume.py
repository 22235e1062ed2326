"""Crash-safe resume: finish an interrupted run without repeating work.

``resume_run`` replays the run's ledger, then walks the request's cell
plan in the same deterministic order the original execution used:

* a cell with a ``cell-finished`` event is decoded straight from the
  ledger — zero model calls;
* a cell with records but no seal (the crash point) is *re-entered at
  the exact question indices that are missing*: the engine may have
  completed indices out of order before dying, so the holes are an
  arbitrary subset, and only they are re-asked;
* a cell the first attempt never reached runs in full.

Because pools, prompts and the simulated backends are pure functions
of the request, the merged records — part decoded, part freshly asked
— are bit-identical to an uninterrupted run's, at any worker count.
The resumed attempt appends to the *same* ledger (a ``run-started``
event with an incremented attempt count marks the seam), so the file
remains the complete, append-only history of the run.
"""

from __future__ import annotations

import time

from repro.core.results import PoolResult
from repro.core.runner import EvaluationRunner
from repro.engine.scheduler import EvaluationEngine
from repro.engine.telemetry import Telemetry
from repro.errors import RunError
from repro.llm.prompting import PromptSetting
from repro.llm.registry import get_model
from repro.obs.export import JsonlSpanSink
from repro.obs.history import append_entry, entry_from_result
from repro.obs.tracer import NullTracer, Tracer
from repro.runs.driver import (CellKey, ModelResolver, RunResult,
                               _pool_for, _resolve_tracer,
                               build_request_pools, engine_for,
                               plan_cells)
from repro.runs.heartbeat import HeartbeatWriter
from repro.runs.ledger import RunLedger
from repro.runs.registry import RunRegistry


def resume_run(run_id: str,
               registry: RunRegistry | None = None,
               engine: EvaluationEngine | None = None,
               resolve_model: ModelResolver | None = None,
               keep_records: bool = True,
               durability: str = "cell",
               tracer: "Tracer | NullTracer | None" = None,
               trace: bool = True) -> RunResult:
    """Complete ``run_id``, reusing every record already on disk.

    Resuming an already finished run degenerates to a pure ledger
    load (zero model calls), so the call is idempotent.  A run halted
    by a spend ceiling (``budget-exhausted`` in the ledger) resumes
    through the exact same paths — and deliberately *without*
    re-applying the ceiling, so the completed result is bit-identical
    to an unbudgeted run.  The resumed
    attempt's spans append to the run's existing ``spans.jsonl`` (its
    ``run`` span carries ``resumed``/``attempt`` attributes), exactly
    as its ledger events append to the existing ledger.
    """
    registry = registry if registry is not None else RunRegistry()
    resolve = resolve_model if resolve_model is not None else get_model
    request = registry.request(run_id)
    state = registry.state(run_id)
    pools = build_request_pools(request)
    cells = plan_cells(request, pools)
    if engine is None:
        engine = engine_for(request)
    tracer = _resolve_tracer(tracer, trace)
    if (engine is not None and tracer.enabled
            and not engine.tracer.enabled):
        engine.tracer = tracer
    telemetry = Telemetry() if engine is None else None
    sink = None
    if tracer.enabled and tracer.sink is None:
        sink = JsonlSpanSink(registry.spans_path(run_id))
        tracer.sink = sink

    results: dict[CellKey, PoolResult] = {}
    evaluated = 0
    replayed = 0
    resumed_cells: list[str] = []
    heartbeat = HeartbeatWriter(registry.heartbeat_path(run_id))
    try:
        with RunLedger(registry.ledger_path(run_id),
                       durability=durability) as ledger:
            ledger.run_started(run_id, resumed=True,
                               attempt=state.attempts + 1)
            runner = EvaluationRunner(variant=request.variant,
                                      keep_records=keep_records,
                                      engine=engine, ledger=ledger,
                                      tracer=tracer,
                                      telemetry=telemetry,
                                      trail=request.trail)
            started = time.perf_counter()
            with tracer.span("run", run_id=run_id,
                             dataset=request.dataset,
                             workers=request.workers, resumed=True,
                             attempt=state.attempts + 1):
                for cell in cells:
                    pool = _pool_for(cell, pools)
                    cell_state = state.cells.get(cell.cell_id)
                    setting = PromptSetting(cell.setting)
                    if cell_state is not None and cell_state.complete:
                        if cell_state.expected_n != len(pool):
                            raise RunError(
                                f"cell {cell.cell_id} recorded "
                                f"{cell_state.expected_n} questions "
                                f"but the request now plans "
                                f"{len(pool)} — the run predates a "
                                f"generator change and cannot be "
                                f"resumed")
                        records = cell_state.ordered_records()
                        replayed += len(records)
                        results[cell] = PoolResult(
                            pool_label=cell.pool_label,
                            model=cell.model,
                            setting=cell.setting,
                            metrics=cell_state.metrics,
                            records=records if keep_records else (),
                        )
                        continue
                    model = resolve(cell.model)
                    if cell_state is not None and cell_state.records:
                        done = {
                            index: record
                            for index, record
                            in cell_state.records.items()
                            if 0 <= index < len(pool)}
                        resumed_cells.append(cell.cell_id)
                        replayed += len(done)
                        evaluated += len(pool) - len(done)
                        results[cell] = runner.complete_cell(
                            model, pool, setting, done)
                    else:
                        evaluated += len(pool)
                        results[cell] = runner.evaluate(model, pool,
                                                        setting)
            if telemetry is not None:
                telemetry.record_run(
                    time.perf_counter() - started, 1)
            stats = (engine.stats() if engine is not None
                     else telemetry.snapshot())
            ledger.run_finished(len(cells), stats.to_dict())
        append_entry(entry_from_result(
            run_id, request.dataset,
            {key.cell_id: result.metrics
             for key, result in results.items()},
            stats=stats, attempts=state.attempts + 1), registry)
    finally:
        heartbeat.close()
        if sink is not None:
            tracer.sink = None
            sink.close()
    return RunResult(run_id=run_id, request=request, cells=results,
                     stats=stats, evaluated=evaluated,
                     replayed=replayed,
                     resumed_cells=tuple(resumed_cells))
