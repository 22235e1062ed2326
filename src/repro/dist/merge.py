"""Deterministic merge: K shard ledgers -> one run, bit-identical.

The merge is the counterpart of the planner's disjoint-exact-cover
invariant: it folds every shard's ``record`` events back together,
proves the union covers every planned cell exactly (no holes, no
conflicting duplicates), and then *re-emits the sequential event
stream* — walking the plan's cell order, writing ``cell-started``,
the records in index order, and ``cell-finished`` with metrics
computed from the merged records — into the run's top-level
``ledger.jsonl``.  Because records carry no timestamps and metrics
are pure functions of records, the merged ledger's cell and record
events are byte-identical to a single-process run of the same
request, which is the contract the scaling benchmark gates.

Order-insensitivity falls out of the shape: shard ledgers are folded
into an index-keyed map, so the merge result cannot depend on which
worker finished first, how a shard's engine interleaved questions, or
how many times a shard crashed and resumed.

Crash safety: the merged ledger and span log are written to temp
files in the run directory and ``os.replace``d into place, so a merge
that dies mid-write leaves the run in the mergeable "all shards
finished" state it started in (stale ``*.tmp`` files are ``repro
runs gc`` food).  A re-merge of an already merged run is a no-op
load unless forced.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import fields
from pathlib import Path

from repro.core.results import (PoolResult, QuestionRecord,
                                metrics_from_records)
from repro.engine.cache import ResponseCache, merge_caches
from repro.engine.telemetry import EngineStats
from repro.errors import RunError
from repro.obs.export import JsonlSpanSink
from repro.obs.history import append_entry, entry_from_result
from repro.obs.jsonl import iter_jsonl
from repro.obs.tracer import Tracer
from repro.runs.driver import CellKey, RunResult, load_run
from repro.runs.ledger import RunLedger
from repro.runs.registry import RunRegistry
from repro.dist.planner import ShardPlan, load_shard_plan
from repro.dist.worker import ShardState, replay_shard


def merge_stats(stats_list: list[EngineStats]) -> EngineStats | None:
    """Aggregate per-shard engine stats into one run-level snapshot.

    Each :class:`EngineStats` field declares its merge rule: counters
    (integer tokens and nano-dollars among them, so merged cost is
    bit-identical to the single-process run's), busy time and workers
    sum; wall time is the max (shards ran concurrently); the latency
    quantiles are record-weighted means of the shard quantiles — an
    approximation (exact quantiles would need the raw histograms),
    which is fine because latency is observability, explicitly
    outside the bit-identical determinism contract; the latency
    extremes are the min/max over shards that scored anything.
    """
    stats_list = [stats for stats in stats_list if stats is not None]
    if not stats_list:
        return None
    records = sum(stats.records for stats in stats_list)
    merged: dict[str, object] = {}
    for spec in fields(EngineStats):
        values = [getattr(stats, spec.name) for stats in stats_list]
        scored = [value for value, stats in zip(values, stats_list)
                  if stats.records]
        rule = spec.metadata["merge"]
        if rule == "sum":
            merged[spec.name] = sum(values)
        elif rule == "max":
            merged[spec.name] = max(values)
        elif rule == "weighted":
            merged[spec.name] = (
                sum(value * stats.records
                    for value, stats in zip(values, stats_list))
                / records if records else 0.0)
        elif rule == "min_seen":
            merged[spec.name] = min(scored, default=0.0)
        else:
            merged[spec.name] = max(scored, default=0.0)
    return EngineStats(**merged)


def _fold_records(run_id: str, plan: ShardPlan,
                  states: list[ShardState]
                  ) -> dict[str, dict[int, QuestionRecord]]:
    """Union every shard's records, proving exact disjoint coverage."""
    expected = dict(plan.cells)
    merged: dict[str, dict[int, QuestionRecord]] = {
        cell_id: {} for cell_id, _ in plan.cells}
    for state in states:
        for cell_id, cell in state.cells.items():
            if cell_id not in merged:
                raise RunError(
                    f"shard {state.shard} of run {run_id} recorded "
                    f"cell {cell_id} which is not in the shard plan")
            if cell.expected_n and cell.expected_n != expected[cell_id]:
                raise RunError(
                    f"shard {state.shard} of run {run_id} sized cell "
                    f"{cell_id} at {cell.expected_n} questions but "
                    f"the plan says {expected[cell_id]}")
            bucket = merged[cell_id]
            for index, record in cell.records.items():
                previous = bucket.get(index)
                if previous is not None and previous != record:
                    raise RunError(
                        f"run {run_id} cell {cell_id} question "
                        f"{index} has conflicting records across "
                        f"shards — the shard plan overlapped or a "
                        f"backend is non-deterministic")
                bucket[index] = record
    incomplete = []
    for cell_id, n in plan.cells:
        missing = [i for i in range(n) if i not in merged[cell_id]]
        if missing:
            incomplete.append(f"{cell_id} (missing {len(missing)} of "
                              f"{n})")
    if incomplete:
        preview = "; ".join(incomplete[:4])
        more = (f" and {len(incomplete) - 4} more cells"
                if len(incomplete) > 4 else "")
        raise RunError(
            f"run {run_id} cannot be merged yet: {preview}{more}. "
            f"Resume the unfinished shards first "
            f"(repro runs resume {run_id}).")
    return merged


def _write_merged_ledger(registry: RunRegistry, run_id: str,
                         plan: ShardPlan,
                         merged: dict[str, dict[int, QuestionRecord]],
                         attempt: int,
                         stats: EngineStats | None) -> dict:
    """Emit the sequential event stream to a temp file, then swap it
    into place.  Returns cell id -> metrics."""
    target = registry.ledger_path(run_id)
    handle, tmp = tempfile.mkstemp(dir=target.parent,
                                   suffix=".ledger.tmp")
    os.close(handle)
    cell_metrics: dict[str, object] = {}
    try:
        with RunLedger(tmp, durability="close") as ledger:
            ledger.run_started(run_id, attempt=attempt)
            for cell_id, n in plan.cells:
                ledger.cell_started(cell_id, n)
                records = [merged[cell_id][i] for i in range(n)]
                for index, record in enumerate(records):
                    ledger.record(cell_id, index, record)
                metrics = metrics_from_records(records)
                cell_metrics[cell_id] = metrics
                ledger.cell_finished(cell_id, metrics)
            ledger.run_finished(
                len(plan.cells),
                stats.to_dict() if stats is not None else None)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return cell_metrics


def _merge_spans(registry: RunRegistry, run_id: str,
                 plan: ShardPlan, dataset: str) -> None:
    """Adopt every shard's span log under one top-level ``run`` span.

    Shard span files are read tolerantly (a missing file means the
    shard ran untraced; a torn tail is the usual crash signature) and
    re-homed with :meth:`Tracer.adopt`, so ``repro obs trace``
    renders one tree spanning all K processes.
    """
    target = registry.spans_path(run_id)
    handle, tmp = tempfile.mkstemp(dir=target.parent,
                                   suffix=".spans.tmp")
    os.close(handle)
    try:
        Path(tmp).write_text("", encoding="utf-8")
        sink = JsonlSpanSink(tmp)
        tracer = Tracer(sink=sink)
        with tracer.span("run", run_id=run_id, dataset=dataset,
                         shards=plan.num_shards,
                         merged=True) as run_span:
            for shard in range(plan.num_shards):
                path = registry.shard_spans_path(run_id, shard)
                try:
                    payloads = iter_jsonl(path).payloads
                except OSError:
                    continue
                tracer.adopt(payloads, parent=run_span.span_id)
        sink.close()
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def merge_run(run_id: str,
              registry: RunRegistry | None = None,
              keep_records: bool = True,
              force: bool = False) -> RunResult:
    """Fold a sharded run's K shard ledgers into its run ledger.

    Refuses (with the unfinished cells named) while any planned
    question lacks a record; idempotent once merged — a second call
    is a pure :func:`load_run` unless ``force`` re-merges from the
    shard ledgers (e.g. after restoring a shard from backup).
    """
    registry = registry if registry is not None else RunRegistry()
    request = registry.request(run_id)
    if not force and registry.state(run_id).finished:
        return load_run(run_id, registry=registry,
                        keep_records=keep_records)
    plan = load_shard_plan(registry, run_id)
    states = [replay_shard(registry.shard_ledger_path(run_id, shard),
                           shard)
              for shard in range(plan.num_shards)]
    merged = _fold_records(run_id, plan, states)
    attempt = max([state.attempts for state in states] + [1])
    stats = merge_stats([
        EngineStats.from_dict(state.stats)
        for state in states if state.stats])
    cell_metrics = _write_merged_ledger(registry, run_id, plan,
                                        merged, attempt, stats)
    _merge_spans(registry, run_id, plan, request.dataset)
    append_entry(entry_from_result(
        run_id, request.dataset, cell_metrics, stats=stats,
        attempts=attempt, shards=plan.num_shards), registry)

    cells: dict[CellKey, PoolResult] = {}
    replayed = 0
    for cell_id, n in plan.cells:
        key = CellKey.parse(cell_id)
        if key is None:  # pragma: no cover - planner emits only keys
            continue
        records = tuple(merged[cell_id][i] for i in range(n))
        replayed += n
        cells[key] = PoolResult(
            pool_label=key.pool_label, model=key.model,
            setting=key.setting, metrics=cell_metrics[cell_id],
            records=records if keep_records else ())
    return RunResult(run_id=run_id, request=request, cells=cells,
                     stats=stats, replayed=replayed)


def merge_shard_caches(run_id: str,
                       registry: RunRegistry | None = None,
                       target: str | Path | None = None,
                       capacity: int | None = None) -> ResponseCache:
    """Fold per-shard cache files into one shared cache.

    The pre-existing ``target`` content is merged first (its entries
    win, keeping warm-cache behaviour stable across re-runs), then
    the shard caches in ascending shard order — a deterministic
    first-writer-wins fold with no concurrent writes anywhere.  When
    ``target`` is given the merged cache is also saved there.
    """
    registry = registry if registry is not None else RunRegistry()
    plan = load_shard_plan(registry, run_id)
    caches: list[ResponseCache] = []
    if target is not None and Path(target).exists():
        caches.append(ResponseCache.load(target))
    for shard in range(plan.num_shards):
        path = registry.shard_cache_path(run_id, shard)
        if path.exists():
            caches.append(ResponseCache.load(path))
    merged = merge_caches(caches, capacity=capacity)
    if target is not None:
        merged.save(target)
    return merged
