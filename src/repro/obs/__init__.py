"""repro.obs — spans, metric histograms and trace export.

The observability layer for the whole evaluation stack.  Four pieces:

* ``tracer`` — hierarchical span tracing (``run -> cell -> question ->
  model_call/retry/cache_lookup``; ``build -> taxonomy ->
  encode/write`` in the dataset store) with per-thread parenting,
  explicit cross-thread parents, cross-process span adoption and an
  injectable clock.  :data:`NULL_TRACER` is the free default.
* ``metrics`` — named counters, gauges and fixed-bucket histograms
  (p50/p90/p99 estimates, exact min/max) behind a
  :class:`MetricsRegistry`; the engine's ``Telemetry`` is a facade
  over one, and ``EngineStats`` is a compatibility snapshot of it.
* ``export`` — JSONL span logs persisted next to each run's ledger,
  Chrome ``trace_event`` JSON for chrome://tracing, Prometheus text.
* ``report`` — per-phase wall-clock attribution and an ASCII
  flamegraph for terminals.
* ``cost`` — deterministic token counting, per-model pricing, the
  engine's :class:`CostMeter` middleware, per-run budget enforcement
  (:class:`BudgetGuard`) and the per-cell :class:`CostLedger`.
* ``alerts`` — declarative SLO rules (:class:`AlertRule`) evaluated
  over live follower snapshots by an :class:`AlertEvaluator` with
  ``for_s`` debounce and firing/resolved transitions.
* ``trail`` — per-question provenance: a :class:`TrailContext` opened
  around each prompt that every engine layer annotates (retries,
  cache, coalescing, batching, cost), frozen to a
  :class:`Trail` on the question record, plus the predicate compiler
  behind ``repro obs grep`` and the :func:`trail_summary` analytics
  behind ``repro obs trails``.

Quickstart::

    >>> from repro.obs import Tracer, chrome_trace
    >>> from repro.runs import RunRequest, execute_run
    >>> tracer = Tracer()
    >>> result = execute_run(
    ...     RunRequest(models=("GPT-4",), taxonomy_keys=("ebay",),
    ...                sample_size=6), tracer=tracer)
    >>> names = {span.name for span in tracer.spans()}
    >>> {"run", "cell", "question"} <= names
    True
"""

from repro.obs.alerts import (DEFAULT_RULES, AlertEvaluator,
                              AlertEvent, AlertRule)
from repro.obs.cost import (DEFAULT_TOKEN_COUNTER, BudgetGuard,
                            BudgetStop, CostCell, CostLedger,
                            CostMeter, ModelPrice, TokenCounter,
                            call_cost_nanos, count_tokens,
                            nanos_to_usd, price_for, pricing_table,
                            usd_to_nanos)
from repro.obs.export import (JsonlSpanSink, chrome_trace,
                              escape_label_value, format_prometheus,
                              read_spans_jsonl, registry_from_spans,
                              span_tree, write_spans_jsonl)
from repro.obs.history import (CheckResult, HistoryEntry,
                               RegressionReport, Thresholds,
                               append_entry, check_entries,
                               entry_from_result, latest_for,
                               load_entry, read_history, write_entry)
from repro.obs.jsonl import (JsonlBatch, JsonlCorruptError, JsonlTail,
                             iter_jsonl)
from repro.obs.live import (CellProgress, LedgerFollower, RunProgress,
                            render_dashboard, watch_run)
from repro.obs.logs import configure_logging, get_logger
from repro.obs.metrics import (DEFAULT_BUCKETS, Counter, Gauge,
                               Histogram, MetricsRegistry,
                               global_registry)
from repro.obs.report import (flame_report, phase_chart, phase_rows,
                              phase_table)
from repro.obs.tracer import (NULL_TRACER, NullTracer, Span, Tracer)
from repro.obs.trail import (Trail, TrailContext, TrailQueryError,
                             call_site, call_site_scope,
                             compile_predicate, current_trail,
                             prompt_key, trail_env, trail_from_dict,
                             trail_scope, trail_summary,
                             trail_to_dict)

__all__ = [
    "AlertEvaluator",
    "AlertEvent",
    "AlertRule",
    "BudgetGuard",
    "BudgetStop",
    "CellProgress",
    "CheckResult",
    "CostCell",
    "CostLedger",
    "CostMeter",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_RULES",
    "DEFAULT_TOKEN_COUNTER",
    "Gauge",
    "Histogram",
    "HistoryEntry",
    "JsonlBatch",
    "JsonlCorruptError",
    "JsonlSpanSink",
    "JsonlTail",
    "LedgerFollower",
    "MetricsRegistry",
    "ModelPrice",
    "NULL_TRACER",
    "NullTracer",
    "RegressionReport",
    "RunProgress",
    "Span",
    "Thresholds",
    "TokenCounter",
    "Tracer",
    "Trail",
    "TrailContext",
    "TrailQueryError",
    "append_entry",
    "call_cost_nanos",
    "call_site",
    "call_site_scope",
    "check_entries",
    "chrome_trace",
    "compile_predicate",
    "configure_logging",
    "count_tokens",
    "current_trail",
    "entry_from_result",
    "escape_label_value",
    "flame_report",
    "format_prometheus",
    "get_logger",
    "global_registry",
    "iter_jsonl",
    "latest_for",
    "load_entry",
    "nanos_to_usd",
    "phase_chart",
    "phase_rows",
    "phase_table",
    "price_for",
    "pricing_table",
    "prompt_key",
    "read_history",
    "read_spans_jsonl",
    "registry_from_spans",
    "render_dashboard",
    "span_tree",
    "trail_env",
    "trail_from_dict",
    "trail_scope",
    "trail_summary",
    "trail_to_dict",
    "usd_to_nanos",
    "watch_run",
    "write_entry",
    "write_spans_jsonl",
]
