"""Telemetry for the execution engine.

A :class:`Telemetry` collector is threaded through the middleware
stack and the scheduler.  It is a facade over a
:class:`repro.obs.metrics.MetricsRegistry`: every model call, retry,
injected fault and cache lookup lands in a named counter, and each
scored question's worker time is observed into a fixed-bucket latency
histogram — so the engine reports p50/p90/p99 and exact min/max, not
just a mean.  ``snapshot()`` freezes the registry into an
:class:`EngineStats` value, the compatibility shape the scalability
experiment, the run ledger and the ``repro engine-stats`` CLI consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from repro.obs.metrics import MetricsRegistry

#: Registry names of the engine's metrics that are not plain counters.
WALL_SECONDS = "repro_engine_wall_seconds_total"
WORKERS = "repro_engine_workers"
LATENCY = "repro_engine_question_latency_seconds"


def _stat(default: Any = 0, merge: str = "sum", metric: str = "",
          help: str = "") -> Any:
    """One :class:`EngineStats` field: its default, how shard
    snapshots merge (``sum``, ``max``, ``weighted`` by records, or
    ``min_seen``/``max_seen`` over shards that scored records), and —
    for a plain counter — the registry metric it is read from."""
    return field(default=default,
                 metadata={"merge": merge, "metric": metric,
                           "help": help})


@dataclass(frozen=True, slots=True)
class EngineStats:
    """One engine run, aggregated.

    ``calls`` counts model invocations that actually reached the
    backend (cache hits never do); ``records`` counts questions
    scored.  ``utilization`` is busy worker-seconds over available
    worker-seconds (``wall_time_s * workers``) — 1.0 means every
    worker computed the whole time.  The ``latency_*`` fields come
    from the per-question latency histogram: bucket-interpolated
    quantiles, exact extremes.  ``batches`` counts backend
    ``generate_batch`` dispatches and ``coalesced`` counts prompts
    that piggybacked on an identical in-flight call.

    Each counter is declared here once: the ledger codec
    (:meth:`to_dict`/:meth:`from_dict`), the shard merge
    (``repro.dist.merge.merge_stats``) and :class:`Telemetry` all
    iterate these fields.  Every field has a default, so snapshots
    persisted by older engines decode, and keys this version no
    longer knows are ignored.
    """

    records: int = _stat(metric="repro_engine_records_total",
                         help="questions scored")
    calls: int = _stat(metric="repro_engine_calls_total",
                       help="model invocations reaching a backend")
    retries: int = _stat(metric="repro_engine_retries_total",
                         help="re-attempts after faults")
    faults: int = _stat(metric="repro_engine_faults_total",
                        help="transient faults observed")
    timeouts: int = _stat(metric="repro_engine_timeouts_total",
                          help="backend timeouts observed")
    cache_hits: int = _stat(metric="repro_engine_cache_hits_total",
                            help="response cache hits")
    cache_misses: int = _stat(metric="repro_engine_cache_misses_total",
                              help="response cache misses")
    #: Shards run concurrently, so merged wall time is the longest.
    wall_time_s: float = _stat(0.0, merge="max")
    busy_time_s: float = _stat(0.0)
    workers: int = _stat()
    latency_p50_s: float = _stat(0.0, merge="weighted")
    latency_p90_s: float = _stat(0.0, merge="weighted")
    latency_p99_s: float = _stat(0.0, merge="weighted")
    latency_min_s: float = _stat(0.0, merge="min_seen")
    latency_max_s: float = _stat(0.0, merge="max_seen")
    batches: int = _stat(metric="repro_engine_batches_total",
                         help="backend generate_batch dispatches")
    coalesced: int = _stat(
        metric="repro_engine_coalesced_total",
        help="prompts sharing an identical in-flight call")
    prompt_tokens: int = _stat(
        metric="repro_engine_prompt_tokens_total",
        help="prompt tokens sent to backends")
    completion_tokens: int = _stat(
        metric="repro_engine_completion_tokens_total",
        help="completion tokens returned")
    #: Accumulated spend in integer nano-dollars.  Integer addition is
    #: associative, so shard-merged totals equal single-process totals
    #: bit for bit — a float dollar sum could not promise that.
    cost_nanos: int = _stat(metric="repro_engine_cost_nanos_total",
                            help="accumulated spend in nano-dollars")

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    @property
    def cost_usd(self) -> float:
        """Accumulated spend in dollars (derived, display/compare)."""
        return self.cost_nanos / 1e9

    @property
    def mean_latency_s(self) -> float:
        """Mean wall time of one scored question on its worker."""
        if self.records == 0:
            return 0.0
        return self.busy_time_s / self.records

    @property
    def utilization(self) -> float:
        """Fraction of available worker time spent computing."""
        available = self.wall_time_s * max(1, self.workers)
        if available <= 0.0:
            return 0.0
        return min(1.0, self.busy_time_s / available)

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups

    @property
    def throughput(self) -> float:
        """Questions scored per wall-clock second."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.records / self.wall_time_s

    def to_dict(self) -> dict[str, object]:
        """Raw counters, JSON-compatible (run-finished ledger events)."""
        payload: dict[str, object] = {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)}
        payload["cost_usd"] = self.cost_usd
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineStats":
        """Rebuild a snapshot persisted by :meth:`to_dict`.

        Missing keys take the field default; unknown keys (counters
        of layers that no longer exist) are ignored.
        """
        return cls(**{
            spec.name: type(spec.default)(
                payload.get(spec.name, spec.default))
            for spec in fields(cls)})

    def as_row(self) -> dict[str, object]:
        """One report row (``repro.core.report.format_rows`` shape)."""
        return {
            "records": self.records,
            "calls": self.calls,
            "retries": self.retries,
            "faults": self.faults,
            "timeouts": self.timeouts,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": f"{self.cache_hit_rate:.3f}",
            "batches": self.batches,
            "coalesced": self.coalesced,
            "tokens": self.total_tokens,
            "cost_usd": f"{self.cost_usd:.4f}",
            "workers": self.workers,
            "wall_s": f"{self.wall_time_s:.3f}",
            "q_per_s": f"{self.throughput:.1f}",
            "utilization": f"{self.utilization:.3f}",
            "p50_ms": f"{self.latency_p50_s * 1e3:.2f}",
            "p99_ms": f"{self.latency_p99_s * 1e3:.2f}",
        }


class Telemetry:
    """Thread-safe recorder shared by middleware and scheduler.

    The storage is a :class:`MetricsRegistry` (exposed as
    ``.registry``) so the same numbers flow to the Prometheus exporter
    without a second bookkeeping path.  Every plain-counter field of
    :class:`EngineStats` gets the registry counter its declaration
    names.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = (registry if registry is not None
                         else MetricsRegistry())
        r = self.registry
        #: EngineStats field name -> its registry counter.
        self._counters = {
            spec.name: r.counter(spec.metadata["metric"],
                                 spec.metadata["help"])
            for spec in fields(EngineStats) if spec.metadata["metric"]}
        self._wall = r.counter(WALL_SECONDS,
                               "scheduler wall-clock seconds")
        self._workers = r.gauge(WORKERS, "peak worker threads")
        self._latency = r.histogram(
            LATENCY, "per-question worker seconds")

    # ------------------------------------------------------------------
    # Recording (called from worker threads)
    # ------------------------------------------------------------------
    def record_call(self, n: int = 1) -> None:
        self._counters["calls"].add(n)

    def record_retry(self) -> None:
        self._counters["retries"].add(1)

    def record_fault(self, timeout: bool = False) -> None:
        self._counters["faults"].add(1)
        if timeout:
            self._counters["timeouts"].add(1)

    def record_cache(self, hit: bool) -> None:
        self._counters["cache_hits" if hit else "cache_misses"].add(1)

    def record_work(self, seconds: float) -> None:
        """One question scored, taking ``seconds`` of worker time."""
        self._counters["records"].add(1)
        self._latency.observe(seconds)

    def record_run(self, wall_time_s: float, workers: int) -> None:
        """Account one scheduler pass (called once per run)."""
        self._wall.add(wall_time_s)
        self._workers.set_max(workers)

    def record_batch(self, size: int) -> None:
        """One ``generate_batch`` dispatch of ``size`` prompts."""
        self._counters["batches"].add(1)

    def record_coalesced(self) -> None:
        """One prompt served by an identical in-flight call."""
        self._counters["coalesced"].add(1)

    def record_tokens(self, prompt_tokens: int,
                      completion_tokens: int,
                      cost_nanos: int) -> None:
        """One billed backend attempt (see ``repro.obs.cost``)."""
        self._counters["prompt_tokens"].add(prompt_tokens)
        self._counters["completion_tokens"].add(completion_tokens)
        self._counters["cost_nanos"].add(cost_nanos)

    # ------------------------------------------------------------------
    def snapshot(self) -> EngineStats:
        """Freeze the registry into an immutable stats value."""
        return EngineStats(
            wall_time_s=self._wall.value,
            busy_time_s=self._latency.total,
            workers=max(1, int(self._workers.value)),
            latency_p50_s=self._latency.quantile(0.50),
            latency_p90_s=self._latency.quantile(0.90),
            latency_p99_s=self._latency.quantile(0.99),
            latency_min_s=self._latency.min,
            latency_max_s=self._latency.max,
            **{name: int(counter.value)
               for name, counter in self._counters.items()})

    def reset(self) -> None:
        """Zero every counter (between benchmark phases)."""
        self.registry.reset()
