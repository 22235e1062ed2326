"""Execution engine: concurrent, fault-tolerant evaluation at scale.

The layer between the experiment drivers and the ``ChatModel``
backends.  Runs build their engine in one place,
:func:`repro.runs.driver.engine_for`, from the run request.  The
pieces:

* ``scheduler`` — :class:`EvaluationEngine`, a bounded thread pool
  that preserves deterministic record ordering (metrics bit-identical
  to the sequential runner at any worker count, batch size, or
  coalescing setting), and the one place that assembles the
  middleware stack: coalesce → cache → retry → cost → batch → count;
* ``middleware`` — retry with deterministic exponential backoff, and
  deterministic fault injection for tests;
* ``batching`` — :class:`BatchingModel` groups concurrent prompts
  into ``generate_batch`` calls under a linger deadline, and
  :class:`CoalescingModel` makes identical in-flight prompts share
  one call;
* ``cache`` — a content-addressed response cache keyed on
  ``(model, prompt)`` with JSON persistence, so reruns only pay for
  cold cells;
* ``telemetry`` — per-call latency, retries, cache traffic, batches,
  coalesced calls, tokens and cost aggregated into
  :class:`EngineStats`.

Quickstart::

    >>> from repro import TaxoGlimpse, DatasetKind
    >>> from repro.engine import EngineConfig, EvaluationEngine
    >>> engine = EvaluationEngine(EngineConfig(max_workers=8))
    >>> bench = TaxoGlimpse(sample_size=40, engine=engine)
    >>> result = bench.run("GPT-4", "ebay", DatasetKind.HARD)
    >>> engine.stats().records == result.metrics.n
    True
"""

from repro.engine.batching import (BatchingModel, CoalescingModel,
                                   close_model_stack)
from repro.engine.cache import CachedModel, ResponseCache
from repro.engine.config import EngineConfig, RetryPolicy
from repro.engine.middleware import (FaultInjectingModel,
                                     RetryingModel, backoff_delay)
from repro.engine.scheduler import EvaluationEngine
from repro.engine.telemetry import EngineStats, Telemetry

__all__ = [
    "EvaluationEngine",
    "EngineConfig",
    "RetryPolicy",
    "EngineStats",
    "Telemetry",
    "ResponseCache",
    "CachedModel",
    "RetryingModel",
    "FaultInjectingModel",
    "BatchingModel",
    "CoalescingModel",
    "close_model_stack",
    "backoff_delay",
]
