"""Layer spans recorded from outside the program.

The traced run replaces each layer's public functions with wrappers
that record a span per call: name, start, end and the span that
caused it (the innermost open span on the same thread).  Spans stay
in per-thread arrays while the run executes and are written out with
:meth:`SpanRecorder.dump` when it ends, so recording costs two clock
reads and a few array appends per call.

A layer's *self time* is its span's duration minus the time its child
spans cover.  Children always run on their parent's thread, so self
times of one thread add up to that thread's wall time; work handed to
engine threads or shard processes shows up as wait in the span that
handed it over (``engine.run``, ``dist.shards``) and as self time of
the layers on the other threads.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

#: (span name, module, attribute) of each wrapped public function or
#: method.  A function is replaced wherever a ``repro`` module binds
#: it, so ``from x import f`` call sites are traced too.
LAYERS = (
    ("store.load", "repro.runs.driver", "build_request_pools"),
    ("llm.oracle.resolve", "repro.llm.oracle", "TaxonomyOracle.resolve"),
    ("llm.prompting", "repro.llm.prompting", "build_prompt"),
    ("llm.prompt_parsing", "repro.llm.prompt_parsing", "parse_prompt"),
    ("llm.parsing", "repro.llm.parsing", "parse_answer"),
    ("llm.generate", "repro.llm.base", "BaseChatModel.generate"),
    ("obs.cost.count_tokens", "repro.obs.cost", "count_tokens"),
    ("core.ask", "repro.core.runner", "EvaluationRunner.ask"),
    ("core.score", "repro.core.results", "metrics_from_records"),
    ("runs.ledger.record", "repro.runs.ledger", "RunLedger.record"),
    ("runs.load", "repro.runs.driver", "load_run"),
    ("obs.spans.write", "repro.obs.export", "JsonlSpanSink.__call__"),
    ("engine.run", "repro.engine.scheduler", "EvaluationEngine.run"),
    ("dist.plan", "repro.dist.planner", "plan_shards"),
    ("dist.shards", "repro.dist.driver", "_run_shards"),
    ("dist.merge", "repro.dist.merge", "merge_run"),
)

#: Oracle set-up: the taxonomy builds and product-title index builds
#: the simulated oracle makes for itself (not the ones the question
#: pools make, which the artifact store serves).
ORACLE_SETUP = "llm.oracle.setup"
#: One shard's work inside its worker process.
SHARD = "dist.shard"
#: The call into ``execute_run`` / ``execute_run_sharded``.
ROOT = "run"
#: Every span name, in the order the report lists them.
LABELS = ("store.load", ORACLE_SETUP, "llm.oracle.resolve",
          "llm.prompting", "llm.prompt_parsing", "llm.parsing",
          "llm.generate", "obs.cost.count_tokens", "core.ask",
          "core.score", "runs.ledger.record", "runs.load",
          "obs.spans.write", "engine.run", "dist.plan", "dist.shards",
          SHARD, "dist.merge", ROOT)


class _ThreadSpans:
    """One thread's spans, parent = index into the same arrays."""

    __slots__ = ("name", "start", "end", "parent", "stack", "main")

    def __init__(self, main: bool):
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack: list[int] = []
        self.main = main


class SpanRecorder:
    """Per-thread span arrays behind wrapped callables."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Forget every span (a forked worker starts empty)."""
        self._threads: list[_ThreadSpans] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(
                threading.current_thread() is threading.main_thread())
            with self._lock:
                self._threads.append(spans)
            self._local.spans = spans
        return spans

    def wrap(self, name: str, fn):
        """``fn`` recording one ``name`` span per call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans()
            stack = spans.stack
            index = len(spans.start)
            spans.name.append(name_id)
            spans.parent.append(stack[-1] if stack else -1)
            spans.end.append(0.0)
            stack.append(index)
            spans.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                spans.end[index] = perf_counter()
                stack.pop()

        return traced

    def dump(self, path: Path) -> None:
        """Write every finished span to ``path`` (``.npz``)."""
        columns = {"name": [np.zeros(0, np.uint16)],
                   "start": [np.zeros(0)], "end": [np.zeros(0)],
                   "parent": [np.zeros(0, np.int64)],
                   "main": [np.zeros(0, bool)]}
        offset = 0
        for spans in self._threads:
            parent = np.array(spans.parent, dtype=np.int64)
            parent[parent >= 0] += offset
            columns["name"].append(np.array(spans.name, np.uint16))
            columns["start"].append(np.array(spans.start))
            columns["end"].append(np.array(spans.end))
            columns["parent"].append(parent)
            columns["main"].append(np.full(len(parent), spans.main))
            offset += len(parent)
        np.savez(path, labels=np.array(self.names, dtype=str),
                 **{key: np.concatenate(parts)
                    for key, parts in columns.items()})


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


def _resolve(module_name: str, attribute: str):
    """(owner, attribute name, current value), or ``None`` when the
    program no longer has that name."""
    owner = _module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module binding of ``original`` at
    ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: SpanRecorder, spans_dir: Path) -> list[str]:
    """Wrap every layer; returns the layers the program lacks.

    Shard workers fork from this process and inherit the wrappers;
    each writes its spans to ``spans_dir`` when its shard returns.
    """
    # Load every module first so that _rebind sees each import site.
    for module in ("repro.runs", "repro.dist", "repro.llm.registry",
                   "repro.llm.simulated"):
        _module(module)
    missing = []
    for span_name, module_name, attribute in LAYERS:
        found = _resolve(module_name, attribute)
        if found is None:
            missing.append(span_name)
            continue
        owner, name, original = found
        wrapped = recorder.wrap(span_name, original)
        if isinstance(owner, type):
            setattr(owner, name, wrapped)
        else:
            _rebind(original, wrapped)

    oracle = _module("repro.llm.oracle")
    builder = getattr(oracle, "build_taxonomy", None)
    if builder is None:
        missing.append(ORACLE_SETUP)
    else:
        # Only the oracle module's binding: pool generation calls the
        # same function through its own import.
        oracle.build_taxonomy = recorder.wrap(ORACLE_SETUP, builder)
    oracle_class = getattr(oracle, "TaxonomyOracle", None)
    index_builder = getattr(oracle_class, "_instances", None)
    if index_builder is not None:
        traced_index = recorder.wrap(ORACLE_SETUP, index_builder)

        @functools.wraps(index_builder)
        def instances(self, key):
            built = getattr(self, "_instance_index", {})
            if key in built:
                return index_builder(self, key)
            return traced_index(self, key)

        oracle_class._instances = instances

    found = _resolve("repro.dist.worker", "shard_entry")
    if found is None:
        missing.append(SHARD)
    else:
        _, _, entry = found
        traced_entry = recorder.wrap(SHARD, entry)

        # Same module and qualified name as the original, so the
        # process pool pickles it by reference to this wrapper.
        @functools.wraps(entry)
        def shard_entry(*args, **kwargs):
            recorder.reset()
            try:
                return traced_entry(*args, **kwargs)
            finally:
                recorder.dump(spans_dir / f"worker-{os.getpid()}-"
                              f"{time.monotonic_ns()}.npz")

        _rebind(entry, shard_entry)
    return missing


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
class ProcessSpans:
    """One process's spans with derived durations and self times."""

    def __init__(self, path: Path):
        with np.load(path) as data:
            self.labels = [str(label) for label in data["labels"]]
            self.name = data["name"].astype(np.int64)
            self.parent = data["parent"]
            self.main = data["main"]
            self.duration = data["end"] - data["start"]
        child = np.zeros(len(self.duration))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent],
                  self.duration[has_parent])
        self.self_time = self.duration - child

    def mask(self, label: str) -> np.ndarray:
        if label not in self.labels:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.labels.index(label)


def layer_table(processes: list[ProcessSpans]) -> dict[str, dict]:
    """label -> calls, self_s and main-thread self_s summed over every
    process and thread."""
    table: dict[str, dict] = {}
    for spans in processes:
        for label in spans.labels:
            mask = spans.mask(label)
            if not mask.any():
                continue
            row = table.setdefault(label, {"calls": 0, "self_s": 0.0,
                                           "wall_s": 0.0,
                                           "main_self_s": 0.0})
            row["calls"] += int(mask.sum())
            row["self_s"] += float(spans.self_time[mask].sum())
            row["wall_s"] += float(spans.duration[mask].sum())
            row["main_self_s"] += float(
                spans.self_time[mask & spans.main].sum())
    return table
