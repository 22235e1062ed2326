"""One step of a benchmark repetition, in a process of its own.

``run.py`` starts this script once per step, so that every step
begins with cold in-process caches and ``ru_maxrss`` is that step's
own peak.  Steps that repeat a short measurement fork a child per
repetition after the imports, so each repetition also starts cold.

* ``setup``: time cold builds of the workload's question pools, each
  into an empty artifact store; the first store is kept warm for the
  measured runs.  With ``--reference PATH`` (workloads that run on
  threads or shards) the first build's process then runs the request
  sequentially, untraced, and writes the digests of its ledger lines
  to PATH.
* ``measure``: run the request the way ``repro run`` does against the
  warm store and compare its ledger with the reference at
  ``--reference``; a sequential workload's first run, finding none,
  writes it.  With ``--trace`` every layer is wrapped in spans (see
  ``layers.py``), the run is reloaded once, and the spans are written
  out.
* ``reload``: load the finished run from disk and render its tables,
  as ``repro runs show`` does.

Each step writes one JSON object to ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

LEDGER = "ledger.jsonl"
SPANS = "spans.jsonl"
_TRAIL = ',"trail":'
#: Upper bound on the repetitions of one short measurement.
MAX_REPS = 9


def _request(args: argparse.Namespace):
    from repro.runs.request import RunRequest
    return RunRequest(**WORKLOADS[args.workload].request_fields(
        args.seed, args.sample))


def _registry(args: argparse.Namespace):
    from repro.runs.registry import RunRegistry
    return RunRegistry(args.runs)


def _forked(fn):
    """``fn()`` in a forked child; returns its JSON-able result."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        code = 1
        try:
            with os.fdopen(write, "w") as stream:
                json.dump(fn(), stream)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as stream:
        data = stream.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise SystemExit(f"forked repetition failed (status {status})")
    return json.loads(data)


# ----------------------------------------------------------------------
# Ledger comparison
# ----------------------------------------------------------------------
def _digest(line: str) -> str:
    return hashlib.blake2b(line.encode(), digest_size=8).hexdigest()


def ledger_digests(path: Path) -> dict:
    """Digests of a ledger's reference-comparable lines.

    ``lines`` maps ``record|cell|i``, ``cell-started|cell`` and
    ``cell-finished|cell`` to the digests of every such line (a line
    written twice shows up twice).  A record's ``trail`` key is cut
    out first; every other byte counts.
    """
    lines: dict[str, list[str]] = {}
    cells: list[tuple[str, int]] = []
    trail_bytes = 0
    with open(path, encoding="utf-8") as stream:
        for raw in stream:
            line = raw.rstrip("\n")
            event = json.loads(line)
            kind = event.get("event")
            if kind == "record":
                key = f"record|{event['cell']}|{event['i']}"
                if "trail" in event:
                    trail = event.pop("trail")
                    trail_bytes += len(_TRAIL) + len(json.dumps(
                        trail, separators=(",", ":")))
                    line = json.dumps(event, separators=(",", ":"))
            elif kind in ("cell-started", "cell-finished"):
                key = f"{kind}|{event['cell']}"
                if kind == "cell-started":
                    cells.append((event["cell"], event["n"]))
            else:
                continue
            lines.setdefault(key, []).append(_digest(line))
    return {"lines": lines, "cells": cells, "trail_bytes": trail_bytes}


def compare_ledgers(run: Path, reference: dict) -> dict:
    """Questions whose record or cell lines are missing from ``run``,
    repeated, or differ from ``reference`` (see
    :func:`ledger_digests`); names the first such cell."""
    got = ledger_digests(run)
    seen, want = got["lines"], reference["lines"]
    questions = mismatched = 0
    first = None
    for cell, n in reference["cells"]:
        bad_cell = [event for event in ("cell-started", "cell-finished")
                    if seen.get(f"{event}|{cell}")
                    != want[f"{event}|{cell}"]]
        for index in range(n):
            questions += 1
            key = f"record|{cell}|{index}"
            if bad_cell or seen.get(key) != want[key]:
                mismatched += 1
                if first is None:
                    what = (f"{bad_cell[0]} line" if bad_cell else
                            f"record {index} "
                            + ("missing" if key not in seen
                               else "differs"))
                    first = f"cell {cell}: {what}"
    extra = sorted(set(seen) - set(want))
    if extra:
        mismatched += len(extra)
        if first is None:
            kind, cell = extra[0].split("|")[:2]
            first = f"cell {cell}: unexpected {kind} line"
    return {"questions": questions, "mismatched": mismatched,
            "first_mismatch": first, "trail_bytes": got["trail_bytes"]}


# ----------------------------------------------------------------------
# Steps
# ----------------------------------------------------------------------
def setup(args: argparse.Namespace) -> dict:
    """Cold builds while their sum stays under ``--budget`` (at least
    one); the first one's store stays for the measured runs."""
    import repro.runs.driver as driver
    request = _request(args)
    store = os.environ["REPRO_STORE_DIR"]
    times: list[float] = []
    while len(times) < MAX_REPS and (not times
                                     or sum(times) < args.budget):
        first = not times
        target = store if first else f"{store}-{len(times)}"

        def build() -> float:
            os.environ["REPRO_STORE_DIR"] = target
            started = time.perf_counter()
            driver.build_request_pools(request)
            elapsed = time.perf_counter() - started
            if first and args.reference:
                _sequential_reference(request, args)
            return elapsed

        times.append(_forked(build))
        if not first:
            shutil.rmtree(target)
    return {"setup_s": times}


def _sequential_reference(request, args: argparse.Namespace) -> None:
    """Run ``request`` sequentially, untraced; save its digests."""
    import repro.runs.driver as driver
    sequential = dataclasses.replace(
        request, workers=1, batch_size=1, coalesce=False, trail=False)
    registry = _registry(args)
    result = driver.execute_run(sequential, registry=registry,
                                keep_records=True, durability="cell",
                                trace=True)
    _save_reference(registry.ledger_path(result.run_id),
                    result.evaluated, Path(args.reference))


def _save_reference(ledger: Path, questions: int, path: Path) -> None:
    digests = ledger_digests(ledger)
    digests["questions"] = questions
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(digests), encoding="utf-8")
    os.replace(partial, path)


def _bytes(root: Path, name: str | None = None) -> int:
    return sum(path.stat().st_size for path in root.rglob(name or "*")
               if path.is_file())


def _execute(workload, request, registry):
    if workload.shards:
        import repro.dist.driver as dist
        return dist.execute_run_sharded(
            request, workload.shards, registry=registry,
            procs=workload.shards, keep_records=True,
            durability="cell", trace=True)
    import repro.runs.driver as driver
    return driver.execute_run(request, registry=registry,
                              keep_records=True, durability="cell",
                              trace=True)


def _reload(run_id: str, registry) -> tuple[float, int]:
    """Time ``load_run`` plus rendering the Table-5 matrices ``repro
    run`` prints; returns (seconds, questions reloaded)."""
    import repro.runs.driver as driver
    from repro.core.benchmark import TaxoGlimpse
    started = time.perf_counter()
    loaded = driver.load_run(run_id, registry=registry)
    bench = TaxoGlimpse()
    for setting in loaded.request.settings:
        bench.format_table(loaded.matrix(setting))
    return time.perf_counter() - started, loaded.replayed


def reload(args: argparse.Namespace) -> dict:
    """At least two reloads, more while their sum is under
    ``--budget``."""
    registry = _registry(args)

    def once() -> float:
        elapsed, questions = _reload(args.run_id, registry)
        if questions != args.questions:
            raise RuntimeError(f"run {args.run_id} reloads {questions} "
                               f"questions, not {args.questions}")
        return elapsed

    times: list[float] = []
    while len(times) < MAX_REPS and (len(times) < 2
                                     or sum(times) < args.budget):
        times.append(_forked(once))
    return {"reload_s": times}


def measure(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload]
    request = _request(args)
    registry = _registry(args)
    recorder = None
    if args.trace:
        import layers
        recorder = layers.SpanRecorder()
        spans_dir = Path(args.spans)
        spans_dir.mkdir(parents=True, exist_ok=True)
        missing = layers.install(recorder, spans_dir)
        execute = recorder.wrap(layers.ROOT, _execute)
    else:
        execute = _execute

    started = time.perf_counter()
    result = execute(workload, request, registry)
    run_s = time.perf_counter() - started
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    run_dir = registry.run_dir(result.run_id)
    ledger = registry.ledger_path(result.run_id)
    reference = Path(args.reference)
    if reference.exists():
        check = compare_ledgers(
            ledger, json.loads(reference.read_text("utf-8")))
    elif workload.sequential and not args.trace:
        # This run is the sequential, untraced reference itself.
        _save_reference(ledger, result.evaluated, reference)
        check = {"questions": 0, "mismatched": 0,
                 "first_mismatch": None, "trail_bytes": 0}
    else:
        raise SystemExit(f"no reference at {reference}")
    stats = result.stats
    out = {
        "run_id": result.run_id,
        "run_s": run_s,
        "questions": result.evaluated,
        "peak_rss_mb": rss_kb / 1024,
        "disk_bytes": _bytes(run_dir),
        "ledger_bytes": _bytes(run_dir, LEDGER),
        "spans_bytes": _bytes(run_dir, SPANS),
        "check": check,
        "engine": None if stats is None else {
            "calls": stats.calls, "records": stats.records,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "coalesced": stats.coalesced},
    }
    if recorder is not None:
        # One traced reload attributes reload_s to runs.load.
        _reload(result.run_id, registry)
        recorder.dump(spans_dir / "main.npz")
        out["missing_layers"] = missing
    return out


STEPS = {"setup": setup, "measure": measure, "reload": reload}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("step", choices=sorted(STEPS))
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", default="")
    parser.add_argument("--sample", type=int, default=None)
    parser.add_argument("--runs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--reference", default=None,
                        help="reference digests (written when absent)")
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds of repeated short measurements")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--run-id", default=None)
    parser.add_argument("--questions", type=int, default=None)
    args = parser.parse_args(argv)
    result = STEPS[args.step](args)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
