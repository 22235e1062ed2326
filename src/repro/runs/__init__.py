"""repro.runs — the durable run ledger.

Benchmark campaigns against slow, flaky endpoints need runs that
survive crashes, resume without repeating paid work, and diff against
each other after the fact.  This package is that layer, sitting
between the experiment drivers and the evaluation runner:

* :class:`RunLedger` / :func:`replay_ledger` — an append-only JSONL
  event log per run (run/cell lifecycle + every scored question),
  with atomic locked appends, tiered fsync durability and a replayer
  that tolerates the torn final line a crash leaves behind;
* :class:`RunRequest` — the frozen description of a sweep, content-
  addressed via the same fingerprint machinery as the dataset store;
* :class:`RunRegistry` — the directory of runs (``REPRO_RUNS_DIR``),
  listable and loadable;
* :func:`execute_run` / :func:`resume_run` / :func:`load_run` —
  run a sweep streaming into the ledger, finish an interrupted run
  bit-identically (only missing question indices are re-asked), or
  rebuild every :class:`repro.core.results.PoolResult` from disk with
  zero model calls;
* :func:`engine_for` — the one place a run request becomes an
  :class:`repro.engine.EvaluationEngine` (``None`` = sequential);
* :func:`diff_runs` — per-cell metric deltas and per-question answer
  flips between any two runs.

Quickstart::

    >>> from repro.runs import RunRequest, execute_run, load_run
    >>> request = RunRequest(models=("GPT-4",),
    ...                      taxonomy_keys=("ebay",), sample_size=20)
    >>> result = execute_run(request)          # streams to the ledger
    >>> again = load_run(result.run_id)        # zero model calls
    >>> again.matrix() == result.matrix()
    True
"""

from repro.runs.diff import CellDiff, QuestionFlip, RunDiff, diff_runs
from repro.runs.driver import (CellKey, RunResult, coerce_run,
                               create_run, engine_for, execute_run,
                               load_run, plan_cells)
from repro.runs.heartbeat import (HEARTBEAT_FILENAME, HeartbeatWriter,
                                  pid_alive, read_heartbeat,
                                  run_status)
from repro.runs.ledger import (LEDGER_FILENAME, CellState, RunLedger,
                               RunState, replay_ledger)
from repro.runs.registry import (HISTORY_FILENAME, MANIFEST_FILENAME,
                                 RUNS_ENV, SPANS_FILENAME,
                                 RunRegistry, RunSummary,
                                 default_runs_root)
from repro.runs.request import LEDGER_SCHEMA_VERSION, RunRequest
from repro.runs.resume import resume_run

__all__ = [
    "CellDiff",
    "CellKey",
    "CellState",
    "HEARTBEAT_FILENAME",
    "HISTORY_FILENAME",
    "HeartbeatWriter",
    "LEDGER_FILENAME",
    "LEDGER_SCHEMA_VERSION",
    "MANIFEST_FILENAME",
    "QuestionFlip",
    "RunDiff",
    "RunLedger",
    "RunRegistry",
    "RunRequest",
    "RunResult",
    "RunState",
    "RunSummary",
    "RUNS_ENV",
    "SPANS_FILENAME",
    "coerce_run",
    "create_run",
    "default_runs_root",
    "diff_runs",
    "engine_for",
    "execute_run",
    "load_run",
    "pid_alive",
    "plan_cells",
    "read_heartbeat",
    "replay_ledger",
    "resume_run",
    "run_status",
]
