"""The benchmark's workloads: each one a `repro run` invocation.

Every workload is a request on the ``hard`` dataset at the paper's
Cochran-sized pools; the seed the benchmark is given becomes
``RunRequest.seed`` (the empty seed gives the paper pools).  Load
comes from one process with at most two threads or processes, the
cores of the box the bounds were set on.

This module imports nothing from ``repro`` so that ``run.py`` can
describe the workloads before it knows the checkout holds the
program.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_TAXONOMIES = ("ebay", "amazon", "google", "schema", "acm_ccs",
                  "geonames", "glottolog", "icd10cm", "oae", "ncbi")


@dataclass(frozen=True)
class Workload:
    """One `repro run` request and why the benchmark runs it."""

    name: str
    why: str
    models: tuple[str, ...]
    taxonomies: tuple[str, ...]
    settings: tuple[str, ...]
    #: Questions evaluated at the paper's pools (the empty seed).
    questions: int
    workers: int = 1
    coalesce: bool = False
    trail: bool = False
    #: ``--shards K --local-procs K``; 0 = one process.
    shards: int = 0

    @property
    def sequential(self) -> bool:
        """Runs with no engine and no shards: its own runs are the
        sequential reference of its request."""
        return self.workers == 1 and not self.coalesce and not self.shards

    def request_fields(self, seed: str,
                       sample_size: int | None = None) -> dict:
        """``RunRequest`` keyword arguments, as ``cli._cmd_run`` sets
        them for :meth:`command_line`."""
        return {"dataset": "hard", "models": self.models,
                "taxonomy_keys": self.taxonomies,
                "settings": self.settings, "sample_size": sample_size,
                "seed": seed, "workers": self.workers,
                "coalesce": self.coalesce, "trail": self.trail}

    def description(self) -> str:
        """The ``why`` line of ``BENCHMARK.json``."""
        return (f"{self.command_line()}; {self.questions} questions; "
                f"{self.why}")

    def command_line(self) -> str:
        """The equivalent ``repro run`` invocation (paper seed)."""
        taxonomies = ("<all 10>" if self.taxonomies == ALL_TAXONOMIES
                      else " ".join(self.taxonomies))
        line = (f"repro run --models {' '.join(self.models)} "
                f"--taxonomies {taxonomies} "
                f"--settings {' '.join(self.settings)}")
        if self.workers > 1:
            line += f" --workers {self.workers}"
        if self.coalesce:
            line += " --coalesce"
        if self.trail:
            line += " --trail"
        if self.shards:
            line += f" --shards {self.shards} --local-procs {self.shards}"
        return line


GRID = ("GPT-4", "Llama-2-7B", "LLMs4OL")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="grid-zero-shot",
        why=("canonical sequential grid; oracle, ledger appends and "
             "span export dominate"),
        models=GRID, taxonomies=ALL_TAXONOMIES,
        settings=("zero-shot",), questions=57_060),
    Workload(
        name="fewshot-cot",
        why=("few-shot exemplar scans dominate; long prompts and CoT "
             "answers load both parsers"),
        models=("Vicuna-7B",),
        taxonomies=("schema", "acm_ccs", "icd10cm"),
        settings=("few-shot", "cot"), questions=8_720),
    Workload(
        name="engine-threads",
        why=("only engine path: threads, coalesce/cache/retry/cost "
             "middleware, trails"),
        models=("GPT-4",), taxonomies=ALL_TAXONOMIES,
        settings=("zero-shot",), questions=19_020, workers=2,
        coalesce=True, trail=True),
    Workload(
        name="sharded",
        why="only dist path: planning, per-worker oracle set-up, merge",
        models=GRID, taxonomies=ALL_TAXONOMIES,
        settings=("zero-shot",), questions=57_060, shards=2),
)}

#: Per-question sample size of the smoke mode (seconds, not minutes).
SMOKE_SAMPLE = 4
