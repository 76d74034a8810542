"""Benchmark harness: read counts and workspace peaks across parameters.

Rows measure the observable model costs (arena reads, peak ledger words),
the exact kernels' site tests and visits (`ReadOnlyArena.site_tests`,
`site_visits`) and wall time; all but wall time are deterministic for a
fixed input and seed, wall time is informational.  The ledger runs in
observing mode so large parameter sweeps never abort.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import astuple, dataclass, replace
from typing import Optional, Sequence

from .memory import OutputSink, ReadOnlyArena, observing_ledger
from .pipeline import PipelineConfig, pipeline_run
from .scan import DiagramMode
from .tradeoff import run_tradeoff

CSV_HEADER = "n,s,K,reads,peak_words,site_tests,site_visits,wall_ns"


@dataclass(frozen=True)
class BenchRow:
    n: int
    s: int
    K: int
    reads: int
    peak_words: int
    site_tests: int
    site_visits: int
    wall_ns: int

    def csv(self) -> str:
        return ",".join(map(str, astuple(self)))


def _measure(sites, s: int, K: int, run) -> BenchRow:
    """One row for `run(arena, sink, ledger)` over a fresh arena and an
    observing ledger."""
    arena = ReadOnlyArena(sites)
    ledger = observing_ledger()
    t0 = time.perf_counter_ns()
    run(arena, OutputSink(keep=False), ledger)
    wall = time.perf_counter_ns() - t0
    return BenchRow(len(sites), s, K, arena.read_count, ledger.peak_words, arena.site_tests, arena.site_visits, wall)


def measure_tradeoff(sites, s: int, mode: DiagramMode = DiagramMode.NEAREST) -> BenchRow:
    return _measure(sites, s, 1, lambda arena, sink, ledger: run_tradeoff(arena, mode, s, sink, ledger))


def measure_scan(sites, mode: DiagramMode = DiagramMode.NEAREST) -> BenchRow:
    """Constant-workspace run, the one-slot trade-off; reported with s = 0
    to mark the mode."""
    return replace(measure_tradeoff(sites, 1, mode), s=0)


def measure_pipeline(sites, s: int, K: int) -> BenchRow:
    config = PipelineConfig(K=K, s=s)
    return _measure(sites, s, K, lambda arena, sink, ledger: pipeline_run(arena, config, sink, ledger))


def bench_table(
    sites,
    s_list: Sequence[int],
    k_list: Optional[Sequence[int]] = None,
    repeats: int = 1,
    mode: DiagramMode = DiagramMode.NEAREST,
) -> list[BenchRow]:
    rows: list[BenchRow] = []
    for _ in range(repeats):
        for s in s_list:
            if k_list:
                for K in k_list:
                    rows.append(measure_pipeline(sites, s, K))
            elif s == 0:
                rows.append(measure_scan(sites, mode))
            else:
                rows.append(measure_tradeoff(sites, s, mode))
    return rows


def format_csv(rows: Sequence[BenchRow], budget_const: int) -> str:
    out = [f"# budget_const={budget_const}", CSV_HEADER]
    out.extend(row.csv() for row in rows)
    return "\n".join(out) + "\n"


def file_input(path: str) -> dict:
    """The JSON `input` of a run on a site file: its path and the sha256 of
    its bytes."""
    with open(path, "rb") as fh:
        return {"file": path, "sha256": hashlib.sha256(fh.read()).hexdigest()}


def format_json(rows: Sequence[BenchRow], budget_const: int, mode: str, source: dict) -> str:
    """The rows as a JSON list of one run, each row keyed by the CSV
    columns, with budget_const, the mode, the input and the machine the
    wall times were taken on.  Runs join by concatenating their lists, as
    in a committed `BENCH_*.json`."""
    run = {
        "budget_const": budget_const,
        "mode": mode,
        "input": source,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "rows": [dict(zip(CSV_HEADER.split(","), astuple(row))) for row in rows],
    }
    return json.dumps([run], indent=1) + "\n"
