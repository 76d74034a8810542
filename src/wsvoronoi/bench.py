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
from dataclasses import astuple, dataclass
from typing import Sequence

from .cli import run_diagram
from .memory import OutputSink

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


def bench_table(sites, mode: str, s_list: Sequence[int], k_list: Sequence[int], repeats: int) -> list[BenchRow]:
    """One row per repeat, s and K of a `run_diagram` run in `mode` ("nvd",
    "fvd" or "order"), each over a fresh arena and an observing ledger."""
    rows: list[BenchRow] = []
    for _ in range(repeats):
        for s in s_list:
            for K in k_list:
                t0 = time.perf_counter_ns()
                arena, ledger = run_diagram(sites, mode, s, K, OutputSink(keep=False))
                wall = time.perf_counter_ns() - t0
                rows.append(
                    BenchRow(
                        len(sites), s, K, arena.read_count, ledger.peak_words, arena.site_tests, arena.site_visits, wall
                    )
                )
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
