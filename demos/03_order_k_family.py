"""Produce the whole family of diagrams up to order K in one pipelined run.

Each order is derived from the stream of the previous order's directed
half-edges; each order's producer is a generator that reads the one below
it directly, so a paused producer holds at most the round it is in and the
total workspace stays proportional to s.  Every half-edge
is written exactly once, grouped by order, and the result is checked
against the unconstrained brute-force construction.
"""

from wsvoronoi.datagen import random_sites
from wsvoronoi.memory import OutputSink, ReadOnlyArena, WorkLedger
from wsvoronoi.oracle import oracle_vdk, verify_run
from wsvoronoi.pipeline import PipelineConfig, pipeline_run

n, K, s = 16, 4, 64
P = random_sites(n, seed=5)
config = PipelineConfig(K=K, s=s)
print(f"n={n} sites, orders 1..{K}, workspace s={s} (per-stage slots s'={config.s_prime})\n")

arena = ReadOnlyArena(P)
sink = OutputSink()
ledger = WorkLedger(64 * s, enforcing=True)
pipeline_run(arena, config, sink, ledger)

print(f"{'order':>5} {'half-edges':>11} {'vs reference':>13}")
for k in range(1, K + 1):
    mine = [r for r in sink.records if r.k == k]
    report = verify_run(mine, oracle_vdk(P, k), k, directed=True)
    print(f"{k:>5} {len(mine):>11} {report.summary():>13}")

print(f"\narena reads: {arena.read_count}, peak workspace: {ledger.peak_words} words")
print("orders appear in the stream in nondecreasing sequence:",
      [r.k for r in sink.records] == sorted(r.k for r in sink.records))
