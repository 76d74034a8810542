"""Walk a diagram with a constant number of workspace words.

The input sits in a read-only array; the only mutable state the algorithm
keeps is a handful of coordinates and counters, so the ledger peak stays
the same whether there are ten sites or a thousand.  Every walk starts on
a known edge of its cell (a nearest cell on its bisector with its nearest
neighbour, a farthest cell on its unbounded edge) and then steps from
edge to edge: the site whose bisector cut off an endpoint is the site
whose bisector carries the next edge.
"""

from wsvoronoi.datagen import random_sites, triangle
from wsvoronoi.memory import OutputSink, ReadOnlyArena, WorkLedger, observing_ledger
from wsvoronoi.records import format_record
from wsvoronoi.scan import DiagramMode, cell_edges, enumerate_diagram

print("== the worked right triangle ==")
sites = triangle()
arena = ReadOnlyArena(sites)
for mode in (DiagramMode.NEAREST, DiagramMode.FARTHEST):
    edges = cell_edges(arena, 0, mode, observing_ledger())
    print(f"cell of site 0, {mode.value}: {len(edges)} edges, rivals {[e.rival for e in edges]}")

print("\n== full diagrams, instrumented ==")
for n in (10, 40, 160):
    P = random_sites(n, seed=n)
    arena = ReadOnlyArena(P)
    sink = OutputSink(keep=False)
    ledger = WorkLedger(64, enforcing=True)  # constant budget, never scaled with n
    enumerate_diagram(arena, DiagramMode.NEAREST, sink, ledger)
    print(
        f"n={n:4d}  edges={sink.emitted_count:4d}  arena reads={arena.read_count:8d}"
        f"  peak workspace={ledger.peak_words} words"
    )

print("\nreads grow ~quadratically, the workspace peak does not grow at all.")

print("\n== the three records of the triangle's nearest diagram ==")
arena = ReadOnlyArena(sites)
sink = OutputSink()
enumerate_diagram(arena, DiagramMode.NEAREST, sink, WorkLedger(64))
for rec in sink.records:
    print(" ", format_record(rec))
