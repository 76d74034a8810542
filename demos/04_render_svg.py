"""Render nearest, farthest, and order-2 diagrams of one point set to SVG.

Rendering is deterministic: geometry is clipped to the viewport with
rational arithmetic and formatted to fixed-precision decimals, so the same
records always produce the same bytes.
"""

import pathlib

from wsvoronoi.datagen import random_sites
from wsvoronoi.memory import OutputSink, ReadOnlyArena, observing_ledger
from wsvoronoi.pipeline import PipelineConfig, pipeline_run
from wsvoronoi.scan import DiagramMode, enumerate_diagram
from wsvoronoi.svg import render_svg

out_dir = pathlib.Path("demo_output")
out_dir.mkdir(exist_ok=True)
P = random_sites(24, seed=12)

jobs = {}
for mode, name in ((DiagramMode.NEAREST, "nearest"), (DiagramMode.FARTHEST, "farthest")):
    sink = OutputSink()
    enumerate_diagram(ReadOnlyArena(P), mode, sink, observing_ledger())
    jobs[name] = sink.records

sink = OutputSink()
pipeline_run(ReadOnlyArena(P), PipelineConfig(K=2, s=16), sink, observing_ledger())
jobs["order2"] = [r for r in sink.records if r.k == 2]

for name, records in jobs.items():
    path = out_dir / f"{name}.svg"
    path.write_text(render_svg(records, sites=P))
    print(f"wrote {path} ({len(records)} records)")
