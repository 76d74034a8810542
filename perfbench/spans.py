"""Per-layer tracing of `vw run`, measured from outside the program.

The tracer replaces public functions and methods of the wsvoronoi modules
with wrappers, so no file of the program changes.  Three kinds of wrapper:

* span: records a span (name, start, end, parent, operation id, arena
  reads) around each call.  Generator functions get one span per next(),
  so time spent in an upstream producer is charged to that producer.
* kernel: the exact-arithmetic primitives run millions of times per
  operation, so instead of one span per call they count every call and
  time the outermost one; that time is the kernel layer's self time and
  is taken out of the enclosing span's self time.
* count: counts calls only (walk steps, ledger charges).

A span's self time is its duration minus the time its child spans and
kernel calls cover, so the layers' self times add up to the operation's
wall time exactly.  A phase span's time ("phase time") is its duration
minus nested phase spans, so a phase keeps the kernel work done on its
behalf but not the work of phases it calls into.

Wrappers are installed in a module and in every wsvoronoi module that
imported the same object by name (``from .tradeoff import find_big_cells``).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (owner, attribute, kind, span name or name function, phase?)
# Phase spans carry the named per-layer time metrics; the other spans
# only charge self time to their layer (and tell the tracer the arena).
TARGETS = (
    ("wsvoronoi.datagen", "parse_sites_text", "span", "datagen.parse", True),
    ("wsvoronoi.tradeoff", "run_tradeoff", "span", "tradeoff.run_tradeoff", False),
    ("wsvoronoi.tradeoff", "find_big_cells", "span", "tradeoff.find_big", True),
    ("wsvoronoi.tradeoff", "iter_small_incident", "gen", "tradeoff.small_incident", True),
    ("wsvoronoi.tradeoff", "iter_big_big", "gen", "tradeoff.big_big", True),
    ("wsvoronoi.tradeoff", "hull_stream", "gen", "tradeoff.hull", True),
    ("wsvoronoi.tradeoff", "TrackedSite.advance", "count", "tradeoff.walk_edges", False),
    ("wsvoronoi.scan", "enumerate_diagram", "span", "scan.enumerate_diagram", False),
    ("wsvoronoi.scan", "enumerate_cell", "span", "scan.cell", True),
    ("wsvoronoi.scan", "locate_on_hull", "span", "scan.locate", True),
    ("wsvoronoi.scan", "record_for", "span", "scan.record", True),
    ("wsvoronoi.pipeline", "pipeline_run", "span", "pipeline.pipeline_run", False),
    ("wsvoronoi.pipeline", "order1_halfedges", "gen", "pipeline.k1", True),
    ("wsvoronoi.pipeline", "find_big_cells_k", "span", lambda a: f"pipeline.k{a[1]}.find_big", True),
    ("wsvoronoi.pipeline", "iter_order_edges", "gen", lambda a: f"pipeline.k{a[1]}.walk", True),
    ("wsvoronoi.pipeline", "HalfEdge.to_record", "span", "records.format", True),
    ("wsvoronoi.records", "format_record", "span", "records.format", True),
    ("wsvoronoi.records", "undirected_record", "span", "records.undirected_record", False),
    ("wsvoronoi.memory", "WorkLedger.alloc", "count", "memory.ledger_allocs", False),
)

ROOT = "cli.main"

# Frame fields of an open span.
_NAME, _LAYER, _PHASE, _START, _CHILD, _PCHILD, _READS, _PREADS, _ID, _PARENT = range(10)


class Tracer:
    """Collects spans and per-operation totals; one instance per process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (op, id, parent, name, start_ns, end_ns, reads)
        self.arena = None
        self._stack: list[list] = []
        self._ids = 0
        self._op = 0
        self._in_kernel = False
        self._patched: list[tuple] = []
        self._kernel_counts: dict[str, list[int]] = {}
        self._reset()

    def _reset(self) -> None:
        self.self_ns = defaultdict(int)
        self.phase_ns = defaultdict(int)
        self.phase_reads = defaultdict(int)
        self.counts = defaultdict(int)
        self.kernel_ns = 0
        for c in self._kernel_counts.values():
            c[0] = 0

    # -- spans -------------------------------------------------------------

    def _reads(self) -> int:
        return self.arena.read_count if self.arena is not None else 0

    def _open(self, name: str, phase: bool) -> None:
        self._ids += 1
        parent = self._stack[-1][_ID] if self._stack else 0
        layer = name.split(".", 1)[0]
        self._stack.append([name, layer, phase, perf_counter_ns(), 0, 0, self._reads(), 0, self._ids, parent])

    def _close(self) -> None:
        end = perf_counter_ns()
        fr = self._stack.pop()
        dur = end - fr[_START]
        reads = self._reads() - fr[_READS]
        self.self_ns[fr[_LAYER]] += dur - fr[_CHILD]
        self.counts[fr[_NAME] + ".spans"] += 1
        if self._stack:
            self._stack[-1][_CHILD] += dur
        if fr[_PHASE]:
            self.phase_ns[fr[_NAME]] += dur - fr[_PCHILD]
            self.phase_reads[fr[_NAME]] += reads - fr[_PREADS]
            for up in reversed(self._stack):
                if up[_PHASE]:
                    up[_PCHILD] += dur
                    up[_PREADS] += reads
                    break
        self.spans.append((self._op, fr[_ID], fr[_PARENT], fr[_NAME], fr[_START], end, reads))

    @contextmanager
    def operation(self):
        """Root span of one `vw run`; yields a dict filled with its totals."""
        self._op += 1
        self.arena = None
        self._reset()
        totals: dict = {}
        self._open(ROOT, False)
        try:
            yield totals
        finally:
            root_start = self._stack[-1][_START]
            self._close()
            op_ns = self.spans[-1][5] - root_start
            self_ns = dict(self.self_ns)
            self_ns["exact"] = self.kernel_ns
            counts = dict(self.counts)
            for name, c in self._kernel_counts.items():
                counts[name] = c[0]
            totals.update(
                op_ns=op_ns,
                self_ns=self_ns,
                phase_ns=dict(self.phase_ns),
                phase_reads=dict(self.phase_reads),
                counts=counts,
                consistent=sum(self_ns.values()) == op_ns,
            )

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name, phase):
        tracer = self

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            if args and hasattr(args[0], "read_count"):
                tracer.arena = args[0]  # the algorithms take the arena first
            tracer._open(label, phase)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if label.endswith(".find_big"):
                # find_big_cells and find_big_cells_k return the big-cell table.
                tracer.counts[label[: -len("find_big")] + "big_cells"] = len(result)
            return result

        return traced

    def _gen(self, fn, name, phase):
        tracer = self

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            return tracer._iterate(fn(*args, **kwargs), label, phase)

        return traced

    def _iterate(self, it, label, phase):
        while True:
            self._open(label, phase)
            try:
                value = next(it)
            except StopIteration:
                return
            finally:
                self._close()
            self.counts[label + ".yields"] += 1
            yield value

    def _count(self, fn, name, _phase):
        tracer = self

        def traced(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return traced

    def _kernel(self, fn, name):
        tracer = self
        calls = self._kernel_counts.setdefault(name, [0])

        def traced(*args, **kwargs):
            calls[0] += 1
            if tracer._in_kernel:
                return fn(*args, **kwargs)
            tracer._in_kernel = True
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                tracer._in_kernel = False
                tracer.kernel_ns += dt
                if tracer._stack:
                    tracer._stack[-1][_CHILD] += dt

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; call once, after importing wsvoronoi.cli."""
        from wsvoronoi import exact

        modules = [m for n, m in sys.modules.items() if n == "wsvoronoi" or n.startswith("wsvoronoi.")]
        makers = {"span": self._span, "gen": self._gen, "count": self._count}
        for modname, attr, kind, name, phase in TARGETS:
            owner = sys.modules[modname]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, meth)
            self._replace(owner, meth, original, makers[kind](original, name, phase), modules)
        for attr, fn in list(vars(exact).items()):
            if callable(fn) and not attr.startswith("_") and getattr(fn, "__module__", None) == exact.__name__:
                self._replace(exact, attr, fn, self._kernel(fn, f"exact.{attr}.calls"), modules)

    def _replace(self, owner, attr, original, wrapper, modules) -> None:
        holders = [owner] if isinstance(owner, type) else [m for m in modules if m.__dict__.get(attr) is original]
        for holder in holders:
            setattr(holder, attr, wrapper)
            self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\treads\n")
            for row in self.spans:
                fh.write("\t".join(map(str, row)) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict, records: int, record_bytes: int, reads: int, peak_words: int) -> dict:
    """Per-layer metrics of one traced operation (names as in metrics.json).

    `records`, `record_bytes`, `reads` and `peak_words` come from the
    operation's record file and report.  Layers that do not run on a
    workload report 0.
    """
    counts = totals["counts"]
    phase = totals["phase_ns"]
    phase_reads = totals["phase_reads"]
    self_ns = totals["self_ns"]

    def count(name: str) -> int:
        return counts.get(name, 0)

    def secs(name: str) -> float:
        return phase.get(name, 0) / 1e9

    walk_edges = count("tradeoff.walk_edges")
    produced = sum(v for k, v in counts.items() if k.startswith("pipeline.k") and k.endswith(".yields"))
    kernel_calls = sum(v for k, v in counts.items() if k.startswith("exact."))
    m = {
        "tradeoff.find_big_s": secs("tradeoff.find_big"),
        "tradeoff.small_incident_s": secs("tradeoff.small_incident"),
        "tradeoff.big_big_s": secs("tradeoff.big_big"),
        "tradeoff.hull_s": secs("tradeoff.hull"),
        "tradeoff.find_big_reads": phase_reads.get("tradeoff.find_big", 0),
        "tradeoff.small_incident_reads": phase_reads.get("tradeoff.small_incident", 0),
        "tradeoff.big_big_reads": phase_reads.get("tradeoff.big_big", 0),
        "tradeoff.big_cells": count("tradeoff.big_cells"),
        "tradeoff.walk_edges": walk_edges,
        "tradeoff.useful_ratio": _ratio(
            count("tradeoff.small_incident.yields") + count("tradeoff.big_big.yields"), walk_edges
        ),
        "scan.cells": count("scan.cell.spans"),
        "scan.cell_s": secs("scan.cell"),
        "scan.locate_s": secs("scan.locate"),
        "scan.record_s": secs("scan.record"),
        "pipeline.k1.s": secs("pipeline.k1"),
        "pipeline.k2.find_big_s": secs("pipeline.k2.find_big"),
        "pipeline.k3.find_big_s": secs("pipeline.k3.find_big"),
        "pipeline.k2.walk_s": secs("pipeline.k2.walk"),
        "pipeline.k3.walk_s": secs("pipeline.k3.walk"),
        "pipeline.k2.big_cells": count("pipeline.k2.big_cells"),
        "pipeline.k3.big_cells": count("pipeline.k3.big_cells"),
        "pipeline.produced": produced,
        "pipeline.useful_ratio": _ratio(records, produced),
        "exact.calls": kernel_calls,
        "exact.calls_per_edge": _ratio(kernel_calls, records),
        "exact.self_s": self_ns.get("exact", 0) / 1e9,
        "memory.reads": reads,
        "memory.reads_per_edge": _ratio(reads, records),
        "memory.peak_words": peak_words,
        "memory.ledger_allocs": count("memory.ledger_allocs"),
        "records.count": records,
        "records.bytes": record_bytes,
        "records.format_s": secs("records.format"),
        "datagen.parse_s": secs("datagen.parse"),
        "trace.op_s": totals["op_ns"] / 1e9,
    }
    for fn in ("sign", "cmp_params", "bisector_line", "ray_line_param", "line_intersection", "orient_ipts"):
        m[f"exact.{fn}.calls"] = count(f"exact.{fn}.calls")
    for layer in ("cli", "datagen", "tradeoff", "scan", "pipeline", "records"):
        m[f"{layer}.self_s"] = self_ns.get(layer, 0) / 1e9
    return m
