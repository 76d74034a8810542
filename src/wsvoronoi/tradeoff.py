"""s-workspace diagram construction: find s edges per sweep of the input.

Instead of one cell edge per two input scans, a round keeps up to s cell
walks alive at once and serves all of them from the same two batched
passes over the input, so the scan cost is shared.  Cells still walking
when no fresh sites remain are "big"; their edges are recovered by
clipping the diagram of the big sites against the whole input, while
everything touching a small cell is reported during the walks.  The output
is identical to the constant-workspace path for every s.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from typing import Iterable, Iterator, Optional

from . import exact
from .geometry import DegenerateGeometry, Ray
from .memory import OutputSink, ReadOnlyArena, WorkLedger, scope
from .scan import CellEdge, DiagramMode, TrackedSite, clip_edge, clip_run, ray_run, record_for

# Ledger words per unit of tracked state; documented so peaks are
# reproducible.  A run charges the big-cell table (W_TABLE_ENTRY each)
# while it holds it, and on top of that one phase at a time: the walks,
# s * (W_SLOT + W_BATCH_SITE) + W_FIXED, plus for farthest diagrams the
# hull window, (2s + 1) * W_HULL_POINT + (s + 1) + W_FIXED; or the big-big
# diagram, charged for the table's capacity of s - 1 sites at W_MEM_SITE
# each, plus a batch and W_FIXED.
W_SLOT = 24
W_BATCH_SITE = 3
W_TABLE_ENTRY = 1
W_HULL_POINT = 3
W_FIXED = 8
# In-memory diagram of m sites: 3m site words plus <= 3m edges of ~14
# words each, rounded up to one per-site constant.
W_MEM_SITE = 48


class BigCellTable:
    """Sorted site indices whose cells were left unfinished by the walks."""

    def __init__(self, indices: Iterable[int]):
        self.indices = sorted(indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, idx: int) -> bool:
        pos = bisect_left(self.indices, idx)
        return pos < len(self.indices) and self.indices[pos] == idx


def iter_batches(arena: ReadOnlyArena, size: int):
    """The input in order, as spans of (index, point) for `size` consecutive
    sites; the last span may be short."""
    n = len(arena)
    step = max(1, size)
    for start in range(0, n, step):
        yield arena.read_span(start, min(n, start + step))


def _round(arena: ReadOnlyArena, slots: list[TrackedSite], mode: DiagramMode, s: int) -> list[CellEdge]:
    """One lock-step round: every live slot produces its next cell edge."""
    nearest = mode is DiagramMode.NEAREST
    want = -1 if nearest else 1
    fresh = [t for t in slots if t.needs_ray_scan]
    if fresh:
        for batch in iter_batches(arena, s):
            for slot in fresh:
                slot.best = ray_run(slot.best, slot.p, slot.current_ray.direction, batch, nearest, slot.site)
    carriers = []
    for slot in slots:
        slot.begin_clip()
        line = exact.bisector_line(slot.p, arena.read(slot.rival).ipt)
        carriers.append((line, (slot.site, slot.rival)))
    for batch in iter_batches(arena, s):
        for slot, (line, skip) in zip(slots, carriers):
            if not clip_run(slot.state, line, slot.p, batch, want, skip):
                raise AssertionError("tracked cell edge vanished under clipping")
    return [
        clip_edge(arena, slot.site, slot.p, slot.rival, line, slot.state)
        for slot, (line, _) in zip(slots, carriers)
    ]


def hull_stream(arena: ReadOnlyArena, s: int, ledger: Optional[WorkLedger] = None) -> Iterator[int]:
    """Yield hull site indices in clockwise order using an s-point window.

    Each round makes two passes: one merges batches into a truncated
    clockwise candidate chain anchored at the last confirmed vertex, and
    one certifies the chain gift-wrap style (a successor is final iff no
    site lies strictly left of the chain edge reaching it).  At least one
    vertex is certified per round, typically a full window of s.
    """
    n = len(arena)
    window = max(1, s)
    # `merged` holds up to 2 * window + 1 points, `chain_ids` window + 1 indices.
    with scope(ledger, (2 * window + 1) * W_HULL_POINT + (window + 1) + W_FIXED):
        start_idx = 0
        start_pt = arena.read(0).ipt
        for j in range(1, n):
            w = arena.read(j).ipt
            if w < start_pt:
                start_idx, start_pt = j, w
        yield start_idx
        anchor_idx, anchor_pt = start_idx, start_pt
        while True:
            chain = [(anchor_idx, anchor_pt)]
            for batch in iter_batches(arena, window):
                merged = {idx: pt for idx, pt in chain}
                for j, w in batch:
                    merged[j] = w
                chain = _cw_chain(merged, anchor_idx, window + 1)
            chain_ids = {idx for idx, _ in chain}
            certified = len(chain) - 1
            for batch in iter_batches(arena, window):
                for j, w in batch:
                    if j in chain_ids:
                        continue
                    for i in range(certified):
                        if exact.orient_ipts(chain[i][1], chain[i + 1][1], w) > 0:
                            certified = i
                            break
                if certified == 0:
                    break
            assert certified >= 1, "no certified hull successor in a full round"
            for idx, _ in chain[1 : certified + 1]:
                if idx == start_idx:
                    return
                yield idx
            anchor_idx, anchor_pt = chain[certified]


def _cw_chain(points: dict, anchor_idx: int, limit: int):
    """Clockwise hull chain of `points` starting at anchor, truncated."""
    items = sorted(points.items(), key=lambda kv: kv[1])
    if len(items) == 1:
        return items
    # Monotone chain, counterclockwise; no three points are collinear.
    def half(seq):
        out = []
        for item in seq:
            while len(out) >= 2 and exact.orient_ipts(out[-2][1], out[-1][1], item[1]) <= 0:
                out.pop()
            out.append(item)
        return out

    lower = half(items)
    upper = half(list(reversed(items)))
    ccw = lower[:-1] + upper[:-1]
    cw = list(reversed(ccw))
    pos = next(i for i, (idx, _) in enumerate(cw) if idx == anchor_idx)
    cw = cw[pos:] + cw[:pos]
    return cw[:limit]


def _nearest_source(arena: ReadOnlyArena, skip=None):
    """Sites in input order, each with its start ray toward the lowest other."""
    n = len(arena)
    for i in range(n):
        if skip is not None and i in skip:
            continue
        p = arena.read(i).ipt
        q = arena.read(0 if i != 0 else 1).ipt
        yield TrackedSite(i, p, Ray(p, exact.primitive_dir(q[0] - p[0], q[1] - p[1])))


def _farthest_source(arena: ReadOnlyArena, s: int, ledger: Optional[WorkLedger], skip=None):
    """Hull sites in stream order with rays from their hull-neighbor bisectors."""
    stream = hull_stream(arena, s, ledger)
    order: list[int] = []
    for idx in stream:
        order.append(idx)
        if len(order) >= 3:
            yield _farthest_slot(arena, order[-2], order[-3], order[-1], skip)
    if len(order) < 3:
        raise DegenerateGeometry("hull has fewer than 3 vertices: the sites are collinear")
    yield _farthest_slot(arena, order[-1], order[-2], order[0], skip)
    yield _farthest_slot(arena, order[0], order[-1], order[1], skip)


def _farthest_slot(arena, i, prev, nxt, skip):
    if skip is not None and i in skip:
        return None
    p = arena.read(i).ipt
    l = arena.read(prev).ipt
    r = arena.read(nxt).ipt
    c = exact.circumcenter_hpoint(p, l, r)
    if c is None:
        raise DegenerateGeometry(f"hull site {i} is collinear with its hull neighbors")
    ray = Ray(p, exact.primitive_dir(c[0] - p[0] * c[2], c[1] - p[1] * c[2]))
    return TrackedSite(i, p, ray)


def _site_source(arena, mode, s, ledger, skip=None):
    if mode is DiagramMode.NEAREST:
        yield from _nearest_source(arena, skip)
    else:
        for slot in _farthest_source(arena, s, ledger, skip):
            if slot is not None:
                yield slot


def drive(source: Iterator, s: int, step, leftovers: Optional[list] = None) -> Iterator:
    """Run up to s walks at a time from `source`, one `step` per round.

    `step(walks)` is a generator: it yields whatever a round produces and
    returns the walks still alive.  Free slots are refilled from the
    source after every round.  A walk drawn by any refill after the first
    had to wait for a slot; once one has, and a refill leaves 0 < live < s
    (the source is spent), the live walks are put in `leftovers` instead
    of being finished.  Without `leftovers` every walk runs to its end.
    """
    walks = list(islice(source, s))
    waited = False
    while walks:
        walks = yield from step(walks)
        fresh = list(islice(source, s - len(walks)))
        waited = waited or bool(fresh)
        walks += fresh
        if leftovers is not None and waited and 0 < len(walks) < s:
            leftovers.extend(walks)
            return


def _walk_cells(arena, mode, s, ledger, skip=None, leftovers=None) -> Iterator[tuple[TrackedSite, CellEdge]]:
    """(slot, edge) for every cell edge the s slots' walks find."""

    def step(slots):
        for slot, edge in zip(slots, _round(arena, slots, mode, s)):
            yield slot, edge
            slot.advance(edge)
        return [t for t in slots if not t.done]

    with scope(ledger, s * (W_SLOT + W_BATCH_SITE) + W_FIXED):
        yield from drive(_site_source(arena, mode, s, ledger, skip), s, step, leftovers)


def find_big_cells(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    s: int,
    ledger: Optional[WorkLedger] = None,
) -> BigCellTable:
    """Walk cells batch-wise until fewer than s stay unfinished; no output.

    When the initial load already covers every site (never any site had to
    wait for a slot) all walks are run to completion and the table is
    empty.
    """
    leftovers: list[TrackedSite] = []
    for _ in _walk_cells(arena, mode, s, ledger, leftovers=leftovers):
        pass
    return BigCellTable(t.site for t in leftovers)


def iter_small_incident(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    s: int,
    table: BigCellTable,
    ledger: Optional[WorkLedger] = None,
) -> Iterator[CellEdge]:
    """Every edge with at least one small cell, exactly once.

    Walking only small cells: an edge against a big rival is reported
    outright; between two small cells the lower index reports it.
    """
    for _, edge in _walk_cells(arena, mode, s, ledger, skip=table):
        if edge.rival in table or edge.site < edge.rival:
            yield edge


def iter_big_big(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    s: int,
    table: BigCellTable,
    ledger: Optional[WorkLedger] = None,
) -> Iterator[CellEdge]:
    """Every edge between two big cells.

    The diagram of the big sites is clipped against the whole input in
    batches; surviving pieces are exactly the big-big edges.
    """
    if len(table) < 2:
        return
    want = -1 if mode is DiagramMode.NEAREST else 1
    big = set(table.indices)
    mem_sites = [(i, arena.read(i).ipt) for i in table.indices]
    # Charged for the table's capacity, as the walks charge every slot.
    with scope(ledger, max(len(mem_sites), s - 1) * W_MEM_SITE + s * W_BATCH_SITE + W_FIXED):
        # The diagram of the big sites alone, each edge as its clip interval.
        alive = []
        for ai, (a, a_pt) in enumerate(mem_sites):
            for b, b_pt in mem_sites[ai + 1 :]:
                line = exact.bisector_line(a_pt, b_pt)
                state = [None, None, None, None]
                if clip_run(state, line, a_pt, mem_sites, want, (a, b)):
                    alive.append((a, a_pt, b, line, state))
        for batch in iter_batches(arena, s):
            alive = [
                (a, a_pt, b, line, state)
                for a, a_pt, b, line, state in alive
                if clip_run(state, line, a_pt, batch, want, big)
            ]
        for a, a_pt, b, line, state in alive:
            yield clip_edge(arena, a, a_pt, b, line, state)


def report_small_incident(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    s: int,
    table: BigCellTable,
    sink: OutputSink,
    ledger: Optional[WorkLedger] = None,
) -> None:
    for edge in iter_small_incident(arena, mode, s, table, ledger):
        sink.emit(record_for(arena, edge, mode))


def report_big_big(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    s: int,
    table: BigCellTable,
    sink: OutputSink,
    ledger: Optional[WorkLedger] = None,
) -> None:
    for edge in iter_big_big(arena, mode, s, table, ledger):
        sink.emit(record_for(arena, edge, mode))


def run_tradeoff(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    s: int,
    sink: OutputSink,
    ledger: Optional[WorkLedger] = None,
) -> BigCellTable:
    """Report the whole diagram with an s-word workspace: find the big
    cells, emit everything small-incident, then the big-big leftovers."""
    if not 1 <= s:
        raise ValueError("workspace parameter must be positive")
    table = find_big_cells(arena, mode, s, ledger)
    with scope(ledger, len(table) * W_TABLE_ENTRY):
        report_small_incident(arena, mode, s, table, sink, ledger)
        report_big_big(arena, mode, s, table, sink, ledger)
    return table
