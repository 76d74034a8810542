"""s-workspace diagram construction: find s edges per sweep of the input.

Instead of one cell edge per pass over the input, a round keeps up to s
cell walks alive at once and serves all of them from the same passes, so
the scan cost is shared: a pass reads the input once, as one span, and
hands it whole to each live walk's kernel in one call.  `drive` is the
slot loop, the one every cell walk in the package runs under
(`pipeline`'s too).  Every cell is walked once, and each walked edge is
reported at once from its cell of lower index (`iter_diagram`).  Cells
still walking when no fresh sites remain are "big": their walks are cut
short, and each keeps the arc it walked in O(1) words, from which
`TrackedSite.walked` tells whether it reported a given edge.  The edges
the cut walks missed come after: a small cell's edge with a lower-index
big cell from walking again the few small cells above the lowest big
index, and an edge between two big cells from clipping the diagram of
the big sites against the whole input.  Every walk starts on a known
edge of its cell: a nearest walk on its bisector with its nearest
neighbor, found in one pass, and a farthest walk, in hull order, on its
unbounded edge with a hull neighbor.  At s > 1 `hull_stream`'s s-point
window supplies the hull sites; at s = 1 the walks chain the hull themselves,
each handing the next hull site to the next walk.  The output is the same
for every s; s = 1 is the constant-workspace diagram of
`scan.enumerate_diagram`, with no big cells.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, islice
from typing import Iterable, Iterator, NoReturn, Optional

from . import exact
from .geometry import DegenerateGeometry
from .memory import OutputSink, ReadOnlyArena, WorkLedger, scope
from .scan import (
    CellEdge,
    DiagramMode,
    TrackedSite,
    _rival_offset,
    arc_walked,
    cell_walk,
    clip_edge,
    clip_run,
    hull_walk,
    nearest_run,
    record_for,
)

# Ledger words per unit of tracked state; documented so peaks are
# reproducible.  A run charges the big-cell table (`BigCellTable.words`,
# derived from what its entries hold) while it holds it, and on top of that
# one phase at a time: the walks, s * (W_SLOT + W_BATCH_SITE) + W_FIXED,
# plus for farthest diagrams the hull chain, (s + 2) * W_HULL_POINT +
# W_FIXED (at s = 1 only until the first two hull sites are found, then
# W_FIXED for the walks' own chain); or the big-big diagram, charged for
# the table's capacity of s - 1 sites at W_MEM_SITE each, plus
# s * W_BATCH_SITE and W_FIXED.  W_BATCH_SITE charges s sites for the
# pass, though a pass is a view of the input the arena holds, not a copy;
# the charge is kept so that reported peaks stay reproducible.
W_SLOT = 24
W_BATCH_SITE = 3
W_HULL_POINT = 3
W_FIXED = 8
# In-memory diagram of m sites: 3m site words plus <= 3m edges of ~14
# words each, rounded up to one per-site constant.
W_MEM_SITE = 48


class BigCellTable:
    """Sorted site indices of the cells the walks left unfinished, each
    with the arc its walk reported before it was cut (`TrackedSite.arc`),
    or () when the table lists indices alone."""

    def __init__(self, indices: Iterable[int], arcs: Optional[Iterable[tuple]] = None):
        self.indices = sorted(indices)
        self.arcs = [()] * len(self.indices) if arcs is None else list(arcs)

    @classmethod
    def of_walks(cls, walks: Iterable[TrackedSite]) -> "BigCellTable":
        entries = sorted((t.site, t.arc()) for t in walks)
        return cls((i for i, _ in entries), (arc for _, arc in entries))

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, idx: int) -> bool:
        pos = bisect_left(self.indices, idx)
        return pos < len(self.indices) and self.indices[pos] == idx

    def walked(self, idx: int, e) -> bool:
        """Whether big cell idx's walk reported its edge against the rival
        at offset e from site idx (`scan.arc_walked`)."""
        return arc_walked(self.arcs[bisect_left(self.indices, idx)], e)

    def words(self) -> int:
        """Ledger words the table holds: each entry's index and arc."""
        return len(self.indices) + sum(map(len, self.arcs))


def _round(arena: ReadOnlyArena, slots: list[TrackedSite], mode: DiagramMode) -> list[CellEdge]:
    """One lock-step round: every live slot produces its next cell edge.

    Each pass reads the input once, as one span (a view of the input, not
    a copy), and hands it whole to every live slot's kernel: for fresh
    nearest slots a `nearest_run` pass, which sets each one's first rival,
    its nearest neighbor, then the clip pass (a farthest walk starts with
    its first rival known).  A kernel's state after a slot's sites depends
    only on those sites, taken in index order, so one call per slot gives
    the edge that any split of the pass would.

    A nearest clip after the walk's first edge is seeded: its walk's
    `seed`, whose bisector holds the entry vertex, is clipped first, in a
    call of its own, so that end is final at once and the box cull goes
    live at the first cutter on the far side.  A clip is an intersection,
    and a tie at a final end is flagged whichever tied cutter comes first,
    so the seed changes no edge.  Farthest clips never cull and are not
    seeded.
    """
    nearest = mode is DiagramMode.NEAREST
    want = -1 if nearest else 1
    n = len(arena)
    fresh = [t for t in slots if t.cutter is None]
    if fresh:
        span = arena.read_span(0, n)
        for slot in fresh:
            slot.cutter = nearest_run(slot.p, span, slot.site, arena)
    span = arena.read_span(0, n)
    edges = []
    for slot in slots:
        slot.begin_clip()
        line = exact.bisector_line(slot.p, arena.read(slot.rival).ipt)
        skip = (slot.site, slot.rival)
        seed = slot.seed() if nearest else None
        alive = seed is None or clip_run(slot.state, line, slot.p, (seed,), want, skip, work=arena)
        if not (alive and clip_run(slot.state, line, slot.p, span, want, skip, work=arena)):
            _edge_vanished(slot)
        edges.append(clip_edge(arena, slot.site, slot.p, slot.rival, line, slot.state))
    return edges


def _edge_vanished(slot: TrackedSite) -> NoReturn:
    """Raise for a tracked edge that clipping emptied: `DegenerateGeometry`
    when it shrank to a single point, where four or more sites are
    cocircular, and `AssertionError` when it is strictly empty."""
    lo, hi = slot.state[0], slot.state[1]
    if lo is not None and hi is not None and lo[0] * hi[1] == hi[0] * lo[1]:
        raise DegenerateGeometry(
            f"edge of site {slot.site} against {slot.rival} shrank to a point: cocircular sites"
        )
    raise AssertionError("tracked cell edge vanished under clipping")


def hull_stream(arena: ReadOnlyArena, s: int, ledger: Optional[WorkLedger] = None) -> Iterator[int]:
    """Yield hull site indices in clockwise order from the lowest-leftmost
    site, using an s-point window.

    Each round folds the whole input into the clockwise chain of hull
    candidates from the anchor, the last confirmed vertex (`_merge_chain`),
    then certifies the chain gift-wrap style: a successor is final iff no
    site lies strictly left of the chain edge reaching it, nor on that
    edge's line beyond it (as only a collinear site can).  The first
    successor always is final, so a chain of the anchor and one successor
    needs no certify pass; with a one-point window the routine is plain gift
    wrapping, n (h + 1) reads for h hull sites.  At least one vertex is
    certified per round, typically a full window of s.
    """
    n = len(arena)
    limit = max(1, s) + 1
    # The chain holds limit points, one more while a site is inserted.
    with scope(ledger, (limit + 1) * W_HULL_POINT + W_FIXED):
        start_idx, start_pt = min(arena.read_span(0, n), key=lambda item: item[1])
        yield start_idx
        anchor = (start_idx, start_pt)
        while True:
            chain = _merge_chain(arena.read_span(0, n), anchor, limit)
            assert len(chain) > 1, "no hull successor: fewer than two distinct sites"
            certified = len(chain) - 1
            if certified > 1:
                for _, (wx, wy) in arena.read_span(0, n):
                    # A site refutes an edge from strictly left of it, or
                    # from on its line beyond its end (a chain vertex never does).
                    for i in range(1, certified):
                        (bx, by), (cx, cy) = chain[i][1], chain[i + 1][1]
                        side = (cx - bx) * (wy - by) - (cy - by) * (wx - bx)
                        if side > 0 or side == 0 and (wx - cx) * (cx - bx) + (wy - cy) * (cy - by) > 0:
                            certified = i
                            break
            for idx, _ in chain[1 : certified + 1]:
                if idx == start_idx:
                    return
                yield idx
            anchor = chain[certified]


def _merge_chain(items, anchor, limit: int) -> list:
    """The clockwise hull chain from `anchor` of the anchor and `items`,
    (index, point) pairs, cut to its first `limit` points after each site.

    The chain's vertices after the anchor turn clockwise around it, so a
    binary search on orientation finds the two a site falls between; the
    site joins the chain iff it lies strictly left of the edge joining
    them (or beyond the chain's end) and removes the vertices it hides.
    """
    a_idx, (ax, ay) = anchor
    chain = [anchor]
    for j, w in items:
        if j == a_idx:
            continue
        wx, wy = w
        lo, hi = 1, len(chain)
        while lo < hi:
            mid = (lo + hi) // 2
            cx, cy = chain[mid][1]
            if (cx - ax) * (wy - ay) < (cy - ay) * (wx - ax):
                lo = mid + 1  # w is clockwise of chain[mid]
            else:
                hi = mid
        if lo < len(chain):
            (bx, by), (cx, cy) = chain[lo - 1][1], chain[lo][1]
            side = (cx - bx) * (wy - by) - (cy - by) * (wx - bx)
            # Right of the edge or on it, w is hidden, unless the edge leaves
            # the anchor and w lies on its ray beyond chain[1].
            if side < 0 or side == 0 and (lo > 1 or (wx - cx) * (cx - bx) + (wy - cy) * (cy - by) <= 0):
                continue
        # Pop the vertices before and after w that stop turning clockwise.
        i = lo
        while i > 1:
            (bx, by), (cx, cy) = chain[i - 2][1], chain[i - 1][1]
            if (cx - bx) * (wy - by) < (cy - by) * (wx - bx):
                break
            i -= 1
        if i >= limit:
            continue  # past the end of a full chain
        k = lo
        while k + 1 < len(chain):
            (cx, cy), (dx, dy) = chain[k][1], chain[k + 1][1]
            if (cx - wx) * (dy - wy) < (cy - wy) * (dx - wx):
                break
            k += 1
        chain[i:k] = [(j, w)]
        del chain[limit:]
    return chain


def _hull_neighbors(arena: ReadOnlyArena, s: int, ledger: Optional[WorkLedger]):
    """(site, next) for each hull site, in `hull_stream` order from the
    anchor's clockwise neighbor."""
    stream = hull_stream(arena, s, ledger)
    head = list(islice(stream, 3))
    if len(head) < 3:
        raise DegenerateGeometry("hull has fewer than 3 vertices: the sites are collinear")
    cur = head[1]
    for nxt in chain(head[2:], stream, head[:2]):
        yield cur, nxt
        cur = nxt


def _hull_chain(arena: ReadOnlyArena, ledger: Optional[WorkLedger]):
    """The farthest walks of a one-slot run, in counterclockwise hull order
    from the anchor, each hull site found by the walk before it.

    `hull_stream` gives the anchor and its clockwise neighbor and is
    closed.  A walk starts on its cell's unbounded edge with the site
    walked just before (the anchor's, with that neighbor) and ends on the
    unbounded edge with its other hull neighbor, the rival of its last
    edge, whose cell is walked next.  The chain stops when it returns to
    the anchor.  A hull of two vertices (collinear sites) ends the first
    walk, whose first edge is then a full line.
    """
    stream = hull_stream(arena, 1, ledger)
    anchor, known = islice(stream, 2)
    stream.close()
    site = anchor
    with scope(ledger, W_FIXED):
        for _ in range(len(arena)):
            walk = hull_walk(arena, site, known)
            yield walk  # drawn again only once this walk is done
            site, known = walk.rival, site
            if site == anchor:
                return
    raise AssertionError("hull chain did not close")


def _site_source(arena, mode, s, ledger, keep=None):
    """A fresh walk for every cell whose site passes `keep` (every cell
    without it): nearest cells in index order, farthest cells in hull order,
    from an s-point hull window or, with one slot and every cell kept, from
    the walks' own chain."""
    if mode is DiagramMode.NEAREST:
        for i in range(len(arena)):
            if keep is None or keep(i):
                yield cell_walk(arena, i, mode)
    elif s == 1 and keep is None:
        yield from _hull_chain(arena, ledger)
    else:
        for i, nxt in _hull_neighbors(arena, s, ledger):
            if keep is None or keep(i):
                yield hull_walk(arena, i, nxt)


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


def walk_cells(arena, mode, s, source, ledger=None, leftovers=None) -> Iterator[tuple[TrackedSite, CellEdge]]:
    """(walk, edge) for every cell edge found by `drive` over the walks of
    `source` with s slots."""
    limit = len(arena) + 2  # no cell has more edges

    def step(slots):
        for slot, edge in zip(slots, _round(arena, slots, mode)):
            slot.advance(edge)  # before the edge is reported: it may be degenerate
            if slot.edges_found > limit:
                raise AssertionError("cell walk failed to terminate")
            yield slot, edge
        return [t for t in slots if not t.done]

    with scope(ledger, s * (W_SLOT + W_BATCH_SITE) + W_FIXED):
        yield from drive(source, s, step, leftovers)


def find_big_cells(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    s: int,
    ledger: Optional[WorkLedger] = None,
) -> BigCellTable:
    """Walk cells s at a time until fewer than s stay unfinished; no output.

    When the initial load already covers every site (never any site had to
    wait for a slot) all walks are run to completion and the table is
    empty.  The program finds its big cells in `iter_diagram`'s walks, which
    report edges as they go; this walk-only search is kept as the
    reference the tests hold that table to, and because the per-layer
    tracer (`perfbench/spans.py`) names it.
    """
    leftovers: list[TrackedSite] = []
    for _ in walk_cells(arena, mode, s, _site_source(arena, mode, s, ledger), ledger, leftovers):
        pass
    return BigCellTable(t.site for t in leftovers)


def iter_diagram(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    s: int,
    ledger: Optional[WorkLedger] = None,
    found: Optional[list] = None,
) -> Iterator[CellEdge]:
    """Every edge of the diagram exactly once, each cell walked once.

    The walks run s at a time (`walk_cells`), and each walked edge is
    reported at once from its cell of lower index, also when that cell's
    walk is later cut short.  The walks still alive when the source runs
    dry are cut short, and their cells are big: the table keeps each one's
    walked arc, and `found`, if given, receives it.  Two kinds of edge are
    then still missing, and both come from the table: an edge between a
    small cell and a lower-index big cell whose walk did not reach it
    (`_iter_unreached`), and an edge between two big cells that the lower
    one did not walk (`iter_big_big`).
    """
    leftovers: list[TrackedSite] = []
    for _, edge in walk_cells(arena, mode, s, _site_source(arena, mode, s, ledger), ledger, leftovers):
        if edge.site < edge.rival:
            yield edge
    table = BigCellTable.of_walks(leftovers)
    if found is not None:
        found.append(table)
    if table.indices:
        with scope(ledger, table.words()):
            yield from _iter_unreached(arena, mode, s, table, ledger)
            yield from iter_big_big(arena, mode, s, table, ledger)


def _iter_unreached(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    s: int,
    table: BigCellTable,
    ledger: Optional[WorkLedger] = None,
) -> Iterator[CellEdge]:
    """Every edge between a small cell and a big cell of lower index whose
    walk did not reach it, from walking again the small cells above the
    lowest big index: only they can have such an edge."""
    lowest = table.indices[0]
    source = _site_source(arena, mode, s, ledger, lambda i: i > lowest and i not in table)
    for slot, edge in walk_cells(arena, mode, s, source, ledger):
        j = edge.rival
        if j < edge.site and j in table:
            ex, ey = _rival_offset(edge.piece.carrier.line, *slot.p)
            if not table.walked(j, (-ex, -ey)):
                yield edge


def iter_small_incident(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    s: int,
    table: BigCellTable,
    ledger: Optional[WorkLedger] = None,
) -> Iterator[CellEdge]:
    """Every edge with at least one small cell, exactly once, for a table
    known before the walks: only small cells are walked, an edge against a
    big rival is reported outright, and between two small cells the lower
    index reports it.
    """
    source = _site_source(arena, mode, s, ledger, lambda i: i not in table)
    for _, edge in walk_cells(arena, mode, s, source, ledger):
        if edge.rival in table or edge.site < edge.rival:
            yield edge


def iter_big_big(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    s: int,
    table: BigCellTable,
    ledger: Optional[WorkLedger] = None,
) -> Iterator[CellEdge]:
    """Every edge between two big cells that the lower one's walk did not
    report (by its arc in the table; a table of indices alone reported
    none).

    Each edge of the diagram of the big sites is clipped against the whole
    input, read once as one span; surviving pieces are exactly the big-big
    edges.  A pair whose edge the walk reported is passed over unclipped.
    """
    if len(table) < 2:
        return
    want = -1 if mode is DiagramMode.NEAREST else 1
    big = set(table.indices)
    mem_sites = [(i, arena.read(i).ipt) for i in table.indices]
    # Charged for the table's capacity, as the walks charge every slot.
    with scope(ledger, max(len(mem_sites), s - 1) * W_MEM_SITE + s * W_BATCH_SITE + W_FIXED):
        span = arena.read_span(0, len(arena))
        for ai, (a, a_pt) in enumerate(mem_sites):
            arc = table.arcs[ai]
            for b, b_pt in mem_sites[ai + 1 :]:
                if arc_walked(arc, (b_pt[0] - a_pt[0], b_pt[1] - a_pt[1])):
                    continue
                # An edge of the big sites' own diagram, clipped by the input.
                line = exact.bisector_line(a_pt, b_pt)
                state = [None, None, None, None, None]
                if clip_run(state, line, a_pt, mem_sites, want, (a, b), work=arena) and clip_run(
                    state, line, a_pt, span, want, big, work=arena
                ):
                    yield clip_edge(arena, a, a_pt, b, line, state)


def run_tradeoff(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    s: int,
    sink: OutputSink,
    ledger: Optional[WorkLedger] = None,
) -> BigCellTable:
    """Report the whole diagram with an s-word workspace (`iter_diagram`)
    and return its big-cell table.

    At s = 1 the drive's stop (0 < live < s) cannot fire, so no cell is
    big: every walk runs to its end, and the run is the constant-workspace
    diagram.
    """
    if not 1 <= s:
        raise ValueError("workspace parameter must be positive")
    found: list[BigCellTable] = []
    for edge in iter_diagram(arena, mode, s, ledger, found):
        sink.emit(record_for(arena, edge, mode))
    return found[0]
