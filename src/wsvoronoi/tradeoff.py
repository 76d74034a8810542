"""s-workspace diagram construction: find s edges per sweep of the input.

A round keeps up to s cell walks alive at once and serves them all from
one pass, which reads the input once, as one span, and hands it whole to
each live walk's kernel in one call (`drive`, the slot loop every cell
walk in the package runs under, `pipeline`'s too).  Every cell is walked
once, and each edge is reported at once by the first walk to reach it
(`iter_diagram`): the walk of its other cell is still to come, or is live
and has not walked it.  Cells still walking when no fresh sites remain
are "big": their walks are cut short, each keeping the arc it walked in
O(1) words (`arc_walked`).  Small walks ran to their ends, so the only
edges left are those between two big cells that neither walk reached,
from clipping the diagram of the big sites against the whole input.

A nearest walk starts on its bisector with its nearest neighbor, found in
one pass, or on an edge a neighbor's walk shared; a farthest walk, in
hull order, on its unbounded edge with a hull neighbor, from
`hull_stream`'s s-point window or, at s = 1, handed on with that edge by
the walk before, so the edge takes no pass and no read.  At s > 1
nearest walks share the edges they clip through an O(s)-word table
(`_SharedEdges`), as both cells of an edge clip its bisector to the same
ends; farthest walks share nothing.  The record stream's order depends
on s, never its set of records; s = 1 is the constant-workspace diagram
of `scan.enumerate_diagram`, with no big cells.
"""

from __future__ import annotations

import sys
from itertools import chain, islice
from typing import Iterator, NoReturn, Optional

from . import exact
from .geometry import DegenerateGeometry
from .memory import OutputSink, ReadOnlyArena, WorkLedger
from .scan import (
    CellEdge,
    DiagramMode,
    TrackedSite,
    arc_walked,
    cell_walk,
    clip_edge,
    clip_run,
    hull_walk,
    nearest_run,
    record_for,
)

# Ledger words per unit of tracked state; documented so peaks are
# reproducible.  In these charges s stands for min(s, n): no more than n
# walks are ever live, nor n sites in a window.  A run charges the big-cell
# table (`table_words`, derived from what its entries hold) while it holds
# it, and on top of that one phase at a time: the walks,
# s * (W_SLOT + W_BATCH_SITE) + W_FIXED, plus, for nearest walks,
# W_SHARED_EDGE for each edge the shared-edge table holds, at most
# 2(s - 1) of them, and for farthest walks W_HULL_DRAWN and the hull chain,
# (s + 2) * W_HULL_POINT + W_FIXED (at s = 1 only until the first two hull
# sites are found, then W_FIXED + W_HANDED_EDGE for the walks' chain); or
# the big-big diagram, charged for the table's capacity of s - 1 sites at
# W_MEM_SITE each, plus s * W_BATCH_SITE and W_FIXED.  W_BATCH_SITE charges
# s sites for the pass, though a pass is a view of the input the arena
# holds, not a copy; the charge is kept so that reported peaks stay
# reproducible.
W_SLOT = 24
W_BATCH_SITE = 3
W_HULL_POINT = 3
W_FIXED = 8
# A shared edge: its partner and finder sites, the parameters (num, den)
# of its two ends, and their two cutters.
W_SHARED_EDGE = 8
# The edge a chained farthest walk hands the next: its carrier's three
# coefficients, the parameters of its two ends and their two cutters.
W_HANDED_EDGE = 9
# The points of the first, second and last farthest walks drawn (`_HullDraws`).
W_HULL_DRAWN = 6
# In-memory diagram of m sites: 3m site words plus <= 3m edges of ~14
# words each, rounded up to one per-site constant.
W_MEM_SITE = 48


def table_words(table: dict) -> int:
    """Ledger words an order-1 big-cell table holds: each entry's site
    index and the arc its walk covered (`TrackedSite.arc`), () if none."""
    return len(table) + sum(map(len, table.values()))


def _far_round(arena: ReadOnlyArena, slots: list[TrackedSite]) -> list[CellEdge]:
    """One lock-step round of farthest walks: every live slot produces its
    next cell edge.

    The round reads the input once, as one span (a view of the input, not
    a copy), and hands it whole to every live slot's kernel; a farthest
    walk starts with its first rival known, so that is the round's one
    pass.  A kernel's state after a slot's sites depends only on those
    sites, taken in index order, so one call per slot gives the edge that
    any split of the pass would.

    Every clip after a walk's first edge is a ray shot from the entry
    vertex: the walk's `seed`, whose bisector holds that vertex, goes to
    the kernel with the span (`clip_run`), which clips it first and then
    holds that end final, dropping every cutter on its side as soon as the
    cutter's den is known.  The vertex ended an edge clipped against every
    site in an earlier round, where `clip_edge` raised on any tie, so the
    seed changes no edge.  Each walk makes one kernel call per pass, which
    decides most sites in doubles (`clip_run`'s float filter).  A chained
    walk's first edge (`_hull_chain`) is the one the walk before ended on
    and handed on whole; the slot builds it as `_SharedEdges.take` does,
    with no read and no kernel call, since both cells' farthest clips of a
    bisector end at the same parameters and cutters, and a tie at an end
    already raised in that walk.  Nearest walks pass the same way, in
    `_SharedEdges.round`.
    """
    n = len(arena)
    span = None  # read once some slot needs it
    edges = []
    for slot in slots:
        slot.begin_clip()
        if slot.handed is not None:
            (line, *ends), slot.handed = slot.handed, None
            edges.append(CellEdge(slot.site, slot.rival, line, slot.p, *ends))
            continue
        line = exact.bisector_line(slot.p, arena.read(slot.rival))
        if span is None:
            span = arena.read_span(0, n)
        if not clip_run(slot.state, line, slot.p, span, 1, (slot.site, slot.rival), seed=slot.seed(), work=arena):
            _edge_vanished(slot)
        edges.append(clip_edge(slot.site, slot.p, slot.rival, line, slot.state))
    return edges


class _Draws:
    """The walks drawn from a source that draws every cell (`draw`), `live`
    by site until they end.  A walk is the first to reach an edge (`first`)
    unless the walk of its other cell reached it before: one that ended
    walked all its edges, a live one those in its arc (`arc_walked`), and
    one still to come (`_to_come`, by the draw order) none."""

    __slots__ = ("live",)

    def __init__(self):
        self.live: dict[int, TrackedSite] = {}

    def draw(self, source: Iterator[TrackedSite]) -> Iterator[TrackedSite]:
        for walk in source:
            self._drawn(walk)
            self.live[walk.site] = walk
            yield walk
        self._drawn(None)  # spent: no walk is still to come

    def end(self, site: int) -> None:
        del self.live[site]

    def first(self, edge: CellEdge) -> bool:
        walk = self.live.get(edge.rival)
        if walk is None:
            return self._to_come(edge)
        (px, py), (qx, qy) = edge.p, walk.p
        return not arc_walked(walk.arc(), (px - qx, py - qy))


class _HullDraws(_Draws):
    """Farthest walks, drawn in hull order one way round from two hull
    neighbors.  With two or fewer drawn, every other hull site is still to
    come; after that, as hull vertices are in strictly convex position, one
    still to come lies strictly beyond the chord from the first site drawn
    to the last, on the side away from the second (`ends`, `W_HULL_DRAWN`)."""

    ends: tuple = ()
    round = staticmethod(_far_round)

    def _drawn(self, walk: Optional[TrackedSite]) -> None:
        if walk is not None:
            self.ends = (*self.ends[:2], walk.p)

    def _to_come(self, edge: CellEdge) -> bool:
        (px, py), (a, b, c) = edge.p, edge.line
        k, nn = 2 * (c - a * px - b * py), a * a + b * b  # the rival is p + k (a, b) / nn
        if len(self.ends) < 3:
            return (px + k * a // nn, py + k * b // nn) not in self.ends
        (fx, fy), (sx, sy), (lx, ly) = self.ends
        ax, ay = lx - fx, ly - fy
        # nn times the rival's side of the chord, against the second site's.
        return (nn * (ax * (py - fy) - ay * (px - fx)) + k * (ax * b - ay * a)) * (ax * (sy - fy) - ay * (sx - fx)) < 0


class _SharedEdges(_Draws):
    """The edges live nearest walks clipped, held for the walks of the
    cells on their other sides: `held[partner][finder]` is
    (lo, hi, lo_cutter, hi_cutter) of the edge between the cells of
    finder and partner, as the finder's clip left it.

    An edge is held only while it can still serve: its partner's walk is
    live and has not walked it yet (`arc_walked`), or the source, which
    yields nearest walks in index order, will draw that walk soon, within
    `window` indices past the highest index drawn so far (`frontier`;
    the walks still to come are those past it).  The table holds at most
    `cap` = 2(s - 1) edges, none at s = 1, each charged `W_SHARED_EDGE`
    words while held.  An edge leaves when it is taken (`take`); the
    partner's edges all leave when its walk ends, and when the frontier
    passes the partner undrawn, as a `keep` filter of the source skips it.
    """

    __slots__ = ("held", "count", "cap", "window", "frontier", "ledger")

    def __init__(self, slots: int, ledger: WorkLedger):
        super().__init__()
        self.held: dict[int, dict[int, tuple]] = {}
        self.count = 0
        self.cap = 2 * (slots - 1)
        self.window = 2 * slots
        self.frontier = -1
        self.ledger = ledger

    def round(self, arena: ReadOnlyArena, slots: list[TrackedSite]) -> list[CellEdge]:
        """One lock-step round of nearest walks, passing as `_far_round`
        does, with the table.

        A fresh slot with an edge waiting starts on it, its finder as the
        first rival; the other fresh slots get a `nearest_run` pass first,
        which sets each one's first rival, its nearest neighbor.  A slot
        whose edge the walk of the cell on its other side already clipped
        takes it from the table, on this round's carrier, and makes no
        kernel call; every other slot clips its edge against the span,
        seeded from its entry vertex after the first edge (which also makes
        the box cull go live at the first cutter on the far side), and
        offers it to the table.  The taken ends are exact: with e = r - p
        parallel to (a, b), swapping the site p and its rival r changes a
        cutter's den by a*e_y - b*e_x = 0 and leaves num = u.(e - u) as it
        is (`clip_run`), so both cells' clips of one bisector end at the
        same (num, den) with the same cutter, and a tie at either end
        already raised in the finder's `clip_edge`.
        """
        n = len(arena)
        fresh = [t for t in slots if t.cutter is None and not self.start(t)]
        if fresh:
            span = arena.read_span(0, n)
            for slot in fresh:
                slot.cutter = nearest_run(slot.p, span, slot.site, arena)
        span = None  # read once some slot needs it
        edges = []
        for slot in slots:
            slot.begin_clip()
            line = exact.bisector_line(slot.p, arena.read(slot.rival))
            edge = self.take(slot, line)
            if edge is None:
                if span is None:
                    span = arena.read_span(0, n)
                skip = (slot.site, slot.rival)
                if not clip_run(slot.state, line, slot.p, span, -1, skip, seed=slot.seed(), work=arena):
                    _edge_vanished(slot)
                edge = clip_edge(slot.site, slot.p, slot.rival, line, slot.state)
                self.offer(edge)
            edges.append(edge)
        return edges

    def _drawn(self, walk: Optional[TrackedSite]) -> None:
        """Move the frontier to the walk's index (past every index once the
        source is spent), dropping the edges held for the sites the source
        passed over on the way."""
        i = sys.maxsize if walk is None else walk.site
        if i > self.frontier + 1:
            for j in [j for j in self.held if self.frontier < j < i]:
                self.drop(j)
        self.frontier = i

    def start(self, slot: TrackedSite) -> bool:
        """Start a fresh walk on the first edge held for its cell, if any."""
        edges = self.held.get(slot.site)
        if not edges:
            return False
        slot.cutter = next(iter(edges))
        return True

    def take(self, slot: TrackedSite, line) -> Optional[CellEdge]:
        """The held edge of the slot's cell against its rival, on `line`,
        removed from the table; None if no walk shared it."""
        edges = self.held.get(slot.site)
        if edges is None or slot.rival not in edges:
            return None
        ends = edges.pop(slot.rival)
        if not edges:
            del self.held[slot.site]
        self.count -= 1
        self.ledger.release(W_SHARED_EDGE)
        return CellEdge(slot.site, slot.rival, line, slot.p, *ends)

    def offer(self, edge: CellEdge) -> None:
        """Hold a clipped edge for its rival's walk, if the table has room
        and that walk can still take it: the finder is the first to reach
        the edge (`first`), and the rival's walk is live and not clipping it
        in this round too, or is still to come within the window."""
        j = edge.rival
        walk = self.live.get(j)
        near = j <= self.frontier + self.window if walk is None else walk.rival != edge.site
        if self.count < self.cap and near and self.first(edge):
            self.ledger.alloc(W_SHARED_EDGE)
            self.held.setdefault(j, {})[edge.site] = (edge.lo, edge.hi, edge.lo_cutter, edge.hi_cutter)
            self.count += 1

    def _to_come(self, edge: CellEdge) -> bool:
        return edge.rival > self.frontier

    def end(self, site: int) -> None:
        """The walk of `site` is done: no edge is held for it any more."""
        super().end(site)
        self.drop(site)

    def drop(self, site: int) -> None:
        edges = self.held.pop(site, None)
        if edges:
            self.count -= len(edges)
            self.ledger.release(len(edges) * W_SHARED_EDGE)

    def clear(self) -> None:
        for site in list(self.held):
            self.drop(site)


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


def hull_stream(arena: ReadOnlyArena, s: int, ledger: WorkLedger) -> Iterator[int]:
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
    limit = max(1, min(s, n)) + 1
    # The chain holds limit points, one more while a site is inserted.
    with ledger.scope((limit + 1) * W_HULL_POINT + W_FIXED):
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


def _hull_neighbors(arena: ReadOnlyArena, s: int, ledger: WorkLedger):
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


def _hull_chain(arena: ReadOnlyArena, ledger: WorkLedger):
    """The farthest walks of a one-slot run, in counterclockwise hull order
    from the anchor, each hull site found by the walk before it.

    `hull_stream` gives the anchor and its clockwise neighbor and is
    closed.  A walk starts on its cell's unbounded edge with the site
    walked just before (the anchor's, with that neighbor) and ends on the
    unbounded edge with its other hull neighbor, the rival of its last
    edge, whose cell is walked next.  That edge is the next walk's first,
    already clipped against every site, so every walk but the anchor's is
    handed it whole, its carrier, end parameters and cutters
    (`W_HANDED_EDGE` words), and takes it with no pass (`_far_round`).
    The chain stops when it returns to the anchor.  A hull of two vertices
    (collinear sites) ends the first walk, whose first edge is then a full
    line.
    """
    stream = hull_stream(arena, 1, ledger)
    anchor, known = islice(stream, 2)
    stream.close()
    site, handed = anchor, None
    with ledger.scope(W_FIXED + W_HANDED_EDGE):
        for _ in range(len(arena)):
            walk = hull_walk(arena, site, known)
            walk.handed = handed
            yield walk  # drawn again only once this walk is done
            e = walk.entry  # the edge it ended on
            site, known, handed = walk.rival, site, (e.line, e.lo, e.hi, e.lo_cutter, e.hi_cutter)
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
                yield cell_walk(arena, i, mode, ledger)
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
    The slots a refill draws are capped at `sys.maxsize`, `islice`'s
    limit: a source never yields more walks than there are sites.
    """
    cap = min(s, sys.maxsize)
    walks = list(islice(source, cap))
    waited = False
    while walks:
        walks = yield from step(walks)
        fresh = list(islice(source, cap - len(walks)))
        waited = waited or bool(fresh)
        walks += fresh
        if leftovers is not None and waited and 0 < len(walks) < s:
            leftovers.extend(walks)
            return


def walk_cells(arena, mode, s, source, ledger, leftovers=None) -> Iterator[tuple[TrackedSite, CellEdge, bool]]:
    """(walk, edge, first) for every cell edge found by `drive` over the
    walks of `source` with s slots, in `_SharedEdges.round`s for nearest
    walks, which share their clipped edges, and in `_far_round`s for
    farthest; `first` when the walk is the first to reach the edge
    (`_Draws.first`, for a source that draws every cell)."""
    n = len(arena)
    limit = n + 2  # no cell has more edges
    slots = min(s, n)
    nearest = mode is DiagramMode.NEAREST
    draws = _SharedEdges(slots, ledger) if nearest else _HullDraws()

    def step(walks):
        edges = draws.round(arena, walks)
        for slot, edge in zip(walks, edges):
            slot.advance(edge)  # before the edge is reported: it may be degenerate
            if slot.edges_found > limit:
                raise AssertionError("cell walk failed to terminate")
            if slot.done:
                draws.end(slot.site)
            yield slot, edge, draws.first(edge)
        return [t for t in walks if not t.done]

    with ledger.scope(slots * (W_SLOT + W_BATCH_SITE) + W_FIXED + (0 if nearest else W_HULL_DRAWN)):
        try:
            yield from drive(draws.draw(source), s, step, leftovers)
        finally:
            if nearest:
                draws.clear()


def find_big_cells(arena: ReadOnlyArena, mode: DiagramMode, s: int, ledger: WorkLedger) -> dict:
    """Walk cells s at a time until fewer than s stay unfinished; no output.

    The table maps each big cell's index to (), in index order; it is
    empty when every site got a slot in the initial load.  The program
    finds its big cells in `iter_diagram`'s walks, which report edges as
    they go; this walk-only search is the reference the tests hold that
    table to, and a span of the per-layer tracer (`perfbench/spans.py`).
    """
    leftovers: list[TrackedSite] = []
    for _ in walk_cells(arena, mode, s, _site_source(arena, mode, s, ledger), ledger, leftovers):
        pass
    return dict.fromkeys(sorted(t.site for t in leftovers), ())


def iter_diagram(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    s: int,
    ledger: WorkLedger,
    found: Optional[list] = None,
) -> Iterator[CellEdge]:
    """Every edge of the diagram exactly once, each cell walked once.

    The walks run s at a time (`walk_cells`), and each edge is reported at
    once by the first walk to reach it, also one later cut short.  The
    walks still alive when the source runs dry are cut short, and their
    cells are big: the table maps each one's index to its walked arc, in
    index order, and `found`, if given, receives it.  The only edges left
    are those between two big cells that neither walk reached (`iter_big_big`).
    """
    leftovers: list[TrackedSite] = []
    for _, edge, first in walk_cells(arena, mode, s, _site_source(arena, mode, s, ledger), ledger, leftovers):
        if first:
            yield edge
    table = dict(sorted((t.site, t.arc()) for t in leftovers))
    if found is not None:
        found.append(table)
    if table:
        with ledger.scope(table_words(table)):
            yield from iter_big_big(arena, mode, s, table, ledger)


def iter_small_incident(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    s: int,
    table: dict,
    ledger: WorkLedger,
) -> Iterator[CellEdge]:
    """Every edge with at least one small cell, exactly once, for a table
    known before the walks: only small cells are walked, an edge against a
    big rival is reported outright, and between two small cells the lower
    index reports it.
    """
    source = _site_source(arena, mode, s, ledger, lambda i: i not in table)
    for _, edge, _ in walk_cells(arena, mode, s, source, ledger):
        if edge.rival in table or edge.site < edge.rival:
            yield edge


def iter_big_big(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    s: int,
    table: dict,
    ledger: WorkLedger,
) -> Iterator[CellEdge]:
    """Every edge between two big cells that neither cell's walk reached,
    and so reported (by their arcs in the table; an arc of () reached none).

    Each edge of the diagram of the big sites is clipped against the whole
    input, read once as one span; surviving pieces are exactly the big-big
    edges.  A pair whose edge either walk reached is passed over unclipped.
    """
    if len(table) < 2:
        return
    want = -1 if mode is DiagramMode.NEAREST else 1
    mem_sites = [(i, arena.read(i)) for i in table]
    slots = min(s, len(arena))
    # Charged for the table's capacity, as the walks charge every slot.
    with ledger.scope(max(len(mem_sites), slots - 1) * W_MEM_SITE + slots * W_BATCH_SITE + W_FIXED):
        span = arena.read_span(0, len(arena))
        for ai, (a, a_pt) in enumerate(mem_sites):
            for b, b_pt in mem_sites[ai + 1 :]:
                ex, ey = b_pt[0] - a_pt[0], b_pt[1] - a_pt[1]
                if arc_walked(table[a], (ex, ey)) or arc_walked(table[b], (-ex, -ey)):
                    continue
                # An edge of the big sites' own diagram, clipped by the input.
                line = exact.bisector_line(a_pt, b_pt)
                state = [None, None, None, None, None]
                if clip_run(state, line, a_pt, mem_sites, want, (a, b), work=arena) and clip_run(
                    state, line, a_pt, span, want, table, work=arena
                ):
                    yield clip_edge(a, a_pt, b, line, state)


def run_tradeoff(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    s: int,
    sink: OutputSink,
    ledger: WorkLedger,
) -> dict:
    """Report the whole diagram with an s-word workspace (`iter_diagram`)
    and return its big-cell table.

    At s = 1 the drive's stop (0 < live < s) cannot fire, so no cell is
    big: every walk runs to its end, and the run is the constant-workspace
    diagram.
    """
    if not 1 <= s:
        raise ValueError("workspace parameter must be positive")
    found: list[dict] = []
    for edge in iter_diagram(arena, mode, s, ledger, found):
        sink.emit(record_for(arena, edge, mode))
    return found[0]
