"""The cell walk, its exact kernels, and the O(1)-word diagram.

A cell is walked edge to edge from one known edge, the site whose
bisector cut an endpoint being the site whose bisector carries the
adjacent edge.  A nearest walk starts on its bisector with its nearest
neighbor (`nearest_run`): the pair's midpoint is strictly nearer to both
than to any other site, so that bisector always holds an edge of the
cell.  A farthest cell is unbounded, and its two unbounded edges lie on
its bisectors with its two hull neighbors, so its walk (`hull_walk`)
starts on the edge with one neighbor and walks in one leg from that
edge's finite end to the edge with the other.  `TrackedSite` is the
walk's state machine; `clip_run` and `nearest_run` are the fused exact
kernels it needs, each one loop over a span of sites, which the program
always gives as the whole input (`pipeline` clips with `clip_run` too).
`cell_walk` starts the walk of one given site, finding a farthest site's
hull neighbors with the one-pass `locate_on_hull`.

Every walk runs under `tradeoff.drive`.  The constant-workspace diagram,
`enumerate_diagram`, is its one-slot run: nearest cells in index order,
farthest cells in hull order, each walk handing the next hull site to the
next (see `tradeoff`), each edge found by a pass over the whole input, an
edge between cells i and j reported from cell i only when i < j, so
exactly once.  `enumerate_cell` walks a single cell the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isqrt
from operator import length_hint
from typing import Callable, Optional

from . import exact
from .geometry import BisectorLine, DegenerateGeometry, EdgePiece
from .memory import OutputSink, ReadOnlyArena, WorkLedger, scope
from .records import EdgeRecord, undirected_record


class DiagramMode(Enum):
    NEAREST = "nearest"
    FARTHEST = "farthest"


class FarthestCellEmpty(Exception):
    """The queried site is interior to the hull: no farthest-site cell."""


@dataclass(frozen=True, slots=True)
class HullStatus:
    inside: bool
    cw_neighbor: Optional[int] = None
    ccw_neighbor: Optional[int] = None


@dataclass(frozen=True, slots=True)
class CellEdge:
    """One edge of a cell: the piece, the rival across it, endpoint cutters."""

    site: int
    rival: int
    piece: EdgePiece
    lo_cutter: Optional[int]
    hi_cutter: Optional[int]

    def cutter_at(self, hp) -> Optional[int]:
        if self.piece.lo is not None and hp == self.piece.lo:
            return self.lo_cutter
        if self.piece.hi is not None and hp == self.piece.hi:
            return self.hi_cutter
        raise ValueError("point is not an endpoint of this edge")


# Words `locate_on_hull` charges: the coordinates of p, of the reference
# site and of the two best candidates.
W_LOCATE = 8


def locate_on_hull(arena: ReadOnlyArena, p_idx: int, ledger: Optional[WorkLedger] = None) -> HullStatus:
    """Hull membership of site p by one gift-wrapping pass.

    Returns the two hull neighbors when p is a hull vertex.  Exactly one
    pass over the arena beyond the reference pick (the lowest other index).
    """
    n = len(arena)
    with scope(ledger, W_LOCATE):
        p = arena.read(p_idx).ipt
        q_idx = 0 if p_idx != 0 else 1
        q = arena.read(q_idx).ipt
        best_cw = best_ccw = None
        cw_idx = ccw_idx = q_idx
        for j in range(n):
            if j == p_idx or j == q_idx:
                continue
            w = arena.read(j).ipt
            side = exact.orient_ipts(p, q, w)
            if side > 0:
                if best_ccw is None or exact.orient_ipts(p, best_ccw, w) > 0:
                    best_ccw, ccw_idx = w, j
            else:
                if best_cw is None or exact.orient_ipts(p, best_cw, w) < 0:
                    best_cw, cw_idx = w, j
        cw = best_cw if best_cw is not None else q
        ccw = best_ccw if best_ccw is not None else q
        if exact.orient_ipts(p, cw, ccw) < 0:
            return HullStatus(inside=True)
        return HullStatus(inside=False, cw_neighbor=cw_idx, ccw_neighbor=ccw_idx)


def _disk_box(ex, ey, a, b, px, py, n, d):
    """(x0, x1, y0, y1), integers: a box around the closed disk through
    p = (px, py) centred at parameter n/d (d > 0) of the line through the
    midpoint of p and p + (ex, ey) along (b, -a), on the kernels' scale:
    the centre is p + (d*(ex, ey) + n*(b, -a)) / (2d).  The radius is
    bounded by the L1 norm of centre - p and the box rounded outward, so an
    integer point strictly outside the box is strictly outside the disk."""
    den = 2 * d
    vx = d * ex + n * b
    vy = d * ey - n * a
    r = abs(vx) + abs(vy)
    return px + (vx - r) // den, px - ((-vx - r) // den), py + (vy - r) // den, py - ((-vy - r) // den)


def _rival_offset(line, px, py):
    """e = r - p, exactly, for the rival r whose bisector with p = (px, py)
    is `line`: r is p's mirror image in a*x + b*y = c, so
    e = 2(c - a.p)(a, b) / (a^2 + b^2)."""
    a, b, c = line
    k = 2 * (c - a * px - b * py)
    nn = a * a + b * b
    return k * a // nn, k * b // nn


def clip_run(state, line, p, items, want: int, skip, flip=(), work=None) -> bool:
    """Clip an interval on `line`, the bisector of site p and a rival, by
    the bisector of p and each (index, point) of `items`.

    Keeps the part nearer to p than to each cutter (want = -1) or farther
    (want = 1); indices in `flip` take the opposite sense and indices in
    `skip` are passed over.  state = [t_lo, t_hi, lo_cut, hi_cut, box]:
    each end is a (num, den>0, tied) parameter, or None while unbounded,
    with the index of the site that cut it; tied is set when a different
    site's bisector crosses exactly there (four cocircular sites), and
    `clip_edge` raises on a tied end; box caches the cull below.  Returns
    False once the interval is empty.  The number of sites that reach the
    arithmetic is added to `work.site_tests`, and the number looked at to
    `work.site_visits` (the run's arena), if given.

    One exact loop per call, relative to p: the rival r is p's mirror
    image in the line a*x + b*y = c, so e = r - p is
    2(c - a.p)(a, b) / (a^2 + b^2), exactly (`_rival_offset`).  With
    u = w - p, the cutter w's bisector crosses the line at t = num / (2 den)
    along (b, -a) from the midpoint of p and r, where num = u.(e - u) and
    den = a*u_y - b*u_x; a den of 0 is a cutter parallel to the line,
    which keeps it whole when num has the kept side's sign (num < 0 is
    nearer to p).  The kernel keeps num/den, so only the order of the
    parameters is meaningful; the cutters alone leave the kernel (see
    `clip_edge`).

    The box cull (nearest sense, no `flip`, both ends bounded): the disks
    centred on the line through p form a pencil, all through p and the
    rival, and w lies in the disk centred at x iff x is as near to w as to
    p.  That condition is affine in x, so if it held anywhere on the
    closed interval it would hold at an end: w would lie in one of the two
    closed end disks.  A site strictly outside an integer box around both
    (`_disk_box`, cached in state[4], each end's box recomputed only when
    that end moves) therefore neither cuts the interval nor ties an end,
    and is passed over before any arithmetic.  The sites are still tried
    in order, so the state after each is the same as without the cull.
    """
    a, b, _ = line
    px, py = p
    ex, ey = _rival_offset(line, px, py)
    keep_near = want < 0
    cull = keep_near and not flip
    # Unbounded ends as -inf = (-1, 0) and +inf = (1, 0): the cross-multiplied
    # comparisons below then need no None tests.
    lo_n, lo_d, lo_tie = state[0] or (-1, 0, False)
    hi_n, hi_d, hi_tie = state[1] or (1, 0, False)
    lo_cut, hi_cut = state[2], state[3]
    box = state[4] if cull else None
    boxed = box is not None
    x0, x1, y0, y1, lo_box, hi_box = box or (None,) * 6
    alive = True
    passed = 0  # sites skipped or culled
    it = iter(items)
    for j, (wx, wy) in it:
        if j in skip or (boxed and (wx < x0 or wx > x1 or wy < y0 or wy > y1)):
            passed += 1
            continue
        near = keep_near != (j in flip)
        ux = wx - px
        uy = wy - py
        num = ux * (ex - ux) + uy * (ey - uy)
        den = a * uy - b * ux
        if den == 0:
            # Cutter bisector parallel to the line: keep it whole or lose it.
            if (num < 0) if near else (num > 0):
                continue
            alive = False
            break
        if den < 0:
            num, den, near = -num, -den, not near
        if near:
            # The kept side lies beyond the crossing: a lower bound.
            x = lo_n * den
            y = num * lo_d
            if x > y:
                continue
            if x == y:
                # A re-clip by the end's own cutter is no tie.
                lo_tie = lo_tie or j != lo_cut
                continue
            lo_n, lo_d, lo_cut, lo_box, lo_tie = num, den, j, None, False
        else:
            x = hi_n * den
            y = num * hi_d
            if x < y:
                continue
            if x == y:
                hi_tie = hi_tie or j != hi_cut
                continue
            hi_n, hi_d, hi_cut, hi_box, hi_tie = num, den, j, None, False
        if lo_n * hi_d >= hi_n * lo_d:
            alive = False
            break
        if cull and lo_d and hi_d:
            if lo_box is None:
                lo_box = _disk_box(ex, ey, a, b, px, py, lo_n, lo_d)
            if hi_box is None:
                hi_box = _disk_box(ex, ey, a, b, px, py, hi_n, hi_d)
            boxed = True
            x0 = min(lo_box[0], hi_box[0])
            x1 = max(lo_box[1], hi_box[1])
            y0 = min(lo_box[2], hi_box[2])
            y1 = max(lo_box[3], hi_box[3])
    if work is not None:
        # The sites after an emptying cutter are not looked at.
        looked = len(items) - length_hint(it)
        work.site_tests += looked - passed
        work.site_visits += looked
    state[0] = (lo_n, lo_d, lo_tie) if lo_d else None
    state[1] = (hi_n, hi_d, hi_tie) if hi_d else None
    state[2], state[3] = lo_cut, hi_cut
    state[4] = (x0, x1, y0, y1, lo_box, hi_box) if lo_box and hi_box else None
    return alive


def clip_edge(arena: ReadOnlyArena, site: int, p, rival: int, line, state) -> CellEdge:
    """The edge a finished clip leaves on `line`, the bisector of site p and
    rival: each endpoint is where the recorded cutter's bisector with p
    crosses the line, read back from the arena.  An end that another
    cutter's bisector crosses too is a vertex of four cocircular sites:
    DegenerateGeometry."""
    for end in state[:2]:
        if end is not None and end[2]:
            raise DegenerateGeometry(f"edge of site {site} against {rival} has a tied end: cocircular sites")
    lo = hi = None
    if state[2] is not None:
        lo = exact.line_intersection(line, exact.bisector_line(p, arena.read(state[2]).ipt))
    if state[3] is not None:
        hi = exact.line_intersection(line, exact.bisector_line(p, arena.read(state[3]).ipt))
    return CellEdge(site, rival, EdgePiece(BisectorLine(site, rival, line), lo, hi), state[2], state[3])


def nearest_run(p, items, skip: int, work=None) -> Optional[int]:
    """The index j of `items`, (index, point) pairs, other than `skip` (p's
    own) that minimises (|w_j - p|^2, j): p's nearest neighbor, the lowest
    index among tied ones, whatever order the sites come in.

    Box cull: a site strictly outside the box of half-width isqrt(d) about
    p, for the best squared distance d so far, is strictly farther than the
    best, so it is passed over before any arithmetic; a tie lies in the
    box or on its edge.  The number of sites that reach the arithmetic is
    added to `work.site_tests`, and the number looked at to
    `work.site_visits` (the run's arena), if given.
    """
    px, py = p
    bd = bj = None
    passed = 0  # sites skipped or culled
    for j, (wx, wy) in items:
        if j == skip or (bj is not None and (wx < x0 or wx > x1 or wy < y0 or wy > y1)):
            passed += 1
            continue
        ux = wx - px
        uy = wy - py
        d = ux * ux + uy * uy
        if bj is not None and (d > bd or d == bd and j > bj):
            continue
        bd, bj = d, j
        r = isqrt(d)
        x0, x1, y0, y1 = px - r, px + r, py - r, py + r
    if work is not None:
        work.site_tests += len(items) - passed
        work.site_visits += len(items)
    return bj


class TrackedSite:
    """Walk state for one cell, fed its edges one at a time.

    A walk starts on the bisector of p and its first rival, which always
    holds an edge of the cell: a nearest walk's nearest neighbor, set by
    `tradeoff._round` with `nearest_run` before the first clip, or a
    farthest walk's hull neighbor, given by `hull_walk`, whose edge must
    clip to a ray.  The walk leaves the first edge through a finite
    endpoint and steps edge to edge, the site whose bisector cut an
    endpoint carrying the next edge.  When the walk leaves the diagram
    through an unbounded edge it resumes from the first edge's other
    endpoint; it is done when it closes on the first edge or runs out of
    endpoints.  `cutter` names the rival whose bisector carries the next
    edge; after the first edge, `seed()` names the site whose bisector with
    p holds that edge's entry vertex, a cutter known before any pass.

    A walk cut short knows which edges it walked from O(1) words (`arc`):
    a convex cell's edges come in the angular order of their rivals'
    offsets w - p, nearest and farthest cells alike, so the edges walked on
    each leg are those whose offsets lie in one closed angle from the first
    edge's (`walked`).
    """

    __slots__ = (
        "site",
        "p",
        "first_edge",
        "edges_found",
        "done",
        "cutter",
        "rival",
        "state",
        "_on_hull",
        "_first_rival",
        "_leg2",
        "_v",
        "_entry",
        "_second",
        "_turn",
    )

    def __init__(self, site_idx: int, p, rival: Optional[int] = None):
        self.site = site_idx
        self.p = p
        self.first_edge: Optional[CellEdge] = None
        self.edges_found = 0
        self.done = False
        self.cutter: Optional[int] = rival  # None until a nearest walk's first rival is set
        self.rival: Optional[int] = None  # rival of the edge being clipped
        self.state = None  # its clip interval [t_lo, t_hi, lo_cut, hi_cut, box]
        self._on_hull = rival is not None  # started on a hull edge, which must be a ray
        self._first_rival: Optional[int] = None
        self._leg2 = None  # (endpoint hpoint, cutter) queued for the reverse walk
        self._v = None
        self._entry: Optional[CellEdge] = None  # the last edge of this leg, walked into the entry vertex
        self._second: Optional[CellEdge] = None  # the edge after the first: leg 1's turning sense
        self._turn: Optional[CellEdge] = None  # the last edge of leg 1, once leg 2 began

    def begin_clip(self) -> None:
        self.rival = self.cutter
        self.state = [None, None, None, None, None]

    def seed(self):
        """(index, point) of the site whose bisector with p holds the entry
        vertex of the edge to clip next, or None before the first edge: the
        rival of the edge walked into that vertex (on leg 2, the first
        edge).  Its point is p's mirror image in that edge's carrier, so
        the seed costs no read."""
        if self._entry is None:
            return None
        px, py = self.p
        ex, ey = _rival_offset(self._entry.piece.carrier.line, px, py)
        return self._entry.rival, (px + ex, py + ey)

    def advance(self, edge: CellEdge) -> None:
        """Digest the edge just found and set up the next one."""
        self.edges_found += 1
        self.state = None
        if self.first_edge is None:
            self.first_edge = edge
            self._first_rival = edge.rival
            self._entry = edge
            ends = [edge.piece.lo, edge.piece.hi]
            if ends[0] is None:
                ends.reverse()
            if ends[0] is None:
                # No other site's bisector crosses it: every site is on one line.
                raise DegenerateGeometry("hull has fewer than 3 vertices: the sites are collinear")
            if self._on_hull and ends[1] is not None:
                raise DegenerateGeometry(
                    f"edge of hull site {self.site} against hull neighbor {edge.rival} is bounded at both ends"
                )
            # Either end will do: a bounded cell closes on the first edge,
            # and an unbounded one is walked from both ends.
            self._v = ends[0]
            self.cutter = edge.cutter_at(ends[0])
            if ends[1] is not None:
                self._leg2 = (ends[1], edge.cutter_at(ends[1]))
            return
        # Walking: step through the endpoint opposite the entry vertex.
        if edge.piece.lo is not None and edge.piece.lo == self._v:
            nxt = edge.piece.hi
        elif edge.piece.hi is not None and edge.piece.hi == self._v:
            nxt = edge.piece.lo
        else:
            raise AssertionError("walk endpoint not on the next edge")
        if self._second is None:
            self._second = edge
        if nxt is None:
            if self._leg2 is not None:
                self._v, self.cutter = self._leg2
                self._leg2 = None
                self._turn = edge
                self._entry = self.first_edge
            else:
                self._entry = edge
                self.done = True
            return
        self._v = nxt
        self._entry = edge
        self.cutter = edge.cutter_at(nxt)
        if self.cutter == self._first_rival:
            self.done = True

    def arc(self) -> tuple:
        """The edges walked so far, in 7 words: the rival offsets w - p of
        the first edge, of the last edge reached on leg 1 and of the last
        on leg 2 (the first edge's until leg 2 begins), 2 words each, then
        leg 1's turning sense, +1 counterclockwise, -1 clockwise (+1 while
        the walk has one edge); () before the first edge.  Offsets come
        from the edges' carriers, so the arc costs no read."""
        if self.first_edge is None:
            return ()
        px, py = self.p

        def offset(edge):
            return _rival_offset(edge.piece.carrier.line, px, py)

        first = offset(self.first_edge)
        if self._turn is None:
            last, back = offset(self._entry), first
        else:
            last, back = offset(self._turn), offset(self._entry)
        sense = 1
        if self._second is not None:
            sx, sy = offset(self._second)
            sense = 1 if first[0] * sy - first[1] * sx > 0 else -1
        return (*first, *last, *back, sense)

    def walked(self, e) -> bool:
        """Whether the walk has reported the cell's edge against the rival
        at offset e = w - p; e must be the offset of one of the cell's
        rivals."""
        return arc_walked(self.arc(), e)


def _swept(a, d, b) -> bool:
    """Whether direction d lies in the closed angle swept counterclockwise
    from direction a to direction b (just a when b is a), exactly."""

    def half(v) -> int:
        # 0 for turns from a in [0, 180) degrees, 1 for [180, 360).
        c = a[0] * v[1] - a[1] * v[0]
        return 0 if c > 0 or c == 0 and a[0] * v[0] + a[1] * v[1] > 0 else 1

    hd, hb = half(d), half(b)
    if hd != hb:
        return hd < hb
    return d[0] * b[1] - d[1] * b[0] >= 0


def arc_walked(arc, e) -> bool:
    """Whether a walk whose `TrackedSite.arc` is `arc` reported the edge
    against the rival at offset e: e lies in the angle leg 1 swept from the
    first edge to its last, or in the one leg 2 swept the other way."""
    if not arc:
        return False
    fx, fy, lx, ly, bx, by, sense = arc
    first, last, back = (fx, fy), (lx, ly), (bx, by)
    if sense > 0:
        return _swept(first, e, last) or _swept(back, e, first)
    return _swept(last, e, first) or _swept(first, e, back)


def hull_walk(arena: ReadOnlyArena, i: int, nxt: int) -> TrackedSite:
    """The farthest-cell walk of hull site i, started on its unbounded edge
    with hull neighbor nxt: their bisector is its first carrier."""
    return TrackedSite(i, arena.read(i).ipt, nxt)


def cell_walk(
    arena: ReadOnlyArena, i: int, mode: DiagramMode, ledger: Optional[WorkLedger] = None
) -> Optional[TrackedSite]:
    """A fresh walk of site i's cell, or None when i is interior to the hull
    and so has no farthest cell.

    A nearest walk's first rival, its nearest neighbor, is left for the
    first round's `nearest_run` pass; a farthest walk first finds i's hull
    neighbors with `locate_on_hull`.
    """
    if mode is DiagramMode.NEAREST:
        return TrackedSite(i, arena.read(i).ipt)
    status = locate_on_hull(arena, i, ledger)
    if status.inside:
        return None
    return hull_walk(arena, i, status.cw_neighbor)


def enumerate_cell(
    arena: ReadOnlyArena,
    p_idx: int,
    mode: DiagramMode,
    visit: Callable[[CellEdge], None],
    ledger: Optional[WorkLedger] = None,
) -> None:
    """Visit every edge of p's cell exactly once: the one-slot run of
    `tradeoff.drive` on p's walk alone.

    Walks from one finite endpoint of the first edge until the walk closes
    or leaves through an unbounded edge, then from the other endpoint the
    other way; each edge costs one clipping pass.
    """
    from .tradeoff import walk_cells  # tradeoff imports this module

    walk = cell_walk(arena, p_idx, mode, ledger)
    if walk is None:
        raise FarthestCellEmpty(f"site {p_idx} is interior to the hull")
    for _, edge in walk_cells(arena, mode, 1, iter([walk]), ledger):
        visit(edge)


def cell_edges(
    arena: ReadOnlyArena,
    p_idx: int,
    mode: DiagramMode,
    ledger: Optional[WorkLedger] = None,
) -> list[CellEdge]:
    out: list[CellEdge] = []
    enumerate_cell(arena, p_idx, mode, out.append, ledger)
    return out


def record_for(arena: ReadOnlyArena, edge: CellEdge, mode: DiagramMode) -> EdgeRecord:
    n = len(arena)
    if mode is DiagramMode.NEAREST:
        k = 1
        closest: tuple[int, ...] = ()
    else:
        k = n - 1
        a, b = sorted((edge.site, edge.rival))
        closest = (*range(a), *range(a + 1, b), *range(b + 1, n))
    return undirected_record(
        k,
        closest,
        (edge.site, edge.rival),
        edge.piece.carrier.line,
        edge.piece.lo,
        edge.piece.hi,
        edge.lo_cutter,
        edge.hi_cutter,
        arena.scale,
    )


def enumerate_diagram(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    sink: OutputSink,
    ledger: Optional[WorkLedger] = None,
) -> None:
    """Emit every diagram edge exactly once using O(1) workspace words: the
    s-workspace construction with one slot."""
    from .tradeoff import run_tradeoff  # tradeoff imports this module

    run_tradeoff(arena, mode, 1, sink, ledger)
