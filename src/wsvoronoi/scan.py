"""The cell walk, its exact kernels, and the O(1)-word diagram.

A nearest cell is walked edge to edge from a start ray: the first edge is
the one the ray crosses first.  A farthest cell is unbounded, and its two
unbounded edges lie on its bisectors with its two hull neighbors, so its
walk (`hull_walk`) starts on the edge with one neighbor and walks in one
leg from that edge's finite end to the edge with the other.  Either way
the site whose bisector cut an endpoint is the site whose bisector carries
the adjacent edge.  `TrackedSite` is the walk's state machine; `clip_run`
and `ray_run` are the fused exact kernels it needs, each one loop over a
span of sites, which the program always gives as the whole input
(`pipeline` clips with `clip_run` too).  `cell_walk` starts the walk of
one given site, finding a farthest site's hull neighbors with the one-pass
`locate_on_hull`.

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
from fractions import Fraction
from operator import length_hint
from typing import Callable, Optional

from . import exact
from .geometry import BisectorLine, DegenerateGeometry, EdgePiece, Ray
from .memory import OutputSink, ReadOnlyArena, WorkLedger, scope
from .records import EdgeRecord, undirected_record


class DiagramMode(Enum):
    NEAREST = "nearest"
    FARTHEST = "farthest"


class FarthestCellEmpty(Exception):
    """The queried site is interior to the hull: no farthest-site cell."""


class NoIntersection(Exception):
    """The ray crossed no bisector; its cell-boundary precondition failed."""


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
    the centre is p + (d*(ex, ey) + n*(b, -a)) / (2d).  With e = 0 the line
    is the ray from p along (b, -a) (`ray_run`).  The radius is bounded by
    the L1 norm of centre - p and the box rounded outward, so an integer
    point strictly outside the box is strictly outside the disk."""
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


def ray_tie_wins(direction, u, best_u) -> bool:
    """Whether the bisector with normal `u` beats the one with normal
    `best_u` as the rival when both cross the start ray at the same point.

    The ray then passes through a cell vertex; resolve as if it were
    rotated infinitesimally counterclockwise.  A normal is the pair (a, b)
    of the bisector a*x + b*y = c, or any nonzero multiple of it.
    """

    def drift(n):
        a, b = n
        return Fraction(b * direction[0] - a * direction[1], a * direction[0] + b * direction[1])

    return drift(u) > drift(best_u)


def ray_run(best, p, direction, items, skip: int, work=None):
    """The rival whose bisector with p first crosses the ray from p along
    `direction`, over `best` and `items`.

    best, kept across calls, is (num, den, index, point) for the
    crossing at parameter num/den, or None before any hit; index `skip`
    (p's own) is passed over.  Since the ray starts at p, the bisector with
    w is hit iff u = w - p has u.d > 0, at t = |u|^2 / (2 u.d); the 2 is
    left out of every parameter alike.  Exact ties go to `ray_tie_wins`.

    Box cull: w's bisector crosses the ray at or before t iff w lies in
    the closed disk centred at p + t*d through p, and these disks grow
    with t.  So a site strictly outside an integer box around the best's
    disk (`_disk_box` with e = 0, built from an incoming best and rebuilt
    only when the best changes) can neither beat nor tie it, and is passed
    over before any arithmetic.  The sites are still tried in order, so
    the result is the same as without the cull.  The number of sites that
    reach the arithmetic is added to `work.site_tests`, and the number
    looked at to `work.site_visits` (the run's arena), if given.
    """
    px, py = p
    dx, dy = direction
    if best is None:
        bn = bd = 0
        bj = bw = None
        boxed = False
    else:
        bn, bd, bj, bw = best
        x0, x1, y0, y1 = _disk_box(0, 0, -dy, dx, px, py, bn, bd)
        boxed = True
    passed = 0  # sites skipped or culled
    for j, (wx, wy) in items:
        if j == skip or (boxed and (wx < x0 or wx > x1 or wy < y0 or wy > y1)):
            passed += 1
            continue
        ux = wx - px
        uy = wy - py
        den = ux * dx + uy * dy
        if den <= 0:
            continue
        num = ux * ux + uy * uy
        if bd:
            c = num * bd - bn * den
            if c > 0 or c == 0 and not ray_tie_wins(direction, (ux, uy), (bw[0] - px, bw[1] - py)):
                continue
        bn, bd, bj, bw = num, den, j, (wx, wy)
        x0, x1, y0, y1 = _disk_box(0, 0, -dy, dx, px, py, bn, bd)
        boxed = True
    if work is not None:
        work.site_tests += len(items) - passed
        work.site_visits += len(items)
    return (bn, bd, bj, bw) if bd else None


def _side_of_ray(ray: Ray, hp) -> int:
    vx = hp[0] - ray.origin[0] * hp[2]
    vy = hp[1] - ray.origin[1] * hp[2]
    return exact.sign(ray.direction[0] * vy - ray.direction[1] * vx)


class TrackedSite:
    """Walk state for one cell, fed its edges one at a time.

    A nearest walk's first edge is the one crossing the start ray; the
    walk then leaves through that edge's left endpoint (left of the ray)
    and steps edge to edge, the site whose bisector cut an endpoint
    carrying the next edge.  When the walk leaves the diagram through an
    unbounded edge it resumes from the first edge's other endpoint; it is
    done when it closes on the first edge or runs out of endpoints.  A
    walk given its first `rival` instead of a ray (a farthest walk, from
    `hull_walk`) starts on their bisector, which must clip to a ray, and
    walks in one leg from its finite end.  `cutter` names the rival whose
    bisector carries the next edge; after the first edge, `seed()` names
    the site whose bisector with p holds that edge's entry vertex, a
    cutter known before any pass.
    """

    __slots__ = (
        "site",
        "p",
        "current_ray",
        "first_edge",
        "edges_found",
        "done",
        "cutter",
        "rival",
        "state",
        "_first_rival",
        "_leg2",
        "_v",
        "_entry",
        "best",
    )

    def __init__(self, site_idx: int, p, ray: Optional[Ray], rival: Optional[int] = None):
        self.site = site_idx
        self.p = p
        self.current_ray = ray  # None when the first rival is given
        self.first_edge: Optional[CellEdge] = None
        self.edges_found = 0
        self.done = False
        self.cutter: Optional[int] = rival
        self.rival: Optional[int] = None  # rival of the edge being clipped
        self.state = None  # its clip interval [t_lo, t_hi, lo_cut, hi_cut, box]
        self._first_rival: Optional[int] = None
        self._leg2 = None  # (endpoint hpoint, cutter) queued for the reverse walk
        self._v = None
        self._entry: Optional[CellEdge] = None  # the edge walked into the entry vertex
        self.best = None  # the start ray's first crossing, from `ray_run`

    @property
    def needs_ray_scan(self) -> bool:
        return self.current_ray is not None and self.first_edge is None and self.best is None

    def begin_clip(self) -> None:
        if self.first_edge is None and self.current_ray is not None:
            if self.best is None:
                raise NoIntersection(f"no bisector crosses the ray from site {self.site}")
            self.rival = self.best[2]
        else:
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
        self.best = None
        self.state = None
        if self.first_edge is None:
            self.first_edge = edge
            self._first_rival = edge.rival
            self._entry = edge
            ends = [edge.piece.lo, edge.piece.hi]
            if self.current_ray is None and (ends[0] is None) == (ends[1] is None):
                if ends[0] is None:
                    raise DegenerateGeometry("hull has fewer than 3 vertices: the sites are collinear")
                raise DegenerateGeometry(
                    f"edge of hull site {self.site} against hull neighbor {edge.rival} is bounded at both ends"
                )
            if ends[0] is not None and ends[1] is not None:
                if _side_of_ray(self.current_ray, ends[0]) < _side_of_ray(self.current_ray, ends[1]):
                    ends.reverse()
            elif ends[0] is None:
                ends.reverse()
            if ends[0] is None:
                self.done = True  # full-line edge: the cell is a halfplane
                return
            self._v = ends[0]
            self.cutter = edge.cutter_at(ends[0])
            if ends[1] is not None:
                self._leg2 = (ends[1], edge.cutter_at(ends[1]))
            if self.cutter == self._first_rival:
                self.done = True
            return
        # Walking: step through the endpoint opposite the entry vertex.
        if edge.piece.lo is not None and edge.piece.lo == self._v:
            nxt = edge.piece.hi
        elif edge.piece.hi is not None and edge.piece.hi == self._v:
            nxt = edge.piece.lo
        else:
            raise AssertionError("walk endpoint not on the next edge")
        if nxt is None:
            if self._leg2 is not None:
                self._v, self.cutter = self._leg2
                self._leg2 = None
                self._entry = self.first_edge
            else:
                self.done = True
            return
        self._v = nxt
        self._entry = edge
        self.cutter = edge.cutter_at(nxt)
        if self.cutter == self._first_rival:
            self.done = True


def hull_walk(arena: ReadOnlyArena, i: int, nxt: int) -> TrackedSite:
    """The farthest-cell walk of hull site i, started on its unbounded edge
    with hull neighbor nxt: their bisector is its first carrier, and no
    start ray is needed."""
    return TrackedSite(i, arena.read(i).ipt, None, nxt)


def cell_walk(
    arena: ReadOnlyArena, i: int, mode: DiagramMode, ledger: Optional[WorkLedger] = None
) -> Optional[TrackedSite]:
    """A fresh walk of site i's cell, or None when i is interior to the hull
    and so has no farthest cell.

    A nearest walk's start ray aims at the lowest-index other site; a
    farthest walk first finds i's hull neighbors with `locate_on_hull`.
    """
    if mode is DiagramMode.NEAREST:
        p = arena.read(i).ipt
        q = arena.read(0 if i != 0 else 1).ipt
        return TrackedSite(i, p, Ray(p, exact.primitive_dir(q[0] - p[0], q[1] - p[1])))
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

    Walks counterclockwise from the first edge's left endpoint until the
    walk closes or leaves through an unbounded edge, then clockwise from
    the right endpoint; each edge costs one clipping pass.
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
