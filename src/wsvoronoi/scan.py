"""The cell walk, its exact kernels, and the O(1)-word diagram.

A cell is walked edge to edge from one known edge, the site whose
bisector cut an endpoint being the site whose bisector carries the
adjacent edge.  A nearest walk starts on its bisector with its nearest
neighbor (`nearest_run`): the pair's midpoint is strictly nearer to both
than to any other site, so that bisector always holds an edge of the
cell.  At s > 1 it may start instead on an edge of its cell that a
neighbor's walk clipped and shared (see `tradeoff`).  A farthest cell is
unbounded, and its two unbounded edges lie on its bisectors with its two
hull neighbors, so its walk (`hull_walk`) starts on the edge with one
neighbor and walks in one leg from that edge's finite end to the edge
with the other.  `TrackedSite` is the walk's state machine; `clip_run`
and `nearest_run` are the fused exact kernels it needs, each one loop
over a span of sites, which the program always gives as the whole input
(`pipeline`'s order-k walks step with `clip_run` too).  `cell_walk`
starts the walk of one given site, finding a farthest site's hull
neighbors with the one-pass `locate_on_hull`.

After the first edge, each step of a walk is one scan for the next vertex
from a vertex already known: the entry vertex, where the edge before
ended, was certified by that edge's clip against every site.  So the clip
of the next edge is a ray shot from it: `clip_run` takes the site whose
bisector holds the entry vertex as its seed, clips it first, and then
holds that end final, dropping every cutter on its side from the sign of
one product, before the crossing arithmetic.  The final end's disk holds
no site, so a nearest clip's cull box is the moving end's alone.  A
farthest clip has no cull; it decides each site in doubles where an error
bound shows their sign is the exact one, and falls back to exact integers
elsewhere, so its output is exact (`clip_run`'s float filter).

An edge (`CellEdge`) keeps its ends as the clip kernel's exact
parameters on its carrier, with the site that cut each end.  The walk
tells ends apart by those cutters alone, and a vertex is built, from
numbers the edge already holds and with no read, only when the edge is
written (`CellEdge.ends`, called by `record_for` and by the order-k
pipeline).

Every walk runs under `tradeoff.drive`.  The constant-workspace diagram,
`enumerate_diagram`, is its one-slot run: nearest cells in index order,
farthest cells in hull order, each walk handing the next hull site to the
next (see `tradeoff`), each edge found by a pass over the whole input and
reported by the first walk to reach it, so exactly once.  `enumerate_cell`
walks a single cell the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from math import isqrt
from operator import length_hint
from typing import Callable, Optional

from . import exact
from .geometry import DegenerateGeometry
from .memory import OutputSink, ReadOnlyArena, WorkLedger
from .records import AllBut, EdgeRecord, undirected_record


class DiagramMode(Enum):
    NEAREST = "nearest"
    FARTHEST = "farthest"


class FarthestCellEmpty(Exception):
    """The queried site is interior to the hull: no farthest-site cell."""


@dataclass(frozen=True, slots=True)
class CellEdge:
    """One edge of the cell of site, at point p, against rival, at point r,
    on `line`, their bisector a*x + b*y = c.  Its ends are the clip's
    parameters (num, den), den > 0, on the kernels' scale (`clip_run`),
    excluded from the edge: ``lo`` toward decreasing parameter and ``hi``
    toward increasing, the parameter growing along the line's canonical
    direction; an end is None where the edge is unbounded, and its cutter
    is the site whose bisector with site crosses the line there.  The
    points are built only on demand, by `ends`, from numbers the edge
    holds, so an edge costs no read; r spares the walk's seeds and arcs,
    and `ends`, the divisions that would find it from the carrier."""

    site: int
    rival: int
    line: tuple[int, int, int]
    p: tuple[int, int]
    r: tuple[int, int]
    lo: Optional[tuple[int, int]]
    hi: Optional[tuple[int, int]]
    lo_cutter: Optional[int]
    hi_cutter: Optional[int]

    def ends(self) -> tuple:
        """(lo, hi) as homogeneous integer points (w > 0, not reduced), None
        where unbounded: with e = r - p, the point at parameter n/d is
        p + (d*e + n*(b, -a)) / (2d)."""
        a, b, _ = self.line
        (px, py), (rx, ry) = self.p, self.r
        sx, sy = px + rx, py + ry
        out = []
        for t in (self.lo, self.hi):
            if t is None:
                out.append(None)
            else:
                n, d = t
                out.append((d * sx + n * b, d * sy - n * a, 2 * d))
        return tuple(out)


# Words `locate_on_hull` charges: the coordinates of p, of the reference
# site and of the two best candidates.
W_LOCATE = 8


def locate_on_hull(arena: ReadOnlyArena, p_idx: int, ledger: WorkLedger) -> Optional[tuple]:
    """Hull membership of site p by one gift-wrapping pass.

    Returns p's (clockwise, counterclockwise) hull neighbors when p is a
    hull vertex, else None.  Of sites on one ray from p the outermost is
    the candidate neighbor; p strictly between two sites is inside.  At
    most one pass over the arena beyond the reference pick (the lowest
    other index).
    """
    n = len(arena)
    with ledger.scope(W_LOCATE):
        p = arena.read(p_idx)
        q_idx = 0 if p_idx != 0 else 1
        q = arena.read(q_idx)
        cw = ccw = (q, q_idx)
        for j in range(n):
            if j == p_idx or j == q_idx:
                continue
            w = arena.read(j)
            side = exact.orient_ipts(p, q, w)
            if side == 0 and _along(p, q, w) < 0:
                return None
            if side <= 0 and _past(p, cw[0], w, -1):
                cw = (w, j)
            if side >= 0 and _past(p, ccw[0], w, 1):
                ccw = (w, j)
        turn = exact.orient_ipts(p, cw[0], ccw[0])
        if turn < 0 or (turn == 0 and _along(p, cw[0], ccw[0]) < 0):
            return None
        return cw[1], ccw[1]


def _along(p, a, b) -> int:
    """(a - p) . (b - p): negative when p lies strictly between collinear
    a and b."""
    return (a[0] - p[0]) * (b[0] - p[0]) + (a[1] - p[1]) * (b[1] - p[1])


def _past(p, best, w, turn: int) -> bool:
    """Whether w lies past best as seen from p, turning counterclockwise
    (turn 1) or clockwise (-1), or on best's ray from p and farther out."""
    side = exact.orient_ipts(p, best, w)
    if side == 0:
        return _along(p, best, w) > _along(p, best, best)
    return side == turn


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


# The float filter's error bounds (`clip_run`), as multiples of a double's
# unit roundoff eps = 2**-53, and the clip size it must exceed to run.
_DEN_ERR = 8 * 2.0**-53
_END_ERR = 16 * 2.0**-53
_FILTER_MIN = 8


def _margin(n, d, s_den, s_num):
    """An end n/d as doubles, with the filter's margin for a test against it."""
    fn, fd = float(n), float(d)
    return fn, fd, _END_ERR * (abs(fn) * s_den + abs(fd) * s_num)


def clip_run(state, line, p, r, items, want: int, skip, *, seed=None, work) -> bool:
    """Clip an interval on `line`, the bisector of site p and its rival at
    point r, by the bisector of p and each (index, point) of `items`.

    Keeps the part nearer to p than to each cutter (want = -1) or farther
    (want = 1), one sense per call; indices in `skip` are passed over
    before any arithmetic.  state = [t_lo, t_hi, lo_cut, hi_cut, box, fin]:
    each end is a (num, den>0, tied) parameter, or None while unbounded,
    with the index of the site that cut it; tied is set when a different
    site's bisector crosses exactly there (four cocircular sites), and
    `clip_edge` raises on a tied end; box caches the cull below, and fin
    names a final end (1 for lo, -1 for hi).  Returns False once the
    interval is empty.  The number of sites that reach the arithmetic is
    added to `work.site_tests`, and the number looked at to
    `work.site_visits` (the run's arena).

    One exact loop per call, relative to p: with e = r - p and u = w - p,
    the cutter w's bisector crosses the line a*x + b*y = c at
    t = num / (2 den) along (b, -a) from the midpoint of p and r, where
    num = u.(e - u) and den = a*u_y - b*u_x, worked out from w as
    (a*w_y - b*w_x) - (a*p_y - b*p_x) with the second term fixed per call.
    The kept sense is folded into the signs, once per call: for want = 1
    every cutter's num and den are negated.  Then the kept side of a
    cutter with den > 0 lies beyond its crossing, a lower bound, and with
    den < 0 before it, an upper bound at (-num)/(-den); a den of 0 is a
    cutter parallel to the line, which keeps it whole iff num < 0.  The
    stored ends are num/den with den > 0 whatever the sense, so a state
    carries over between calls of either (`pipeline` clips in both senses
    on one state).  The ends leave the kernel as they are, with their
    cutters (`clip_edge`), and a point is built from one only when an edge
    is written (`CellEdge.ends`).

    The certified end (`seed`, an (index, point) pair): the precondition
    is that the seed's bisector with p crosses the line at a vertex of the
    cell being clipped (p's, or an order-k walk's cell of p and its
    closest set), with no other site's bisector through it, and that the
    interval holds the cell's edge on the line.  A walk's entry vertex is
    such a vertex (`TrackedSite.seed`, `pipeline._IntervalWalk`): the
    previous edge ended there, clipped against every site, and would have
    raised had another site's bisector passed through it.  The seed is
    clipped first, counted as one more site looked at and tested, and the
    end it cuts is then final, in this call and in every later call on the
    state: a vertex of the cell satisfies every cutter, so a cutter whose
    folded den puts it on that end's side (den > 0 for a final lo, den < 0
    for a final hi) cannot move it, and is dropped as soon as den is known,
    before the crossing; it counts as tested.  A skipped site is passed
    over before that, and never counts as tested (but see the filter).
    Without the precondition a seeded clip may keep a wrong end or miss a
    tie; without `seed` every cutter is clipped in full.

    The box cull (nearest sense, both ends bounded): the disks centred on
    the line through p form a pencil, all through p and the rival, and w
    lies in the disk centred at x iff x is as near to w as to p.  That
    condition is affine in x, so if it held anywhere on the closed interval
    it would hold at an end: w would lie in one of the two closed end disks.
    A site strictly outside an integer box around both (`_disk_box`, cached
    in state[4], each end's box recomputed only when that end moves)
    therefore neither cuts the interval nor ties an end, and is passed over
    before any arithmetic.  The sites are still tried in order, so the state
    after each is the same as without the cull.  A final end is a vertex of
    the cell, so every site the clip does not skip, but the seed, lies
    strictly outside its disk.  The box is then the moving end's disk box
    alone: built at the start of a call that begins with a final end and a
    bounded moving end, else once that end is bounded, and again each time
    it moves; it is not cached.

    The float filter (farthest sense, when `work` has a `twin`, on clips of
    more than `_FILTER_MIN` sites; its set-up per call costs more than it
    saves on fewer, such as an order-k walk's closest set): farthest clips
    have no cull, so each site is tried first in doubles and reaches the
    integer code above only where a double cannot decide.  The twin is that
    of `work`, the run's arena (`ReadOnlyArena.twin`), so every (j, w) of
    `items` and the seed must be its site j, as at every call in the
    program.  It exists only when every |coordinate| is below 2^50: then the
    coordinates of w, p and r and the differences w - p and w - r are exact
    in doubles, and the only roundings, each of relative error at most
    eps = 2^-53, are those of the operations and of converting da, db, d0
    and the ends; k of them in a row stay within g(k) = k*eps / (1 - k*eps).
    Per call the twin's box gives S_den = |da|*max|y| + |db|*max|x| + |d0|
    >= |den| and S_num = MX*(MX + |e_x|) + MY*(MY + |e_y|) >= |num|, MX and
    MY being the largest |x - p_x| and |y - p_y| over the box.  The double
    fden = da*y - db*x - d0 has at most four roundings in each term, so it
    is within g(4)*S_den < 8eps*S_den of den; fnum = (w - p).(w - r), two
    products and a sum of exact differences, is within g(2)*S_num of num.
    So a cutter with fden*fin > 8eps*S_den is dropped on the final end's
    side, and |fden| > 8eps*S_den fixes den's sign.  For the end n/d that
    this sign makes the cutter bound, with fn and fd the doubles of n and
    d, F = fn*fden - fnum*fd is within about 7eps*|fn|*S_den +
    5eps*|fd|*S_num of the exact n*den - num*d that the integer code
    compares with 0: one rounding of n, g(4) of fden and one of their
    product; one of d, g(2) of fnum and one of their product; one of the
    difference.  If F > m = 16eps*(|fn|*S_den + |fd|*S_num), that exact
    value is positive, the cutter lies strictly behind the end, and it is
    passed over.  The constants 8 and 16 are those bounds doubled, which
    covers the terms in eps^2 and the roundings of S_den, S_num and m; no
    product comes near overflow, as all stay below 2^250.  Each end's m is
    re-derived when that end moves (`_margin`).  Every other cutter (den's
    sign uncertain, den near 0, a possible new end or tie) goes on to the
    integer code, which decides it as it would without the filter; a
    cutter decided in doubles counts as tested, as there.  Its drop on the
    final end's side comes before the `skip` test, which most sites so
    never pay: a skipped site dropped there counts as tested, and none is,
    as the program skips only sites of den 0 in a clip with a final end.
    So the clip leaves the same state and counts.  Nearest clips take no
    filter: the box cull spares them most of the arithmetic.
    """
    a, b, _ = line
    px, py = p
    ex, ey = r[0] - px, r[1] - py
    far = want > 0
    cull = not far
    # The folded den's coefficients: den = da*w_y - db*w_x - d0 = da*u_y - db*u_x.
    da, db = (-a, -b) if far else (a, b)
    d0 = da * py - db * px
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
    # fin is 1 once lo is final, -1 once hi is: a cutter with den * fin > 0
    # lies on the final end's side.
    fin = state[5] or 0
    if cull and fin and (hi_d if fin > 0 else lo_d):
        x0, x1, y0, y1 = _disk_box(ex, ey, a, b, px, py, *((hi_n, hi_d) if fin > 0 else (lo_n, lo_d)))
        boxed = True
    sj = None if seed is None else seed[0]
    filt = far and len(items) > _FILTER_MIN and work.twin is not None
    if filt:
        fpts, (xa, xb, ya, yb) = work.twin
        mux = max(abs(px - xa), abs(xb - px))
        muy = max(abs(py - ya), abs(yb - py))
        s_den = float(abs(da) * max(-ya, yb) + abs(db) * max(-xa, xb) + abs(d0))
        s_num = float(mux * (mux + abs(ex)) + muy * (muy + abs(ey)))
        eden = _DEN_ERR * s_den
        fda, fdb, fd0, fpx, fpy, frx, fry = map(float, (da, db, d0, px, py, *r))
        ffin = float(fin)  # CPython multiplies two floats faster than a float and an int
        flo_n, flo_d, m_lo = _margin(lo_n, lo_d, s_den, s_num)
        fhi_n, fhi_d, m_hi = _margin(hi_n, hi_d, s_den, s_num)
    it = iter(items)
    for j, (wx, wy) in it if seed is None else chain((seed,), it):
        if boxed and (wx < x0 or wx > x1 or wy < y0 or wy > y1):
            passed += 1
            continue
        if filt:
            fx, fy = fpts[j]
            fden = fda * fy - fdb * fx - fd0
            if fden * ffin > eden:
                continue
            if j in skip:
                passed += 1
                continue
            fnum = (fx - fpx) * (fx - frx) + (fy - fpy) * (fy - fry)
            if fden > eden:
                if flo_n * fden - fnum * flo_d > m_lo:
                    continue
            elif fden < -eden and fhi_n * fden - fnum * fhi_d > m_hi:
                continue
        elif j in skip:
            passed += 1
            continue
        den = da * wy - db * wx - d0
        if den * fin > 0:
            continue
        ux = wx - px
        uy = wy - py
        num = ux * (ux - ex) + uy * (uy - ey) if far else ux * (ex - ux) + uy * (ey - uy)
        if den > 0:
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
            if j == sj:
                fin, ffin = 1, 1.0
            if filt:
                flo_n, flo_d, m_lo = _margin(num, den, s_den, s_num)
        elif den < 0:
            # An upper bound at (-num)/(-den), compared without negating.
            x = hi_n * den
            y = num * hi_d
            if x > y:
                continue
            if x == y:
                hi_tie = hi_tie or j != hi_cut
                continue
            hi_n, hi_d, hi_cut, hi_box, hi_tie = -num, -den, j, None, False
            if j == sj:
                fin, ffin = -1, -1.0
            if filt:
                fhi_n, fhi_d, m_hi = _margin(hi_n, hi_d, s_den, s_num)
        elif num < 0:
            continue  # cutter bisector parallel to the line, kept whole
        else:
            alive = False
            break
        if lo_n * hi_d >= hi_n * lo_d:
            alive = False
            break
        if cull and fin:
            # A final end's disk holds no tested site: the moving end's alone bounds the cull.
            end = (hi_n, hi_d) if fin > 0 else (lo_n, lo_d)
            if end[1]:
                x0, x1, y0, y1 = _disk_box(ex, ey, a, b, px, py, *end)
                boxed = True
        elif cull and lo_d and hi_d:
            if lo_box is None:
                lo_box = _disk_box(ex, ey, a, b, px, py, lo_n, lo_d)
            if hi_box is None:
                hi_box = _disk_box(ex, ey, a, b, px, py, hi_n, hi_d)
            boxed = True
            x0 = min(lo_box[0], hi_box[0])
            x1 = max(lo_box[1], hi_box[1])
            y0 = min(lo_box[2], hi_box[2])
            y1 = max(lo_box[3], hi_box[3])
    # The sites after an emptying cutter are not looked at; the seed is.
    looked = len(items) - length_hint(it) + (seed is not None)
    work.site_tests += looked - passed
    work.site_visits += looked
    state[0] = (lo_n, lo_d, lo_tie) if lo_d else None
    state[1] = (hi_n, hi_d, hi_tie) if hi_d else None
    state[2], state[3] = lo_cut, hi_cut
    state[4] = (x0, x1, y0, y1, lo_box, hi_box) if lo_box and hi_box else None
    state[5] = fin or None
    return alive


def clip_edge(site: int, p, rival: int, r, line, state) -> CellEdge:
    """The edge a finished clip leaves on `line`, the bisector of site p and
    rival r: its ends are the clip's end parameters and cutters as they are,
    so it reads nothing (`CellEdge.ends` builds the points).  An end that
    another cutter's bisector crosses too is a vertex of four cocircular
    sites: DegenerateGeometry."""
    lo, hi = state[0], state[1]
    if (lo is not None and lo[2]) or (hi is not None and hi[2]):
        raise DegenerateGeometry(f"edge of site {site} against {rival} has a tied end: cocircular sites")
    return CellEdge(site, rival, line, p, r, lo and lo[:2], hi and hi[:2], state[2], state[3])


def nearest_run(p, items, skip: int, work) -> Optional[int]:
    """The index j of `items`, (index, point) pairs, other than `skip` (p's
    own) that minimises (|w_j - p|^2, j): p's nearest neighbor, the lowest
    index among tied ones, whatever order the sites come in.

    Box cull: a site strictly outside the box of half-width isqrt(d) about
    p, for the best squared distance d so far, is strictly farther than the
    best, so it is passed over before any arithmetic; a tie lies in the
    box or on its edge.  The number of sites that reach the arithmetic is
    added to `work.site_tests`, and the number looked at to
    `work.site_visits` (the run's arena).
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
    work.site_tests += len(items) - passed
    work.site_visits += len(items)
    return bj


class TrackedSite:
    """Walk state for one cell, fed its edges one at a time.

    A walk starts on the bisector of p and its first rival, which always
    holds an edge of the cell: a nearest walk's nearest neighbor, set by
    `tradeoff._SharedEdges.round` with `nearest_run` before the first
    clip, or the site whose walk already clipped an edge of the cell and
    shared it (`tradeoff._SharedEdges`), set with no pass; or a farthest
    walk's hull neighbor, given by `hull_walk`, whose edge must clip to a
    ray.  An edge may come whole instead of clipped, with no pass: taken
    from that table, nearest and farthest alike, or a chained farthest
    walk's first, `handed` on by the walk before, which ended on it
    (`tradeoff._hull_chain`).  The walk leaves the first edge through a
    finite end and steps edge to edge, the site whose bisector cut an end
    carrying the next edge.  When the walk leaves the diagram through an
    unbounded edge it resumes from the first edge's other end; it is done
    when it closes on the first edge or runs out of ends.  Ends are told apart by their
    cutters, never by their points: the entry end of an edge after the
    first is the one cut by the rival of the edge walked into it, so the
    walk builds no point.  `cutter` names the rival whose bisector carries
    the next edge; after the first edge, `seed()` names the site whose
    bisector with p holds that edge's entry vertex, a cutter known before
    any pass.

    A walk cut short knows which edges it walked from O(1) words (`arc`):
    a convex cell's edges come in the angular order of their rivals'
    offsets w - p, nearest and farthest cells alike, so the edges walked on
    each leg are those whose offsets lie in one closed angle from the first
    edge's (`arc_walked`).
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
        "_leg2",
        "entry",
        "_second",
        "_turn",
        "handed",
        "_arc",
    )

    def __init__(self, site_idx: int, p, rival: Optional[int] = None):
        self.site = site_idx
        self.p = p
        self.first_edge: Optional[CellEdge] = None
        self.edges_found = 0
        self.done = False
        self.cutter: Optional[int] = rival  # None until a nearest walk's first rival is set
        self.rival: Optional[int] = None  # rival of the edge being clipped
        self.state = None  # its clip interval [t_lo, t_hi, lo_cut, hi_cut, box, fin]
        self._on_hull = rival is not None  # started on a hull edge, which must be a ray
        self._leg2: Optional[int] = None  # the first edge's other end's cutter, queued for the reverse walk
        self.entry: Optional[CellEdge] = None  # the last edge of this leg (once done, of the walk)
        self._second: Optional[CellEdge] = None  # the edge after the first: leg 1's turning sense
        self._turn: Optional[CellEdge] = None  # the last edge of leg 1, once leg 2 began
        self.handed: Optional[tuple] = None  # the first edge's (line, lo, hi, lo_cutter, hi_cutter), handed on
        self._arc: Optional[tuple] = None  # `arc`, once asked for, until the next `advance`

    def begin_clip(self) -> None:
        self.rival = self.cutter
        self.state = [None] * 6

    def seed(self):
        """(index, point) of the site whose bisector with p holds the entry
        vertex of the edge to clip next, or None before the first edge: the
        rival of the edge walked into that vertex (on leg 2, the first
        edge).  That edge holds its point, so the seed costs no read."""
        if self.entry is None:
            return None
        return self.entry.rival, self.entry.r

    def advance(self, edge: CellEdge) -> None:
        """Digest the edge just found and set up the next one."""
        self.edges_found += 1
        self.state = self._arc = None
        if self.first_edge is None:
            self.first_edge = edge
            self.entry = edge
            cuts = [edge.lo_cutter, edge.hi_cutter]
            if cuts[0] is None:
                cuts.reverse()
            if cuts[0] is None:
                # No other site's bisector crosses it: every site is on one line.
                raise DegenerateGeometry("hull has fewer than 3 vertices: the sites are collinear")
            if self._on_hull and cuts[1] is not None:
                raise DegenerateGeometry(
                    f"edge of hull site {self.site} against hull neighbor {edge.rival} is bounded at both ends"
                )
            # Either end will do: a bounded cell closes on the first edge,
            # and an unbounded one is walked from both ends.
            self.cutter, self._leg2 = cuts
            return
        # Walking: step through the end opposite the entry vertex, which is
        # the end the entry edge's rival cuts.
        back = self.entry.rival
        if edge.lo_cutter == back:
            nxt = edge.hi_cutter
        elif edge.hi_cutter == back:
            nxt = edge.lo_cutter
        else:
            raise AssertionError("walk endpoint not on the next edge")
        if self._second is None:
            self._second = edge
        if nxt is None:
            if self._leg2 is not None:
                self.cutter, self._leg2 = self._leg2, None
                self._turn = edge
                self.entry = self.first_edge
            else:
                self.entry = edge
                self.done = True
            return
        self.entry = edge
        self.cutter = nxt
        if nxt == self.first_edge.rival:
            self.done = True

    def arc(self) -> tuple:
        """The edges walked so far, in 7 words: the rival offsets w - p of
        the first edge, of the last edge reached on leg 1 and of the last
        on leg 2 (the first edge's until leg 2 begins), 2 words each, then
        leg 1's turning sense, +1 counterclockwise, -1 clockwise (+1 while
        the walk has one edge); () before the first edge.  Offsets come
        from the rivals' points the edges hold, so the arc costs no read,
        and it is kept until the next `advance`."""
        if self._arc is None and self.first_edge is not None:
            px, py = self.p

            def offset(edge):
                return edge.r[0] - px, edge.r[1] - py

            first = offset(self.first_edge)
            if self._turn is None:
                last, back = offset(self.entry), first
            else:
                last, back = offset(self._turn), offset(self.entry)
            sense = 1
            if self._second is not None:
                sx, sy = offset(self._second)
                sense = 1 if first[0] * sy - first[1] * sx > 0 else -1
            self._arc = (*first, *last, *back, sense)
        return self._arc or ()


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
    """Whether a walk whose `TrackedSite.arc` is `arc` walked the edge
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
    return TrackedSite(i, arena.read(i), nxt)


def cell_walk(arena: ReadOnlyArena, i: int, mode: DiagramMode, ledger: WorkLedger) -> Optional[TrackedSite]:
    """A fresh walk of site i's cell, or None when i is interior to the hull
    and so has no farthest cell.

    A nearest walk's first rival, its nearest neighbor, is left for the
    first round's `nearest_run` pass; a farthest walk first finds i's hull
    neighbors with `locate_on_hull`.
    """
    if mode is DiagramMode.NEAREST:
        return TrackedSite(i, arena.read(i))
    neighbors = locate_on_hull(arena, i, ledger)
    if neighbors is None:
        return None
    return hull_walk(arena, i, neighbors[0])


def enumerate_cell(
    arena: ReadOnlyArena,
    p_idx: int,
    mode: DiagramMode,
    visit: Callable[[CellEdge], None],
    ledger: WorkLedger,
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
    for _, edge, _ in walk_cells(arena, mode, 1, iter([walk]), ledger):
        visit(edge)


def cell_edges(
    arena: ReadOnlyArena,
    p_idx: int,
    mode: DiagramMode,
    ledger: WorkLedger,
) -> list[CellEdge]:
    out: list[CellEdge] = []
    enumerate_cell(arena, p_idx, mode, out.append, ledger)
    return out


def record_for(arena: ReadOnlyArena, edge: CellEdge, mode: DiagramMode) -> EdgeRecord:
    """The record of a diagram edge; a farthest one holds its closest set,
    every index but its pair, as `AllBut`: three integers at any n."""
    n = len(arena)
    a, b = edge.site, edge.rival
    if mode is DiagramMode.NEAREST:
        k, closest = 1, ()
    else:
        k, closest = n - 1, AllBut(n, a, b) if a < b else AllBut(n, b, a)
    lo, hi = edge.ends()
    return undirected_record(k, closest, (a, b), edge.line, lo, hi, edge.lo_cutter, edge.hi_cutter, arena.scale)


def enumerate_diagram(
    arena: ReadOnlyArena,
    mode: DiagramMode,
    sink: OutputSink,
    ledger: WorkLedger,
) -> None:
    """Emit every diagram edge exactly once using O(1) workspace words: the
    s-workspace construction with one slot."""
    from .tradeoff import run_tradeoff  # tradeoff imports this module

    run_tradeoff(arena, mode, 1, sink, ledger)
