"""Order-k diagram family under the workspace model, order by order.

Each diagram order is produced from the previous one: a directed half-edge
of order k whose head vertex lies on its surrounding (k+1)-cell boundary
("relevant") owns the run of boundary half-edges counterclockwise up to
the next such vertex, and walking those runs for every relevant half-edge
yields each (k+1)-half-edge exactly once.  Unbounded cells cannot be
finished by counterclockwise walks; they are "big", found by a sweep of
directions at infinity (the k-sets of the input, after Lee 1982), and an
edge between two big cells comes instead from clipping the bisector of the
two sites in which the cells differ against the whole input.  Every other
cell is walked to its end, by one walk per interval that steps in place
from head to head, so a step reads only its head's extra site, and finds
that head with the clip kernel of the order-1 walks (`scan.clip_run`),
two calls on one state.  A half-edge names both of its cells by their
site sets, closest | {pair[0]} on its left and closest | {pair[1]} on
its right, so a cell is tested against the table of unbounded cells
without reading a site.

Producers for orders 1..K are generators, each reading the one below it
directly and run cooperatively: pulling a half-edge resumes the upstream
producer only until it yields one, so a paused producer holds no more
than the round it is in.  Order k is written to the output as its
producer yields it, so the stream is grouped by nondecreasing order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from . import exact
from .geometry import DegenerateGeometry
from .memory import OutputSink, ReadOnlyArena, WorkLedger
from .records import EdgeRecord, directed_record
from .scan import CellEdge, DiagramMode, clip_edge, clip_run
from .tradeoff import (
    W_BATCH_SITE,
    W_FIXED,
    drive,
    iter_big_big,
    iter_diagram,
    iter_small_incident,
)


class ConfigError(Exception):
    """The requested order range does not fit the workspace budget."""


@dataclass(frozen=True, slots=True)
class HalfEdge:
    """Directed half-edge of an order-k diagram, encoded by k+3 sites.

    The k-1 sites closest to the edge, the tied pair (ordered so the cell
    of ``closest | {pair[0]}`` lies left of the direction), and one extra
    site per bounded endpoint naming the vertex's third defining site.
    Geometry (direction, endpoints) is derived data kept alongside.
    """

    k: int
    closest: frozenset
    pair: tuple[int, int]
    direction: tuple[int, int]
    tail: Optional[tuple[int, int, int]]
    head: Optional[tuple[int, int, int]]
    tail_extra: Optional[int]
    head_extra: Optional[int]

    def right_cell(self) -> frozenset:
        return self.closest | {self.pair[1]}

    def opposite(self) -> "HalfEdge":
        (a, b), (dx, dy) = self.pair, self.direction
        return HalfEdge(self.k, self.closest, (b, a), (-dx, -dy), self.head, self.tail, self.head_extra, self.tail_extra)

    def to_record(self, scale: int) -> EdgeRecord:
        ends = (self.tail, self.head, self.tail_extra, self.head_extra)
        return directed_record(self.k, tuple(sorted(self.closest)), self.pair, self.direction, *ends, scale)


def is_relevant(e: HalfEdge) -> bool:
    """True when the head is a new vertex, one whose third site is not
    among the closest set, and so lies on the surrounding higher-order cell
    boundary; an unbounded head never is."""
    return e.head is not None and e.head_extra not in e.closest


def _halfedges_of_cell_edge(k: int, closest: frozenset, edge: CellEdge) -> list:
    """Both directed half-edges of one undirected order-k edge, the one
    along its carrier's direction first.  The edge holds its site's point
    and its rival's, so nothing is read."""
    line = edge.line
    d = exact.line_dir(line)
    lo, hi = edge.ends()
    (px, py), (rx, ry) = edge.p, edge.r
    pair = (edge.site, edge.rival) if exact.cross_dir(d, (px - rx, py - ry)) > 0 else (edge.rival, edge.site)
    he = HalfEdge(k, closest, pair, d, lo, hi, edge.lo_cutter, edge.hi_cutter)
    return [he, he.opposite()]


def order1_halfedges(
    arena: ReadOnlyArena,
    s1: int,
    table: Optional[dict],
    ledger: WorkLedger,
    found: Optional[list] = None,
) -> Iterator[HalfEdge]:
    """All 1-half-edges, each undirected edge reported as two directions.

    Without a table, every cell is walked once (`tradeoff.iter_diagram`),
    which appends the big-cell table it finds to `found`; with a table of
    indices known, only its small cells are walked, which costs less, and
    its big-big edges are clipped.
    """
    nearest = DiagramMode.NEAREST
    if table is None:
        edges = iter_diagram(arena, nearest, s1, ledger, found)
    else:
        edges = itertools.chain(
            iter_small_incident(arena, nearest, s1, table, ledger),
            iter_big_big(arena, nearest, s1, table, ledger),
        )
    for edge in edges:
        yield from _halfedges_of_cell_edge(1, frozenset(), edge)


def _leaving(xp, yp, op, closer: bool) -> tuple[int, int]:
    """The direction of the bisector of sites x and y, away from their
    vertex with site o, in which o gets closer than x and y (`closer`) or
    farther; the three sites are not collinear."""
    d = exact.primitive_dir(yp[1] - xp[1], xp[0] - yp[0])
    # Sign of d/dt [d^2(., o) - d^2(., x)] along d is that of <d, x - o>.
    g = d[0] * (xp[0] - op[0]) + d[1] * (xp[1] - op[1])
    return d if (g < 0) == closer else (-d[0], -d[1])


class _IntervalWalk:
    """One boundary walk of the cell closest | {pair[0]}, stepped in place:
    the pending edge awaiting its head."""

    __slots__ = ("closest", "pair", "pair_pts", "carrier", "direction", "seed", "steps", "state", "_head")

    def __init__(self, closest, pair, pair_pts, carrier, direction, seed):
        self.closest = closest
        self.steps = 0
        self._head = None  # (point, bisector with pair[0]) of the last head materialized
        self._start(pair, pair_pts, carrier, direction, seed)

    def _start(self, pair, pair_pts, carrier, direction, seed) -> None:
        """Set up the edge of `pair` on `carrier` that leaves its tail in
        `direction`: the carrier is oriented so that its (b, -a) points
        that way, so the tail is the clip's lo end and the head its hi end.
        The seed, the tail extra's (index, point), names the tail."""
        a, b, c = carrier
        self.pair = pair
        self.pair_pts = pair_pts
        self.carrier = (-a, -b, -c) if direction[0] * b - direction[1] * a < 0 else carrier
        self.direction = direction
        self.seed = seed
        self.state = None

    def words(self) -> int:
        """Words held, one per integer once every slot is set: the closest
        set; pair 2, pair points 4, carrier 3, direction 2, seed (index and
        point) 3, step count 1; the clip state 9, two ends of 3, their
        cutters and the final end (its box slot stays empty: the span's
        clip always has a final end, whose box `clip_run` builds per call);
        the head's point and bisector 5."""
        return len(self.closest) + 29

    def clip(self, span, work) -> None:
        """Find the pending edge's head, the first crossing of the carrier
        ahead of the tail by a bisector of q = pair[0]: two `clip_run`
        calls on one state, the closest set in the farthest sense (each
        must stay nearer than q) and then `span`, the whole input, in the
        nearest sense with the closest set and the pair skipped.

        The tail is a vertex of the cell closest | {q}, certified when the
        edge before was clipped, so the seed goes to the call of its sense:
        the first, at an interval's first step, where the tail extra is in
        the closest set (and is left out of that call's sites, as the
        kernel clips the seed first); the second after `advance`.  That
        call holds the tail's end final from the seed on.  The closest set
        goes first, so when it bounds the head (an old vertex) the box cull
        of the span is live from the span's first site.  A site collinear
        with the pair is a cutter parallel to the carrier, which never meets
        it and is passed over.  An interval that a step empties is
        DegenerateGeometry.
        """
        (q, r), line, closest, (t, _) = self.pair_pts, self.carrier, self.closest, self.seed
        inner = self.seed if t in closest else None
        outer = None if inner else self.seed
        state = self.state = [None] * 6
        if not (
            clip_run(state, line, q, r, [span[j] for j in closest if j != t], 1, (), seed=inner, work=work)
            and clip_run(state, line, q, r, span, -1, closest.union(self.pair), seed=outer, work=work)
        ):
            raise DegenerateGeometry(f"edge of pair {self.pair} emptied at its tail: cocircular or collinear sites")

    def materialize(self, k_out: int, pts: Callable[[int], tuple[int, int]]) -> HalfEdge:
        """The pending edge, from its tail to the head the clip left: the
        state's lo end, cut by the seed, and its hi end, cut by the head
        extra, which is read; None where unbounded."""
        hi = self.state[1]
        if hi is not None and hi[2]:
            raise DegenerateGeometry(f"cocircular sites at the successor crossing of pair {self.pair}")
        (p, q), (pp, qp) = self.pair, self.pair_pts
        edge = clip_edge(p, pp, q, qp, self.carrier, self.state)
        tail, head = edge.ends()
        if head is not None:
            z = pts(edge.hi_cutter)
            self._head = (z, exact.bisector_line(pp, z))
        return HalfEdge(k_out, self.closest, self.pair, self.direction, tail, head, edge.lo_cutter, edge.hi_cutter)

    def advance(self, f: HalfEdge) -> None:
        """Step past f, the edge just materialized, whose head is a new
        vertex (`is_relevant(f)`).  With (p, q) = f.pair and z = f's head
        extra, the cell's next edge has pair (p, z), lies on the bisector
        `materialize` built, and leaves the vertex in the direction in which
        q gets farther; q is its tail extra."""
        (p, q), (pp, qp) = self.pair, self.pair_pts
        zp, line = self._head
        self._start((p, f.head_extra), (pp, zp), line, _leaving(pp, zp, qp, False), (q, qp))


def _trim_round(arena: ReadOnlyArena, walks: list[_IntervalWalk]) -> None:
    """One pass over the input serving every pending walk's head search:
    the input is read once, as one span, and each walk clips against it."""
    span = arena.read_span(0, len(arena))
    for walk in walks:
        walk.clip(span, arena)


def _relevant_walks(arena: ReadOnlyArena, source: Iterator, table: dict) -> Iterator[_IntervalWalk]:
    """A walk from every relevant lower-order half-edge e of `source`.

    With (p, q) = e.pair and z = e.head_extra, e's head is an old vertex of
    the walk's cell, closest | {p, q}, and the first edge of the interval e
    owns has pair (q, z), closest e.closest | {p} and tail extra p, and
    leaves the vertex in the direction in which p gets closer.  Old and
    unbounded heads own no interval; cells in `table` are passed over
    without a read.
    """
    for e in source:
        p, q = e.pair
        if is_relevant(e) and e.closest | {p, q} not in table:
            qp = arena.read(q)
            pp = arena.read(p)
            zp = arena.read(e.head_extra)
            line = exact.bisector_line(qp, zp)
            yield _IntervalWalk(e.closest | {p}, (q, e.head_extra), (qp, zp), line, _leaving(qp, zp, pp, True), (p, pp))


def _walk_rounds(arena: ReadOnlyArena, k_out: int, s1: int, source, ledger):
    """Every half-edge the interval walks produce, up to s1 walks at once,
    each charged its `words()` while live; each walk steps in place to its
    end, an old or unbounded head."""
    # A pass is a view of the input, charged as s1 * (k_out - 1) sites.
    pass_words = s1 * max(1, k_out - 1) * W_BATCH_SITE
    guard = 4 * (k_out + 1) * (len(arena) + 4)

    def step(walks):
        still = []
        with ledger.scope(sum(w.words() for w in walks)):
            with ledger.scope(pass_words):
                _trim_round(arena, walks)
            for w in walks:
                f = w.materialize(k_out, arena.read)
                yield f
                w.steps += 1
                if not is_relevant(f):
                    continue
                if w.steps > guard:
                    raise AssertionError("boundary walk failed to terminate")
                w.advance(f)
                still.append(w)
        return still

    return drive(source, s1, step)


def unbounded_cells(arena: ReadOnlyArena, k_out: int) -> Iterator[tuple[tuple[int, int], frozenset]]:
    """(sum, sites) of each unbounded order-k_out cell, once each, in
    counterclockwise order at infinity; sum is the pair of coordinate sums
    of the cell's sites, its center of gravity with the denominator
    cleared.

    Far out in direction d the k_out nearest sites are the k_out greatest
    in d (Lee, "On k-nearest neighbor Voronoi diagrams in the plane", IEEE
    TC 1982), so the unbounded cells are the sets S met as d turns once
    around.  The sweep starts at d = (1, eps) with the k_out sites
    greatest in (x, y) order.  Each step reads the input as one span and
    takes, over the pairs s in S, t not in S, the event direction
    (v_y, -v_x), v = t - s, where t overtakes s, that comes first
    counterclockwise strictly after the current direction; then it swaps
    s for t.  Angles are compared exactly, by half-plane and cross
    product, in (0, 2 pi] from (1, 0), and the sweep ends when S is back
    at its start.  Two pairs tied for the next event put three sites on
    one line: DegenerateGeometry.  The sweep holds S and O(1) more words.

    The sum is kept up to date by each swap and serves only as the stop
    test and as `find_big_cells_k`'s sort order: distinct cells of one
    order have distinct centers of gravity, so it names the cell exactly.
    """
    n = len(arena)
    span = arena.read_span(0, n)
    arena.site_tests += n
    arena.site_visits += n
    members: dict = {}  # S: index -> point
    for j, pt in span:
        if len(members) < k_out:
            members[j] = pt
        else:
            low = min(members, key=members.get)
            if pt > members[low]:
                del members[low]
                members[j] = pt
    total = start = (sum(x for x, _ in members.values()), sum(y for _, y in members.values()))
    # The current direction (cx, cy) and its half: 0 for angles in (0, pi],
    # 1 for (pi, 2 pi]; half -1 is angle 0, before every event.
    cx, cy, chalf = 1, 0, -1
    while True:
        yield total, frozenset(members)
        span = arena.read_span(0, n)
        arena.site_tests += n - len(members)
        arena.site_visits += n
        bx = by = 0
        bhalf = 2  # after every event
        best = None  # (s, t, t's point)
        tied = False
        for t, tp in span:
            if t in members:
                continue
            tx, ty = tp
            for s, (sx, sy) in members.items():
                ex = ty - sy
                ey = sx - tx
                half = ey < 0 or (ey == 0 and ex > 0)
                if half < chalf or (half == chalf and cx * ey - cy * ex <= 0):
                    continue  # not after the current direction
                if half > bhalf:
                    continue
                if half == bhalf:
                    order = bx * ey - by * ex
                    if order >= 0:
                        tied = tied or order == 0
                        continue
                bx, by, bhalf, best = ex, ey, half, (s, t, tp)
                tied = False
        if best is None:  # S holds every site
            return
        if tied:
            raise DegenerateGeometry("collinear sites at an unbounded order-k edge")
        cx, cy, chalf = bx, by, bhalf
        s, t, tp = best
        sp = members.pop(s)
        members[t] = tp
        total = (total[0] - sp[0] + tp[0], total[1] - sp[1] + tp[1])
        if total == start:
            return


def find_big_cells_k(arena: ReadOnlyArena, k_out: int, ledger: WorkLedger) -> dict:
    """The table of the big order-k_out cells: exactly the unbounded ones,
    from the sweep at infinity (`unbounded_cells`), which is charged its
    k_out sites and O(1) words; the table, the cells' site sets in the
    order of their coordinate sums, is not charged."""
    with ledger.scope(k_out * W_BATCH_SITE + W_FIXED):
        return dict.fromkeys(cell for _, cell in sorted(unbounded_cells(arena, k_out)))


def iter_order_edges(
    arena: ReadOnlyArena,
    k_out: int,
    s1: int,
    source: Iterator[HalfEdge],
    table: dict,
    ledger: WorkLedger,
) -> Iterator[HalfEdge]:
    """Every order-k_out half-edge exactly once, given the order k_out - 1
    half-edges and the table of the unbounded order-k_out cells
    (`find_big_cells_k`).

    Every bounded cell is walked: each walk outside the table runs to its
    end, and each walked half-edge is reported, plus its opposite when the
    cell to its right is in the table.  Edges between two unbounded cells
    come from clipping each candidate pair's bisector against the whole
    input (`_iter_big_big_edges`).
    """
    walks = _relevant_walks(arena, source, table)
    for f in _walk_rounds(arena, k_out, s1, walks, ledger):
        yield f
        if f.head is None:
            raise AssertionError("small cells are bounded; unbounded walk edge")
        if f.right_cell() in table:
            yield f.opposite()

    yield from _iter_big_big_edges(arena, k_out, table, max(1, s1 * max(1, k_out - 1) // 2), ledger)


def _iter_big_big_edges(
    arena: ReadOnlyArena,
    k_out: int,
    table: dict,
    chunk: int,
    ledger: WorkLedger,
) -> Iterator[HalfEdge]:
    """Both directions of every edge shared by two big cells.

    Two cells can only share an edge when their site sets differ in one
    site; for each such candidate pair the edge is the interval of the
    differing sites' bisector where the common sites are strictly closer
    and every other site strictly farther: two clips of one state, the
    input in the nearest sense with the common sites passed over, then the
    common sites in the farthest (`clip_run`).  O(1) words per candidate,
    no in-workspace diagram: `chunk` candidates, generated as they are
    needed, share each pass, which reads the input as one span.
    """
    candidates = _big_big_candidates(table, k_out)
    while group := list(itertools.islice(candidates, chunk)):
        with ledger.scope(len(group) * (k_out + 14) + W_FIXED):
            states = []
            for common, a, b in group:
                a_pt, b_pt = arena.read(a), arena.read(b)
                line = exact.bisector_line(a_pt, b_pt)
                states.append((common, a, b, a_pt, b_pt, line, [None] * 6))
            span = arena.read_span(0, len(arena))
            for common, a, b, a_pt, b_pt, line, state in states:
                # Nearer to a than every other site, farther than the common ones.
                if clip_run(state, line, a_pt, b_pt, span, -1, common | {a, b}, work=arena) and clip_run(
                    state, line, a_pt, b_pt, [span[j] for j in common], 1, (), work=arena
                ):
                    edge = clip_edge(a, a_pt, b, b_pt, line, state)
                    yield from _halfedges_of_cell_edge(k_out, common, edge)


def _big_big_candidates(table: dict, k_out: int) -> Iterator[tuple[frozenset, int, int]]:
    """(common sites, a, b) for each pair of cells, in table order, whose
    site sets differ in one site each: a in the first, b in the second."""
    for ci, cj in itertools.combinations(table, 2):
        common = ci & cj
        if len(common) == k_out - 1:
            (a,) = ci - common
            (b,) = cj - common
            yield common, a, b


@dataclass(frozen=True)
class PipelineConfig:
    """Orders 1..K with an s-word workspace; K^2 must fit inside s."""

    K: int
    s: int

    def __post_init__(self):
        if self.K < 1:
            raise ConfigError("max order must be at least 1")
        if self.K * self.K > self.s:
            raise ConfigError(f"order range K={self.K} needs workspace >= K^2 = {self.K * self.K}, got {self.s}")

    @property
    def s_prime(self) -> int:
        return max(1, self.s // (self.K * self.K))


def pipeline_run(
    arena: ReadOnlyArena,
    config: PipelineConfig,
    sink: OutputSink,
    ledger: WorkLedger,
) -> None:
    """Emit all half-edges of orders 1..K, grouped by nondecreasing order.

    Stage k runs the producers for orders 1..k, each a generator reading
    the one below it, and writes the order-k half-edges to the sink as
    they are yielded; each half-edge is written exactly once, in its
    stage.  Stage 1 walks every order-1 cell once and so finds the order-1
    big cells as it goes; stages 2..K hold their indices, charged to the
    ledger, and walk only the small cells.  Stage k >= 2 first finds the
    unbounded order-k cells by the sweep at infinity, and later stages
    keep that table.  Orders n and above have no edges, so the stages stop
    at order n - 1; s' stays that of K.
    """
    s1 = config.s_prime
    top = min(config.K, len(arena) - 1)
    scale = arena.scale
    # A paused order-1 producer holds at most the round it is in, s1
    # half-edges of 5 words each; a paused order-k producer, k >= 2, holds
    # its walks, which `_walk_rounds` charges, and the half-edge it yielded,
    # k + 4 words.
    paused_words = s1 * 5 + sum(k + 4 for k in range(2, top + 1)) + W_FIXED
    with ledger.scope(paused_words):
        found: list[dict] = []
        tables: dict = {1: None}

        def run_stage(stage: int) -> None:
            stream = order1_halfedges(arena, s1, tables[1], ledger, found)
            for k_out in range(2, stage + 1):
                stream = iter_order_edges(arena, k_out, s1, stream, tables[k_out], ledger)
            for he in stream:
                sink.emit(he.to_record(scale))

        run_stage(1)
        tables[1] = dict.fromkeys(found[0], ())
        with ledger.scope(len(tables[1])):  # the big sites' indices
            for stage in range(2, top + 1):
                tables[stage] = find_big_cells_k(arena, stage, ledger)
                run_stage(stage)
