"""Order-k diagram family under the workspace model, order by order.

Each diagram order is produced from the previous one: a directed half-edge
of order k whose head vertex lies on its surrounding (k+1)-cell boundary
("relevant") owns the run of boundary half-edges counterclockwise up to
the next such vertex, and walking those runs for every relevant half-edge
yields each (k+1)-half-edge exactly once.  Cells whose walks could not
finish within the slot budget, and every unbounded cell, are "big": an
edge between two big cells comes instead from clipping the bisector of
the two sites in which the cells differ against the whole input.

Producers for orders 1..K are chained through bounded buffers and run
cooperatively: pulling from a buffer below its low-water mark resumes the
upstream producer until the buffer is comfortable again.  Order k is
written to the output exactly when its buffer first receives it, so the
stream is grouped by nondecreasing order.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from . import exact
from .geometry import DegenerateGeometry
from .memory import OutputSink, ReadOnlyArena, WorkLedger, scope
from .records import EdgeRecord, directed_record
from .scan import CellEdge, DiagramMode, _disk_box, clip_edge, clip_run
from .tradeoff import (
    BigCellTable,
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
    Geometry (carrier line, endpoints) is derived data kept alongside.
    """

    k: int
    closest: frozenset
    pair: tuple[int, int]
    carrier: tuple[int, int, int]
    direction: tuple[int, int]
    tail: Optional[tuple[int, int, int]]
    head: Optional[tuple[int, int, int]]
    tail_extra: Optional[int]
    head_extra: Optional[int]

    def left_cell(self) -> frozenset:
        return self.closest | {self.pair[0]}

    def right_cell(self) -> frozenset:
        return self.closest | {self.pair[1]}

    def opposite(self) -> "HalfEdge":
        return HalfEdge(
            self.k,
            self.closest,
            (self.pair[1], self.pair[0]),
            self.carrier,
            (-self.direction[0], -self.direction[1]),
            self.head,
            self.tail,
            self.head_extra,
            self.tail_extra,
        )

    def to_record(self, scale: int) -> EdgeRecord:
        return directed_record(
            self.k,
            tuple(sorted(self.closest)),
            self.pair,
            self.direction,
            self.tail,
            self.head,
            self.tail_extra,
            self.head_extra,
            scale,
        )

    def key(self):
        return (
            self.k,
            self.closest,
            self.pair,
            self.tail,
            self.head,
            self.tail_extra,
            self.head_extra,
        )


def classify_head(e: HalfEdge) -> str:
    """'old' when the head vertex's third site is among the closest set."""
    if e.head is None:
        raise ValueError("unbounded head has no vertex to classify")
    return "old" if e.head_extra in e.closest else "new"


def is_relevant(e: HalfEdge) -> bool:
    """True when the head vertex lies on the surrounding higher-order cell
    boundary, i.e. the head is a new vertex; unbounded heads never are."""
    if e.head is None:
        return False
    return classify_head(e) == "new"


def cog_key(cell: frozenset, pts: Callable[[int], tuple[int, int]]) -> tuple[int, int]:
    """Center of gravity of the cell's defining sites, denominator cleared.

    Centers are pairwise distinct across cells of one order, so the pair of
    coordinate sums identifies the cell exactly.
    """
    sx = sy = 0
    for i in cell:
        p = pts(i)
        sx += p[0]
        sy += p[1]
    return (sx, sy)


class BigCellTableK:
    """Sorted center-of-gravity keys (and site sets) of the big cells."""

    def __init__(self, entries: dict):
        self.keys = sorted(entries)
        self.cells = [entries[k] for k in self.keys]

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key) -> bool:
        pos = bisect_left(self.keys, key)
        return pos < len(self.keys) and self.keys[pos] == key


class EdgeBuffer:
    """Bounded half-edge queue between consecutive order producers.

    Pulling below the low-water mark resumes the upstream producer until
    the buffer holds its cap again (or the producer is exhausted); the
    size therefore stays between low and cap while upstream has output.
    An on_insert hook sees every half-edge exactly once, on first entry.
    """

    def __init__(self, producer: Iterator[HalfEdge], low: int, cap: int, on_insert=None):
        if not 1 <= low <= cap:
            raise ValueError("buffer bounds must satisfy 1 <= low <= cap")
        self.low = low
        self.cap = cap
        self._producer = producer
        self._q: deque = deque()
        self._exhausted = False
        self._on_insert = on_insert
        self.max_seen = 0

    def _refill(self) -> None:
        while len(self._q) < self.cap and not self._exhausted:
            try:
                he = next(self._producer)
            except StopIteration:
                self._exhausted = True
                return
            if self._on_insert is not None:
                self._on_insert(he)
            self._q.append(he)
            if len(self._q) > self.max_seen:
                self.max_seen = len(self._q)

    def pull(self) -> Optional[HalfEdge]:
        if len(self._q) < self.low:
            self._refill()
        if self._q:
            return self._q.popleft()
        return None

    def drain(self) -> None:
        while self.pull() is not None:
            pass


def _halfedges_of_cell_edge(k: int, closest: frozenset, edge: CellEdge, site_pt, rival_pt) -> list[HalfEdge]:
    """Both directed half-edges of one undirected order-k edge."""
    line = edge.piece.carrier.line
    d0 = exact.line_dir(line)
    out = []
    for d in (d0, (-d0[0], -d0[1])):
        towards_site = exact.cross_dir(d, (site_pt[0] - rival_pt[0], site_pt[1] - rival_pt[1]))
        pair = (edge.site, edge.rival) if towards_site > 0 else (edge.rival, edge.site)
        if d == d0:
            tail, head, te, he_ = edge.piece.lo, edge.piece.hi, edge.lo_cutter, edge.hi_cutter
        else:
            tail, head, te, he_ = edge.piece.hi, edge.piece.lo, edge.hi_cutter, edge.lo_cutter
        out.append(HalfEdge(k, closest, pair, line, d, tail, head, te, he_))
    return out


def order1_halfedges(
    arena: ReadOnlyArena,
    s1: int,
    table: Optional[BigCellTable],
    ledger: Optional[WorkLedger] = None,
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
        sp = arena.read(edge.site).ipt
        rp = arena.read(edge.rival).ipt
        yield from _halfedges_of_cell_edge(1, frozenset(), edge, sp, rp)


def _outgoing(pts3: dict, vertex_old: bool, base: frozenset, cell: frozenset):
    """The unique boundary half-edge of `cell` leaving a degree-3 vertex.

    pts3 maps the vertex's three defining site indices to coordinates.
    At an old vertex of the higher order the three local edges run toward
    the side where the omitted site becomes closer; at a new vertex toward
    where it becomes farther.  Returns (pair, closest, carrier, direction,
    tail_extra) for the one candidate whose left cell is `cell`.
    """
    idxs = sorted(pts3)
    found = None
    for zi in range(3):
        z = idxs[zi]
        x, y = (i for i in idxs if i != z)
        closest = (base | {z}) if vertex_old else base
        px, py, pz = pts3[x], pts3[y], pts3[z]
        # A direction of the bisector of x and y; its sign does not matter,
        # since flipping d0 flips g below and d with it.
        d0 = exact.primitive_dir(py[1] - px[1], px[0] - py[0])
        # Sign of d/dt [d^2(.,z) - d^2(.,x)] along d0 is 2*<d0, x-z>.
        g = d0[0] * (px[0] - pz[0]) + d0[1] * (px[1] - pz[1])
        if g == 0:
            raise AssertionError("degenerate vertex neighborhood")
        want_closer = vertex_old
        if (g < 0) == want_closer:
            d = d0
        else:
            d = (-d0[0], -d0[1])
        towards_x = exact.cross_dir(d, (px[0] - py[0], px[1] - py[1]))
        left, right = (x, y) if towards_x > 0 else (y, x)
        if closest | {left} == cell:
            assert found is None, "two outgoing boundary edges at one vertex"
            found = ((left, right), closest, d, z)
    assert found is not None, "no outgoing boundary edge at vertex"
    pair, closest, d, z = found
    return pair, closest, exact.bisector_line(pts3[pair[0]], pts3[pair[1]]), d, z


class _IntervalWalk:
    """State of one boundary walk: the pending edge awaiting its head."""

    __slots__ = (
        "cell",
        "closest",
        "pair",
        "pair_pts",
        "carrier",
        "direction",
        "tail",
        "tail_extra",
        "best",
        "tied",
        "steps",
        "_kernel",
        "_box",
    )

    def __init__(self, cell, closest, pair, pair_pts, carrier, direction, tail, tail_extra):
        self.cell = cell
        self.closest = closest
        self.pair = pair
        self.pair_pts = pair_pts
        self.carrier = carrier
        self.direction = direction
        self.tail = tail
        self.tail_extra = tail_extra
        self.best = None  # (tau_num, tau_den, site), tau on the kernel's scale
        self.tied = False  # another site crosses exactly at best
        self.steps = 0
        # What consider_batch needs of the walk, computed once.  With the
        # carrier a*x + b*y = c, sigma folded into (a, b) so that (b, -a) is
        # a positive multiple of the direction, and e = r - q for
        # (q, r) = pair_pts, a point x of the carrier lies at parameter
        # 2(x - q).(b, -a) / (a^2 + b^2) on the kernel's scale.
        a, b, _ = carrier
        qx, qy = pair_pts[0]
        if direction[0] * b - direction[1] * a < 0:
            a, b = -a, -b
        ex = pair_pts[1][0] - qx
        ey = pair_pts[1][1] - qy
        tail_tau = tail_box = None
        if tail is not None:
            tx, ty, tw = tail
            tail_tau = (2 * (b * (tx - qx * tw) - a * (ty - qy * tw)), tw * (a * a + b * b))
            tail_box = _disk_box(ex, ey, a, b, qx, qy, *tail_tau)
        self._kernel = (a, b, ex, ey, qx, qy, (*pair, tail_extra), tail_tau, tail_box)
        self._box = None  # cull bounds (x0, x1, y0, y1), once best is set

    def consider_batch(self, batch, work=None) -> None:
        """Keep in `best` the site whose bisector with pair[0] crosses the
        carrier first ahead of the tail, over `best` and `batch`; set
        `tied` when another site crosses exactly at the final best.  The
        number of sites that reach the arithmetic is added to
        `work.site_tests`, and the number looked at to `work.site_visits`
        (the run's arena), if given.

        The crossing is computed relative to q = pair[0], as in
        `scan.clip_run`: with u = w - q and e = pair_pts[1] - q, w's
        bisector crosses at tau = num/den, num = u.(e - u) and
        den = a*u_y - b*u_x, twice its distance along the walk's direction
        from the midpoint of the pair, in units of |(a, b)| (sigma is
        folded into (a, b)).  A den of 0 is a bisector parallel to the
        carrier: DegenerateGeometry.

        Box cull, once a best is known: only a crossing in (tail, best]
        matters, and w's bisector with q meets the closed segment from the
        tail to the best only if w lies in the closed disk through q centred
        at one of them (the disks centred on the carrier through q form a
        pencil; see `scan.clip_run`).  A site strictly outside a box around
        both disks is passed over; a tied site lies on the best disk's
        boundary, so it is never culled.  The collinear check comes first,
        so the cull changes no outcome.
        """
        a, b, ex, ey, qx, qy, skip, tail, tail_box = self._kernel
        best = self.best
        tied = self.tied
        box = self._box
        boxed = box is not None
        x0, x1, y0, y1 = box or (None,) * 4
        passed = 0  # sites skipped or culled
        for j, (wx, wy) in batch:
            if j in skip:
                passed += 1
                continue
            ux = wx - qx
            uy = wy - qy
            den = a * uy - b * ux
            if den == 0:
                raise DegenerateGeometry("collinear sites at successor crossing")
            if boxed and (wx < x0 or wx > x1 or wy < y0 or wy > y1):
                passed += 1
                continue
            num = ux * (ex - ux) + uy * (ey - uy)
            if den < 0:
                num, den = -num, -den
            if tail is not None and num * tail[1] <= tail[0] * den:
                continue
            if best is not None:
                order = num * best[1] - best[0] * den
                if order >= 0:
                    tied = tied or order == 0
                    continue
            best = (num, den, j)
            tied = False
            if tail_box is not None:
                bx0, bx1, by0, by1 = _disk_box(ex, ey, a, b, qx, qy, num, den)
                x0 = min(tail_box[0], bx0)
                x1 = max(tail_box[1], bx1)
                y0 = min(tail_box[2], by0)
                y1 = max(tail_box[3], by1)
                boxed = True
        if work is not None:
            work.site_tests += len(batch) - passed
            work.site_visits += len(batch)
        self.best = best
        self.tied = tied
        self._box = (x0, x1, y0, y1) if boxed else None

    def materialize(self, k_out: int, pts: Callable[[int], tuple[int, int]]) -> HalfEdge:
        if self.tied:
            raise DegenerateGeometry(f"cocircular sites at the successor crossing of pair {self.pair}")
        head = head_extra = None
        if self.best is not None:
            head_extra = self.best[2]
            head = exact.line_intersection(
                self.carrier, exact.bisector_line(self.pair_pts[0], pts(head_extra))
            )
        return HalfEdge(
            k_out,
            self.closest,
            self.pair,
            self.carrier,
            self.direction,
            self.tail,
            head,
            self.tail_extra,
            head_extra,
        )


def _walk_from_relevant(arena: ReadOnlyArena, e: HalfEdge) -> _IntervalWalk:
    """First pending boundary edge of the interval a relevant edge owns."""
    cell = e.closest | set(e.pair)
    pts3 = {i: arena.read(i).ipt for i in (*e.pair, e.head_extra)}
    pair, closest, line, d, z = _outgoing(pts3, True, e.closest, cell)
    pair_pts = (pts3[pair[0]], pts3[pair[1]])
    return _IntervalWalk(frozenset(cell), frozenset(closest), pair, pair_pts, line, d, e.head, z)


def _walk_step(arena: ReadOnlyArena, f: HalfEdge) -> _IntervalWalk:
    """Pending successor of f along its left cell's boundary.

    Works through either vertex class; interval walks stop at old heads
    themselves, but the successor remains well-defined there.
    """
    cell = f.left_cell()
    pts3 = {i: arena.read(i).ipt for i in (*f.pair, f.head_extra)}
    old = f.head_extra in f.closest
    base = f.closest - {f.head_extra} if old else f.closest
    pair, closest, line, d, z = _outgoing(pts3, old, base, cell)
    pair_pts = (pts3[pair[0]], pts3[pair[1]])
    return _IntervalWalk(cell, frozenset(closest), pair, pair_pts, line, d, f.head, z)


def _trim_round(arena: ReadOnlyArena, walks: list[_IntervalWalk]) -> None:
    """One pass over the input serving every pending walk's head search:
    the input is read once, as one span, and each walk's kernel takes it
    whole in one call."""
    span = arena.read_span(0, len(arena))
    for walk in walks:
        walk.consider_batch(span, arena)


def _relevant_walks(arena: ReadOnlyArena, source: EdgeBuffer, skip_cell=None, on_unbounded=None):
    """A walk from every relevant lower-order half-edge `source` delivers.

    Old heads own no interval; an unbounded edge reveals an unbounded
    cell, reported to on_unbounded; cells with skip_cell(cell) are passed
    over.
    """
    while (e := source.pull()) is not None:
        if e.head is None:
            if on_unbounded is not None:
                on_unbounded(e.closest | set(e.pair))
        elif is_relevant(e):
            if skip_cell is None or not skip_cell(e.closest | set(e.pair)):
                yield _walk_from_relevant(arena, e)


def _walk_rounds(arena: ReadOnlyArena, k_out: int, s1: int, source, ledger, on_unbounded=None, leftovers=None):
    """Every half-edge the interval walks produce, up to s1 walks at once.

    A walk ends at an old head, or at an unbounded edge, whose cell it
    reports to on_unbounded.
    """
    # A pass is a view of the input, charged as s1 * (k_out - 1) sites.
    pass_words = s1 * max(1, k_out - 1) * W_BATCH_SITE
    guard = 4 * (k_out + 1) * (len(arena) + 4)
    pts = _point_reader(arena)

    def step(walks):
        with scope(ledger, pass_words):
            _trim_round(arena, walks)
        still = []
        for w in walks:
            f = w.materialize(k_out, pts)
            yield f
            w.steps += 1
            if f.head is None:
                if on_unbounded is not None:
                    on_unbounded(w.cell)
                continue
            if classify_head(f) == "old":
                continue
            if w.steps > guard:
                raise AssertionError("boundary walk failed to terminate")
            nxt = _walk_step(arena, f)
            nxt.steps = w.steps
            still.append(nxt)
        return still

    return drive(source, s1, step, leftovers)


def find_big_cells_k(
    arena: ReadOnlyArena,
    k_out: int,
    s1: int,
    source: EdgeBuffer,
    ledger: Optional[WorkLedger] = None,
) -> BigCellTableK:
    """First phase for order k_out: identify big cells, report nothing.

    Big cells are those whose walks outlive the supply of fresh
    lower-order half-edges, plus every unbounded cell (revealed either by
    an unbounded lower-order edge inside it or by a walk reaching an
    unbounded boundary edge); unbounded cells cannot be finished by
    counterclockwise walks, so their boundaries are left to the third
    phase.
    """
    registered: dict = {}
    pts = _point_reader(arena)

    def register(cell) -> None:
        registered.setdefault(cog_key(cell, pts), cell)

    leftovers: list[_IntervalWalk] = []
    walks = _relevant_walks(arena, source, on_unbounded=register)
    for _ in _walk_rounds(arena, k_out, s1, walks, ledger, register, leftovers):
        pass
    for w in leftovers:
        register(w.cell)
    return BigCellTableK(registered)


def _point_reader(arena: ReadOnlyArena):
    def pts(i: int) -> tuple[int, int]:
        return arena.read(i).ipt

    return pts


def iter_order_edges(
    arena: ReadOnlyArena,
    k_out: int,
    s1: int,
    source: EdgeBuffer,
    table: BigCellTableK,
    ledger: Optional[WorkLedger] = None,
) -> Iterator[HalfEdge]:
    """Phases two and three for order k_out: every half-edge exactly once.

    Walks cover every small cell's boundary: each walked half-edge is
    reported, plus its opposite when the cell to its right is big.  Edges
    between two big cells come from clipping each candidate pair's
    bisector against the whole input (`_iter_big_big_edges`).
    """
    pts = _point_reader(arena)

    def skip_cell(cell) -> bool:
        return cog_key(cell, pts) in table

    walks = _relevant_walks(arena, source, skip_cell=skip_cell)
    for f in _walk_rounds(arena, k_out, s1, walks, ledger):
        yield f
        if f.head is None:
            raise AssertionError("small cells are bounded; unbounded walk edge")
        if cog_key(f.right_cell(), pts) in table:
            yield f.opposite()

    yield from _iter_big_big_edges(arena, k_out, table, max(1, s1 * max(1, k_out - 1) // 2), ledger)


def _iter_big_big_edges(
    arena: ReadOnlyArena,
    k_out: int,
    table: BigCellTableK,
    chunk: int,
    ledger: Optional[WorkLedger] = None,
) -> Iterator[HalfEdge]:
    """Both directions of every edge shared by two big cells.

    Two cells can only share an edge when their site sets differ in one
    site; for each such candidate pair the edge is the interval of the
    differing sites' bisector where the common sites are strictly closer
    and every other site strictly farther, found by one clipping pass
    over the input.  O(1) words per candidate, no in-workspace diagram:
    `chunk` candidates share each pass, which reads the input as one span.
    """
    cells = table.cells
    candidates = []
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            common = cells[i] & cells[j]
            if len(common) != k_out - 1:
                continue
            (a,) = cells[i] - common
            (b,) = cells[j] - common
            candidates.append((frozenset(common), a, b))
    if not candidates:
        return
    for lo_i in range(0, len(candidates), chunk):
        group = candidates[lo_i : lo_i + chunk]
        with scope(ledger, len(group) * (k_out + 14) + W_FIXED):
            states = []
            for common, a, b in group:
                a_pt = arena.read(a).ipt
                b_pt = arena.read(b).ipt
                line = exact.bisector_line(a_pt, b_pt)
                states.append((common, a, b, a_pt, b_pt, line, [None, None, None, None, None]))
            span = arena.read_span(0, len(arena))
            for common, a, b, a_pt, b_pt, line, box in states:
                # Nearer to a than every other site, farther than the common ones.
                if clip_run(box, line, a_pt, span, -1, (a, b), common, arena):
                    edge = clip_edge(arena, a, a_pt, b, line, box)
                    yield from _halfedges_of_cell_edge(k_out, common, edge, a_pt, b_pt)


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
    ledger: Optional[WorkLedger] = None,
) -> None:
    """Emit all half-edges of orders 1..K, grouped by nondecreasing order.

    Stage k runs the producers for orders 1..k chained through bounded
    buffers, writes the order-k half-edges to the sink as they first enter
    their buffer, and lets the next order's first phase consume them to
    learn its big cells.  Each half-edge is written exactly once, in its
    stage.  Stage 1 walks every order-1 cell once and so finds the order-1
    big cells as it goes; stages 2..K hold their indices, charged to the
    ledger, and walk only the small cells.
    """
    s1 = config.s_prime
    K = config.K
    scale = arena.scale
    buffer_words = sum(3 * s1 * (k + 4) for k in range(1, K + 1)) + W_FIXED
    with scope(ledger, buffer_words):
        found: list[BigCellTable] = []
        tables: dict = {1: None}

        def chain(up_to: int) -> Iterator[HalfEdge]:
            stream: Iterator[HalfEdge] = order1_halfedges(arena, s1, tables[1], ledger, found)
            for k_out in range(2, up_to + 1):
                buf = EdgeBuffer(stream, s1, 3 * s1)
                stream = iter_order_edges(arena, k_out, s1, buf, tables[k_out], ledger)
            return stream

        def run_stage(stage: int) -> None:
            stream = chain(stage)
            if stage < K:
                emitted = EdgeBuffer(
                    stream, s1, 3 * s1, on_insert=lambda he: sink.emit(he.to_record(scale))
                )
                tables[stage + 1] = find_big_cells_k(arena, stage + 1, s1, emitted, ledger)
                emitted.drain()
            else:
                for he in stream:
                    sink.emit(he.to_record(scale))

        run_stage(1)
        tables[1] = BigCellTable(found[0].indices)
        with scope(ledger, tables[1].words()):
            for stage in range(2, K + 1):
                run_stage(stage)
