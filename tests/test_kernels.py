"""The fused batch kernels against per-site exact references.

`clip_run` is checked against a clip computed with Fractions, which may
flip the sense of some cutters (the kernel takes one sense per call, so
such a case runs as two calls on one state), `nearest_run` against a
brute-force minimum of (squared distance, index),
`_IntervalWalk.consider_batch` against per-site crossings, and
`read_span` against per-index reads.  The clip's box cull gets its own
soundness check: a site outside a clip's cached box is strictly outside
both closed end disks and leaves a one-site clip unchanged.  Seeding a
walk's clip with the cutter of its entry vertex changes no end, cutter or
tie: for nearest walks when the seed is clipped in a call of its own, and
for nearest and farthest walks when it is handed to the kernel, which
then holds the end it cuts final.  The seeded nearest clips and the
successor searches of real runs are replayed against the references.  A
farthest clip given the arena's float twin leaves the state and the site
counts that the exact code alone leaves, seeded or not, at the twin's
coordinate limit too, and the arena builds the twin only below that limit.
"""

from fractions import Fraction
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsvoronoi import exact, tradeoff
from wsvoronoi.cli import run_diagram
from wsvoronoi.datagen import random_sites
from wsvoronoi.geometry import DegenerateGeometry, site_set
from wsvoronoi.memory import OutputSink, ReadOnlyArena, observing_ledger
from wsvoronoi.pipeline import _IntervalWalk
from wsvoronoi.scan import (
    DiagramMode,
    _disk_box,
    _rival_offset,
    cell_walk,
    clip_edge,
    clip_run,
    nearest_run,
)
from wsvoronoi.tradeoff import run_tradeoff

coord = st.integers(-12, 12)
point = st.tuples(coord, coord)


def reference_clip(line, p, cutters, want, skip, flip):
    """(alive, lo_cut, hi_cut, lo, hi) of the clip, with lo and hi as
    Fraction points (None while unbounded); DegenerateGeometry when two
    cutters cross exactly at an end of a nonempty interval."""
    a, b, c = line
    x0 = (Fraction(0), Fraction(c, b)) if b else (Fraction(c, a), Fraction(0))
    e = (b, -a)
    lo = hi = None
    lo_cuts, hi_cuts = [], []
    for j, w in cutters:
        if j in skip:
            continue
        s = -want if j in flip else want
        # f(t) = 2(w - p).x(t) - (|w|^2 - |p|^2), kept where s * f > 0.
        nx, ny = 2 * (w[0] - p[0]), 2 * (w[1] - p[1])
        f0 = nx * x0[0] + ny * x0[1] - (w[0] ** 2 + w[1] ** 2 - p[0] ** 2 - p[1] ** 2)
        f1 = nx * e[0] + ny * e[1]
        if f1 == 0:
            if s * f0 <= 0:
                return False, None, None, None, None
            continue
        t = -f0 / f1
        if s * f1 > 0:
            if lo is None or t > lo:
                lo, lo_cuts = t, [j]
            elif t == lo:
                lo_cuts.append(j)
        elif hi is None or t < hi:
            hi, hi_cuts = t, [j]
        elif t == hi:
            hi_cuts.append(j)
    if lo is not None and hi is not None and lo >= hi:
        return False, None, None, None, None
    if len(set(lo_cuts)) > 1 or len(set(hi_cuts)) > 1:
        raise DegenerateGeometry("tied end")
    lo_cut = lo_cuts[0] if lo_cuts else None
    hi_cut = hi_cuts[0] if hi_cuts else None

    def at(t):
        return None if t is None else (x0[0] + t * e[0], x0[1] + t * e[1])

    return True, lo_cut, hi_cut, at(lo), at(hi)


def outcome(fn, *args):
    """fn(*args), or "degenerate" when it raises DegenerateGeometry."""
    try:
        return fn(*args)
    except DegenerateGeometry:
        return "degenerate"


def hpoint(hp):
    return None if hp is None else (Fraction(hp[0], hp[2]), Fraction(hp[1], hp[2]))


def tally() -> ReadOnlyArena:
    """An arena for kernel calls to add their site counts to, with no twin:
    the calls' sites are not its own."""
    work = ReadOnlyArena(site_set([(0, 0)]))
    work.twin = None
    return work


def by_sense(cutters, want, flip):
    """A case's cutters as the kernel takes them, one sense per call: the
    unflipped ones in the case's sense, then the flipped ones in the other."""
    return (want, [c for c in cutters if c[0] not in flip]), (-want, [c for c in cutters if c[0] in flip])


def clip_batches(state, line, p, cutters, want, skip, flip, batch, work) -> bool:
    """clip_run over `cutters` in batches, on one state, by sense."""
    for sense, part in by_sense(cutters, want, flip):
        for start in range(0, len(part), batch):
            if not clip_run(state, line, p, part[start : start + batch], sense, skip, work=work):
                return False
    return True


def run_clip(p, r, cutters, want, skip, flip, batch):
    """clip_run over `cutters` in batches; (alive, lo_cut, hi_cut, lo, hi)."""
    line = exact.bisector_line(p, r)
    state = [None, None, None, None, None]
    if not clip_batches(state, line, p, cutters, want, skip, flip, batch, tally()):
        return False, None, None, None, None
    edge = clip_edge(0, p, 1, r, line, state)
    lo, hi = edge.ends()
    return True, edge.lo_cutter, edge.hi_cutter, hpoint(lo), hpoint(hi)


@st.composite
def clip_case(draw):
    p = draw(point)
    r = draw(point.filter(lambda q: q != p))
    pts = draw(st.lists(point.filter(lambda q: q not in (p, r)), min_size=1, max_size=12))
    if draw(st.booleans()):
        # A cutter on the line through p and r: its bisector is parallel
        # to the clipped one.
        k = draw(st.sampled_from([-3, -2, 2, 3]))
        pts.insert(draw(st.integers(0, len(pts))), (p[0] + k * (r[0] - p[0]), p[1] + k * (r[1] - p[1])))
    cutters = [(j + 2, w) for j, w in enumerate(pts)]
    indices = [j for j, _ in cutters]
    skip = {0, 1} | set(draw(st.lists(st.sampled_from(indices), max_size=2)))
    flip = frozenset(draw(st.lists(st.sampled_from(indices), max_size=3)))
    want = draw(st.sampled_from([-1, 1]))
    batch = draw(st.integers(1, 5))
    return p, r, cutters, want, skip, flip, batch


class TestClipRun:
    @settings(max_examples=300, deadline=None)
    @given(clip_case())
    def test_matches_fraction_reference(self, case):
        p, r, cutters, want, skip, flip, batch = case
        line = exact.bisector_line(p, r)
        assert outcome(run_clip, *case) == outcome(reference_clip, line, p, cutters, want, skip, flip)

    @settings(max_examples=100, deadline=None)
    @given(clip_case(), st.integers(1, 2**40))
    def test_matches_reference_on_wide_coordinates(self, case, scale):
        p, r, cutters, want, skip, flip, batch = case
        big = lambda q: (q[0] * scale + 1, q[1] * scale - 1)  # noqa: E731
        p, r = big(p), big(r)
        cutters = [(j, big(w)) for j, w in cutters]
        line = exact.bisector_line(p, r)
        got = outcome(run_clip, p, r, cutters, want, skip, flip, batch)
        assert got == outcome(reference_clip, line, p, cutters, want, skip, flip)

    def test_nearest_and_farthest_split_the_line(self):
        p, r, w = (0, 0), (8, 0), (0, 6)
        near = run_clip(p, r, [(2, w)], -1, {0, 1}, (), 1)
        far = run_clip(p, r, [(2, w)], 1, {0, 1}, (), 1)
        # Both keep a ray of x = 4 from (4, 3), in opposite directions.
        assert near[0] and far[0]
        assert {near[3], near[4]} == {far[3], far[4]} == {None, (4, 3)}
        assert near[3] != far[3]

    def test_parallel_cutter_keeps_or_kills(self):
        p, r = (0, 0), (8, 0)
        # x = 50, the bisector with (100, 0), is parallel to x = 4.
        assert run_clip(p, r, [(2, (100, 0))], -1, {0, 1}, (), 1) == (True, None, None, None, None)
        assert run_clip(p, r, [(2, (100, 0))], 1, {0, 1}, (), 1)[0] is False
        # x = 3, the bisector with (6, 0): the whole of x = 4 is nearer (6, 0).
        assert run_clip(p, r, [(2, (6, 0))], -1, {0, 1}, (), 1)[0] is False
        assert run_clip(p, r, [(2, (6, 0))], 1, {0, 1}, (), 1) == (True, None, None, None, None)

    def test_interval_dies_midway(self):
        p, r = (0, 0), (8, 0)
        sites = [(2, (0, 6)), (3, (0, -6)), (4, (8, 6)), (5, (0, 100))]
        line = exact.bisector_line(p, r)
        state = [None, None, None, None, None]
        assert clip_run(state, line, p, sites[:2], -1, (0, 1), work=tally())
        assert set(state[2:4]) == {2, 3}  # x = 4 between (4, -3) and (4, 3)
        kept = list(state)
        # The bisector with (8, 6) also crosses x = 4 at (4, 3): a tie that
        # moves no end but marks that end tied, unless a clip in the other
        # sense keeps the side beyond (4, 3), which empties the interval
        # before (0, 100) is looked at.
        work = SimpleNamespace(site_tests=0, site_visits=0, twin=None)
        assert not clip_run(list(state), line, p, sites[2:], 1, (0, 1), work=work)
        assert work.site_tests == 1  # (0, 100), after the emptying cutter, is not looked at
        assert clip_run(state, line, p, sites[2:], -1, (0, 1), work=work)
        assert [end[:2] for end in state[:2]] == [end[:2] for end in kept[:2]]
        assert state[2:] == kept[2:]
        assert sorted(end[2] for end in state[:2]) == [False, True]

    def test_unit_square_tie_is_degenerate(self):
        # (1, 1) and (0, 1) both cut x = 1/2, the bisector of (0, 0) and
        # (1, 0), at (1/2, 1/2): the four sites are cocircular, in either sense.
        p, r = (0, 0), (1, 0)
        cutters = [(2, (1, 1)), (3, (0, 1))]
        line = exact.bisector_line(p, r)
        for want in (-1, 1):
            with pytest.raises(DegenerateGeometry):
                run_clip(p, r, cutters, want, {0, 1}, (), 1)
            with pytest.raises(DegenerateGeometry):
                reference_clip(line, p, cutters, want, {0, 1}, ())
        # A re-clip by the end's own cutter is no tie.
        assert run_clip(p, r, cutters[:1] * 2, -1, {0, 1}, (), 1)[1:3] == (2, None)

    def test_tie_lasts_until_the_end_moves(self):
        # The square scaled by 10: (10, 10) and (0, 10) tie at (5, 5) in a
        # first call; a second call that leaves that end keeps the tie, and
        # (0, 6), whose bisector y = 3 cuts below it, ends it.
        p, r = (0, 0), (10, 0)
        sites = site_set([p, r, (10, 10), (0, 10), (0, 6), (40, -30)])
        items = [(s.index, s.ipt) for s in sites]
        line = exact.bisector_line(p, r)
        for later, tied in (([items[5]], True), ([items[4], items[5]], False)):
            state = [None, None, None, None, None]
            assert clip_run(state, line, p, items[2:4], -1, (0, 1), work=tally())
            assert clip_run(state, line, p, later, -1, (0, 1), work=tally())
            if tied:
                with pytest.raises(DegenerateGeometry, match="tied end"):
                    clip_edge(0, p, 1, r, line, state)
            else:
                assert clip_edge(0, p, 1, r, line, state).lo_cutter == 4

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(1, 2**20 - 1), min_size=3, max_size=14, unique=True),
        st.sampled_from([-1, 1]),
        st.integers(1, 5),
    )
    def test_farthest_convex_matches_reference(self, xs, want, batch):
        # Sites (x, x^2): no three collinear and, for positive x, no four
        # cocircular, as in the farthest diagram of convex input.
        pts = [(x, x * x) for x in xs]
        p, r = pts[0], pts[1]
        cutters = [(j + 2, w) for j, w in enumerate(pts[2:])]
        line = exact.bisector_line(p, r)
        got = run_clip(p, r, cutters, want, {0, 1}, (), batch)
        assert got == reference_clip(line, p, cutters, want, {0, 1}, ())

    def test_cutters_are_identified(self):
        sites = site_set([(0, 0), (8, 0), (0, 6), (0, -6), (0, 7), (0, -7)])
        items = [(s.index, s.ipt) for s in sites]
        line = exact.bisector_line((0, 0), (8, 0))
        state = [None, None, None, None, None]
        assert clip_run(state, line, (0, 0), items, -1, (0, 1), work=tally())
        edge = clip_edge(0, (0, 0), 1, (8, 0), line, state)
        assert {edge.lo_cutter, edge.hi_cutter} == {2, 3}
        assert set(map(hpoint, edge.ends())) == {(4, 3), (4, -3)}


@st.composite
def bounded_clip_case(draw):
    """A nearest clip whose first batch bounds both ends, so the cull is
    live over the batches after it: the sites p + k*v and p - k*v, with v
    perpendicular to r - p, cut the line on either side of p's cell."""
    p = draw(point)
    r = draw(point.filter(lambda q: q != p))
    vx, vy = p[1] - r[1], r[0] - p[0]
    k = draw(st.integers(1, 3))
    bounds = [(2, (p[0] + k * vx, p[1] + k * vy)), (3, (p[0] - k * vx, p[1] - k * vy))]
    taken = {p, r, bounds[0][1], bounds[1][1]}
    pts = draw(st.lists(point.filter(lambda q: q not in taken), min_size=1, max_size=24, unique=True))
    cutters = bounds + [(j + 4, w) for j, w in enumerate(pts)]
    skip = {0, 1} | set(draw(st.lists(st.sampled_from([j for j, _ in cutters[2:]]), max_size=2)))
    return p, r, cutters, -1, skip, (), draw(st.integers(2, 4))


def widen(case, scale):
    """The case under x -> x*scale + 1, y -> y*scale - 1, a similarity."""
    p, r, cutters, want, skip, flip, batch = case
    big = lambda q: (q[0] * scale + 1, q[1] * scale - 1)  # noqa: E731
    return big(p), big(r), [(j, big(w)) for j, w in cutters], want, skip, flip, batch


def clipped_state(p, r, cutters, skip, batch):
    """(line, state, arena) after clip_run over `cutters`, indexed 2, 3, ...
    in order, in batches; None once the interval is empty."""
    line = exact.bisector_line(p, r)
    state = [None, None, None, None, None]
    arena = ReadOnlyArena(site_set([p, r, *(w for _, w in cutters)]))
    for start in range(0, len(cutters), batch):
        if not clip_run(state, line, p, cutters[start : start + batch], -1, skip, work=arena):
            return None
    return line, state, arena


def in_closed_disk(w, centre, p) -> bool:
    d2 = lambda u: (u[0] - centre[0]) ** 2 + (u[1] - centre[1]) ** 2  # noqa: E731
    return d2(w) <= d2(p)


def outside_ring(box, depth):
    """Integer points within `depth` of the box, strictly outside it."""
    x0, x1, y0, y1 = box
    for x in range(x0 - depth, x1 + depth + 1):
        for y in range(y0 - depth, y1 + depth + 1):
            if not (x0 <= x <= x1 and y0 <= y <= y1):
                yield x, y


def check_box_sound(line, state, arena):
    """The cached box is the box of the current ends, and every integer
    point just outside it is strictly outside both closed end disks and
    leaves a one-site clip, run without the cull, unchanged."""
    p = arena.read(0)
    r = arena.read(1)
    a, b, _ = line
    e = (r[0] - p[0], r[1] - p[1])
    lo_box = _disk_box(*e, a, b, *p, *state[0][:2])
    hi_box = _disk_box(*e, a, b, *p, *state[1][:2])
    box = state[4][:4]
    assert box == (
        min(lo_box[0], hi_box[0]),
        max(lo_box[1], hi_box[1]),
        min(lo_box[2], hi_box[2]),
        max(lo_box[3], hi_box[3]),
    )
    # The ends as the cutters give them; `clip_edge` would refuse a tied end.
    ends = [hpoint(exact.line_intersection(line, exact.bisector_line(p, arena.read(j)))) for j in state[2:4]]
    for w in outside_ring(box, 2):
        assert not any(in_closed_disk(w, e, p) for e in ends), (w, ends)
        one = state[:4] + [None]
        assert clip_run(one, line, p, [(99, w)], -1, (), work=arena)
        assert one[:4] == state[:4], w


def shifted(case, offset):
    """The case translated by (offset, -offset)."""
    p, r, cutters, want, skip, flip, batch = case
    move = lambda q: (q[0] + offset, q[1] - offset)  # noqa: E731
    return move(p), move(r), [(j, move(w)) for j, w in cutters], want, skip, flip, batch


class TestEndsOnDemand:
    """`CellEdge.ends` builds each end from the clip's parameter and the
    carrier alone, reading nothing; the point is where the bisector of p
    and the end's cutter crosses the carrier, in either sense, whichever
    cutters are flipped, at any coordinate width.  The clips' arena holds
    the case's sites, so farthest calls run the float filter on the grid
    and wide cases and the exact code alone on the shifted ones, whose
    arena has no twin."""

    @settings(max_examples=300, deadline=None)
    @given(clip_case(), st.sampled_from(["grid", "wide", "shifted"]), st.integers(1, 2**40))
    def test_end_is_the_cutters_crossing(self, case, how, scale):
        if how == "wide":
            case = widen(case, scale)
        elif how == "shifted":
            case = shifted(case, 2**120 + scale)
        p, r, cutters, want, skip, flip, batch = case
        line = exact.bisector_line(p, r)
        state = [None, None, None, None, None]
        work = ReadOnlyArena(site_set([p, r, *(w for _, w in cutters)]))
        assert (work.twin is None) == (how == "shifted")
        if not clip_batches(state, line, p, cutters, want, skip, flip, batch, work):
            return
        try:
            edge = clip_edge(0, p, 1, r, line, state)
        except DegenerateGeometry:
            return
        points = dict(cutters)
        for end, cutter in zip(edge.ends(), (edge.lo_cutter, edge.hi_cutter)):
            if cutter is None:
                assert end is None
            else:
                assert end[2] > 0
                want_end = exact.line_intersection(line, exact.bisector_line(p, points[cutter]))
                assert exact.normalize_hpoint(*end) == want_end


class TestClipCull:
    @settings(max_examples=300, deadline=None)
    @given(bounded_clip_case())
    def test_bounded_matches_fraction_reference(self, case):
        p, r, cutters, want, skip, flip, batch = case
        line = exact.bisector_line(p, r)
        assert outcome(run_clip, *case) == outcome(reference_clip, line, p, cutters, want, skip, flip)

    @settings(max_examples=100, deadline=None)
    @given(bounded_clip_case(), st.integers(1, 2**40))
    def test_bounded_matches_reference_on_wide_coordinates(self, case, scale):
        p, r, cutters, want, skip, flip, batch = case = widen(case, scale)
        line = exact.bisector_line(p, r)
        assert outcome(run_clip, *case) == outcome(reference_clip, line, p, cutters, want, skip, flip)

    @settings(max_examples=200, deadline=None)
    @given(bounded_clip_case())
    def test_outside_box_cannot_cut(self, case):
        p, r, cutters, _, skip, _, batch = case
        got = clipped_state(p, r, cutters, skip, batch)
        if got is not None:
            check_box_sound(*got)

    def test_axis_aligned_end_disks_touch_their_box(self):
        # Ends (2, 0) and (0, 2) of x + y = 2, each disk through p = (0, 0)
        # tangent to its box: (4, 0) and (-2, 2) lie on the box's boundary
        # and on a disk's.
        p = (0, 0)
        got = clipped_state(p, (2, 2), [(2, (4, 0)), (3, (0, 4))], {0, 1}, 2)
        assert got is not None and got[1][4][:4] == (-2, 4, -2, 4)
        check_box_sound(*got)

    def test_far_sites_skip_the_arithmetic(self):
        p = (0, 0)
        line, state, _ = clipped_state(p, (8, 0), [(2, (0, 6)), (3, (0, -6))], {0, 1}, 2)
        kept = list(state)
        far = [(j, (1000 + j, 1000 - 3 * j)) for j in range(4, 40)]
        work = SimpleNamespace(site_tests=0, site_visits=0, twin=None)
        assert clip_run(state, line, p, far, -1, (), work=work)
        assert work.site_tests == 0
        assert state == kept
        # Farthest clips never cull.
        assert clip_run([None, None, None, None, None], line, p, far, 1, (), work=work)
        assert work.site_tests == len(far)


def reference_successor(q, carrier, direction, tail, sites):
    """(site, tied) for the first crossing of the carrier ahead of the tail
    by the bisector of q and each (index, point); DegenerateGeometry when a
    bisector runs parallel to the carrier."""
    t0 = (Fraction(tail[0], tail[2]), Fraction(tail[1], tail[2]))
    crossings = []
    for j, w in sites:
        x = exact.line_intersection(carrier, exact.bisector_line(q, w))
        if x is None:
            raise DegenerateGeometry("parallel")
        tau = direction[0] * (Fraction(x[0], x[2]) - t0[0]) + direction[1] * (Fraction(x[1], x[2]) - t0[1])
        if tau > 0:
            crossings.append((tau, j))
    if not crossings:
        return None, False
    first = min(t for t, _ in crossings)
    winners = [j for t, j in crossings if t == first]
    return winners[0], len(winners) > 1


def inside(q, r, z, w) -> bool:
    """Whether w lies strictly inside the circle through q, r and z."""
    return exact.incircle_ipts(q, r, z, w) * exact.orient_ipts(q, r, z) > 0


@st.composite
def successor_case(draw):
    """A walk's step from the tail, the vertex of q, r and z: the drawn
    sites strictly inside its circle are the walk's closest set
    (`run_successor`) and those on it are dropped, so the tail is a
    certified vertex, as the kernel requires."""
    grid = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    q, r, z = draw(st.lists(grid, min_size=3, max_size=3, unique=True).filter(lambda t: exact.orient_ipts(*t) != 0))
    pts = draw(st.lists(grid.filter(lambda w: w not in (q, r, z)), min_size=1, max_size=20, unique=True))
    pts = [w for w in pts if exact.incircle_ipts(q, r, z, w) != 0]
    sign = draw(st.sampled_from([1, -1]))
    return q, r, z, [(j + 3, w) for j, w in enumerate(pts)], sign, draw(st.integers(1, 5))


def run_successor(q, r, z, sites, sign, batch, work):
    carrier = exact.bisector_line(q, r)
    d = exact.line_dir(carrier)
    direction = (sign * d[0], sign * d[1])
    tail = exact.circumcenter_hpoint(q, r, z)
    closest = frozenset(j for j, w in sites if inside(q, r, z, w))
    walk = _IntervalWalk(closest, (0, 1), (q, r), carrier, direction, tail, 2)
    items = [(0, q), (1, r), (2, z), *sites]
    for start in range(0, len(items), batch):
        walk.consider_batch(items[start : start + batch], work)
    return walk, reference_successor(q, carrier, direction, tail, sites)


def check_successor(case):
    """consider_batch agrees with the reference on the case: the same
    site, the same tie, or DegenerateGeometry from both."""
    try:
        walk, (want, tied) = run_successor(*case, tally())
    except DegenerateGeometry:
        # The kernel raises exactly when the reference does.
        q, r, z, sites, sign, _ = case
        carrier = exact.bisector_line(q, r)
        with pytest.raises(DegenerateGeometry):
            reference_successor(q, carrier, exact.line_dir(carrier), exact.circumcenter_hpoint(q, r, z), sites)
        return
    assert (None if walk.best is None else walk.best[2]) == want
    assert walk.tied == tied


class TestConsiderBatch:
    @settings(max_examples=400, deadline=None)
    @given(successor_case())
    def test_matches_per_site_reference(self, case):
        check_successor(case)

    @settings(max_examples=100, deadline=None)
    @given(successor_case(), st.integers(1, 2**40))
    def test_matches_reference_on_wide_coordinates(self, case, scale):
        q, r, z, sites, sign, batch = case
        big = lambda w: (w[0] * scale + 1, w[1] * scale - 1)  # noqa: E731
        check_successor((big(q), big(r), big(z), [(j, big(w)) for j, w in sites], sign, batch))

    def test_cull_is_live_and_ties_raise(self):
        # Eight sites on the circle of radius 5 about the origin, one inside,
        # and far sites the cull drops once the first crossing is known.
        ring = [(5, 0), (3, 4), (0, 5), (-3, 4), (-5, 0), (-4, -3), (0, -5), (4, -3)]
        q, r, z = ring[0], ring[1], (1, 1)
        far = [(200 + j, -300 - j) for j in range(30)]
        sites = [(j + 3, w) for j, w in enumerate(ring[2:] + far)]
        work = SimpleNamespace(site_tests=0, site_visits=0)
        walk, (want, tied) = run_successor(q, r, z, sites, 1, 4, work)
        assert tied and walk.tied and walk.best[2] == want
        assert 0 < work.site_tests < len(sites)
        with pytest.raises(DegenerateGeometry):
            walk.materialize(2, lambda i: None)

    def test_collinear_site_outside_the_box_raises(self):
        # On x = 1, upward from the tail (1, -4/3), (1, 2) crosses first, at
        # (1, 3/4), and sets the box (-1, 3, -1, 3) around its disk alone;
        # (1000, 0) comes after it, lies on the line through the pair
        # (0, 0), (2, 0) and strictly outside the box, and still raises.
        q, r, z = (0, 0), (2, 0), (1, -3)
        carrier = exact.bisector_line(q, r)
        tail = exact.circumcenter_hpoint(q, r, z)
        walk = _IntervalWalk(frozenset(), (0, 1), (q, r), carrier, (0, 1), tail, 2)
        walk.consider_batch([(0, q), (1, r), (2, z), (3, (1, 2))], tally())
        assert walk.best[2] == 3 and walk._box == (-1, 3, -1, 3)
        with pytest.raises(DegenerateGeometry, match="^collinear sites at successor crossing$"):
            walk.consider_batch([(4, (1000, 0))], tally())

    @pytest.mark.parametrize(
        "sign, batch, counts", [(1, 4, (6, 39)), (-1, 4, (36, 39)), (1, 100, (6, 39)), (-1, 7, (36, 39))]
    )
    def test_site_counts_pinned(self, sign, batch, counts):
        # The cull case above in both directions: the pair and the tail
        # extra are looked at but never tested, culled sites likewise.
        ring = [(5, 0), (3, 4), (0, 5), (-3, 4), (-5, 0), (-4, -3), (0, -5), (4, -3)]
        far = [(200 + j, -300 - j) for j in range(30)]
        sites = [(j + 3, w) for j, w in enumerate(ring[2:] + far)]
        work = SimpleNamespace(site_tests=0, site_visits=0)
        run_successor(ring[0], ring[1], (1, 1), sites, sign, batch, work)
        assert (work.site_tests, work.site_visits) == counts

    def test_tie_on_the_box_edge_is_kept(self):
        # Ahead of the tail (-1, 3) on x + y = 2, (4, 0) and (2, -2) both
        # cross at (2, 0); the best disk, centred there through q = (0, 0),
        # touches its box at both, so only a box around the closed disk
        # keeps the second.
        walk, (want, tied) = run_successor((0, 0), (2, 2), (2, 4), [(3, (4, 0)), (4, (2, -2))], 1, 1, tally())
        assert walk._box == (0, 4, -2, 2)
        assert (walk.best[2], walk.tied) == (want, tied) == (3, True)


def reference_nearest(p, items, skip):
    """The index minimising (squared distance to p, index), by brute force."""
    return min(((w[0] - p[0]) ** 2 + (w[1] - p[1]) ** 2, j) for j, w in items if j != skip)[1]


@st.composite
def nearest_case(draw):
    """p and distinct sites on a small grid, where equal distances are
    common, p's own index 0 among them, in a drawn order."""
    grid = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    pts = draw(st.lists(grid, min_size=2, max_size=16, unique=True))
    items = list(enumerate(pts))
    return pts[0], items, draw(st.permutations(items))


class TestNearestRun:
    @settings(max_examples=300, deadline=None)
    @given(nearest_case())
    def test_matches_brute_force_in_any_order(self, case):
        p, items, shuffled = case
        want = reference_nearest(p, items, 0)
        assert nearest_run(p, items, 0, tally()) == want
        work = SimpleNamespace(site_tests=0, site_visits=0)
        assert nearest_run(p, shuffled, 0, work) == want
        assert work.site_tests <= len(items) - 1  # at most every site but p's own
        assert work.site_visits == len(items)

    def test_tie_on_the_box_edge_is_kept(self):
        # (3, 0) sets the best, 9, and the box [-3, 3] x [-3, 3] about
        # p = (0, 0).  (0, 3) lies on its top edge, ties, and wins on its
        # lower index; (3, 1) is inside and farther; (4, 4) and (-4, 0)
        # lie outside and are culled.
        p = (0, 0)
        items = [(0, p), (5, (3, 0)), (2, (0, 3)), (6, (3, 1)), (7, (4, 4)), (1, (-4, 0))]
        work = SimpleNamespace(site_tests=0, site_visits=0)
        assert nearest_run(p, items, 0, work) == 2 == reference_nearest(p, items, 0)
        assert (work.site_tests, work.site_visits) == (3, 6)


@st.composite
def walk_case(draw):
    """Distinct grid points, cocircular and collinear ones included."""
    grid = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
    return draw(st.lists(grid, min_size=4, max_size=12, unique=True))


def seeded_clips(pts):
    """(seed, seeded clip, plain clip) for every clip after the first edge
    of each nearest walk of `pts`, each clip (alive, state[:4]); a walk
    stops where its input is degenerate."""
    arena = ReadOnlyArena(site_set(pts))
    span = arena.read_span(0, len(arena))
    out = []
    for i in range(len(arena)):
        walk = cell_walk(arena, i, DiagramMode.NEAREST, observing_ledger())
        try:
            while not walk.done:
                if walk.cutter is None:
                    walk.cutter = nearest_run(walk.p, span, i, arena)
                walk.begin_clip()
                r = arena.read(walk.rival)
                line = exact.bisector_line(walk.p, r)
                skip = (i, walk.rival)
                plain = [None] * 5
                alive = clip_run(plain, line, walk.p, span, -1, skip, work=arena)
                seed = walk.seed()
                if seed is not None:
                    seeded = [None] * 5
                    seeded_alive = clip_run(seeded, line, walk.p, [seed], -1, skip, work=arena)
                    seeded_alive = seeded_alive and clip_run(seeded, line, walk.p, span, -1, skip, work=arena)
                    out.append((seed, (seeded_alive, seeded[:4]), (alive, plain[:4])))
                if not alive:
                    break
                walk.advance(clip_edge(i, walk.p, walk.rival, r, line, plain))
        except DegenerateGeometry:
            pass
    return arena, out


class TestSeededClip:
    """A nearest walk's clip after its first edge may take the cutter of its
    entry vertex first, as the rounds of `tradeoff` do: a clip is an
    intersection, so nothing it yields changes."""

    @settings(max_examples=150, deadline=None)
    @given(walk_case())
    def test_seeded_equals_plain(self, pts):
        arena, clips = seeded_clips(pts)
        for (j, w), seeded, plain in clips:
            assert seeded == plain
            # The seed is the rival of the edge walked in, its point p's
            # mirror image in that edge's carrier.
            assert w == arena.read(j)
            alive, state = plain
            assert not alive or j in state[2:4]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_walks_are_seeded(self, seed):
        pts = [s.ipt for s in random_sites(24, seed)]
        arena, clips = seeded_clips(pts)
        assert len(clips) > 3 * len(pts)
        for (j, w), seeded, plain in clips:
            assert seeded == plain and seeded[0]
            # The seed's end is final at once: it cuts the entry vertex.
            assert j in plain[1][2:4] and w == arena.read(j)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_tied_seed_is_degenerate(self, seed):
        # x = 1, the bisector of p = (0, 0) and (2, 0): (0, 2) and (2, 2)
        # both cut it at (1, 1), four cocircular sites, and (0, -2) at
        # (1, -1).  With either tied cutter as the seed the end stays tied.
        sites = site_set([(0, 0), (2, 0), (0, 2), (2, 2), (0, -2)])
        arena = ReadOnlyArena(sites)
        span = arena.read_span(0, len(arena))
        p = span[0][1]
        line = exact.bisector_line(p, span[1][1])
        state = [None] * 5
        assert clip_run(state, line, p, [span[seed]], -1, (0, 1), work=arena)
        assert clip_run(state, line, p, span, -1, (0, 1), work=arena)
        assert seed in state[2:4]
        with pytest.raises(DegenerateGeometry, match="has a tied end"):
            clip_edge(0, p, 1, span[1][1], line, state)


def ray_clips(sites, mode, s):
    """((alive, state[:4]) of the seeded clip, the same of the plain
    two-ended clip) for every clip after a walk's first edge in the s-slot
    run of `sites`: the rounds of `tradeoff` hand those clips their seed,
    and farthest ones decide in doubles from the arena's twin, which the
    plain clip goes without (`tally`)."""
    kernel = tradeoff.clip_run
    out = []

    def clip(state, line, p, items, want, skip, *, seed=None, work):
        if seed is None:
            return kernel(state, line, p, items, want, skip, work=work)
        plain = list(state)
        plain_alive = kernel(plain, line, p, items, want, skip, work=tally())
        alive = kernel(state, line, p, items, want, skip, seed=seed, work=work)
        out.append(((alive, state[:4]), (plain_alive, plain[:4])))
        return alive

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tradeoff, "clip_run", clip)
        run_tradeoff(ReadOnlyArena(sites), mode, s, OutputSink(keep=False), observing_ledger())
    return out


class TestCertifiedEnd:
    """After its first edge a walk's clip is a ray from its entry vertex:
    `clip_run` clips the seed, whose bisector holds that vertex, first and
    then holds that end final, dropping every cutter on its side after den
    alone.  The vertex was certified by the clip of the edge before, so
    nothing the clip yields changes."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["random", "parabola"]),
        st.integers(4, 24),
        st.integers(0, 10**6),
        st.sampled_from([DiagramMode.NEAREST, DiagramMode.FARTHEST]),
        st.sampled_from([1, 4]),
    )
    def test_seeded_equals_plain(self, kind, n, seed, mode, s):
        if kind == "random":
            sites = random_sites(n, seed)
        else:
            sites = site_set([(x, x * x) for x in Random(seed).sample(range(1, 1 << 12), n)])
        clips = ray_clips(sites, mode, s)
        assert clips  # every cell has a second edge
        for ray, plain in clips:
            assert ray == plain

    def test_entry_side_cutters_dropped_after_den(self):
        """The farthest cell of p = (3, 9) among five sites on y = x^2, on
        its bisector with (5, 25).  The seed (2, 4) cuts hi at the walk's
        entry vertex; sites 0 and 1 lie on hi's side (folded den < 0) and
        are dropped, and site 3 cuts lo.  The seed counts as one more site
        tested and looked at: 4 tests, sites 2 and 4 skipped, 6 visits.  A
        sixth cutter, (1, -1), also on hi's side, would cut hi in a plain
        clip (hi is no vertex of the cell with it), yet leaves the seeded
        clip as it is: it is dropped after den alone."""
        pts = [(1, 1), (2, 4), (3, 9), (4, 16), (5, 25)]
        items = list(enumerate(pts))
        p = pts[2]
        line = exact.bisector_line(p, pts[4])
        ends = [(-64, 1, False), (-108, 3, False), 3, 1]
        work = SimpleNamespace(site_tests=0, site_visits=0, twin=None)
        state = [None] * 5
        assert clip_run(state, line, p, items, 1, (2, 4), seed=(1, pts[1]), work=work)
        assert state[:4] == ends
        assert (work.site_tests, work.site_visits) == (4, 6)
        plain = [None] * 5
        assert clip_run(plain, line, p, items, 1, (2, 4), work=tally())
        assert plain[:4] == ends
        stray = [*items, (5, (1, -1))]
        work = SimpleNamespace(site_tests=0, site_visits=0, twin=None)
        state = [None] * 5
        assert clip_run(state, line, p, stray, 1, (2, 4), seed=(1, pts[1]), work=work)
        assert state[:4] == ends
        assert (work.site_tests, work.site_visits) == (5, 7)
        plain = [None] * 5
        assert clip_run(plain, line, p, stray, 1, (2, 4), work=tally())
        assert plain[1:4:2] == [(-268, 6, False), 5]


LIMIT = 2**50 - 1  # the largest |coordinate| the arena builds a twin for
K = 2**49 // 5  # (+-5K, 0), (+-3K, +-4K), ... lie on one circle at 2^49 scale


@st.composite
def filter_sites(draw):
    """Distinct points at the float filter's limits: a parabola reaching
    2^50, a cocircular set at 2^49 scale with each coordinate nudged by
    -1, 0 or 1, or coordinates up to +-(2^50 - 1), the extremes included."""
    kind = draw(st.sampled_from(["parabola", "cocircular", "extreme"]))
    if kind == "parabola":
        xs = draw(st.lists(st.integers(1, 2**25 - 1), min_size=4, max_size=14, unique=True))
        return [(x, x * x) for x in xs]
    if kind == "cocircular":
        ring = [(5 * K, 0), (3 * K, 4 * K), (-4 * K, 3 * K), (0, -5 * K), (4 * K, -3 * K), (-3 * K, -4 * K)]
        chosen = draw(st.lists(st.sampled_from(ring), min_size=4, max_size=6, unique=True))
        nudge = st.integers(-1, 1)
        return [(x + draw(nudge), y + draw(nudge)) for x, y in chosen]
    c = st.sampled_from([-LIMIT, LIMIT]) | st.integers(-LIMIT, LIMIT)
    return draw(st.lists(st.tuples(c, c), min_size=4, max_size=10, unique=True))


def farthest_clip(arena, line, p, items, skip, batch, twin):
    """(alive, state[:4], site_tests, site_visits) of a farthest clip over
    `items` in batches, with or without the twin."""
    state = [None] * 5
    before = arena.site_tests, arena.site_visits
    own, arena.twin = arena.twin, twin
    alive = True
    for start in range(0, len(items), batch):
        alive = clip_run(state, line, p, items[start : start + batch], 1, skip, work=arena)
        if not alive:
            break
    arena.twin = own
    return alive, state[:4], arena.site_tests - before[0], arena.site_visits - before[1]


def twin_clips(sites, s):
    """(filtered, exact, kind) for every clip of the s-slot farthest run of
    `sites` that decides in doubles: (alive, state[:4], site_tests,
    site_visits) of that call and of the same call with the arena's twin
    set aside, and "seeded", "unseeded" or "big-big" (`iter_big_big`).
    Also the run's big-cell table, None where the input is degenerate."""
    kernel, big_big = tradeoff.clip_run, tradeoff.iter_big_big
    out = []
    phase = []

    def clip(state, line, p, items, want, skip, *, seed=None, work):
        if work.twin is None:
            return kernel(state, line, p, items, want, skip, seed=seed, work=work)
        runs = []
        twin = work.twin
        for use, into in ((None, list(state)), (twin, state)):
            before = work.site_tests, work.site_visits
            work.twin = use
            alive = kernel(into, line, p, items, want, skip, seed=seed, work=work)
            runs.append((alive, into[:4], work.site_tests - before[0], work.site_visits - before[1]))
        work.twin = twin
        kind = "big-big" if phase else "unseeded" if seed is None else "seeded"
        out.append((runs[1], runs[0], kind))
        return alive

    def traced_big_big(*args):
        phase.append(True)
        yield from big_big(*args)

    table = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tradeoff, "clip_run", clip)
        patch.setattr(tradeoff, "iter_big_big", traced_big_big)
        try:
            sink = OutputSink(keep=False)
            table = run_tradeoff(ReadOnlyArena(sites), DiagramMode.FARTHEST, s, sink, observing_ledger())
        except DegenerateGeometry:
            pass
    return out, table


class TestFloatFilter:
    """A farthest clip given the arena's twin decides each site in doubles
    when their error bound allows and in integers otherwise, so it ends in
    the same state, with the same site counts, as the exact clip alone."""

    # Nudged cocircular sets on which a filter with no margin for the end
    # tests passes over a site that moves or ties an end.
    NUDGED = [(5 * K, 0), (3 * K, 4 * K), (-4 * K, 3 * K), (1, -5 * K)]
    NUDGED_6 = [(4 * K + 1, -3 * K), (-4 * K + 1, 3 * K), (5 * K, 0)]
    NUDGED_6 += [(-3 * K - 1, -4 * K + 1), (0, -5 * K), (3 * K - 1, 4 * K + 1)]

    @settings(max_examples=120, deadline=None)
    @given(filter_sites(), st.integers(1, 5))
    @example(NUDGED, 1)
    def test_unseeded_equals_exact(self, pts, batch):
        arena = ReadOnlyArena(site_set(pts))
        assert arena.twin is not None
        span = arena.read_span(0, len(arena))
        for i, p in span:
            for r, w in span:
                if r != i:
                    line = exact.bisector_line(p, w)
                    runs = [farthest_clip(arena, line, p, span, (i, r), batch, t) for t in (arena.twin, None)]
                    assert runs[0] == runs[1]

    @settings(max_examples=60, deadline=None)
    @given(filter_sites(), st.sampled_from([1, 3]))
    @example(NUDGED_6, 1)
    def test_walk_clips_equal_exact(self, pts, s):
        clips, _ = twin_clips(site_set(pts), s)
        for filtered, plain, _ in clips:
            assert filtered == plain

    @pytest.mark.parametrize("s", [1, 16])
    def test_real_runs(self, s):
        """Every clip of real runs.  At s = 16 the parabola's run has big
        cells, so `iter_big_big`'s clips, over the big sites and over the
        whole input, are checked too."""
        parabola = site_set([(x, x * x) for x in Random(7).sample(range(1, 2**25), 64)])
        for sites in (random_sites(96, 7), parabola):
            clips, table = twin_clips(sites, s)
            kinds = {"seeded", "unseeded"}
            if sites is parabola and s > 1:
                assert table
                kinds.add("big-big")
            assert {kind for *_, kind in clips} == kinds
            for filtered, plain, _ in clips:
                assert filtered == plain

    def test_exact_tie_still_raises(self):
        # The square of side 2k, shifted off a power of two: (o, o + 2k) and
        # (o + 2k, o + 2k) both cut x = o + k, the bisector of (o, o) and
        # (o + 2k, o), at (o + k, o + k), in the farthest sense as in the
        # nearest.  The doubles cannot tell that crossing from the end; the
        # integers find the tie.
        k, o = 2**48, 2**49 - 12345
        sites = site_set([(o, o), (o + 2 * k, o), (o, o + 2 * k), (o + 2 * k, o + 2 * k)])
        arena = ReadOnlyArena(sites)
        assert arena.twin is not None
        span = arena.read_span(0, len(arena))
        p = span[0][1]
        line = exact.bisector_line(p, span[1][1])
        state = [None] * 5
        assert clip_run(state, line, p, span, 1, (0, 1), work=arena)
        with pytest.raises(DegenerateGeometry, match="has a tied end"):
            clip_edge(0, p, 1, span[1][1], line, state)

    @pytest.mark.parametrize("big, built", [(2**50 - 1, True), (2**50, False)])
    def test_twin_gate(self, big, built):
        for far in ((big, 3), (-big, 3), (3, big), (3, -big)):
            arena = ReadOnlyArena(site_set([(0, 0), (1, 2), far]))
            assert (arena.twin is not None) is built
            if built:
                fpts, box = arena.twin
                assert [(int(x), int(y)) for x, y in fpts] == [(0, 0), (1, 2), far]
                assert box == (min(0, far[0]), max(1, far[0]), min(0, far[1]), max(2, far[1]))


def kernel_calls(sites, mode, s, K):
    """Every seeded nearest `clip_run` call and every
    `_IntervalWalk.consider_batch` call of a run, with what it left:
    ((line, p, items, skip, alive, state), ...) and
    ((walk's q, carrier, direction, tail, sites but the skipped, best, tied), ...)."""
    clip, consider = tradeoff.clip_run, _IntervalWalk.consider_batch
    clips, steps = [], []

    def traced_clip(state, line, p, items, want, skip, *, seed=None, work):
        alive = clip(state, line, p, items, want, skip, seed=seed, work=work)
        if seed is not None and want < 0:
            clips.append((line, p, list(items), skip, alive, list(state)))
        return alive

    def traced_consider(walk, batch, work):
        assert walk.best is None  # one call per pending edge
        consider(walk, batch, work)
        skip = (*walk.pair, walk.tail_extra)
        sites = [(j, w) for j, w in batch if j not in skip]
        steps.append((walk.pair_pts[0], walk.carrier, walk.direction, walk.tail, sites, walk.best, walk.tied))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tradeoff, "clip_run", traced_clip)
        patch.setattr(_IntervalWalk, "consider_batch", traced_consider)
        run_diagram(sites, mode, s, K, OutputSink(keep=False))
    return clips, steps


def clip_outcome(line, p, alive, state):
    """A finished clip as `reference_clip` gives it."""
    if not alive:
        return False, None, None, None, None
    ex, ey = _rival_offset(line, *p)  # the rival is p's mirror image in the line
    edge = clip_edge(0, p, 1, (p[0] + ex, p[1] + ey), line, state)
    lo, hi = edge.ends()
    return True, edge.lo_cutter, edge.hi_cutter, hpoint(lo), hpoint(hi)


class TestRealCalls:
    """Each seeded nearest clip and each successor search of real runs,
    replayed against the per-site references: the cull boxes around the
    moving end alone (a certified end's disk holds no site) and the
    successor kernel's drop of outsiders crossing behind the tail change
    no clip and no head."""

    @pytest.mark.parametrize("kind", ["random", "parabola"])
    @pytest.mark.parametrize("mode, s, K", [("nvd", 1, 1), ("nvd", 4, 1), ("order", 4, 2), ("order", 9, 3)])
    def test_calls_match_the_references(self, kind, mode, s, K):
        if kind == "random":
            sites = random_sites(20, 5)
        else:
            sites = site_set([(x, x * x) for x in Random(5).sample(range(1, 1 << 12), 20)])
        clips, steps = kernel_calls(sites, mode, s, K)
        assert clips
        for line, p, items, skip, alive, state in clips:
            want = outcome(reference_clip, line, p, items, -1, skip, ())
            assert outcome(clip_outcome, line, p, alive, state) == want
        assert bool(steps) == (mode == "order")
        for q, carrier, direction, tail, cutters, best, tied in steps:
            want = reference_successor(q, carrier, direction, tail, cutters)
            assert (None if best is None else best[2], tied) == want


class TestReadSpan:
    def make(self, n=7):
        return ReadOnlyArena(site_set([(i, i * i) for i in range(n)]))

    @given(st.integers(0, 7), st.integers(0, 7))
    def test_count_matches_per_index_reads(self, start, stop):
        start, stop = min(start, stop), max(start, stop)
        spans, singles = self.make(), self.make()
        got = spans.read_span(start, stop)
        want = [(j, singles.read(j)) for j in range(start, stop)]
        assert list(got) == want
        assert spans.read_count == singles.read_count == stop - start

    @pytest.mark.parametrize("start, stop", [(-1, 2), (0, 8), (5, 4), (8, 8)])
    def test_out_of_range(self, start, stop):
        arena = self.make()
        with pytest.raises(IndexError):
            arena.read_span(start, stop)
        assert arena.read_count == 0
