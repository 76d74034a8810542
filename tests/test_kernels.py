"""The fused batch kernels against per-site exact references.

`clip_run` is checked against a clip computed with Fractions, `ray_run`
against the minimum (or maximum) of `ray_line_param` over the bisectors
`bisector_line` builds, and `read_span` against per-index reads.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsvoronoi import exact
from wsvoronoi.geometry import site_set
from wsvoronoi.memory import ReadOnlyArena
from wsvoronoi.scan import clip_edge, clip_run, ray_run, ray_tie_wins

coord = st.integers(-12, 12)
point = st.tuples(coord, coord)


def reference_clip(line, p, cutters, want, skip, flip):
    """(alive, lo_cut, hi_cut, lo, hi) of the clip, with lo and hi as
    Fraction points (None while unbounded); the first cutter wins ties."""
    a, b, c = line
    x0 = (Fraction(0), Fraction(c, b)) if b else (Fraction(c, a), Fraction(0))
    e = (b, -a)
    lo = hi = lo_cut = hi_cut = None
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
                lo, lo_cut = t, j
        elif hi is None or t < hi:
            hi, hi_cut = t, j
    if lo is not None and hi is not None and lo >= hi:
        return False, None, None, None, None

    def at(t):
        return None if t is None else (x0[0] + t * e[0], x0[1] + t * e[1])

    return True, lo_cut, hi_cut, at(lo), at(hi)


def hpoint(hp):
    return None if hp is None else (Fraction(hp[0], hp[2]), Fraction(hp[1], hp[2]))


def run_clip(p, r, cutters, want, skip, flip, batch):
    """clip_run over `cutters` in batches; (alive, lo_cut, hi_cut, lo, hi)."""
    sites = site_set([p, r, *(w for _, w in cutters)])
    line = exact.bisector_line(p, r)
    state = [None, None, None, None]
    for start in range(0, len(cutters), batch):
        if not clip_run(state, line, p, cutters[start : start + batch], want, skip, flip):
            return False, None, None, None, None
    edge = clip_edge(ReadOnlyArena(sites), 0, p, 1, line, state)
    return True, edge.lo_cutter, edge.hi_cutter, hpoint(edge.piece.lo), hpoint(edge.piece.hi)


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
        assert run_clip(*case) == reference_clip(line, p, cutters, want, skip, flip)

    @settings(max_examples=100, deadline=None)
    @given(clip_case(), st.integers(1, 2**40))
    def test_matches_reference_on_wide_coordinates(self, case, scale):
        p, r, cutters, want, skip, flip, batch = case
        big = lambda q: (q[0] * scale + 1, q[1] * scale - 1)  # noqa: E731
        p, r = big(p), big(r)
        cutters = [(j, big(w)) for j, w in cutters]
        line = exact.bisector_line(p, r)
        got = run_clip(p, r, cutters, want, skip, flip, batch)
        assert got == reference_clip(line, p, cutters, want, skip, flip)

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
        state = [None, None, None, None]
        assert clip_run(state, line, p, sites[:2], -1, (0, 1))
        assert set(state[2:]) == {2, 3}  # x = 4 between (4, -3) and (4, 3)
        kept = list(state)
        # The bisector with (8, 6) also crosses x = 4 at (4, 3): a tie that
        # changes nothing, unless a flip keeps the side beyond (4, 3), which
        # empties the interval before (0, 100) is looked at.
        assert not clip_run(list(state), line, p, sites[2:], -1, (0, 1), {4})
        assert clip_run(state, line, p, sites[2:], -1, (0, 1))
        assert state == kept

    def test_cutters_are_identified(self):
        sites = site_set([(0, 0), (8, 0), (0, 6), (0, -6), (0, 7), (0, -7)])
        items = [(s.index, s.ipt) for s in sites]
        line = exact.bisector_line((0, 0), (8, 0))
        state = [None, None, None, None]
        assert clip_run(state, line, (0, 0), items, -1, (0, 1))
        edge = clip_edge(ReadOnlyArena(sites), 0, (0, 0), 1, line, state)
        assert {edge.lo_cutter, edge.hi_cutter} == {2, 3}
        assert {hpoint(edge.piece.lo), hpoint(edge.piece.hi)} == {(4, 3), (4, -3)}


def reference_ray(p, direction, items, nearest, skip):
    """(index, t) of the rival by per-site bisectors and ray parameters."""
    best = None
    for j, w in items:
        if j == skip:
            continue
        line = exact.bisector_line(p, w)
        t = exact.ray_line_param(p, direction, line)
        if t is None:
            continue
        if best is None:
            best = (t, j, line)
            continue
        c = exact.cmp_params(t, best[0])
        if (nearest and c < 0) or (not nearest and c > 0):
            best = (t, j, line)
        elif c == 0 and ray_tie_wins(direction, line[:2], best[2][:2], nearest):
            best = (t, j, line)
    return None if best is None else (best[1], Fraction(*best[0]))


def run_ray(p, direction, items, nearest, skip, batch):
    best = None
    for start in range(0, len(items), batch):
        best = ray_run(best, p, direction, items[start : start + batch], nearest, skip)
    # ray_run leaves the factor 2 out of every parameter.
    return None if best is None else (best[2], Fraction(best[0], best[1]) / 2)


@st.composite
def ray_case(draw):
    p = draw(point)
    d = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda v: v != (0, 0)))
    pts = draw(st.lists(point.filter(lambda q: q != p), min_size=1, max_size=14))
    items = [(j + 1, w) for j, w in enumerate(pts)]
    items.insert(draw(st.integers(0, len(items))), (0, p))
    return p, exact.primitive_dir(*d), items, draw(st.booleans()), draw(st.integers(1, 6))


class TestRayRun:
    @settings(max_examples=300, deadline=None)
    @given(ray_case())
    def test_matches_per_site_reference(self, case):
        p, d, items, nearest, batch = case
        assert run_ray(p, d, items, nearest, 0, batch) == reference_ray(p, d, items, nearest, 0)

    @pytest.mark.parametrize("nearest", [True, False])
    def test_tie_rule(self, nearest):
        # Both bisectors cross the ray along +x at (2, 0).
        p, d = (0, 0), (1, 0)
        for items in ([(1, (2, 2)), (2, (2, -2))], [(2, (2, -2)), (1, (2, 2))]):
            got = run_ray(p, d, items, nearest, None, 1)
            assert got == reference_ray(p, d, items, nearest, None)
            assert got[1] == 2
        # Turned slightly counterclockwise the ray meets x + y = 2 first:
        # nearest takes (2, 2), farthest (2, -2), in either order.
        assert got[0] == (1 if nearest else 2)

    def test_miss_behind(self):
        assert ray_run(None, (0, 0), (1, 0), [(1, (-4, 1)), (2, (0, 5))], True, 0) is None


class TestReadSpan:
    def make(self, n=7):
        return ReadOnlyArena(site_set([(i, i * i) for i in range(n)]))

    @given(st.integers(0, 7), st.integers(0, 7))
    def test_count_matches_per_index_reads(self, start, stop):
        start, stop = min(start, stop), max(start, stop)
        spans, singles = self.make(), self.make()
        got = spans.read_span(start, stop)
        want = [(j, singles.read(j).ipt) for j in range(start, stop)]
        assert list(got) == want
        assert spans.read_count == singles.read_count == stop - start

    @pytest.mark.parametrize("start, stop", [(-1, 2), (0, 8), (5, 4), (8, 8)])
    def test_out_of_range(self, start, stop):
        arena = self.make()
        with pytest.raises(IndexError):
            arena.read_span(start, stop)
        assert arena.read_count == 0
