"""Exact predicate and construction tests, worked examples first."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsvoronoi import exact
from wsvoronoi.geometry import (
    DegenerateGeometry,
    EdgePiece,
    Ray,
    bisector,
    circumcenter,
    incircle,
    orient,
    ray_hit,
    site_set,
    validate_general_position,
)
from wsvoronoi.memory import ReadOnlyArena
from wsvoronoi.scan import clip_edge, clip_run


def S(*coords):
    return site_set(list(coords))


TRI = S((0, 0), (8, 0), (0, 6))


class TestOrient:
    def test_counterclockwise(self):
        assert orient(*TRI) == 1

    def test_collinear(self):
        a, b, c = S((0, 0), (1, 1), (2, 2))
        assert orient(a, b, c) == 0

    def test_swap_reverses(self):
        a, b, c = TRI
        assert orient(a, c, b) == -1


class TestIncircle:
    def test_inside(self):
        d = S((0, 0), (8, 0), (0, 6), (1, 1))[3]
        assert incircle(*TRI, d) == 1

    def test_on_circle(self):
        # (9, 3) lies on the circle with center (4, 3) and radius 5.
        d = S((0, 0), (8, 0), (0, 6), (9, 3))[3]
        assert incircle(*TRI, d) == 0

    def test_far_outside(self):
        d = S((0, 0), (8, 0), (0, 6), (100, 100))[3]
        assert incircle(*TRI, d) == -1

    def test_collinear_base_rejected(self):
        a, b, c, d = S((0, 0), (1, 1), (2, 2), (5, 0))
        with pytest.raises(DegenerateGeometry):
            incircle(a, b, c, d)


class TestBisector:
    def test_vertical(self):
        a, b = S((0, 0), (8, 0))
        assert bisector(a, b).line == (1, 0, 4)  # x = 4

    def test_horizontal(self):
        a, b = S((0, 0), (0, 6))
        assert bisector(a, b).line == (0, 1, 3)  # y = 3

    def test_slanted(self):
        # Equating squared distances gives 8x - 6y = 14; midpoint (4, 3) fits.
        a, b = S((8, 0), (0, 6))
        line = bisector(a, b).line
        assert line == (4, -3, 7)
        assert 4 * 4 - 3 * 3 == 7

    def test_identical_sites_rejected(self):
        a = S((1, 1), (1, 1), (0, 0))
        with pytest.raises(DegenerateGeometry):
            bisector(a[0], a[1])


class TestRayHit:
    def test_direct_hit(self):
        a, b = S((0, 0), (8, 0))
        t = ray_hit(Ray((0, 0), (1, 0)), bisector(a, b))
        assert Fraction(*t) == 4

    def test_parallel_misses(self):
        a, b = S((0, 0), (0, 6))
        assert ray_hit(Ray((0, 0), (1, 0)), bisector(a, b)) is None

    def test_diagonal(self):
        a, b = S((0, 0), (8, 0))
        t = ray_hit(Ray((0, 0), (1, 1)), bisector(a, b))
        assert Fraction(*t) == 4

    def test_behind_origin_misses(self):
        a, b = S((0, 0), (8, 0))
        assert ray_hit(Ray((0, 0), (-1, 0)), bisector(a, b)) is None

    def test_sweep_finds_no_smaller_crossing(self):
        import random

        rng = random.Random(7)
        checked = 0
        while checked < 1000:
            pts = [(rng.randrange(-50, 50), rng.randrange(-50, 50)) for _ in range(3)]
            if pts[0] == pts[1] or pts[1] == pts[2] or pts[0] == pts[2]:
                continue
            sites = S(pts[1], pts[2], (1000, 1000))
            dx, dy = rng.randrange(-9, 10), rng.randrange(-9, 10)
            if (dx, dy) == (0, 0):
                continue
            line = bisector(sites[0], sites[1])
            try:
                t = ray_hit(Ray(pts[0], (dx, dy)), line)
            except DegenerateGeometry:
                continue
            checked += 1
            if t is None:
                continue
            tf = Fraction(*t)
            a, b, c = line.line
            # On the line at t, strictly off it on a dense grid before t.
            assert a * (pts[0][0] + tf * dx) + b * (pts[0][1] + tf * dy) == c
            for i in range(1, 100):
                ts = tf * i / 100
                assert a * (pts[0][0] + ts * dx) + b * (pts[0][1] + ts * dy) != c


def clip(sites, a, b, cutters, keep_nearer=True):
    """The piece of the bisector of a and b strictly nearer to a than to
    each cutter (farther with keep_nearer=False); None when none is left."""
    line = exact.bisector_line(a.ipt, b.ipt)
    state = [None, None, None, None]
    want = -1 if keep_nearer else 1
    if not clip_run(state, line, a.ipt, [(c.index, c.ipt) for c in cutters], want, (a.index, b.index)):
        return None
    return clip_edge(ReadOnlyArena(sites), a.index, a.ipt, b.index, line, state).piece


class TestClip:
    def test_halfplane_cut(self):
        a, b, c = TRI
        kept = clip(TRI, a, b, [c])  # on x = 4
        assert kept.kind == "ray"
        ends = kept.endpoint_fractions(a.scale)
        present = [e for e in ends if e is not None]
        assert present == [(4, 3)]

    def test_symmetric_cut_to_segment(self):
        sites = S((0, 0), (8, 0), (0, 6), (0, -6))
        a, b, c, d = sites
        kept = clip(sites, a, b, [c, d])
        assert kept.kind == "segment"
        ends = kept.endpoint_fractions(a.scale)
        assert sorted(ends) == [(4, -3), (4, 3)]

    def test_eliminated(self):
        sites = S((0, 0), (8, 0), (100, 0))
        a, b, far = sites
        assert clip(sites, a, far, [b]) is None  # x = 50 lies nearer to b

    def test_idempotent(self):
        a, b, c = TRI
        assert clip(TRI, a, b, [c]) == clip(TRI, a, b, [c, c])

    def test_farther_mode(self):
        a, b, c = TRI
        kept = clip(TRI, a, b, [c], keep_nearer=False)
        ends = kept.endpoint_fractions(a.scale)
        present = [e for e in ends if e is not None]
        assert present == [(4, 3)]
        # Complementary to the nearer side: different unbounded end.
        near = clip(TRI, a, b, [c])
        assert (kept.lo is None) != (near.lo is None)


class TestCircumcenter:
    def test_right_triangle(self):
        x, y, w = circumcenter(*TRI)
        assert (Fraction(x, w), Fraction(y, w)) == (4, 3)

    def test_exact_rational_center(self):
        a, b, c = S((0, 0), (2, 0), (1, 5))
        x, y, w = circumcenter(a, b, c)
        assert (Fraction(x, w), Fraction(y, w)) == (1, Fraction(12, 5))

    def test_permutation_invariance(self):
        a, b, c = TRI
        assert circumcenter(a, b, c) == circumcenter(a, c, b) == circumcenter(c, b, a)

    def test_equidistance(self):
        import random

        rng = random.Random(3)
        for _ in range(50):
            pts = {(rng.randrange(100), rng.randrange(100)) for _ in range(3)}
            if len(pts) < 3:
                continue
            sites = S(*pts)
            if orient(*sites) == 0:
                continue
            x, y, w = circumcenter(*sites)
            d2 = [
                (x - s.ix * w) ** 2 + (y - s.iy * w) ** 2 for s in sites
            ]
            assert d2[0] == d2[1] == d2[2]


class TestValidate:
    def test_triangle_ok(self):
        report = validate_general_position(TRI)
        assert report.ok and report.mode == "exhaustive"

    def test_collinear_triple(self):
        report = validate_general_position(S((0, 0), (1, 1), (2, 2), (5, 0)))
        assert not report.ok
        assert report.violation.kind == "CollinearTriple"
        assert report.violation.indices == (0, 1, 2)

    def test_cocircular_quadruple(self):
        report = validate_general_position(S((0, 0), (8, 0), (0, 6), (8, 6)))
        assert not report.ok
        assert report.violation.kind == "CocircularQuadruple"
        assert report.violation.indices == (0, 1, 2, 3)

    def test_duplicate(self):
        report = validate_general_position(S((0, 0), (1, 2), (0, 0), (5, 1)))
        assert not report.ok
        assert report.violation.kind == "DuplicateSite"
        assert report.violation.indices == (0, 2)

    def test_large_input_sampled(self):
        import random

        from wsvoronoi.datagen import random_sites

        report = validate_general_position(random_sites(80, 1234))
        assert report.ok and report.mode == "sampled"
        assert report.checked_tuples == 1_000_000
        # A planted collinear triple in a big set is found by the sample.
        rng = random.Random(5)
        pts = [(rng.randrange(1 << 30), rng.randrange(1 << 30)) for _ in range(77)]
        pts += [(0, 0), (1000, 1000), (2000, 2000)]
        report = validate_general_position(S(*pts))
        assert not report.ok and report.mode == "sampled"
        assert report.violation.kind == "CollinearTriple"


coord = st.integers(min_value=-1000, max_value=1000)
point = st.tuples(coord, coord)


@given(st.lists(point, min_size=3, max_size=3, unique=True), st.permutations([0, 1, 2]))
@settings(max_examples=200, deadline=None)
def test_orient_antisymmetry(pts, perm):
    sites = S(*pts)
    base = orient(*sites)
    sign = 1
    p = list(perm)
    # Parity of the permutation by counting inversions.
    inv = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
    sign = -1 if inv % 2 else 1
    assert orient(*(sites[i] for i in perm)) == sign * base


@given(st.lists(point, min_size=4, max_size=4, unique=True), st.permutations([0, 1, 2, 3]))
@settings(max_examples=200, deadline=None)
def test_incircle_antisymmetry(pts, perm):
    sites = S(*pts)
    try:
        base = incircle(*sites)
    except DegenerateGeometry:
        return
    p = list(perm)
    inv = sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j])
    sign = -1 if inv % 2 else 1
    try:
        permuted = incircle(*(sites[i] for i in perm))
    except DegenerateGeometry:
        return
    assert permuted == sign * base
