"""Exact predicate and construction tests, worked examples first."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wsvoronoi.exact import bisector_line, circumcenter_hpoint, incircle_ipts, orient_ipts
from wsvoronoi.geometry import site_set, validate_general_position
from wsvoronoi.memory import ReadOnlyArena
from wsvoronoi.scan import clip_edge, clip_run


def S(*coords):
    return site_set(list(coords))


TRI_PTS = ((0, 0), (8, 0), (0, 6))
TRI = S(*TRI_PTS)


class TestOrient:
    def test_counterclockwise(self):
        assert orient_ipts(*TRI_PTS) == 1

    def test_collinear(self):
        assert orient_ipts((0, 0), (1, 1), (2, 2)) == 0

    def test_swap_reverses(self):
        a, b, c = TRI_PTS
        assert orient_ipts(a, c, b) == -1


class TestIncircle:
    def test_inside(self):
        assert incircle_ipts(*TRI_PTS, (1, 1)) == 1

    def test_on_circle(self):
        # (9, 3) lies on the circle with center (4, 3) and radius 5.
        assert incircle_ipts(*TRI_PTS, (9, 3)) == 0

    def test_far_outside(self):
        assert incircle_ipts(*TRI_PTS, (100, 100)) == -1


class TestBisector:
    def test_vertical(self):
        assert bisector_line((0, 0), (8, 0)) == (1, 0, 4)  # x = 4

    def test_horizontal(self):
        assert bisector_line((0, 0), (0, 6)) == (0, 1, 3)  # y = 3

    def test_slanted(self):
        # Equating squared distances gives 8x - 6y = 14; midpoint (4, 3) fits.
        line = bisector_line((8, 0), (0, 6))
        assert line == (4, -3, 7)
        assert 4 * 4 - 3 * 3 == 7


def clip(a, b, cutters, keep_nearer=True):
    """The piece of the bisector of a and b strictly nearer to a than to
    each cutter (farther with keep_nearer=False); None when none is left."""
    line = bisector_line(a.ipt, b.ipt)
    state = [None] * 6
    want = -1 if keep_nearer else 1
    items = [(c.index, c.ipt) for c in cutters]
    if not clip_run(state, line, a.ipt, b.ipt, items, want, (a.index, b.index), work=ReadOnlyArena((a, b, *cutters))):
        return None
    return clip_edge(a.index, a.ipt, b.index, b.ipt, line, state)


def ends(piece, scale):
    """The piece's endpoints as Fraction pairs, None where it is unbounded."""

    def fracs(hp):
        x, y, w = hp
        return Fraction(x, w * scale), Fraction(y, w * scale)

    return [None if hp is None else fracs(hp) for hp in piece.ends()]


class TestClip:
    def test_halfplane_cut(self):
        a, b, c = TRI
        kept = clip(a, b, [c])  # on x = 4
        present = [e for e in ends(kept, a.scale) if e is not None]
        assert present == [(4, 3)]  # a ray

    def test_symmetric_cut_to_segment(self):
        sites = S((0, 0), (8, 0), (0, 6), (0, -6))
        a, b, c, d = sites
        kept = clip(a, b, [c, d])
        assert sorted(ends(kept, a.scale)) == [(4, -3), (4, 3)]  # a segment

    def test_eliminated(self):
        sites = S((0, 0), (8, 0), (100, 0))
        a, b, far = sites
        assert clip(a, far, [b]) is None  # x = 50 lies nearer to b

    def test_idempotent(self):
        a, b, c = TRI
        assert clip(a, b, [c]) == clip(a, b, [c, c])

    def test_farther_mode(self):
        a, b, c = TRI
        kept = clip(a, b, [c], keep_nearer=False)
        present = [e for e in ends(kept, a.scale) if e is not None]
        assert present == [(4, 3)]
        # Complementary to the nearer side: different unbounded end.
        near = clip(a, b, [c])
        assert (kept.lo is None) != (near.lo is None)


class TestCircumcenter:
    def test_right_triangle(self):
        x, y, w = circumcenter_hpoint(*TRI_PTS)
        assert (Fraction(x, w), Fraction(y, w)) == (4, 3)

    def test_exact_rational_center(self):
        x, y, w = circumcenter_hpoint((0, 0), (2, 0), (1, 5))
        assert (Fraction(x, w), Fraction(y, w)) == (1, Fraction(12, 5))

    def test_permutation_invariance(self):
        a, b, c = TRI_PTS
        assert circumcenter_hpoint(a, b, c) == circumcenter_hpoint(a, c, b) == circumcenter_hpoint(c, b, a)

    def test_equidistance(self):
        import random

        rng = random.Random(3)
        for _ in range(50):
            pts = list({(rng.randrange(100), rng.randrange(100)) for _ in range(3)})
            if len(pts) < 3 or orient_ipts(*pts) == 0:
                continue
            x, y, w = circumcenter_hpoint(*pts)
            d2 = [(x - px * w) ** 2 + (y - py * w) ** 2 for px, py in pts]
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


def parity(perm) -> int:
    """+1 for an even permutation, -1 for an odd one (by inversions)."""
    p = list(perm)
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return -1 if inv % 2 else 1


@given(st.lists(point, min_size=3, max_size=3, unique=True), st.permutations([0, 1, 2]))
@settings(max_examples=200, deadline=None)
def test_orient_antisymmetry(pts, perm):
    base = orient_ipts(*pts)
    assert orient_ipts(*(pts[i] for i in perm)) == parity(perm) * base


@given(st.lists(point, min_size=4, max_size=4, unique=True), st.permutations([0, 1, 2, 3]))
@settings(max_examples=200, deadline=None)
def test_incircle_antisymmetry(pts, perm):
    base = incircle_ipts(*pts)
    assert incircle_ipts(*(pts[i] for i in perm)) == parity(perm) * base
