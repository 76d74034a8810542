"""Constant-workspace enumeration against the brute-force reference."""

import random
from fractions import Fraction

import pytest

from cell_intervals import directed_boundary
from wsvoronoi import exact
from wsvoronoi.cli import main
from wsvoronoi.datagen import random_sites, triangle, with_interior_point
from wsvoronoi.geometry import DegenerateGeometry, site_set
from wsvoronoi.memory import OutputSink, ReadOnlyArena, WorkLedger, observing_ledger
from wsvoronoi.oracle import check_distance_profile, oracle_vdk, verify_run
from wsvoronoi.records import Unbounded, read_stream
from wsvoronoi.scan import (
    DiagramMode,
    FarthestCellEmpty,
    arc_walked,
    cell_edges,
    cell_walk,
    enumerate_diagram,
    hull_walk,
    locate_on_hull,
    record_for,
)
from wsvoronoi.tradeoff import _far_round, _SharedEdges, _site_source, walk_cells

N, F = DiagramMode.NEAREST, DiagramMode.FARTHEST


def run_diagram(sites, mode):
    arena = ReadOnlyArena(sites)
    sink = OutputSink()
    ledger = WorkLedger(64)
    enumerate_diagram(arena, mode, sink, ledger)
    return arena, sink, ledger


def one_round(arena, walk, mode):
    """The edge a one-slot round of `walk_cells` finds next for `walk`."""
    if mode is F:
        [edge] = _far_round(arena, [walk])
    else:
        [edge] = _SharedEdges(1, observing_ledger()).round(arena, [walk])
    return edge


def first_edge(arena, i, mode):
    """The edge the first one-slot round finds for site i's fresh walk."""
    return one_round(arena, cell_walk(arena, i, mode, observing_ledger()), mode)


def naive_hull_membership(sites, i):
    # i is on the hull iff some directed site pair has every other site
    # strictly to its left with i on the boundary line... simpler: i is
    # inside iff it is a strict convex combination witness: check all
    # directed pairs (a, b): i is on the hull iff there is a pair such
    # that every site lies strictly right of a->i.
    pts = [s.ipt for s in sites]
    n = len(pts)
    for j in range(n):
        if j == i:
            continue
        side_pos = side_neg = 0
        for w in range(n):
            if w in (i, j):
                continue
            s = exact.orient_ipts(pts[i], pts[j], pts[w])
            if s > 0:
                side_pos += 1
            else:
                side_neg += 1
        if side_pos == 0 or side_neg == 0:
            return True  # supporting line through i exists
    return False


class TestHullMembership:
    def test_triangle_vertices_on_hull(self):
        arena = ReadOnlyArena(triangle())
        st = locate_on_hull(arena, 0, observing_ledger())
        assert st is not None
        assert set(st) == {1, 2}

    def test_interior_point(self):
        arena = ReadOnlyArena(with_interior_point())
        assert locate_on_hull(arena, 3, observing_ledger()) is None

    def test_matches_naive_oracle(self):
        P = random_sites(12, 71)
        arena = ReadOnlyArena(P)
        for i in range(12):
            got = locate_on_hull(arena, i, observing_ledger()) is not None
            assert got == naive_hull_membership(P, i)

    def test_one_pass_reads(self):
        P = random_sites(30, 72)
        arena = ReadOnlyArena(P)
        locate_on_hull(arena, 5, observing_ledger())
        assert arena.read_count <= 2 * 30

    def test_collinear_sites_give_outermost_neighbors(self):
        """On 4x4 grid subsets, full of collinear triples, a site is a hull
        vertex exactly when a monotone chain keeps it, and its neighbors are
        the chain's, never a site inside a hull edge."""

        def chain(pts):
            def half(seq):
                out = []
                for pt in seq:
                    while len(out) > 1 and exact.orient_ipts(out[-2], out[-1], pt) <= 0:
                        out.pop()
                    out.append(pt)
                return out[:-1]

            ordered = sorted(pts)
            return half(ordered) + half(reversed(ordered))  # counterclockwise

        rng = random.Random(73)
        grid = [(x, y) for x in range(4) for y in range(4)]
        for _ in range(200):
            sites = site_set(rng.sample(grid, rng.randint(3, 8)))
            pts = [s.ipt for s in sites]
            hull = chain(pts)
            if len(hull) < 3:
                continue
            arena = ReadOnlyArena(sites)
            for i, pt in enumerate(pts):
                st = locate_on_hull(arena, i, observing_ledger())
                if pt not in hull:
                    assert st is None
                    continue
                at = hull.index(pt)
                following, preceding = hull[(at + 1) % len(hull)], hull[at - 1]
                assert st is not None
                assert (pts[st[0]], pts[st[1]]) == (following, preceding)


class TestStartRay:
    """Every walk starts on a known edge of its cell: a nearest walk on its
    bisector with its nearest neighbor, a farthest walk on its unbounded
    edge with a hull neighbor."""

    @pytest.mark.parametrize("seed", [91, 92, 93])
    def test_nearest_starts_on_its_nearest_neighbor_bisector(self, seed):
        P = random_sites(24, seed)
        arena = ReadOnlyArena(P)
        for i, site in enumerate(P):
            walk = cell_walk(arena, i, N, observing_ledger())
            assert walk.cutter is None  # found by the first round's pass
            edge = one_round(arena, walk, N)
            _, j = min(((w.ix - site.ix) ** 2 + (w.iy - site.iy) ** 2, j) for j, w in enumerate(P) if j != i)
            assert edge.rival == j
            assert edge.line == exact.bisector_line(site.ipt, P[j].ipt)
            assert check_distance_profile(record_for(arena, edge, N), P) is None

    def test_farthest_starts_on_a_hull_neighbor_bisector(self):
        arena = ReadOnlyArena(triangle())
        walk = cell_walk(arena, 0, F, observing_ledger())
        assert walk.cutter in (1, 2)  # known before any pass
        [edge] = _far_round(arena, [walk])
        assert edge.rival in (1, 2)
        assert (edge.lo is None) != (edge.hi is None)  # its unbounded edge

    def test_farthest_interior_raises(self):
        arena = ReadOnlyArena(with_interior_point())
        assert cell_walk(arena, 3, F, observing_ledger()) is None
        with pytest.raises(FarthestCellEmpty):
            cell_edges(arena, 3, F, observing_ledger())

    def test_farthest_cells_beside_a_site_inside_a_hull_edge(self, tmp_path, capsys):
        """Site 1 lies inside the hull edge from site 0 to site 2: it has no
        farthest cell, and the walks of 0 and 2 start on their bisectors
        with each other, not with site 1."""
        path = tmp_path / "sites.txt"
        path.write_text("0 0\n0 1\n0 2\n1 0\n", encoding="utf-8")
        out = tmp_path / "fvd.rec"
        assert main(["run", str(path), "--mode", "fvd", "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out, encoding="utf-8") as fh:
            _, records = read_stream(fh)
        sites = site_set([(0, 0), (0, 1), (0, 2), (1, 0)])
        arena = ReadOnlyArena(sites)
        for i in (0, 2, 3):
            got = {record_for(arena, e, F).undirected_key() for e in cell_edges(arena, i, F, observing_ledger())}
            assert got == {r.undirected_key() for r in records if i in r.pair}
        with pytest.raises(FarthestCellEmpty):
            cell_edges(arena, 1, F, observing_ledger())


class TestFindEdge:
    def test_triangle_first_edge(self):
        # Site 0 = (0, 0) starts on its bisector with its nearest neighbor,
        # site 2 = (0, 6).
        edge = first_edge(ReadOnlyArena(triangle()), 0, N)
        assert edge.rival == 2
        assert edge.line == (0, 1, 3)  # on y = 3
        assert edge.lo is None or edge.hi is None  # a ray
        [bounded] = [hp for hp in edge.ends() if hp is not None]
        assert (Fraction(bounded[0], bounded[2]), Fraction(bounded[1], bounded[2])) == (4, 3)

    def test_farthest_edge_matches_oracle(self):
        P = triangle()
        arena = ReadOnlyArena(P)
        edge = first_edge(arena, 0, F)
        keys = oracle_vdk(P, 2).undirected_keys()
        assert record_for(arena, edge, F).undirected_key() in keys

    def test_midpoint_has_exactly_the_pair_nearest(self):
        P = random_sites(10, 91)
        arena = ReadOnlyArena(P)
        for i in (0, 3, 7):
            rec = record_for(arena, first_edge(arena, i, N), N)
            assert check_distance_profile(rec, P) is None


class TestCellWalk:
    def test_triangle_cells_have_two_edges(self):
        arena = ReadOnlyArena(triangle())
        for mode in (N, F):
            edges = cell_edges(arena, 0, mode, observing_ledger())
            assert len(edges) == 2
            assert {e.rival for e in edges} == {1, 2}

    def test_cells_match_oracle(self):
        P = random_sites(12, 55)
        arena = ReadOnlyArena(P)
        oracle = oracle_vdk(P, 1)
        by_cell: dict = {}
        for e in oracle.edges:
            for side in e.pair:
                by_cell.setdefault(side, set()).add(frozenset(e.pair))
        for i in range(12):
            mine = {frozenset((e.site, e.rival)) for e in cell_edges(arena, i, N, observing_ledger())}
            assert mine == by_cell.get(i, set())


def walk_order(chain, closed, first, second):
    """The keys of `chain`, a cell's boundary in counterclockwise order, in
    the order a walk that starts on chain[first] and moves next to `second`
    (None for a one-edge walk) meets them: around the cell when it is
    closed, else to one end of the chain and then from the first edge to
    the other end."""
    m = len(chain)
    if second is None:
        return chain[first : first + 1]
    step = 1 if chain[(first + 1) % m] == second else -1
    if closed:
        return [chain[(first + step * j) % m] for j in range(m)]
    out = [chain[first]]
    for d in (step, -step):
        j = first + d
        while 0 <= j < m:
            out.append(chain[j])
            j += d
    return out


class TestWalkOrder:
    """A walk meets its cell's edges in boundary order: from its first edge
    around a bounded cell, or to one unbounded edge and then from the first
    edge's other end to the other one.  Each end of an edge after the first
    is told apart by its cutter alone, so this holds only if the cutter at
    the entry end is always the rival of the edge walked in."""

    @pytest.mark.parametrize("kind", ["random", "parabola"])
    @pytest.mark.parametrize("mode", [N, F], ids=["nearest", "farthest"])
    def test_cells_follow_the_oracle_boundary(self, kind, mode):
        if kind == "random":
            P = random_sites(14, 57)
        else:
            P = site_set([(x, x * x) for x in random.Random(58).sample(range(1, 1 << 20), 12)])
        n = len(P)
        arena = ReadOnlyArena(P)
        oracle = oracle_vdk(P, 1 if mode is N else n - 1)
        walked_edges = 0
        for i in range(n):
            cell = frozenset({i}) if mode is N else frozenset(range(n)) - {i}
            boundary = directed_boundary(cell, [e for e in oracle.edges if i in e.pair], P)
            try:
                edges = cell_edges(arena, i, mode, observing_ledger())
            except FarthestCellEmpty:
                assert boundary == ()
                continue
            walked = [record_for(arena, e, mode).undirected_key() for e in edges]
            chain = [r.undirected_key() for r in boundary]
            closed = not isinstance(boundary[0].tail, Unbounded)
            second = walked[1] if len(walked) > 1 else None
            assert walked == walk_order(chain, closed, chain.index(walked[0]), second)
            walked_edges += len(edges)
        assert walked_edges == 2 * len(oracle.edges)

    def test_nearest_cell_reads_only_its_passes_and_rivals(self):
        """A nearest cell walk reads p, the input once for its first rival,
        and per edge the input once and its rival's point: building an
        edge from a finished clip reads nothing."""
        P = random_sites(30, 59)
        n = len(P)
        for i in range(n):
            arena = ReadOnlyArena(P)
            edges = cell_edges(arena, i, N, observing_ledger())
            assert arena.read_count == 1 + n + len(edges) * (n + 1)


class TestWalkDegeneracies:
    """The walk raises on a first edge it cannot walk, with the same
    messages, whether its ends are points or parameters."""

    def test_full_line_first_edge_means_collinear_sites(self, tmp_path, capsys):
        P = site_set([(0, 0), (1, 1), (2, 2), (3, 3)])
        arena = ReadOnlyArena(P)
        walk = hull_walk(arena, 0, 3)
        [edge] = _far_round(arena, [walk])
        assert (edge.lo, edge.hi, edge.lo_cutter, edge.hi_cutter) == (None, None, None, None)
        with pytest.raises(DegenerateGeometry) as raised:
            walk.advance(edge)
        assert str(raised.value) == "hull has fewer than 3 vertices: the sites are collinear"
        path = tmp_path / "line.txt"
        path.write_text("0 0\n1 1\n2 2\n3 3\n")
        for flags in ([], ["--workspace", "4"]):
            assert main(["run", str(path), "--mode", "fvd", *flags, "--out", str(tmp_path / "r.txt")]) == 2
            assert capsys.readouterr().err == "degenerate: hull has fewer than 3 vertices: the sites are collinear\n"

    def test_bounded_first_hull_edge(self):
        # Sites 1 and 5 of this parabola are not hull neighbors: the
        # farthest walk of 1 started on their bisector clips it to a segment.
        P = site_set([(x, x * x) for x in (1, 2, 3, 5, 8, 13)])
        arena = ReadOnlyArena(P)
        walk = hull_walk(arena, 1, 5)
        [edge] = _far_round(arena, [walk])
        assert None not in (edge.lo, edge.hi)
        with pytest.raises(DegenerateGeometry) as raised:
            walk.advance(edge)
        assert str(raised.value) == "edge of hull site 1 against hull neighbor 5 is bounded at both ends"


class TestDiagram:
    @pytest.mark.parametrize("mode,k", [(N, 1), (F, 2)])
    def test_triangle(self, mode, k):
        _, sink, _ = run_diagram(triangle(), mode)
        assert len(sink.records) == 3
        assert {r.undirected_key() for r in sink.records} == oracle_vdk(triangle(), k).undirected_keys()

    def test_random_nearest_matches_oracle(self):
        P = random_sites(20, 301)
        _, sink, _ = run_diagram(P, N)
        assert len(sink.records) <= 3 * 20 - 6
        report = verify_run(sink.records, oracle_vdk(P, 1), 1)
        assert report.ok, report.summary()

    def test_random_farthest_matches_oracle(self):
        P = random_sites(20, 302)
        _, sink, _ = run_diagram(P, F)
        report = verify_run(sink.records, oracle_vdk(P, 19), 19)
        assert report.ok, report.summary()

    def test_farthest_emitted_cells_are_hull_sites(self):
        P = random_sites(14, 303)
        _, sink, _ = run_diagram(P, F)
        touched = set()
        for r in sink.records:
            touched |= set(r.pair)
        hull = {i for i in range(14) if naive_hull_membership(P, i)}
        assert touched == hull

    def test_constant_ledger_peak(self):
        peaks = set()
        for n in (10, 100):
            P = random_sites(n, 400 + n)
            _, _, ledger = run_diagram(P, N)
            assert ledger.peak_words <= 64
            peaks.add(ledger.peak_words)
        assert len(peaks) == 1, "peak should not depend on n"

    def test_reads_are_reproducible(self):
        P = random_sites(13, 405)
        a1, _, _ = run_diagram(P, N)
        a2, _, _ = run_diagram(P, N)
        assert a1.read_count == a2.read_count

    def test_reads_linear_per_edge(self):
        for n in (3, 16, 48):
            P = random_sites(n, 500 + n) if n > 3 else triangle()
            arena, sink, _ = run_diagram(P, N)
            assert arena.read_count <= 4 * n * (sink.emitted_count + 2)


from hypothesis import given, settings
from hypothesis import strategies as st

small_point = st.tuples(st.integers(0, 30), st.integers(0, 30))


@given(st.lists(small_point, min_size=4, max_size=7, unique=True))
@settings(max_examples=40, deadline=None)
def test_small_grid_sets_match_oracle(pts):
    """Small-coordinate inputs (a different numeric regime from the wide
    random grid) agree with the reference whenever they are degenerate-free."""
    from wsvoronoi.geometry import site_set, validate_general_position

    P = site_set(pts)
    if not validate_general_position(P).ok:
        return
    for mode, k in ((N, 1), (F, len(P) - 1)):
        arena = ReadOnlyArena(P)
        sink = OutputSink()
        enumerate_diagram(arena, mode, sink, WorkLedger(64))
        got = {r.undirected_key() for r in sink.records}
        assert len(got) == len(sink.records)
        assert got == oracle_vdk(P, k).undirected_keys()


class TestWalkedArc:
    """A walk cut after any round knows from its arc alone which edges of
    its cell it reported: the rivals whose offsets lie in the angles its
    legs swept."""

    @given(st.lists(small_point, min_size=4, max_size=9, unique=True))
    @settings(max_examples=80, deadline=None)
    def test_walked_is_what_the_walk_reported(self, pts):
        P = site_set(pts)
        arena = ReadOnlyArena(P)
        for mode in (N, F):
            try:
                walks = list(_site_source(arena, mode, 2, observing_ledger()))  # the diagram's walks
            except DegenerateGeometry:
                continue
            for walk in walks:
                p = walk.p
                answers = []  # per round: the walk's answer for every site
                reported = []
                try:
                    for _, edge, _ in walk_cells(arena, mode, 1, iter([walk]), observing_ledger()):
                        reported.append(edge.rival)
                        arc = walk.arc()
                        answers.append({j for j, (x, y) in enumerate(pts) if arc_walked(arc, (x - p[0], y - p[1]))})
                except DegenerateGeometry:
                    continue
                for k, walked in enumerate(answers, 1):
                    assert walked & set(reported) == set(reported[:k])
