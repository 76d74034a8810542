"""Constant-workspace enumeration against the brute-force reference."""

from fractions import Fraction

import pytest

from wsvoronoi import exact
from wsvoronoi.datagen import random_sites, triangle, with_interior_point
from wsvoronoi.geometry import DegenerateGeometry, site_set
from wsvoronoi.memory import OutputSink, ReadOnlyArena, WorkLedger
from wsvoronoi.oracle import check_distance_profile, oracle_vdk, verify_run
from wsvoronoi.scan import (
    DiagramMode,
    FarthestCellEmpty,
    cell_edges,
    cell_walk,
    enumerate_diagram,
    locate_on_hull,
    record_for,
)
from wsvoronoi.tradeoff import _round, _site_source, walk_cells

N, F = DiagramMode.NEAREST, DiagramMode.FARTHEST


def run_diagram(sites, mode):
    arena = ReadOnlyArena(sites)
    sink = OutputSink()
    ledger = WorkLedger(64)
    enumerate_diagram(arena, mode, sink, ledger)
    return arena, sink, ledger


def first_edge(arena, i, mode):
    """The edge the first one-slot round finds for site i's fresh walk."""
    [edge] = _round(arena, [cell_walk(arena, i, mode)], mode)
    return edge


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
        st = locate_on_hull(arena, 0)
        assert not st.inside
        assert {st.cw_neighbor, st.ccw_neighbor} == {1, 2}

    def test_interior_point(self):
        arena = ReadOnlyArena(with_interior_point())
        assert locate_on_hull(arena, 3).inside

    def test_matches_naive_oracle(self):
        P = random_sites(12, 71)
        arena = ReadOnlyArena(P)
        for i in range(12):
            got = not locate_on_hull(arena, i).inside
            assert got == naive_hull_membership(P, i)

    def test_one_pass_reads(self):
        P = random_sites(30, 72)
        arena = ReadOnlyArena(P)
        locate_on_hull(arena, 5)
        assert arena.read_count <= 2 * 30


class TestStartRay:
    """Every walk starts on a known edge of its cell: a nearest walk on its
    bisector with its nearest neighbor, a farthest walk on its unbounded
    edge with a hull neighbor."""

    @pytest.mark.parametrize("seed", [91, 92, 93])
    def test_nearest_starts_on_its_nearest_neighbor_bisector(self, seed):
        P = random_sites(24, seed)
        arena = ReadOnlyArena(P)
        for i, site in enumerate(P):
            walk = cell_walk(arena, i, N)
            assert walk.cutter is None  # found by the first round's pass
            [edge] = _round(arena, [walk], N)
            _, j = min(((w.ix - site.ix) ** 2 + (w.iy - site.iy) ** 2, j) for j, w in enumerate(P) if j != i)
            assert edge.rival == j
            assert edge.piece.carrier.line == exact.bisector_line(site.ipt, P[j].ipt)
            assert check_distance_profile(record_for(arena, edge, N), P) is None

    def test_farthest_starts_on_a_hull_neighbor_bisector(self):
        arena = ReadOnlyArena(triangle())
        walk = cell_walk(arena, 0, F)
        assert walk.cutter in (1, 2)  # known before any pass
        [edge] = _round(arena, [walk], F)
        assert edge.rival in (1, 2)
        assert (edge.piece.lo is None) != (edge.piece.hi is None)  # its unbounded edge

    def test_farthest_interior_raises(self):
        arena = ReadOnlyArena(with_interior_point())
        assert cell_walk(arena, 3, F) is None
        with pytest.raises(FarthestCellEmpty):
            cell_edges(arena, 3, F)


class TestFindEdge:
    def test_triangle_first_edge(self):
        # Site 0 = (0, 0) starts on its bisector with its nearest neighbor,
        # site 2 = (0, 6).
        edge = first_edge(ReadOnlyArena(triangle()), 0, N)
        assert edge.rival == 2
        assert edge.piece.carrier.line == (0, 1, 3)  # on y = 3
        assert edge.piece.lo is None or edge.piece.hi is None  # a ray
        bounded = edge.piece.hi or edge.piece.lo
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
            edges = cell_edges(arena, 0, mode)
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
            mine = {frozenset((e.site, e.rival)) for e in cell_edges(arena, i, N)}
            assert mine == by_cell.get(i, set())


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
                walks = list(_site_source(arena, mode, 2, None))  # the diagram's walks
            except DegenerateGeometry:
                continue
            for walk in walks:
                p = walk.p
                answers = []  # per round: the walk's answer for every site
                reported = []
                try:
                    for _, edge in walk_cells(arena, mode, 1, iter([walk])):
                        reported.append(edge.rival)
                        answers.append({j for j, (x, y) in enumerate(pts) if walk.walked((x - p[0], y - p[1]))})
                except DegenerateGeometry:
                    continue
                for k, walked in enumerate(answers, 1):
                    assert walked & set(reported) == set(reported[:k])
