"""Batched s-workspace construction: equivalence and model compliance."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsvoronoi import exact, scan, tradeoff
from wsvoronoi.cli import run_diagram
from wsvoronoi.datagen import random_sites, triangle
from wsvoronoi.geometry import DegenerateGeometry, site_set
from wsvoronoi.memory import OutputSink, ReadOnlyArena, WorkLedger, observing_ledger
from wsvoronoi.oracle import oracle_vdk, verify_run
from wsvoronoi.records import format_record
from wsvoronoi.scan import DiagramMode, arc_walked, cell_walk, enumerate_diagram, record_for
from wsvoronoi.tradeoff import (
    W_BATCH_SITE,
    W_FIXED,
    W_HULL_DRAWN,
    W_HULL_POINT,
    W_MEM_SITE,
    W_SHARED_EDGE,
    W_SLOT,
    _edge_vanished,
    _HullDraws,
    _SharedEdges,
    find_big_cells,
    hull_stream,
    iter_big_big,
    iter_diagram,
    iter_small_incident,
    run_tradeoff,
    table_words,
    walk_cells,
)

N, F = DiagramMode.NEAREST, DiagramMode.FARTHEST


def run(sites, mode, s, enforce=True):
    arena = ReadOnlyArena(sites)
    sink = OutputSink()
    ledger = WorkLedger(64 * s, enforcing=enforce)
    run_tradeoff(arena, mode, s, sink, ledger)
    return arena, sink, ledger


def naive_hull(P):
    pts = [p.ipt for p in P]
    start = min(range(len(pts)), key=lambda i: pts[i])
    hull = [start]
    while True:
        a = hull[-1]
        cand = None
        for j in range(len(pts)):
            if j == a:
                continue
            if cand is None or exact.orient_ipts(pts[a], pts[cand], pts[j]) > 0:
                cand = j
        if cand == start:
            return hull
        hull.append(cand)


class TestBatchDiagram:
    """iter_big_big with every site in the table: the whole diagram comes
    from the in-workspace diagram of the big sites."""

    def test_triangle(self):
        arena = ReadOnlyArena(triangle())
        assert len(list(iter_big_big(arena, N, 4, dict.fromkeys(range(3), ()), observing_ledger()))) == 3

    def test_matches_oracle_on_subset(self):
        P = random_sites(12, 811)
        for mode, k in ((N, 1), (F, 11)):
            arena = ReadOnlyArena(P)
            edges = iter_big_big(arena, mode, 4, dict.fromkeys(range(12), ()), observing_ledger())
            got = {record_for(arena, e, mode).undirected_key() for e in edges}
            assert got == oracle_vdk(P, k).undirected_keys()

    def test_single_site(self):
        arena = ReadOnlyArena(triangle())
        assert list(iter_big_big(arena, N, 4, {0: ()}, observing_ledger())) == []


class SpanArena(ReadOnlyArena):
    """An arena that logs every span and single read it serves."""

    __slots__ = ("spans", "singles")

    def __init__(self, sites):
        super().__init__(sites)
        self.spans = []
        self.singles = 0

    def read_span(self, start, stop):
        self.spans.append((start, stop))
        return super().read_span(start, stop)

    def read(self, i):
        self.singles += 1
        return super().read(i)


def walk_by_hand(arena, walk, mode, size):
    """Every edge of `walk`, each found by driving `nearest_run` (a nearest
    walk's first rival, the nearest of the spans' nearest sites) and
    `clip_run` (state carried across calls) over the input in spans of
    `size` sites."""
    nearest = mode is N
    n = len(arena)
    spans = [arena.read_span(i, min(n, i + size)) for i in range(0, n, size)]
    edges = []
    while not walk.done:
        if walk.cutter is None:
            points = {j: w for span in spans for j, w in span}
            near = [scan.nearest_run(walk.p, span, walk.site, arena) for span in spans]
            walk.cutter = scan.nearest_run(walk.p, [(j, points[j]) for j in near if j is not None], walk.site, arena)
        walk.begin_clip()
        r = arena.read(walk.rival)
        line = exact.bisector_line(walk.p, r)
        for span in spans:
            want = -1 if nearest else 1
            assert scan.clip_run(walk.state, line, walk.p, r, span, want, (walk.site, walk.rival), work=arena)
        edge = scan.clip_edge(walk.site, walk.p, walk.rival, r, line, walk.state)
        edges.append(edge)
        walk.advance(edge)
    return edges


def walk_by_rounds(arena, slots, mode):
    """Every edge of each slot, `walk_cells` serving all live slots at once."""
    edges = {slot.site: [] for slot in slots}
    for slot, edge, _ in walk_cells(arena, mode, len(slots), iter(slots), observing_ledger()):
        edges[slot.site].append(edge)
    return edges


def plain_round(arena, slots, mode):
    """One round of `slots` as `walk_cells` runs it, with a shared-edge
    table that holds nothing, as at s = 1."""
    return (_SharedEdges if mode is N else _HullDraws)(1, observing_ledger()).round(arena, slots)


class TestFindEdgesBatched:
    """A lock-step round hands each live slot's kernels the whole input as
    one span; the edges are those of any split of the pass, and of a round
    with that slot alone."""

    def test_single_slot_one_span_equals_batches(self):
        """A one-slot round's edges are those that kernels fed the input in
        spans of three sites give."""
        P = random_sites(16, 812)
        arena = ReadOnlyArena(P)
        for mode in (N, F):
            for i in range(16):
                if cell_walk(arena, i, mode, observing_ledger()) is None:
                    continue
                [whole] = walk_by_rounds(arena, [cell_walk(arena, i, mode, observing_ledger())], mode).values()
                batched = walk_by_hand(arena, cell_walk(arena, i, mode, observing_ledger()), mode, 3)
                assert [record_for(arena, e, mode) for e in whole] == [record_for(arena, e, mode) for e in batched]

    def test_batched_equals_sequential(self):
        """Slots sharing rounds walk the edges they walk alone."""
        P = random_sites(16, 812)
        arena = ReadOnlyArena(P)
        for mode in (N, F):
            slots = [w for w in (cell_walk(arena, i, mode, observing_ledger()) for i in range(16)) if w is not None][:4]
            shared = walk_by_rounds(arena, slots, mode)
            for slot in slots:
                [alone] = walk_by_rounds(arena, [cell_walk(arena, slot.site, mode, observing_ledger())], mode).values()
                assert [record_for(arena, e, mode) for e in shared[slot.site]] == [
                    record_for(arena, e, mode) for e in alone
                ]

    def test_whole_input_in_one_batch(self):
        P = random_sites(6, 813)
        arena = ReadOnlyArena(P)
        slots = [cell_walk(arena, i, N, observing_ledger()) for i in range(6)]
        edges = plain_round(arena, slots, N)
        assert len(edges) == 6


class TestPassStructure:
    """A round reads the input as one n-site span per pass and makes one
    kernel call with that span per live walk and pass; fresh nearest walks
    add a `nearest_run` pass for their first rivals, and farthest walks,
    which start on a known edge, never do.  A walk past its first edge,
    nearest or farthest, hands that same call its seed, the site whose
    bisector holds its entry vertex, which reads nothing.  Besides the
    spans a round reads one point per slot, its rival's."""

    @pytest.mark.parametrize("mode", [N, F])
    def test_round_reads_one_span_per_pass(self, mode, monkeypatch):
        calls = {"clip": 0, "nearest": 0, "seed": 0}

        def counted(name, kernel, at):
            def run(*args, **kwargs):
                assert len(args[at]) == n  # the sites: every call takes the span
                calls[name] += 1
                calls["seed"] += kwargs.get("seed") is not None
                return kernel(*args, **kwargs)

            return run

        monkeypatch.setattr(tradeoff, "clip_run", counted("clip", tradeoff.clip_run, 4))
        monkeypatch.setattr(tradeoff, "nearest_run", counted("nearest", tradeoff.nearest_run, 1))
        P = random_sites(20, 816)
        arena = SpanArena(P)
        n = len(P)
        slots = [w for w in (cell_walk(arena, i, mode, observing_ledger()) for i in range(n)) if w is not None][:5]
        m = len(slots)
        for fresh in (True, False):
            assert all(t.first_edge is None for t in slots) is fresh
            calls.update(clip=0, nearest=0, seed=0)
            arena.spans.clear()
            reads, singles = arena.read_count, arena.singles
            edges = plain_round(arena, slots, mode)
            first = fresh and mode is N
            passes = 2 if first else 1
            assert arena.spans == [(0, n)] * passes
            assert arena.read_count - reads == passes * n + arena.singles - singles
            # One single read per slot, its rival's point: a clipped edge
            # keeps its ends as parameters and reads no cutter.
            assert arena.singles - singles == m
            seeded = 0 if fresh else m
            assert calls == {"clip": m, "nearest": m if first else 0, "seed": seeded}
            for slot, edge in zip(slots, edges):
                slot.advance(edge)
            slots = [t for t in slots if not t.done]
            m = len(slots)
            assert m > 0

    def test_big_big_reads_one_span(self):
        P = random_sites(12, 811)
        arena = SpanArena(P)
        edges = list(iter_big_big(arena, N, 4, dict.fromkeys(range(12), ()), observing_ledger()))
        assert edges
        assert arena.spans == [(0, 12)]


class TestHullChain:
    """Farthest walks start on their unbounded edge with a hull neighbor;
    with one slot each walk names the next hull site."""

    def test_one_slot_passes(self):
        """Two passes find the anchor and its neighbor, then one pass per
        step of the walks: each of the 2n - 3 edges of the farthest diagram
        of n sites in convex position is walked from both its cells, less
        the first edge of every walk but the anchor's, which the walk
        before ended on and handed on clipped."""
        n = 24
        arena = SpanArena(parabola(n, 841))
        run_tradeoff(arena, F, 1, OutputSink(keep=False), observing_ledger())
        assert arena.spans == [(0, n)] * (2 + 2 * (2 * n - 3) - (n - 1))
        assert arena.read_count == n * len(arena.spans) + arena.singles

    @pytest.mark.parametrize("kind", ["parabola", "random"])
    def test_handed_first_edge_is_the_clipped_one(self, kind):
        """Every walk but the anchor's is handed its first edge whole by the
        walk before, and takes it with no read and no kernel call; it is
        the edge a full pass over the input gives on the same bisector."""
        arena = ReadOnlyArena(parabola(24, 843) if kind == "parabola" else random_sites(40, 844))
        n = len(arena)
        chained = 0
        for walk in tradeoff._hull_chain(arena, observing_ledger()):
            r = arena.read(walk.cutter)
            line = exact.bisector_line(walk.p, r)
            state = [None] * 6
            assert scan.clip_run(state, line, walk.p, r, arena.read_span(0, n), 1, (walk.site, walk.cutter), work=arena)
            full = scan.clip_edge(walk.site, walk.p, walk.cutter, r, line, state)
            handed = walk.handed
            before = arena.read_count, arena.site_visits
            [edge] = plain_round(arena, [walk], F)
            if handed is not None:
                assert edge == full
                assert (arena.read_count, arena.site_visits) == before
                chained += 1
            walk.advance(edge)
            while not walk.done:
                [edge] = plain_round(arena, [walk], F)
                walk.advance(edge)
        assert chained == len(list(hull_stream(arena, 1, observing_ledger()))) - 1

    def test_first_edge_must_be_a_ray(self):
        """Started against a site that is not its hull neighbor, a farthest
        walk's first edge is bounded at both ends or empty; it is never
        walked on."""
        n = 6
        arena = ReadOnlyArena(parabola(n, 842))
        hull = list(hull_stream(arena, 1, observing_ledger()))
        raised = 0
        for a, i in enumerate(hull):
            for j in hull[a + 2 : a + n - 1]:
                walk = scan.hull_walk(arena, i, j)
                try:
                    [edge] = plain_round(arena, [walk], F)
                except AssertionError:
                    continue  # clipped to nothing
                with pytest.raises(DegenerateGeometry, match="bounded at both ends"):
                    walk.advance(edge)
                raised += 1
        assert raised


class TestEdgeVanished:
    """A tracked edge clipped away is a cocircular tie when it shrank to a
    point, and a defect when it is strictly empty."""

    def _slot(self, lo, hi):
        slot = cell_walk(ReadOnlyArena(triangle()), 0, N, observing_ledger())
        slot.rival = 1
        slot.state = [lo, hi, 2, 2]
        return slot

    def test_point_is_degenerate(self):
        with pytest.raises(DegenerateGeometry):
            _edge_vanished(self._slot((3, 2), (6, 4)))

    def test_strictly_empty_is_a_defect(self):
        with pytest.raises(AssertionError):
            _edge_vanished(self._slot((3, 2), (5, 4)))


class TestBigCellTable:
    def test_small_input_completes(self):
        arena = ReadOnlyArena(triangle())
        assert len(find_big_cells(arena, N, 8, observing_ledger())) == 0

    def test_bounded_by_s(self):
        P = random_sites(16, 814)
        arena = ReadOnlyArena(P)
        assert len(find_big_cells(arena, N, 4, observing_ledger())) <= 4

    def test_farthest_big_cells_are_hull_sites(self):
        P = random_sites(16, 815)
        arena = ReadOnlyArena(P)
        table = find_big_cells(arena, F, 4, observing_ledger())
        hull = set(naive_hull(P))
        assert set(table) <= hull


class TestBigCells:
    """Walks cut short when the input runs out leave a table of big cells."""

    P = random_sites(40, 3)
    # (mode, s, k, big cells, big-big edges, the length of each big cell's arc)
    CASES = (
        (N, 8, 1, [0, 6, 9, 19, 25, 27, 39], 10, [0, 7, 7, 0, 0, 7, 0]),
        (F, 4, 39, [3, 14], 1, [7, 7]),
    )

    @pytest.mark.parametrize("mode, s, k, big, big_big, arcs", CASES, ids=["nearest", "farthest"])
    def test_table_and_big_big_edges(self, mode, s, k, big, big_big, arcs):
        table = find_big_cells(ReadOnlyArena(self.P), mode, s, observing_ledger())
        assert list(table) == big
        assert len(list(iter_big_big(ReadOnlyArena(self.P), mode, s, table, observing_ledger()))) == big_big

    @pytest.mark.parametrize("mode, s, k, big, big_big, arcs", CASES, ids=["nearest", "farthest"])
    def test_reporting_walks_find_the_same_table(self, mode, s, k, big, big_big, arcs):
        found = []
        list(iter_diagram(ReadOnlyArena(self.P), mode, s, observing_ledger(), found))
        [table] = found
        assert list(table) == list(find_big_cells(ReadOnlyArena(self.P), mode, s, observing_ledger())) == big
        # A big walk that reported an edge before it was cut keeps a 7-word
        # arc, one cut before its first edge (); the table charges 8 words
        # an entry either way.
        assert [len(arc) for arc in table.values()] == arcs
        assert table_words(table) == 8 * len(big)

    @pytest.mark.parametrize("mode, s, k, big, big_big, arcs", CASES, ids=["nearest", "farthest"])
    def test_run_matches_oracle_and_releases_ledger(self, mode, s, k, big, big_big, arcs):
        _, sink, ledger = run(self.P, mode, s)
        report = verify_run(sink.records, oracle_vdk(self.P, k), k)
        assert report.ok, report.summary()
        assert ledger.live_words == 0


class TestPhases:
    def test_empty_table_reduces_to_index_dedup(self):
        arena = ReadOnlyArena(triangle())
        edges = list(iter_small_incident(arena, N, 8, {}, observing_ledger()))
        assert len(edges) == 3

    def test_phases_disjoint_union(self):
        P = random_sites(16, 816)
        for mode, k in ((N, 1), (F, 15)):
            arena = ReadOnlyArena(P)
            table = find_big_cells(arena, mode, 4, observing_ledger())
            small = {
                record_for(arena, e, mode).undirected_key()
                for e in iter_small_incident(arena, mode, 4, table, observing_ledger())
            }
            big = {
                record_for(arena, e, mode).undirected_key()
                for e in iter_big_big(arena, mode, 4, table, observing_ledger())
            }
            assert small.isdisjoint(big)
            assert small | big == oracle_vdk(P, k).undirected_keys()

    def test_big_big_empty_for_tiny_table(self):
        arena = ReadOnlyArena(triangle())
        assert list(iter_big_big(arena, N, 8, {0: ()}, observing_ledger())) == []


def parabola(n, seed):
    """n sites (x, x**2) on a parabola: all in convex position, and in
    general position since the x values are positive."""
    import random

    from wsvoronoi.geometry import site_set

    rng = random.Random(seed)
    return site_set([(x, x * x) for x in rng.sample(range(1, 1 << 20), n)])


class TestTableOrder:
    """Big-big output follows the table's iteration order, so every
    order-1 table is built in index order, whichever search finds it."""

    @pytest.mark.parametrize("kind", ["random", "convex"])
    def test_run_and_search_tables_agree_in_index_order(self, kind):
        sizes = []
        for n, seed in ((40, 3), (64, 5)):
            P = random_sites(n, seed) if kind == "random" else parabola(n, seed)
            for mode in (N, F):
                for s in (2, 3, 8, n - 1):
                    table = run_tradeoff(ReadOnlyArena(P), mode, s, OutputSink(keep=False), observing_ledger())
                    search = find_big_cells(ReadOnlyArena(P), mode, s, observing_ledger())
                    assert list(table) == list(search) == sorted(table), (n, mode, s)
                    assert set(search.values()) <= {()}
                    sizes.append(len(table))
        assert max(sizes) > 2


class TestReportedOnce:
    """Every edge is reported at once by the first walk to reach it, and
    the edges between two big cells that neither cut walk reached come
    after the walks: each edge of the diagram is reported exactly once at
    every s, with big cells (s = 2, 3, 8 and, in nvd, n - 1: 33 and 38 of
    the 40 cells) or without (s = 1 and s >= n)."""

    SETS = {"random": random_sites(40, 844), "convex": parabola(40, 845)}
    ORACLE = {}

    @pytest.mark.parametrize("s", [1, 2, 3, 8, 39, 40, 45])
    @pytest.mark.parametrize("name", sorted(SETS))
    def test_every_oracle_edge_once(self, name, s):
        P = self.SETS[name]
        for mode, k in ((N, 1), (F, len(P) - 1)):
            if (name, k) not in self.ORACLE:
                self.ORACLE[name, k] = oracle_vdk(P, k).undirected_keys()
            _, sink, ledger = run(P, mode, s)
            keys = [r.undirected_key() for r in sink.records]
            assert len(keys) == len(set(keys)), f"an edge reported twice in {mode.value} at s={s}"
            assert set(keys) == self.ORACLE[name, k]
            assert ledger.live_words == 0


class TestOneWalkPerCell:
    """No cell is walked twice: an `iter_diagram` run builds one walk per
    cell, n nearest walks and one farthest walk per hull site, also where
    walks are cut short."""

    UNIFORM, CONVEX = random_sites(144, 1), parabola(64, 11)

    @pytest.mark.parametrize(
        "mode, s, P",
        [(N, 24, UNIFORM), (N, 64, UNIFORM), (F, 8, CONVEX), (F, 24, CONVEX)],
        ids=["nvd-s24", "nvd-s64", "fvd-s8", "fvd-s24"],
    )
    def test_one_tracked_site_per_cell(self, mode, s, P, monkeypatch):
        built = []

        class Counted(scan.TrackedSite):
            __slots__ = ()

            def __init__(self, site_idx, *args):
                built.append(site_idx)
                super().__init__(site_idx, *args)

        monkeypatch.setattr(scan, "TrackedSite", Counted)
        found = []
        list(iter_diagram(ReadOnlyArena(P), mode, s, observing_ledger(), found))
        assert found[0], "the run cut no walk short"
        # Every site of the parabola is a hull site, with a farthest cell.
        assert sorted(built) == list(range(len(P))), f"{len(built)} walks for {len(P)} cells"


class TestEdgeCounts:
    """Every edge once, counted at a scale the oracle cannot reach: a
    diagram of F cells, u of them unbounded, has 3F - 3 - u edges (Euler's
    relation, with a vertex at infinity, and degree 3 in general
    position), so 3n - 3 - h nearest edges and 2h - 3 farthest ones.  Each
    run writes as many distinct records, the same lines as the one-slot
    run."""

    CASES = {"nvd": (N, random_sites(1024, 1), (64, 256)), "fvd": (F, parabola(256, 1), (16, 255))}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_distinct_records_match_the_count(self, name):
        mode, P, s_list = self.CASES[name]
        n, h = len(P), len(naive_hull(P))
        want = 3 * n - 3 - h if mode is N else 2 * h - 3
        runs = {}
        for s in (1, *s_list):
            arena = ReadOnlyArena(P)
            edges = iter_diagram(arena, mode, s, observing_ledger())
            runs[s] = sorted(format_record(record_for(arena, e, mode)) for e in edges)
            assert len(set(runs[s])) == len(runs[s]) == want, (name, s)
        assert all(lines == runs[1] for lines in runs.values())


class TestHullStream:
    def test_triangle_clockwise(self):
        arena = ReadOnlyArena(triangle())
        assert list(hull_stream(arena, 2, observing_ledger())) == naive_hull(triangle())

    @pytest.mark.parametrize("s", [1, 2, 3, 5, 12])
    def test_matches_naive(self, s):
        inputs = [random_sites(12, 820 + seed) for seed in range(6)] + [parabola(12, 826)]
        for P in inputs:
            arena = ReadOnlyArena(P)
            assert list(hull_stream(arena, s, observing_ledger())) == naive_hull(P)

    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    def test_charge_covers_window(self, s, monkeypatch):
        largest = {"chain": 0}
        original = tradeoff._merge_chain

        def spy(items, anchor, limit):
            chain = original(items, anchor, limit)
            largest["chain"] = max(largest["chain"], len(chain))
            return chain

        monkeypatch.setattr(tradeoff, "_merge_chain", spy)
        ledger = WorkLedger(10**6, enforcing=True)
        list(hull_stream(ReadOnlyArena(random_sites(40, 836)), s, ledger))
        assert 2 <= largest["chain"] <= s + 1
        # One point more than the chain keeps while a site is inserted.
        held = (largest["chain"] + 1) * W_HULL_POINT + W_FIXED
        assert held <= ledger.peak_words
        assert ledger.live_words == 0

    @pytest.mark.parametrize("P", [random_sites(40, 837), parabola(24, 838)], ids=["uniform", "convex"])
    def test_one_point_window_is_gift_wrapping(self, P):
        """One pass to find the start, then one pass per hull vertex."""
        arena = ReadOnlyArena(P)
        hull = list(hull_stream(arena, 1, observing_ledger()))
        assert hull == naive_hull(P)
        assert arena.read_count == len(P) * (len(hull) + 1)

    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    def test_sites_inside_hull_edges_are_not_vertices(self, s):
        """Collinear sites on a hull edge are passed over at every window,
        also when a vertex that hides them was cut off the chain earlier."""
        from wsvoronoi.geometry import site_set

        # Index order that makes the chain from (3, 3) drop (0, 0) before
        # (2, 0) and (1, 0) arrive.
        pts = [(0, 1), (2, 1), (0, 0), (3, 1), (1, 1), (0, 3), (2, 0), (3, 0), (2, 3), (3, 3), (2, 2), (1, 0)]
        pts += [(3, 2), (1, 3)]
        hull = list(hull_stream(ReadOnlyArena(site_set(pts)), s, observing_ledger()))
        assert [pts[i] for i in hull] == [(0, 0), (0, 3), (3, 3), (3, 0)]

    def test_convex_position_visits_all(self):
        import math
        import random

        from wsvoronoi.geometry import site_set

        rng = random.Random(9)
        pts = []
        for i in range(14):
            ang = 2 * math.pi * i / 14 + rng.random() * 0.1
            pts.append((int(10**7 * math.cos(ang)), int(10**7 * math.sin(ang))))
        P = site_set(pts)
        arena = ReadOnlyArena(P)
        got = list(hull_stream(arena, 4, observing_ledger()))
        assert sorted(got) == list(range(14))


class TestRunTradeoff:
    @pytest.mark.parametrize("s", [1, 2, 8])
    def test_triangle_any_s(self, s):
        for mode, k in ((N, 1), (F, 2)):
            _, sink, _ = run(triangle(), mode, s)
            assert {r.undirected_key() for r in sink.records} == oracle_vdk(triangle(), k).undirected_keys()

    def test_canonical_set_invariant_in_s(self):
        P = random_sites(32, 830)
        want = oracle_vdk(P, 1).undirected_keys()
        for s in (1, 4, 8, 32):
            _, sink, _ = run(P, N, s)
            got = {r.undirected_key() for r in sink.records}
            assert len(got) == len(sink.records), f"duplicates at s={s}"
            assert got == want, f"edge set changed at s={s}"

    def test_farthest_matches_oracle(self):
        P = random_sites(32, 831)
        _, sink, _ = run(P, F, 8)
        report = verify_run(sink.records, oracle_vdk(P, 31), 31)
        assert report.ok, report.summary()

    @pytest.mark.parametrize("s", [1, 2, 5])
    def test_farthest_convex_position_matches_oracle(self, s):
        P = parabola(24, 839)
        _, sink, _ = run(P, F, s)
        report = verify_run(sink.records, oracle_vdk(P, 23), 23)
        assert report.ok, report.summary()

    @pytest.mark.parametrize("s", [1, 4])
    def test_farthest_walks_start_from_the_hull_stream(self, s, monkeypatch):
        def locate(*args, **kwargs):
            raise AssertionError("a diagram run located a site on the hull by itself")

        monkeypatch.setattr(scan, "locate_on_hull", locate)
        P = random_sites(24, 840)
        _, sink, _ = run(P, F, s)
        assert {r.undirected_key() for r in sink.records} == oracle_vdk(P, 23).undirected_keys()

    def test_reads_decrease_with_s(self):
        P = random_sites(96, 832)
        reads = []
        for s in (4, 8, 16, 32, 64):
            arena, _, _ = run(P, N, s, enforce=False)
            reads.append(arena.read_count)
        for a, b in zip(reads, reads[1:]):
            assert b <= 2 * a, "reads should trend downward in s"
        assert reads[-1] < reads[0]

    def test_ledger_within_linear_budget(self):
        P = random_sites(48, 833)
        for s in (1, 2, 4, 16, 48):
            _, _, ledger = run(P, N, s)
            assert ledger.peak_words <= 64 * s

    @pytest.mark.parametrize("mode", [N, F], ids=["nearest", "farthest"])
    def test_one_slot_is_the_constant_workspace_diagram(self, mode):
        """Same record bytes, reads and peak as `enumerate_diagram`."""
        P = random_sites(96, 7)
        runs = []
        for one_slot in (True, False):
            arena = ReadOnlyArena(P)
            sink = OutputSink()
            ledger = WorkLedger(64)
            if one_slot:
                run_tradeoff(arena, mode, 1, sink, ledger)
            else:
                enumerate_diagram(arena, mode, sink, ledger)
            runs.append(([format_record(r) for r in sink.records], arena.read_count, ledger.peak_words))
        assert runs[0] == runs[1]

    def test_read_counts_reproducible(self):
        P = random_sites(24, 834)
        r1, _, _ = run(P, N, 6)
        r2, _, _ = run(P, N, 6)
        assert r1.read_count == r2.read_count


class TestTableCharge:
    """run_tradeoff charges the big-cell table's words, an index and a
    7-word walked arc per big cell, while it holds the table: through
    big-big, the one phase after the walks."""

    def test_peak_includes_table(self, monkeypatch):
        P = random_sites(40, 3)
        s = 8
        live_at_start = []
        original = tradeoff.iter_big_big

        def spy(arena, mode, s, table, ledger):
            live_at_start.append(ledger.live_words)
            yield from original(arena, mode, s, table, ledger)

        monkeypatch.setattr(tradeoff, "iter_big_big", spy)
        sink = OutputSink()
        ledger = WorkLedger(64 * s)
        table = run_tradeoff(ReadOnlyArena(P), N, s, sink, ledger)
        assert len(table) == 7
        charge = len(table) * 8
        assert table_words(table) == charge
        assert live_at_start == [charge]
        assert ledger.live_words == 0
        walks = s * (W_SLOT + W_BATCH_SITE) + W_FIXED
        big_big = max(len(table), s - 1) * W_MEM_SITE + s * W_BATCH_SITE + W_FIXED
        assert ledger.peak_words == charge + max(walks, big_big)
        assert {r.undirected_key() for r in sink.records} == oracle_vdk(P, 1).undirected_keys()


class TestSharedEdges:
    """Walks at s > 1 hand each edge they clip to the walk of the cell on
    its other side (`tradeoff._SharedEdges`, `_HullDraws` for farthest
    walks), which takes it in place of clipping it again."""

    INPUTS = {"random": random_sites(48, 851), "convex": parabola(40, 852)}
    # The nearest cases keep their ids; the farthest ones are "fvd-...".
    KINDS = [pytest.param(kind, N, id=kind) for kind in sorted(INPUTS)] + [
        pytest.param(kind, F, id=f"fvd-{kind}") for kind in sorted(INPUTS)
    ]

    @pytest.mark.parametrize("s", [2, 4, 8, 24])
    @pytest.mark.parametrize("kind, mode", KINDS)
    def test_taken_edge_is_the_clip_it_replaces(self, kind, mode, s, monkeypatch):
        """Every taken edge equals what the slot's own clip, seeded as the
        round would seed it, gives against the whole input, and leaves the
        table as it is taken."""
        arena = ReadOnlyArena(self.INPUTS[kind])
        span = arena.read_span(0, len(arena))
        want = -1 if mode is N else 1
        taken = 0
        take = tradeoff._SharedEdges.take

        def replay(table, slot, line, r):
            nonlocal taken
            edge = take(table, slot, line, r)
            if edge is not None:
                taken += 1
                assert slot.rival not in table.held.get(slot.site, {})
                state = [None] * 6
                work = SimpleNamespace(site_tests=0, site_visits=0, twin=None)  # exact integers only
                skip = (slot.site, slot.rival)
                assert scan.clip_run(state, line, slot.p, r, span, want, skip, seed=slot.seed(), work=work)
                assert edge == scan.clip_edge(slot.site, slot.p, slot.rival, r, line, state)
            return edge

        monkeypatch.setattr(tradeoff._SharedEdges, "take", replay)
        list(iter_diagram(arena, mode, s, observing_ledger()))
        assert taken > 0

    HELD = [pytest.param(s, N, id=str(s)) for s in (2, 3, 8, 39, 40, 80)] + [
        pytest.param(s, F, id=f"fvd-{s}") for s in (2, 3, 8, 39, 40, 80)
    ]

    @pytest.mark.parametrize("s, mode", HELD)
    def test_held_edges_are_capped_and_charged(self, s, mode, monkeypatch):
        """The table never holds more than 2(min(s, n) - 1) edges, each
        charged W_SHARED_EDGE words while held, and it holds an edge only
        for a walk that is live and has not walked it, or is still to come.
        Nearest walks are live with their sites at or before the frontier
        in (x, y) order, and to come past it; farthest walks are drawn in
        hull order, so one to come is one not drawn yet, on the far side of
        the chord from the first walk drawn to the last."""
        P = random_sites(40, 853) if mode is N else parabola(40, 853)
        slots = min(s, len(P))
        ledger = observing_ledger()
        base = slots * (W_SLOT + W_BATCH_SITE) + W_FIXED
        if mode is F:  # the drawn hull points, and the hull window while the stream runs
            base += W_HULL_DRAWN
        bases = {base} if mode is N else {base, base + (slots + 2) * W_HULL_POINT + W_FIXED}
        drawn = set()
        most = 0
        offer = tradeoff._SharedEdges.offer
        draw = tradeoff._SharedEdges.draw

        def watched(table, source):
            for walk in draw(table, source):
                drawn.add(walk.site)
                yield walk

        def checked(table, edge):
            nonlocal most
            offer(table, edge)
            held = sum(map(len, table.held.values()))
            assert held == table.count <= 2 * (slots - 1)
            assert ledger.live_words - held * W_SHARED_EDGE in bases
            if mode is N:
                assert all(j not in table.live or P[j].ipt <= table.frontier for j in table.held)
                assert all(j in table.live or P[j].ipt > table.frontier for j in table.held)
            for j, finders in table.held.items():
                walk = table.live.get(j)
                if walk is None:
                    assert j not in drawn
                    continue
                (qx, qy) = walk.p
                assert not any(arc_walked(walk.arc(), (P[i].ix - qx, P[i].iy - qy)) for i in finders)
            most = max(most, held)

        monkeypatch.setattr(tradeoff._SharedEdges, "draw", watched)
        monkeypatch.setattr(tradeoff._SharedEdges, "offer", checked)
        find_big_cells(ReadOnlyArena(P), mode, s, ledger)
        assert 0 < most
        assert ledger.live_words == 0

    @pytest.mark.parametrize("s", [4, 8, 24])
    @pytest.mark.parametrize("kind", sorted(INPUTS))
    def test_no_edge_outlives_its_walk(self, kind, s, monkeypatch):
        """The table holds an edge for a live walk only while that walk has
        not walked it, so a walk that ends has taken every edge held for it,
        also where a full table turned edges away."""
        ends = 0
        end = tradeoff._SharedEdges.end

        def checked(table, site):
            nonlocal ends
            assert site not in table.held
            ends += 1
            end(table, site)

        monkeypatch.setattr(tradeoff._SharedEdges, "end", checked)
        arena = ReadOnlyArena(self.INPUTS[kind])
        list(iter_diagram(arena, N, s, observing_ledger()))
        assert ends

    def test_skipped_partner_is_pruned(self, monkeypatch):
        """A walk the source passes over never takes its edges: the table
        knows the source's filter and holds none for it, and the source
        draws the other walks in (x, y) order of their sites."""
        P = random_sites(40, 854)
        table = find_big_cells(ReadOnlyArena(P), N, 4, observing_ledger())
        assert table
        draw = tradeoff._SharedEdges.draw
        seen = []

        def watched(shared, source):
            for walk in draw(shared, source):
                assert all(j in shared.live or P[j].ipt > shared.frontier and j not in table for j in shared.held)
                seen.append(walk.site)
                yield walk

        monkeypatch.setattr(tradeoff._SharedEdges, "draw", watched)
        ledger = observing_ledger()
        arena = ReadOnlyArena(P)
        got = {record_for(arena, e, N).undirected_key() for e in iter_small_incident(arena, N, 4, table, ledger)}
        assert seen == sorted((i for i in range(len(P)) if i not in table), key=lambda i: P[i].ipt)
        assert ledger.live_words == 0
        big = {record_for(arena, e, N).undirected_key() for e in iter_big_big(arena, N, 4, table, observing_ledger())}
        assert got | big == oracle_vdk(P, 1).undirected_keys()

    @pytest.mark.parametrize("s", [4, 8])
    def test_skipped_farthest_partner_is_not_held(self, s, monkeypatch):
        """Farthest walks of small cells hold no edge for a big partner,
        whose walk the source passes over: the hull-order test knows the
        source's filter too, so no held edge takes a place in the table
        until it is cleared."""
        P = parabola(40, 855)
        arena = ReadOnlyArena(P)
        table = find_big_cells(arena, F, s, observing_ledger())
        assert table
        offers = 0
        offer = tradeoff._SharedEdges.offer

        def checked(shared, edge):
            nonlocal offers
            offer(shared, edge)
            offers += edge.rival in table
            assert not any(j in table for j in shared.held)

        monkeypatch.setattr(tradeoff._SharedEdges, "offer", checked)
        ledger = observing_ledger()
        got = {record_for(arena, e, F).undirected_key() for e in iter_small_incident(arena, F, s, table, ledger)}
        assert offers
        assert ledger.live_words == 0
        big = {record_for(arena, e, F).undirected_key() for e in iter_big_big(arena, F, s, table, observing_ledger())}
        _, sink, _ = run(P, F, 1)
        assert got | big == {r.undirected_key() for r in sink.records}

    @pytest.mark.parametrize("mode", ["nvd", "fvd"])
    def test_peak_words_stop_at_n_slots(self, mode):
        """s past the number of sites holds nothing more: the slots, the
        table's cap and the hull window are charged for min(s, n)."""
        P = random_sites(12, 856)
        peaks = {run_diagram(P, mode, s, 1, OutputSink(keep=False))[1].peak_words for s in (12, 1000, 10**5, 2**63)}
        assert len(peaks) == 1


class TestSweepOrder:
    """At s > 1 the source draws nearest walks in (x, y) order of their
    sites, one selection pass per window of min(s, n) sites, so the live
    walks are a strip of neighboring cells; at s = 1 it draws them in index
    order.  Every edge carries its rival's point."""

    P = random_sites(50, 857)

    @pytest.mark.parametrize("s", [1, 2, 3, 7, 16, 49, 50, 200])
    @pytest.mark.parametrize("kept", ["all", "some"])
    def test_draw_order(self, s, kept):
        keep = None if kept == "all" else lambda i: i % 3 != 1
        n = len(self.P)
        want = [i for i in range(n) if keep is None or keep(i)]
        if s > 1:
            want.sort(key=lambda i: self.P[i].ipt)
        arena = ReadOnlyArena(self.P)
        assert [walk.site for walk in tradeoff._site_source(arena, N, s, observing_ledger(), keep)] == want
        # A read a walk (`cell_walk`), and at s > 1 a pass a window, up to
        # one more to find a filtered source spent, never past n sites.
        k = min(s, n)
        passes = 0 if s == 1 else min(len(want) // k + 1, -(-n // k))
        assert arena.read_count == passes * n + len(want)

    def test_window_is_charged_while_held(self, monkeypatch):
        """Each window is picked while the walks' charge, whose W_BATCH_SITE
        words a slot cover its sites, is live, and a run whose walks are
        cut, or whose source is spent, leaves the ledger at 0."""
        P = random_sites(40, 858)
        s = 8
        base = s * (W_SLOT + W_BATCH_SITE) + W_FIXED
        ledger = observing_ledger()
        seen = []
        select = tradeoff.nsmallest

        def watched(k, items, key):
            window = select(k, items, key=key)
            seen.append((len(window), ledger.live_words))
            return window

        monkeypatch.setattr(tradeoff, "nsmallest", watched)
        arena = ReadOnlyArena(P)
        table = find_big_cells(arena, N, s, ledger)
        assert table, "the run cut no walk short"
        assert len(seen) == len(P) // s and all(k == s and live >= base for k, live in seen)
        assert ledger.live_words == 0
        seen.clear()
        list(iter_small_incident(arena, N, s, table, ledger))
        assert seen and all(k <= s and live >= base for k, live in seen)
        assert ledger.live_words == 0

    @pytest.mark.parametrize("mode, s", [(N, 1), (N, 8), (F, 1), (F, 8)])
    def test_edges_carry_their_rivals_points(self, mode, s):
        """Every reported edge holds its rival's point, also one taken from
        the shared table, handed on whole or clipped between big cells, and
        the carrier is the bisector of the two points."""
        P = self.P if mode is N else parabola(30, 859)
        arena = ReadOnlyArena(P)
        found = []
        edges = list(iter_diagram(arena, mode, s, observing_ledger(), found))
        assert found[0] or s == 1
        for e in edges:
            assert e.p == P[e.site].ipt and e.r == P[e.rival].ipt
            assert exact.bisector_line(e.p, e.r) == e.line


def records_at(sites, s):
    arena = ReadOnlyArena(sites)
    return sorted(format_record(record_for(arena, e, N)) for e in iter_diagram(arena, N, s, observing_ledger()))


@given(st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 1 << 16)), min_size=4, max_size=28, unique=True))
@settings(max_examples=60, deadline=None)
def test_sorted_edges_do_not_depend_on_s(pts):
    """Shared or clipped, every edge of the nearest diagram comes out the
    same at s = 2, 8 and n as with one slot, which shares nothing."""
    P = site_set(pts)
    try:
        want = records_at(P, 1)
    except DegenerateGeometry:
        return
    for s in (2, 8, len(P)):
        assert records_at(P, s) == want
