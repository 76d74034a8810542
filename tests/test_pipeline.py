"""Order-k family production: classification, walks, phases, full runs."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cell_intervals import oracle_intervals
from test_kernels import hpoint, reference_clip
from wsvoronoi import exact
from wsvoronoi.datagen import random_sites, site_set, triangle
from wsvoronoi.geometry import DegenerateGeometry
from wsvoronoi.memory import OutputSink, ReadOnlyArena, WorkLedger, observing_ledger
from wsvoronoi.oracle import oracle_vdk
from wsvoronoi.pipeline import (
    ConfigError,
    PipelineConfig,
    _IntervalWalk,
    _trim_round,
    HalfEdge,
    is_relevant,
    _relevant_walks,
    _walk_rounds,
    find_big_cells_k,
    pipeline_run,
    unbounded_cells,
)
from wsvoronoi.records import Unbounded
from wsvoronoi.scan import DiagramMode
from wsvoronoi.tradeoff import run_tradeoff


def decode_halfedge(record, sites) -> HalfEdge:
    """Rebuild a half-edge from its record and the site array."""
    scale = sites[0].scale
    pa = sites[record.pair[0]].ipt
    pb = sites[record.pair[1]].ipt

    def point_of(ep):
        if isinstance(ep, Unbounded):
            return None
        x_num, x_den, y_num, y_den = ep
        return exact.normalize_hpoint(x_num * scale * y_den, y_num * scale * x_den, x_den * y_den)

    tail = point_of(record.tail)
    head = point_of(record.head)
    if isinstance(record.head, Unbounded):
        direction = exact.primitive_dir(record.head.dx, record.head.dy)
    elif isinstance(record.tail, Unbounded):
        direction = exact.primitive_dir(-record.tail.dx, -record.tail.dy)
    else:
        # head - tail, both points over the common w_tail * w_head.
        (tx, ty, tw), (hx, hy, hw) = tail, head
        direction = exact.primitive_dir(hx * tw - tx * hw, hy * tw - ty * hw)
    he = HalfEdge(
        record.k,
        frozenset(record.closest),
        record.pair,
        direction,
        tail,
        head,
        record.extra_t,
        record.extra_h,
    )
    towards_left = exact.cross_dir(direction, (pa[0] - pb[0], pa[1] - pb[1]))
    if towards_left <= 0:
        raise ValueError("record direction does not put pair[0] on the left")
    return he


def oracle_halfedges(P, k):
    return [decode_halfedge(r, P) for r in oracle_vdk(P, k).halfedge_records()]


def coordinate_sums(cell, P):
    """The pair of coordinate sums of the cell's sites."""
    return (sum(P[i].ipt[0] for i in cell), sum(P[i].ipt[1] for i in cell))


def interval_walk(arena, P, e, k_out):
    """Every k_out-half-edge the walk of the interval the half-edge e owns
    yields, run alone, or None when `_relevant_walks` starts no walk
    from e."""
    walks = list(_relevant_walks(arena, iter([e]), {}))
    if not walks:
        return None
    return list(_walk_rounds(arena, k_out, 1, iter(walks), observing_ledger()))


def walk_on(he, P):
    """A walk whose pending edge is the half-edge he, its head unknown."""
    pa, pb = P[he.pair[0]].ipt, P[he.pair[1]].ipt
    return _IntervalWalk(he.closest, he.pair, (pa, pb), exact.bisector_line(pa, pb), he.direction, he.tail, he.tail_extra)


def reference_outgoing(pts3: dict, vertex_old: bool, base: frozenset, cell: frozenset):
    """The unique boundary half-edge of `cell` leaving a degree-3 vertex,
    found by trying all three pairs of its sites.

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
        assert g != 0, "degenerate vertex neighborhood"
        if (g < 0) == vertex_old:
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


@st.composite
def vertex_case(draw):
    """Three non-collinear grid sites (p, q, z) in a drawn order, and a
    closest set of 0..2 far sites; the edge of pair (p, q) with p on its
    left runs into the vertex, where z becomes closer than p and q."""
    grid = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    pts = draw(st.lists(grid, min_size=3, max_size=3, unique=True).filter(lambda t: exact.orient_ipts(*t) != 0))
    base = draw(st.integers(0, 2))
    P = site_set([*pts, *((100 + 7 * i, 50 - 3 * i) for i in range(base))])
    p, q, z = draw(st.permutations([0, 1, 2]))
    pp, qp, zp = (P[i].ipt for i in (p, q, z))
    carrier = exact.bisector_line(pp, qp)
    d = exact.line_dir(carrier)
    # d/dt [d^2(., z) - d^2(., p)] < 0: z gets closer along d.
    if d[0] * (pp[0] - zp[0]) + d[1] * (pp[1] - zp[1]) > 0:
        d = (-d[0], -d[1])
    if exact.cross_dir(d, (pp[0] - qp[0], pp[1] - qp[1])) < 0:
        p, q, pp, qp = q, p, qp, pp
    head = exact.circumcenter_hpoint(pp, qp, zp)
    e = HalfEdge(2 + base, frozenset(range(3, 3 + base)), (p, q), d, None, head, None, z)
    return P, e


class TestClassification:
    def test_matches_disk_counting(self):
        # Old head: the extra site is among the closest; cross-check with
        # a direct count of sites strictly inside the head vertex disk.
        from wsvoronoi import exact

        P = random_sites(10, 900)
        pts = [p.ipt for p in P]
        for k in (2, 3):
            for he in oracle_halfedges(P, k):
                if he.head is None:
                    continue
                inside = sum(
                    1
                    for i, pt in enumerate(pts)
                    if i not in (*he.pair, he.head_extra)
                    and exact.dist2_cmp(he.head, pt, pts[he.pair[0]]) < 0
                )
                if is_relevant(he):
                    assert inside == k - 1
                else:
                    assert inside == k - 2

    def test_order_one_heads_are_new(self):
        P = random_sites(10, 901)
        for he in oracle_halfedges(P, 1):
            if he.head is not None:
                assert is_relevant(he)

    def test_unbounded_head_not_relevant(self):
        P = random_sites(10, 901)
        unbounded = [he for he in oracle_halfedges(P, 1) if he.head is None]
        assert unbounded
        for he in unbounded:
            assert not is_relevant(he)

    def test_relevance_agrees_with_boundary_test(self):
        P = random_sites(12, 902)
        k = 2
        intervals = oracle_intervals(P, k)
        owners = set()
        for ci in intervals.values():
            for owner, _ in ci.intervals:
                if owner is not None:
                    owners.add(owner.canonical_key())
        for he in oracle_halfedges(P, k):
            rec = he.to_record(P[0].scale)
            if is_relevant(he):
                assert rec.canonical_key() in owners
            else:
                assert rec.canonical_key() not in owners


class TestSuccessorStep:
    """The walks `_relevant_walks` starts and `_walk_rounds` steps in place
    against the oracle's counterclockwise boundary chains."""

    def test_first_of_interval_and_null(self):
        P = random_sites(12, 906)
        arena = ReadOnlyArena(P)
        scale = P[0].scale
        for k in (1, 2):
            # A walk runs from the owner's head to the next relevant vertex:
            # the owner's run from that head on (for single-owner cells the
            # assigned interval also carries the unreachable run before that
            # vertex).
            run_by_owner = {}
            for ci in oracle_intervals(P, k).values():
                for owner, run in ci.intervals:
                    if owner is None:
                        continue
                    head_key = owner.endpoint_key("head")
                    start = next(i for i, r in enumerate(run) if r.endpoint_key("tail") == head_key)
                    run_by_owner[owner.canonical_key()] = [r.canonical_key() for r in run[start:]]
            walked = 0
            for e in oracle_halfedges(P, k):
                fs = interval_walk(arena, P, e, k + 1)
                if not is_relevant(e):
                    assert fs is None
                    continue
                got = [f.to_record(scale).canonical_key() for f in fs]
                assert got == run_by_owner[e.to_record(scale).canonical_key()]
                walked += len(fs)
            assert walked > len(run_by_owner)

    def test_ccw_successor(self):
        # Within a cell, a walk on one boundary edge yields it and, when its
        # head is new, steps in place to the next edge of the oracle's ccw
        # chain; at an old head it ends.
        P = random_sites(10, 907)
        arena = ReadOnlyArena(P)
        scale = P[0].scale
        for k in (2, 3):
            steps = 0
            for ci in oracle_intervals(P, k - 1).values():
                boundary = ci.boundary
                closed = not isinstance(boundary[0].tail, Unbounded)
                for cur, nxt in zip(boundary, boundary[1:] + (boundary[:1] if closed else ())):
                    if isinstance(cur.head, Unbounded):
                        continue
                    he = decode_halfedge(cur, P)
                    walk = _walk_rounds(arena, k, 1, iter([walk_on(he, P)]), observing_ledger())
                    fs = [f.to_record(scale).canonical_key() for f in itertools.islice(walk, 2)]
                    if is_relevant(he):
                        assert fs == [cur.canonical_key(), nxt.canonical_key()]
                        steps += 1
                    else:
                        assert fs == [cur.canonical_key()]
            assert steps > 10

    @settings(max_examples=300, deadline=None)
    @given(vertex_case())
    def test_direct_rules_match_the_three_pair_search(self, case):
        """The first edge of an interval and the in-place step take the
        pair, closest set, direction and tail extra the three-pair search
        finds, on the bisector it builds."""
        P, e = case
        p, q = e.pair
        z = e.head_extra
        pts3 = {i: P[i].ipt for i in (p, q, z)}
        arena = ReadOnlyArena(P)
        # First walk: e's head is an old vertex of the cell closest | {p, q}.
        (walk,) = _relevant_walks(arena, iter([e]), {})
        got = (walk.pair, walk.closest, walk.carrier, walk.direction, walk.tail_extra)
        assert got == reference_outgoing(pts3, True, e.closest, e.closest | {p, q})
        assert (walk.closest | {walk.pair[0]}, walk.tail) == (e.closest | {p, q}, e.head)
        # In-place step: e's head is a new vertex of its own cell.
        walk = walk_on(e, P)
        walk.consider_batch([(z, pts3[z])], arena)
        f = walk.materialize(e.k, lambda i: P[i].ipt)
        assert f == e
        walk.advance(f)
        got = (walk.pair, walk.closest, walk.carrier, walk.direction, walk.tail_extra)
        assert got == reference_outgoing(pts3, False, e.closest, e.closest | {e.pair[0]})
        assert (walk.closest | {walk.pair[0]}, walk.tail) == (e.closest | {e.pair[0]}, e.head)


class TestTableCells:
    @pytest.mark.parametrize("kind", ["random", "convex"])
    def test_walks_into_table_cells_read_nothing(self, kind):
        """A relevant half-edge whose head enters a cell of the table starts
        no walk and reads no site: the cell is named by its site set."""
        P = random_sites(14, 916) if kind == "random" else convex_sites(14, 916)
        swept = [cell for _, cell in unbounded_cells(ReadOnlyArena(P), 2)]
        table = find_big_cells_k(ReadOnlyArena(P), 2, observing_ledger())
        assert list(table) == sorted(swept, key=lambda c: coordinate_sums(c, P))
        source = [e for e in oracle_halfedges(P, 1) if is_relevant(e) and e.closest | set(e.pair) in table]
        assert len(source) >= 3
        arena = ReadOnlyArena(P)
        assert list(_relevant_walks(arena, iter(source), table)) == []
        assert arena.read_count == 0


class TestTrimRound:
    def test_one_span_one_call_per_walk(self, monkeypatch):
        """A pass reads the input once, as one n-site span, and makes one
        successor-kernel call per walk."""
        calls = []
        kernel = _IntervalWalk.consider_batch

        def counted(walk, batch, work=None):
            calls.append(len(batch))
            return kernel(walk, batch, work)

        monkeypatch.setattr(_IntervalWalk, "consider_batch", counted)
        P = random_sites(20, 903)
        arena = ReadOnlyArena(P)
        walks = list(_relevant_walks(arena, iter(oracle_halfedges(P, 1)), {}))[:6]
        assert len(walks) == 6
        before = arena.read_count
        _trim_round(arena, walks)
        assert arena.read_count - before == len(P)
        assert calls == [len(P)] * len(walks)


def held_words(walk):
    """One word per integer the walk's slots hold, flags included."""

    def count(v):
        if isinstance(v, (tuple, frozenset)):
            return sum(map(count, v))
        return v is not None

    return sum(count(getattr(walk, name)) for name in _IntervalWalk.__slots__)


class TestWalkRounds:
    @pytest.mark.parametrize("k_out, s1", [(2, 1), (2, 3), (3, 4)])
    def test_reads_keys_and_charge(self, monkeypatch, k_out, s1):
        """One `_walk_rounds` run reads the input once per pass, the extra
        site of each materialized head, and three sites per first walk;
        every half-edge it yields is the reference diagram's, by its record
        key; while a pass runs, the ledger holds the pass and the live
        walks' `words()`, which count what they hold."""
        from wsvoronoi import pipeline
        from wsvoronoi.tradeoff import W_BATCH_SITE

        P = random_sites(14, 915)
        source = oracle_halfedges(P, k_out - 1)
        arena = ReadOnlyArena(P)
        ledger = WorkLedger(10_000)
        pass_words = s1 * max(1, k_out - 1) * W_BATCH_SITE
        passes = []
        trim = pipeline._trim_round

        def audited(arena, walks):
            assert ledger.live_words == pass_words + sum(w.words() for w in walks)
            trim(arena, walks)
            held = [held_words(w) for w in walks]
            assert all(h <= w.words() for h, w in zip(held, walks))
            passes.append(held.count(walks[0].words()))

        monkeypatch.setattr(pipeline, "_trim_round", audited)
        first = 0

        def counted(walks):
            nonlocal first
            for w in walks:
                first += 1
                yield w

        out = list(_walk_rounds(arena, k_out, s1, counted(_relevant_walks(arena, iter(source), {})), ledger))
        heads = sum(f.head is not None for f in out)
        assert first > s1 and len(out) > 2 * first
        assert arena.read_count == len(passes) * len(P) + heads + 3 * first
        assert sum(passes) > 0  # some walks hold every slot
        scale = P[0].scale
        assert {f.to_record(scale).canonical_key() for f in out} <= oracle_vdk(P, k_out).halfedge_keys()
        assert ledger.live_words == 0


class TestConfig:
    def test_s_prime(self):
        assert PipelineConfig(K=5, s=100).s_prime == 4

    def test_k_squared_must_fit(self):
        with pytest.raises(ConfigError):
            PipelineConfig(K=10, s=9)

    def test_floor_of_one(self):
        assert PipelineConfig(K=2, s=4).s_prime == 1


class TestPipelineRun:
    def test_matches_oracle_per_order(self):
        P = random_sites(12, 908)
        arena = ReadOnlyArena(P)
        sink = OutputSink()
        pipeline_run(arena, PipelineConfig(K=3, s=36), sink, observing_ledger())
        ks = [r.k for r in sink.records]
        assert ks == sorted(ks)
        for k in (1, 2, 3):
            got = {r.canonical_key() for r in sink.records if r.k == k}
            assert len(got) == sum(1 for r in sink.records if r.k == k)
            assert got == oracle_vdk(P, k).halfedge_keys()

    def test_degenerate_pipeline_matches_tradeoff(self):
        P = random_sites(11, 909)
        arena = ReadOnlyArena(P)
        sink = OutputSink()
        cfg = PipelineConfig(K=1, s=16)
        pipeline_run(arena, cfg, sink, observing_ledger())
        direct = OutputSink()
        run_tradeoff(ReadOnlyArena(P), DiagramMode.NEAREST, cfg.s_prime, direct, observing_ledger())
        assert {r.undirected_key() for r in sink.records} == {
            r.undirected_key() for r in direct.records
        }
        assert len(sink.records) == 2 * len(direct.records)

    def test_ledger_within_budget(self):
        P = random_sites(14, 910)
        for K, s in ((2, 16), (3, 36), (3, 64)):
            arena = ReadOnlyArena(P)
            sink = OutputSink(keep=False)
            ledger = WorkLedger(64 * s, enforcing=True)
            pipeline_run(arena, PipelineConfig(K=K, s=s), sink, ledger)
            assert ledger.peak_words <= 64 * s

    def test_triangle_all_orders(self):
        arena = ReadOnlyArena(triangle())
        sink = OutputSink()
        pipeline_run(arena, PipelineConfig(K=2, s=4), sink, observing_ledger())
        for k in (1, 2):
            got = {r.canonical_key() for r in sink.records if r.k == k}
            assert got == oracle_vdk(triangle(), k).halfedge_keys()

    def test_stages_stop_at_order_n_minus_1(self):
        """Orders n and above have no edges: K = 4 on the triangle writes
        what K = 2 does, at the same s' = 1, with the same reads and peak."""
        runs = []
        for K, s in ((4, 16), (2, 4)):
            arena = ReadOnlyArena(triangle())
            sink = OutputSink()
            ledger = WorkLedger(64 * s)
            config = PipelineConfig(K=K, s=s)
            assert config.s_prime == 1
            pipeline_run(arena, config, sink, ledger)
            runs.append((sink.records, arena.read_count, ledger.peak_words))
        assert runs[0] == runs[1]
        assert {r.k for r in runs[0][0]} == {1, 2}

    def test_reads_reproducible(self):
        P = random_sites(10, 911)
        counts = []
        for _ in range(2):
            arena = ReadOnlyArena(P)
            sink = OutputSink(keep=False)
            pipeline_run(arena, PipelineConfig(K=3, s=36), sink, observing_ledger())
            counts.append(arena.read_count)
        assert counts[0] == counts[1]


def convex_sites(n, seed):
    """n sites (x, x^2) in convex position, as perfbench's convex input."""
    return site_set([(x, x * x) for x in random.Random(seed).sample(range(1, 1 << 20), n)])


def hull_ccw(P):
    """Indices of the hull vertices of P, collinear ones left out, in
    counterclockwise order from the greatest site in (x, y) order."""
    pts = sorted(range(len(P)), key=lambda i: P[i].ipt)

    def chain(order):
        out = []
        for i in order:
            while len(out) >= 2 and exact.orient_ipts(P[out[-2]].ipt, P[out[-1]].ipt, P[i].ipt) <= 0:
                out.pop()
            out.append(i)
        return out

    lower, upper = chain(pts), chain(reversed(pts))
    ring = lower[:-1] + upper[:-1]
    start = ring.index(pts[-1])
    return ring[start:] + ring[:start]


class TestUnboundedCells:
    @staticmethod
    def oracle_unbounded(P, k):
        """Left cells of the reference diagram's unbounded half-edges."""
        return {
            frozenset(r.closest) | {r.pair[0]}
            for r in oracle_vdk(P, k).halfedge_records()
            if isinstance(r.head, Unbounded) or isinstance(r.tail, Unbounded)
        }

    @pytest.mark.parametrize("kind", ["random", "convex"])
    def test_cells_are_the_unbounded_ones_once_each(self, kind):
        for n, seed in ((9, 1), (14, 2), (20, 3)):
            P = random_sites(n, seed) if kind == "random" else convex_sites(n, seed)
            for k in (1, 2, 3, 4, n - 1):
                swept = [cell for _, cell in unbounded_cells(ReadOnlyArena(P), k)]
                assert len(swept) == len(set(swept)), (n, k)
                assert set(swept) == self.oracle_unbounded(P, k), (n, k)
                table = find_big_cells_k(ReadOnlyArena(P), k, observing_ledger())
                assert sorted(table, key=sorted) == sorted(swept, key=sorted)

    @pytest.mark.parametrize("kind", ["random", "convex"])
    def test_table_is_the_sweep_in_key_order(self, kind):
        """The table's keys are the swept site sets, each yielded with its
        coordinate sums, in the order of those sums."""
        for n, seed in ((9, 1), (20, 3)):
            P = random_sites(n, seed) if kind == "random" else convex_sites(n, seed)
            for k in (2, 3, n - 1):
                swept = list(unbounded_cells(ReadOnlyArena(P), k))
                assert all(total == coordinate_sums(cell, P) for total, cell in swept)
                cells = [cell for _, cell in swept]
                table = find_big_cells_k(ReadOnlyArena(P), k, observing_ledger())
                assert list(table) == sorted(cells, key=lambda c: coordinate_sums(c, P)), (n, k)

    def test_order_one_is_the_hull_counterclockwise(self):
        for seed in range(5):
            P = random_sites(30, 930 + seed)
            swept = [next(iter(cell)) for _, cell in unbounded_cells(ReadOnlyArena(P), 1)]
            assert swept == hull_ccw(P)

    def test_one_span_per_cell_and_constant_words(self):
        P = convex_sites(40, 4)
        for k in (2, 3):
            arena = ReadOnlyArena(P)
            ledger = WorkLedger(3 * k + 8, enforcing=True)
            table = find_big_cells_k(arena, k, ledger)
            assert len(table) == len(P)
            # The first pass finds the start set; one more per cell.
            assert arena.read_count == len(P) * (len(table) + 1)
            assert arena.site_visits == arena.read_count
            assert arena.site_tests == len(P) + len(table) * (len(P) - k)

    def test_collinear_hull_sites_raise(self):
        P = site_set([(0, 0), (2, 0), (4, 0), (1, 3), (3, 2)])
        with pytest.raises(DegenerateGeometry):
            list(unbounded_cells(ReadOnlyArena(P), 1))


class TestOrderPhases:
    def test_walked_and_big_big_outputs_are_disjoint(self):
        from wsvoronoi.pipeline import _iter_big_big_edges, iter_order_edges, order1_halfedges
        from wsvoronoi.tradeoff import find_big_cells

        P = random_sites(16, 920)
        arena = ReadOnlyArena(P)
        s1 = 2
        scale = P[0].scale
        ledger = observing_ledger()
        t1 = find_big_cells(arena, DiagramMode.NEAREST, s1, ledger)
        t2 = find_big_cells_k(arena, 2, ledger)
        big_big = {he.to_record(scale).canonical_key() for he in _iter_big_big_edges(arena, 2, t2, s1, ledger)}
        halfedges = list(iter_order_edges(arena, 2, s1, order1_halfedges(arena, s1, t1, ledger), t2, ledger))
        assert all(isinstance(he, HalfEdge) for he in halfedges)
        full = [he.to_record(scale).canonical_key() for he in halfedges]
        assert len(full) == len(set(full)), "duplicate half-edges across phases"
        assert big_big <= set(full)
        assert (set(full) - big_big).isdisjoint(big_big)
        assert set(full) == oracle_vdk(P, 2).halfedge_keys()

    @pytest.mark.parametrize("kind", ["random", "parabola"])
    @pytest.mark.parametrize("k_out", [2, 3])
    def test_big_big_ends_are_the_extra_sites_crossings(self, kind, k_out, monkeypatch):
        """A big-big edge is clipped in two calls on one state: the input in
        the nearest sense, then its common sites in the farthest.  Every
        candidate's clip is the Fraction reference's with the common sites
        flipped; each end `CellEdge.ends` builds for it is where the
        bisector of the left site and the end's extra site crosses the
        carrier, and every half-edge is the oracle's."""
        from wsvoronoi import pipeline
        from wsvoronoi.pipeline import _big_big_candidates, _iter_big_big_edges

        if kind == "random":
            P = random_sites(18, 921)
        else:
            P = site_set([(x, x * x) for x in random.Random(922).sample(range(1, 1 << 20), 14)])
        arena = ReadOnlyArena(P)
        ledger = observing_ledger()
        table = find_big_cells_k(arena, k_out, ledger)
        edges = []
        clip_edge = pipeline.clip_edge

        def kept(*args):
            edges.append(clip_edge(*args))
            return edges[-1]

        monkeypatch.setattr(pipeline, "clip_edge", kept)
        halfedges = list(_iter_big_big_edges(arena, k_out, table, 4, ledger))
        span = arena.read_span(0, len(arena))
        clipped = iter(edges)
        for common, a, b in _big_big_candidates(table, k_out):
            want = reference_clip(exact.bisector_line(P[a].ipt, P[b].ipt), P[a].ipt, span, -1, {a, b}, common)
            if want[0]:
                edge = next(clipped)
                lo, hi = edge.ends()
                assert (edge.site, edge.rival) == (a, b)
                assert (True, edge.lo_cutter, edge.hi_cutter, hpoint(lo), hpoint(hi)) == want
        assert edges and next(clipped, None) is None
        ends = 0
        for he in halfedges:
            for end, extra in ((he.tail, he.tail_extra), (he.head, he.head_extra)):
                if extra is None:
                    assert end is None
                    continue
                pa = P[he.pair[0]].ipt
                carrier = exact.bisector_line(pa, P[he.pair[1]].ipt)
                want = exact.line_intersection(carrier, exact.bisector_line(pa, P[extra].ipt))
                assert exact.normalize_hpoint(*end) == want
                ends += 1
        assert halfedges and ends >= len(halfedges)  # no edge is a full line
        keys = [he.to_record(P[0].scale).canonical_key() for he in halfedges]
        assert set(keys) <= oracle_vdk(P, k_out).halfedge_keys()

    def test_walk_starvation_configs(self):
        # With several slots and many cells, fresh input dries up while
        # walks are mid-arc; order-1 cells cut there become big, while the
        # big cells of order 2 are exactly the unbounded ones and every
        # other walk runs to its end.  The output must still be exact.
        for seed in (98_140, 98_252):
            P = random_sites(24, seed)
            arena = ReadOnlyArena(P)
            sink = OutputSink()
            pipeline_run(arena, PipelineConfig(K=2, s=16), sink, WorkLedger(64 * 16))
            for k in (1, 2):
                got = {r.canonical_key() for r in sink.records if r.k == k}
                assert got == oracle_vdk(P, k).halfedge_keys()


class TestEncodeDecode:
    def test_round_trip_many(self):
        count = 0
        for seed in (912, 913, 914):
            P = random_sites(9, seed)
            for k in range(1, 9):
                for rec in oracle_vdk(P, k).halfedge_records():
                    he = decode_halfedge(rec, P)
                    assert he.to_record(P[0].scale) == rec
                    count += 1
        assert count >= 1000
