"""Order-k family production: classification, walks, buffers, full runs."""

import pytest

from wsvoronoi import exact
from wsvoronoi.datagen import random_sites, triangle
from wsvoronoi.memory import OutputSink, ReadOnlyArena, WorkLedger
from wsvoronoi.oracle import oracle_intervals, oracle_vdk
from wsvoronoi.pipeline import (
    ConfigError,
    EdgeBuffer,
    PipelineConfig,
    _IntervalWalk,
    _trim_round,
    HalfEdge,
    classify_head,
    is_relevant,
    _relevant_walks,
    _walk_from_relevant,
    _walk_rounds,
    _walk_step,
    pipeline_run,
)
from wsvoronoi.records import Unbounded
from wsvoronoi.scan import DiagramMode
from wsvoronoi.tradeoff import run_tradeoff


def decode_halfedge(record, sites) -> HalfEdge:
    """Rebuild a half-edge from its record and the site array."""
    scale = sites[0].scale
    pa = sites[record.pair[0]].ipt
    pb = sites[record.pair[1]].ipt
    carrier = exact.bisector_line(pa, pb)

    def point_of(ep):
        if isinstance(ep, Unbounded):
            return None
        xs = ep[0] * scale
        ys = ep[1] * scale
        w = xs.denominator * ys.denominator
        return exact.normalize_hpoint(
            xs.numerator * ys.denominator, ys.numerator * xs.denominator, w
        )

    tail = point_of(record.tail)
    head = point_of(record.head)
    if isinstance(record.head, Unbounded):
        direction = exact.primitive_dir(record.head.dx, record.head.dy)
    elif isinstance(record.tail, Unbounded):
        direction = exact.primitive_dir(-record.tail.dx, -record.tail.dy)
    else:
        dx = record.head[0] - record.tail[0]
        dy = record.head[1] - record.tail[1]
        direction = exact.primitive_dir(dx.numerator * dy.denominator, dy.numerator * dx.denominator)
    he = HalfEdge(
        record.k,
        frozenset(record.closest),
        record.pair,
        carrier,
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


def first_halfedge(arena, walk, k_out):
    """The first k_out-half-edge a one-walk run of `_walk_rounds` yields."""
    return next(_walk_rounds(arena, k_out, 1, iter([walk]), None))


def first_of_interval(arena, e, k_out):
    """The first k_out-half-edge of the interval the half-edge e owns, or
    None when `_relevant_walks` starts no walk from e."""
    if not list(_relevant_walks(arena, EdgeBuffer(iter([e]), low=1, cap=1))):
        return None
    return first_halfedge(arena, _walk_from_relevant(arena, e), k_out)


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
                if classify_head(he) == "old":
                    assert inside == k - 2
                else:
                    assert inside == k - 1

    def test_order_one_heads_are_new(self):
        P = random_sites(10, 901)
        for he in oracle_halfedges(P, 1):
            if he.head is not None:
                assert classify_head(he) == "new"
                assert is_relevant(he)

    def test_unbounded_head_not_relevant(self):
        P = random_sites(10, 901)
        unbounded = [he for he in oracle_halfedges(P, 1) if he.head is None]
        assert unbounded
        for he in unbounded:
            assert not is_relevant(he)
            with pytest.raises(ValueError):
                classify_head(he)

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
    def test_first_of_interval_and_null(self):
        P = random_sites(12, 906)
        k = 1
        intervals = oracle_intervals(P, k)
        # The walk starts at the boundary edge leaving the owner's head
        # (for single-owner cells the assigned interval also carries the
        # unreachable run before that vertex).
        first_by_owner = {}
        for ci in intervals.values():
            for owner, run in ci.intervals:
                if owner is None:
                    continue
                head_key = owner.endpoint_key("head")
                start = next(r for r in run if r.endpoint_key("tail") == head_key)
                first_by_owner[owner.canonical_key()] = start.canonical_key()
        arena = ReadOnlyArena(P)
        inputs = oracle_halfedges(P, k)
        outs = [first_of_interval(arena, e, k + 1) for e in inputs]
        scale = P[0].scale
        for e, f in zip(inputs, outs):
            key = e.to_record(scale).canonical_key()
            if not is_relevant(e):
                assert f is None
            else:
                assert f is not None
                assert f.to_record(scale).canonical_key() == first_by_owner[key]

    def test_ccw_successor(self):
        P = random_sites(10, 907)
        k2 = 2
        # Boundary successor within a cell: tail of the next equals head
        # of the previous, per the oracle's ccw boundary chains.
        intervals = oracle_intervals(P, 1)
        arena = ReadOnlyArena(P)
        scale = P[0].scale
        for ci in intervals.values():
            boundary = ci.boundary
            if len(boundary) < 2:
                continue
            for cur, nxt in zip(boundary, boundary[1:]):
                if isinstance(cur.head, Unbounded):
                    continue
                he = decode_halfedge(cur, P)
                f = first_halfedge(arena, _walk_step(arena, he), k2)
                assert f is not None
                assert f.to_record(scale).canonical_key() == nxt.canonical_key()
            break


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
        walks = [_walk_from_relevant(arena, e) for e in oracle_halfedges(P, 1) if is_relevant(e)][:6]
        assert len(walks) == 6
        before = arena.read_count
        _trim_round(arena, walks)
        assert arena.read_count - before == len(P)
        assert calls == [len(P)] * len(walks)


class TestEdgeBuffer:
    def test_bounds_and_order(self):
        def producer():
            yield from range(20)

        buf = EdgeBuffer(producer(), low=3, cap=9)
        out = []
        while (v := buf.pull()) is not None:
            out.append(v)
            assert len(buf._q) <= 9
        assert out == list(range(20))
        assert buf.max_seen <= 9

    def test_on_insert_sees_each_once(self):
        seen = []
        buf = EdgeBuffer(iter(range(7)), low=2, cap=6, on_insert=seen.append)
        buf.drain()
        assert seen == list(range(7))

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            EdgeBuffer(iter(()), low=0, cap=3)
        with pytest.raises(ValueError):
            EdgeBuffer(iter(()), low=4, cap=3)


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
        pipeline_run(arena, PipelineConfig(K=3, s=36), sink)
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
        pipeline_run(arena, cfg, sink)
        direct = OutputSink()
        run_tradeoff(ReadOnlyArena(P), DiagramMode.NEAREST, cfg.s_prime, direct)
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
        pipeline_run(arena, PipelineConfig(K=2, s=4), sink)
        for k in (1, 2):
            got = {r.canonical_key() for r in sink.records if r.k == k}
            assert got == oracle_vdk(triangle(), k).halfedge_keys()

    def test_reads_reproducible(self):
        P = random_sites(10, 911)
        counts = []
        for _ in range(2):
            arena = ReadOnlyArena(P)
            sink = OutputSink(keep=False)
            pipeline_run(arena, PipelineConfig(K=3, s=36), sink)
            counts.append(arena.read_count)
        assert counts[0] == counts[1]


class TestOrderPhases:
    def test_walked_and_big_big_outputs_are_disjoint(self):
        from wsvoronoi.pipeline import (
            EdgeBuffer,
            _iter_big_big_edges,
            find_big_cells_k,
            iter_order_edges,
            order1_halfedges,
        )
        from wsvoronoi.tradeoff import find_big_cells

        P = random_sites(16, 920)
        arena = ReadOnlyArena(P)
        s1 = 2
        scale = P[0].scale
        t1 = find_big_cells(arena, DiagramMode.NEAREST, s1)
        buf = EdgeBuffer(order1_halfedges(arena, s1, t1), s1, 3 * s1)
        t2 = find_big_cells_k(arena, 2, s1, buf)
        big_big = {
            he.to_record(scale).canonical_key()
            for he in _iter_big_big_edges(arena, 2, t2, s1)
        }
        buf2 = EdgeBuffer(order1_halfedges(arena, s1, t1), s1, 3 * s1)
        full = [
            he.to_record(scale).canonical_key()
            for he in iter_order_edges(arena, 2, s1, buf2, t2)
        ]
        assert len(full) == len(set(full)), "duplicate half-edges across phases"
        assert big_big <= set(full)
        assert (set(full) - big_big).isdisjoint(big_big)
        assert set(full) == oracle_vdk(P, 2).halfedge_keys()

    def test_walk_starvation_configs(self):
        # With several slots and many cells, fresh input dries up while
        # walks are mid-arc; their (possibly bounded) cells become big and
        # the output must still be exact.
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
