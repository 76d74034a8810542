"""Release acceptance gate.

Each test is one acceptance criterion, run at its stated tolerance, and
prints a single PASS line with the measured values (run pytest with -s to
see them live).  Tolerances are fixed here, not calibrated after the fact.
"""

import random
import sys
import time

from cell_intervals import cell_keys, oracle_intervals, vertex_classes
from wsvoronoi.datagen import random_sites
from wsvoronoi.geometry import site_set
from wsvoronoi.memory import OutputSink, ReadOnlyArena, WorkLedger, observing_ledger
from wsvoronoi.oracle import oracle_vdk, verify_run
from wsvoronoi.pipeline import PipelineConfig, pipeline_run
from wsvoronoi.records import Unbounded
from wsvoronoi.scan import DiagramMode, enumerate_diagram
from wsvoronoi.tradeoff import run_tradeoff

N, F = DiagramMode.NEAREST, DiagramMode.FARTHEST


def _pass(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}", file=sys.stderr)


def _isqrt_ceil(n: int) -> int:
    r = 1
    while r * r < n:
        r += 1
    return r


def test_criterion_1_oracle_equivalence_first_and_last_order():
    """200 seeded sets, n in 3..40: scan and batched paths both equal the
    reference at orders 1 and n-1, for s in {1, ceil(sqrt n), n}."""
    rng = random.Random(101)
    t0 = time.time()
    sets_checked = 0
    for trial in range(200):
        n = rng.randint(3, 40)
        P = random_sites(n, 10_000 + trial)
        for mode, k in ((N, 1), (F, n - 1)):
            want = oracle_vdk(P, k).undirected_keys()
            arena = ReadOnlyArena(P)
            sink = OutputSink()
            enumerate_diagram(arena, mode, sink, WorkLedger(64))
            got = {r.undirected_key() for r in sink.records}
            assert len(got) == len(sink.records), f"scan dup trial={trial} mode={mode}"
            assert got == want, f"scan mismatch trial={trial} n={n} mode={mode}"
            for s in {1, _isqrt_ceil(n), n}:
                arena = ReadOnlyArena(P)
                sink = OutputSink()
                run_tradeoff(arena, mode, s, sink, WorkLedger(64 * s))
                got = {r.undirected_key() for r in sink.records}
                assert len(got) == len(sink.records), f"dup trial={trial} s={s} mode={mode}"
                assert got == want, f"mismatch trial={trial} n={n} s={s} mode={mode}"
        sets_checked += 1
    _pass(
        f"criterion 1: {sets_checked} sets equal the reference at both orders "
        f"({time.time() - t0:.0f}s)"
    )


def test_criterion_1_convex_position():
    """20 seeded sets on the parabola y = x^2, n in 8..48: every site has a
    farthest cell, so each farthest walk is long, and the batched path
    equals the reference at orders 1 and n-1 for s in {1, 2, ceil(sqrt n),
    n}.  perfbench's fvd-convex check compares against this same program,
    so the reference here is the independent one."""
    rng = random.Random(103)
    t0 = time.time()
    sizes = [8, 48, *(rng.randint(8, 48) for _ in range(18))]
    for trial, n in enumerate(sizes):
        P = site_set([(x, x * x) for x in rng.sample(range(1, 1 << 20), n)])
        for mode, k in ((N, 1), (F, n - 1)):
            want = oracle_vdk(P, k).undirected_keys()
            for s in sorted({1, 2, _isqrt_ceil(n), n}):
                sink = OutputSink()
                run_tradeoff(ReadOnlyArena(P), mode, s, sink, WorkLedger(64 * s))
                got = {r.undirected_key() for r in sink.records}
                assert len(got) == len(sink.records), f"dup trial={trial} s={s} mode={mode}"
                assert got == want, f"mismatch trial={trial} n={n} s={s} mode={mode}"
    _pass(f"criterion 1 (convex): {len(sizes)} parabola sets equal the reference at both orders ({time.time() - t0:.0f}s)")


def test_criterion_2_higher_order_equivalence():
    """50 seeded sets, n in 8..24, s=64, K in {2,3,4}: pipeline output per
    order equals the reference; orders nondecreasing; zero duplicates."""
    rng = random.Random(202)
    t0 = time.time()
    for trial in range(50):
        n = rng.randint(8, 24)
        K = (2, 3, 4)[trial % 3]
        P = random_sites(n, 20_000 + trial)
        arena = ReadOnlyArena(P)
        sink = OutputSink()
        pipeline_run(arena, PipelineConfig(K=K, s=64), sink, WorkLedger(64 * 64))
        ks = [r.k for r in sink.records]
        assert ks == sorted(ks), f"order regression trial={trial}"
        for k in range(1, K + 1):
            got = {r.canonical_key() for r in sink.records if r.k == k}
            count = sum(1 for r in sink.records if r.k == k)
            assert count == len(got), f"duplicates trial={trial} k={k}"
            assert got == oracle_vdk(P, k).halfedge_keys(), f"mismatch trial={trial} n={n} K={K} k={k}"
    _pass(f"criterion 2: 50 pipeline runs equal the reference per order ({time.time() - t0:.0f}s)")


def _vertex_points(diagram):
    return set(vertex_classes(diagram))


def test_criterion_3_structural_properties():
    """Exhaustive n <= 16, k <= 3: adjacent-cell unions, in-cell trees,
    old/new vertex identities across orders, interval ownership."""
    t0 = time.time()
    checked_cells = 0
    for trial, n in enumerate((5, 7, 9, 11, 12, 13, 14, 15, 16, 10, 8, 6)):
        P = random_sites(n, 30_000 + trial)
        diagrams = {k: oracle_vdk(P, k) for k in range(1, min(5, n - 1) + 1)}
        for k in (1, 2, 3):
            if k + 1 > n - 1:
                continue
            dk, dk1 = diagrams[k], diagrams[k + 1]
            cells_k1 = cell_keys(dk1)
            # Property: adjacent k-cells join into a nonempty (k+1)-cell.
            for e in dk.edges:
                union = e.closest | {e.pair[0], e.pair[1]}
                assert len(union) == k + 1
                assert union in cells_k1, f"missing joined cell n={n} k={k}"
            # Property: the k-edges inside a (k+1)-cell form a small tree.
            inside: dict = {}
            for e in dk.edges:
                inside.setdefault(frozenset(e.closest | set(e.pair)), []).append(e)
            for cell, edges in inside.items():
                assert 1 <= len(edges) <= 2 * (k + 1), f"tree size n={n} k={k}"
                nodes: dict = {}

                def node(e, which, idx):
                    hp = e.lo if which == "lo" else e.hi
                    return ("v", hp) if hp is not None else ("inf", idx, which)

                parent: dict = {}

                def find(x):
                    while parent.setdefault(x, x) != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                comps = 0
                for idx, e in enumerate(edges):
                    a, b = node(e, "lo", idx), node(e, "hi", idx)
                    ra, rb = find(a), find(b)
                    assert ra != rb, f"cycle in cell tree n={n} k={k}"
                    parent[ra] = rb
                    comps += 1
                # Tree on these edges: #nodes == #edges + 1.
                assert len(parent) == len(edges) + 1, f"disconnected tree n={n} k={k}"
                checked_cells += 1
            # Property: new k-vertices are exactly the old (k+1)-vertices.
            new_k = {pt for pt, (_, cls) in vertex_classes(dk).items() if cls == "new"}
            old_k1 = {pt for pt, (_, cls) in vertex_classes(dk1).items() if cls == "old"}
            assert new_k == old_k1, f"vertex identity n={n} k={k}"
            # Vertices never span non-consecutive orders.
            if k + 2 <= min(4, n - 1):
                assert not (_vertex_points(dk) & _vertex_points(diagrams[k + 2]))
            # Interval ownership partitions every boundary.
            for cell, ci in oracle_intervals(P, k).items():
                run_edges = [r for _, run in ci.intervals for r in run]
                assert len(run_edges) == len(ci.boundary)
                assert {r.canonical_key() for r in run_edges} == {
                    r.canonical_key() for r in ci.boundary
                }
                for owner, run in ci.intervals:
                    if owner is None:
                        continue
                    tails = {r.endpoint_key("tail") for r in run}
                    assert owner.endpoint_key("head") in tails
        # All first-order vertices are new; all last-order ones are old.
        assert all(cls == "new" for _, (_, cls) in vertex_classes(diagrams[1]).items())
        if n - 1 in diagrams:
            assert all(cls == "old" for _, (_, cls) in vertex_classes(diagrams[n - 1]).items())
    _pass(f"criterion 3: structural properties hold over {checked_cells} cells ({time.time() - t0:.0f}s)")


def test_criterion_4_model_compliance():
    """Enforcing ledgers complete within c*s; constant-workspace peaks stay
    below 64 words for n in {10, 100, 1000}; peaks grow about linearly."""
    t0 = time.time()
    peaks = {}
    for n in (10, 100, 1000):
        P = random_sites(n, 40_000 + n)
        arena = ReadOnlyArena(P)
        ledger = WorkLedger(64, enforcing=True)
        enumerate_diagram(arena, N, OutputSink(keep=False), ledger)
        assert ledger.peak_words <= 64, f"scan peak {ledger.peak_words} at n={n}"
        peaks[n] = ledger.peak_words
    P = random_sites(256, 41_000)
    tr_peaks = {}
    for s in (32, 64):
        arena = ReadOnlyArena(P)
        ledger = WorkLedger(64 * s, enforcing=True)
        run_tradeoff(arena, N, s, OutputSink(keep=False), ledger)
        tr_peaks[s] = ledger.peak_words
    assert tr_peaks[64] <= 2 * tr_peaks[32] + 64, f"superlinear peaks {tr_peaks}"
    _pass(
        f"criterion 4: scan peaks {peaks} <= 64; tradeoff peaks {tr_peaks} "
        f"within linear band ({time.time() - t0:.0f}s)"
    )


def test_criterion_5_tradeoff_read_trend():
    """n=512 nearest: reads(s=4)/reads(s=64) >= 8; at s=16 doubling n from
    256 multiplies reads by 3.0x to 4.5x."""
    t0 = time.time()
    reads = {}
    P512 = random_sites(512, 50_000)
    for s in (4, 16, 64):
        arena = ReadOnlyArena(P512)
        run_tradeoff(arena, N, s, OutputSink(keep=False), observing_ledger())
        reads[(512, s)] = arena.read_count
    P256 = random_sites(256, 50_001)
    arena = ReadOnlyArena(P256)
    run_tradeoff(arena, N, 16, OutputSink(keep=False), observing_ledger())
    reads[(256, 16)] = arena.read_count
    ratio_s = reads[(512, 4)] / reads[(512, 64)]
    ratio_n = reads[(512, 16)] / reads[(256, 16)]
    assert ratio_s >= 8, f"workspace ratio {ratio_s:.2f} < 8"
    assert 3.0 <= ratio_n <= 4.5, f"doubling ratio {ratio_n:.2f} outside [3.0, 4.5]"
    _pass(
        f"criterion 5: reads ratio s4/s64 = {ratio_s:.1f} >= 8; "
        f"n512/n256 at s=16 = {ratio_n:.2f} in [3.0, 4.5] ({time.time() - t0:.0f}s)"
    )


def test_criterion_6_constant_workspace_quadratic_trend():
    """Constant-workspace nearest reads grow quadratically: the n=128 to
    n=32 ratio lands in [12, 20]."""
    t0 = time.time()
    reads = {}
    for n in (32, 128):
        P = random_sites(n, 60_000 + n)
        arena = ReadOnlyArena(P)
        enumerate_diagram(arena, N, OutputSink(keep=False), WorkLedger(64))
        reads[n] = arena.read_count
    ratio = reads[128] / reads[32]
    assert 12 <= ratio <= 20, f"quadratic ratio {ratio:.2f} outside [12, 20]"
    _pass(f"criterion 6: read ratio n128/n32 = {ratio:.2f} in [12, 20] ({time.time() - t0:.0f}s)")


def test_criterion_7_determinism_and_interchange(tmp_path):
    """Fixed input, flags, and seed give byte-identical streams, reports,
    and renderings; record streams survive a parse/emit round trip."""
    from wsvoronoi.cli import main
    from wsvoronoi.datagen import sites_to_text
    from wsvoronoi.records import format_record, parse_record, read_stream

    t0 = time.time()
    site_file = tmp_path / "sites.txt"
    site_file.write_text(sites_to_text(random_sites(14, 70_000)))
    artifacts = []
    for tag in ("first", "second"):
        rec = tmp_path / f"{tag}.rec"
        svg = tmp_path / f"{tag}.svg"
        assert (
            main(
                ["run", str(site_file), "--mode", "order", "--max-k", "3",
                 "--workspace", "36", "--seed", "11", "--out", str(rec)]
            )
            == 0
        )
        assert main(["svg", str(rec), "--out", str(svg), "--sites", str(site_file)]) == 0
        artifacts.append(
            (rec.read_bytes(), (tmp_path / f"{tag}.rec.report").read_bytes(), svg.read_bytes())
        )
    assert artifacts[0] == artifacts[1], "reruns differ byte-for-byte"
    with open(tmp_path / "first.rec") as fh:
        _, records = read_stream(fh)
    assert [parse_record(format_record(r)) for r in records] == records
    for mode in ("nvd", "fvd"):
        rec = tmp_path / f"{mode}.rec"
        assert main(["run", str(site_file), "--mode", mode, "--workspace", "8", "--out", str(rec)]) == 0
        with open(rec) as fh:
            _, records = read_stream(fh)
        assert [parse_record(format_record(r)) for r in records] == records
    _pass(f"criterion 7: byte-identical artifacts and format round trips ({time.time() - t0:.0f}s)")
