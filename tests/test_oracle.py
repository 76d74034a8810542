"""Internal consistency of the brute-force reference constructions."""

import pytest

from cell_intervals import cell_keys, oracle_intervals, vertex_classes
from wsvoronoi.datagen import random_sites, triangle
from wsvoronoi.oracle import check_distance_profile, oracle_vdk, verify_run
from wsvoronoi.records import Unbounded


def test_triangle_nearest_structure():
    d = oracle_vdk(triangle(), 1)
    assert len(d.edges) == 3
    for rec in d.undirected_records():
        assert rec.tail == (4, 1, 3, 1)
        assert isinstance(rec.head, Unbounded)


def test_triangle_farthest_is_order_two():
    d = oracle_vdk(triangle(), 2)
    assert len(d.edges) == 3
    dirs_nvd = {r.head.dx * 1000 + r.head.dy for r in oracle_vdk(triangle(), 1).undirected_records()}
    dirs_fvd = {-(r.head.dx * 1000 + r.head.dy) for r in d.undirected_records()}
    assert dirs_nvd == dirs_fvd  # opposite rays from the same vertex


def test_planarity_bound_and_cells():
    P = random_sites(10, 17)
    d = oracle_vdk(P, 1)
    assert len(d.edges) <= 3 * 10 - 6
    assert len(cell_keys(d)) == 10


def test_farthest_cells_are_hull_and_tree():
    P = random_sites(12, 23)
    n = len(P)
    d = oracle_vdk(P, n - 1)
    cells = cell_keys(d)
    hull = _naive_hull_indices(P)
    sites_with_cells = set()
    for cell in cells:
        missing = set(range(n)) - cell
        assert len(missing) == 1
        sites_with_cells |= missing
    assert sites_with_cells == set(hull)
    # Tree: connected and |vertices| = |edges| + 1 counting unbounded ends.
    verts = set()
    for e in d.edges:
        for hp in (e.lo, e.hi):
            if hp is not None:
                verts.add(hp)
    bounded_edges = sum(1 for e in d.edges if e.lo is not None and e.hi is not None)
    assert len(verts) == bounded_edges + 1


def _naive_hull_indices(P):
    from wsvoronoi import exact

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


def test_vertex_classes_cross_order():
    P = random_sites(12, 31)
    for k in (2, 3):
        dk = oracle_vdk(P, k)
        lower_new = {
            pt for pt, (_, cls) in vertex_classes(oracle_vdk(P, k - 1)).items() if cls == "new"
        }
        old_k = {pt for pt, (_, cls) in vertex_classes(dk).items() if cls == "old"}
        assert old_k <= lower_new


def test_verify_run_clean():
    P = random_sites(9, 47)
    d = oracle_vdk(P, 1)
    report = verify_run(d.undirected_records(), d, 1)
    assert report.ok


def test_verify_run_flags_duplicates_and_missing():
    P = random_sites(9, 47)
    d = oracle_vdk(P, 1)
    records = d.undirected_records()
    dup = verify_run(records + [records[0]], d, 1)
    assert dup.duplicated and not dup.missing
    missing = verify_run(records[1:], d, 1)
    assert missing.missing and not missing.duplicated


def test_distance_profile_catches_wrong_closest():
    P = random_sites(9, 47)
    d = oracle_vdk(P, 2)
    rec = d.undirected_records()[0]
    assert check_distance_profile(rec, P) is None
    wrong_set = tuple(i for i in range(3) if i not in rec.pair)[:1]
    from dataclasses import replace

    bad = replace(rec, closest=wrong_set if wrong_set != rec.closest else (rec.pair[0] + 1,) )
    assert check_distance_profile(bad, P) is not None


def test_intervals_partition_cell_boundaries():
    P = random_sites(10, 61)
    for k in (1, 2):
        intervals = oracle_intervals(P, k)
        for cell, ci in intervals.items():
            run_edges = [r for _, run in ci.intervals for r in run]
            assert len(run_edges) == len(ci.boundary)
            assert {r.canonical_key() for r in run_edges} == {
                r.canonical_key() for r in ci.boundary
            }
            owners = [o for o, _ in ci.intervals if o is not None]
            assert len(set(o.canonical_key() for o in owners)) == len(owners)


def test_single_relevant_edge_owns_whole_boundary():
    # Cells with exactly one relevant half-edge are unbounded (a bounded
    # cell's interior tree has at least two boundary contacts); the single
    # owner takes the entire boundary as one interval.
    found = bounded_single = 0
    for seed in range(40):
        P = random_sites(8, 800 + seed)
        for k in (1, 2):
            for cell, ci in oracle_intervals(P, k).items():
                owners = [o for o, _ in ci.intervals if o is not None]
                if len(owners) != 1:
                    continue
                bounded = not any(
                    isinstance(r.tail, Unbounded) or isinstance(r.head, Unbounded)
                    for r in ci.boundary
                )
                if bounded:
                    bounded_single += 1
                if len(owners) == 1 and not bounded:
                    assert len(ci.intervals) == 1
                    assert len(ci.intervals[0][1]) == len(ci.boundary)
                    found += 1
    assert found > 0, "no single-owner cell in the sample"
    assert bounded_single == 0, "bounded cells always have two or more owners"
