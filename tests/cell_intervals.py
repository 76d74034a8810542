"""The oracle's interval assignment, for tests only: which (k+1)-half-edges
each relevant k-half-edge owns, with the cell keys and vertex classes
of an oracle diagram it rests on.  Built on `wsvoronoi.oracle`'s brute-force
diagrams; no `vw` subcommand runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from wsvoronoi.geometry import Site
from wsvoronoi.oracle import OracleDiagram, OracleEdge, _directed_records, oracle_vdk
from wsvoronoi.records import Unbounded, _hpoint_end


def endpoint_class(e: OracleEdge, which: str) -> Optional[str]:
    """'old' or 'new' for the lo or hi end of an order-k edge, by the number
    of sites strictly inside its disk (k - 2 or k - 1); None if unbounded."""
    inside = e.lo_inside if which == "lo" else e.hi_inside
    if inside is None:
        return None
    if inside == e.k - 2:
        return "old"
    if inside == e.k - 1:
        return "new"
    raise AssertionError(f"impossible inside count {inside} for order {e.k}")


def cell_keys(diagram: OracleDiagram):
    cells = set()
    for e in diagram.edges:
        cells.add(e.closest | {e.pair[0]})
        cells.add(e.closest | {e.pair[1]})
    return cells


def vertex_classes(diagram: OracleDiagram):
    """{vertex as a record end: (defining triple, 'old'|'new')} for this order."""
    out = {}
    for e in diagram.edges:
        for which, hp, extra in (("lo", e.lo, e.lo_extra), ("hi", e.hi, e.hi_extra)):
            if hp is None:
                continue
            key = _hpoint_end(hp, diagram.scale)
            triple = frozenset((e.pair[0], e.pair[1], extra))
            cls = endpoint_class(e, which)
            if key in out:
                assert out[key] == (triple, cls), "inconsistent vertex data"
            else:
                out[key] = (triple, cls)
    return out


@dataclass(frozen=True)
class CellIntervals:
    """CCW boundary of one (k+1)-cell, split at relevant-head vertices.

    ``boundary`` is the cell's directed boundary (cell on the left) in ccw
    order; ``intervals`` maps each owning relevant k-half-edge record to the
    run of boundary edges it owns.  For unbounded cells the run before the
    first relevant head has no owner and is stored under None.
    """

    cell: frozenset
    boundary: tuple
    intervals: tuple  # ((owner record | None, (edge records...)), ...)


def directed_boundary(cell_key, edges_k1, sites):
    """Directed boundary records of a cell, chained in ccw order."""
    directed = []
    for e in edges_k1:
        for rec in _directed_records(e, sites):
            left = set(rec.closest) | {rec.pair[0]}
            if left == set(cell_key):
                directed.append(rec)
    if not directed:
        return ()
    by_tail = {}
    open_starts = []
    for rec in directed:
        if isinstance(rec.tail, Unbounded):
            open_starts.append(rec)
        else:
            by_tail[rec.endpoint_key("tail")] = rec
    if open_starts:
        assert len(open_starts) == 1, "unbounded cell boundary has one ccw start"
        chain = [open_starts[0]]
    else:
        chain = [min(directed, key=lambda r: r.canonical_key())]
    while True:
        cur = chain[-1]
        if isinstance(cur.head, Unbounded):
            break
        nxt = by_tail.get(cur.endpoint_key("head"))
        if nxt is None or nxt is chain[0]:
            break
        chain.append(nxt)
    assert len(chain) == len(directed), "boundary of a convex cell is a single chain"
    return tuple(chain)


def oracle_intervals(sites: Sequence[Site], k: int):
    """Interval assignment of (k+1)-half-edges to relevant k-half-edges."""
    sites = tuple(sites)
    dk = oracle_vdk(sites, k)
    dk1 = oracle_vdk(sites, k + 1)
    edges_by_cell = {}
    for e in dk1.edges:
        for cell in (e.closest | {e.pair[0]}, e.closest | {e.pair[1]}):
            edges_by_cell.setdefault(cell, []).append(e)

    relevant_by_cell = {}
    for e in dk.edges:
        cell = e.closest | {e.pair[0], e.pair[1]}
        for rec in _directed_records(e, sites):
            if isinstance(rec.head, Unbounded):
                continue
            which = "hi" if rec.endpoint_key("head") == _endpoint_key_of(e.hi, sites) else "lo"
            if endpoint_class(e, which) == "new":
                relevant_by_cell.setdefault(cell, []).append(rec)

    out = {}
    for cell, edges in edges_by_cell.items():
        boundary = directed_boundary(cell, edges, sites)
        relevant = relevant_by_cell.get(cell, [])
        heads = {r.endpoint_key("head"): r for r in relevant}
        assert len(heads) == len(relevant), "one relevant head per boundary vertex"
        intervals = []
        current_owner = None
        current_run = []
        for rec in boundary:
            owner = heads.get(rec.endpoint_key("tail"))
            if owner is not None:
                if current_run:
                    intervals.append((current_owner, tuple(current_run)))
                current_owner = owner
                current_run = [rec]
            else:
                current_run.append(rec)
        if current_run:
            intervals.append((current_owner, tuple(current_run)))
        if intervals and len(intervals) > 1 and intervals[0][0] is None and not isinstance(
            boundary[0].tail, Unbounded
        ):
            # Closed boundary: the unowned leading run wraps onto the last owner.
            first = intervals.pop(0)
            owner, run = intervals.pop()
            intervals.append((owner, run + first[1]))
        owners = [o for o, _ in intervals if o is not None]
        if len(owners) == 1 and len(intervals) == 2 and intervals[0][0] is None:
            # A single relevant half-edge owns the entire boundary.
            intervals = [(owners[0], tuple(boundary))]
        out[cell] = CellIntervals(cell, boundary, tuple(intervals))
    return out


def _endpoint_key_of(hp, sites):
    if hp is None:
        return None
    return ("P", *_hpoint_end(hp, sites[0].scale))
