"""Unconstrained brute-force reference diagrams and run verifiers.

Ground truth for every construction path.  For each site pair (p, q) the
perpendicular bisector is swept: its crossings with the other bisectors
are exactly the circumcenters c(p, q, r), and between consecutive
crossings the number of sites strictly closer than p stays constant, so a
single ordered sweep classifies every interval of every bisector into the
diagram order it belongs to.  O(n^3 log n) time, unbounded workspace; the
oracle is deliberately outside the memory model and shares only the exact
kernel and the record format in `records`, whose builders write its
records, with the streaming algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import exact
from .geometry import DegenerateGeometry, Site
from .records import EdgeRecord, Unbounded, directed_record, undirected_record


@dataclass(frozen=True, slots=True)
class OracleEdge:
    """One edge of an order-k diagram, aligned with its carrier direction."""

    k: int
    closest: frozenset
    pair: tuple[int, int]  # sorted ascending
    carrier: tuple[int, int, int]
    lo: Optional[tuple[int, int, int]]
    hi: Optional[tuple[int, int, int]]
    lo_extra: Optional[int]
    hi_extra: Optional[int]


@lru_cache(maxsize=64)
def _sweep(sites: tuple):
    """Per-pair crossing structure: {(p, q): (c_start, [(t, hp, r, slope), ...])}."""
    n = len(sites)
    pts = [s.ipt for s in sites]
    data = {}
    for p in range(n):
        for q in range(p + 1, n):
            line = exact.bisector_line(pts[p], pts[q])
            d = exact.line_dir(line)
            crossings = []
            c_start = 0
            for r in range(n):
                if r == p or r == q:
                    continue
                hp = exact.circumcenter_hpoint(pts[p], pts[q], pts[r])
                if hp is None:
                    raise DegenerateGeometry(f"collinear sites {p}, {q}, {r}")
                t = exact.param_along(line, hp)
                # Slope of d^2(x, r) - d^2(x, p) along the carrier direction.
                slope = exact.sign(d[0] * (pts[p][0] - pts[r][0]) + d[1] * (pts[p][1] - pts[r][1]))
                if slope == 0:
                    raise DegenerateGeometry(f"collinear sites {p}, {q}, {r}: bisector parallel to carrier")
                if slope > 0:
                    c_start += 1
                crossings.append((t, hp, r, slope))
            crossings.sort(key=lambda c: Fraction(c[0][0], c[0][1]))
            data[(p, q)] = (c_start, crossings)
    return data


@dataclass(frozen=True)
class OracleDiagram:
    k: int
    sites: tuple
    edges: tuple

    @property
    def scale(self) -> int:
        return self.sites[0].scale

    def undirected_records(self):
        return [_undirected_record(e, self.scale) for e in self.edges]

    def undirected_keys(self):
        return {r.undirected_key() for r in self.undirected_records()}

    def halfedge_records(self):
        out = []
        for e in self.edges:
            out.extend(_directed_records(e, self.sites))
        return out

    def halfedge_keys(self):
        return {r.canonical_key() for r in self.halfedge_records()}


def _undirected_record(e: OracleEdge, scale: int) -> EdgeRecord:
    closest = tuple(sorted(e.closest))
    return undirected_record(e.k, closest, e.pair, e.carrier, e.lo, e.hi, e.lo_extra, e.hi_extra, scale)


def _directed_records(e: OracleEdge, sites: tuple):
    """Both directed half-edges of an edge; pair order encodes the left cell."""
    scale = sites[0].scale
    p, q = e.pair
    d = exact.line_dir(e.carrier)
    closest = tuple(sorted(e.closest))
    out = []
    for direction in (d, (-d[0], -d[1])):
        towards_p = exact.cross_dir(
            direction, (sites[p].ix - sites[q].ix, sites[p].iy - sites[q].iy)
        )
        assert towards_p != 0
        pair = (p, q) if towards_p > 0 else (q, p)
        if direction == d:
            ends = (e.lo, e.hi, e.lo_extra, e.hi_extra)
        else:
            ends = (e.hi, e.lo, e.hi_extra, e.lo_extra)
        out.append(directed_record(e.k, closest, pair, direction, *ends, scale))
    return out


def oracle_vdk(sites: Sequence[Site], k: int) -> OracleDiagram:
    """Order-k Voronoi diagram by exhaustive bisector sweeping."""
    sites = tuple(sites)
    n = len(sites)
    if not 1 <= k <= n - 1:
        raise ValueError(f"order {k} out of range for {n} sites")
    data = _sweep(sites)
    edges = []
    for (p, q), (c_start, crossings) in data.items():
        closer = {r for (_, _, r, slope) in crossings if slope > 0}
        count = c_start
        m = len(crossings)
        for idx in range(m + 1):
            left = crossings[idx - 1] if idx > 0 else None
            right = crossings[idx] if idx < m else None
            if count == k - 1:
                lo = left[1] if left else None
                hi = right[1] if right else None
                lo_extra = left[2] if left else None
                hi_extra = right[2] if right else None
                edges.append(
                    OracleEdge(
                        k,
                        frozenset(closer),
                        (p, q),
                        exact.bisector_line(sites[p].ipt, sites[q].ipt),
                        lo,
                        hi,
                        lo_extra,
                        hi_extra,
                    )
                )
            if right is not None:
                _, _, r, slope = right
                if slope > 0:
                    closer.discard(r)
                    count -= 1
                else:
                    closer.add(r)
                    count += 1
    return OracleDiagram(k, sites, tuple(edges))


@dataclass
class VerifyReport:
    missing: list
    spurious: list
    duplicated: list
    invalid: list

    @property
    def ok(self) -> bool:
        return not (self.missing or self.spurious or self.duplicated or self.invalid)

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return (
            f"missing={len(self.missing)} spurious={len(self.spurious)} "
            f"duplicated={len(self.duplicated)} invalid={len(self.invalid)}"
        )


def _lift(end, scale: int):
    """A record's bounded end as a homogeneous point in scaled coordinates."""
    x_num, x_den, y_num, y_den = end
    return exact.normalize_hpoint(x_num * scale * y_den, y_num * scale * x_den, x_den * y_den)


def _probe_hpoint(rec: EdgeRecord, scale: int):
    """A point in the interior of the recorded piece, in scaled coordinates,
    for a record with at least one bounded end."""
    bounded = [ep for ep in (rec.tail, rec.head) if not isinstance(ep, Unbounded)]
    if len(bounded) == 2:
        return exact.midpoint_h(_lift(bounded[0], scale), _lift(bounded[1], scale))
    inf = rec.tail if isinstance(rec.tail, Unbounded) else rec.head
    return exact.hpoint_shift(_lift(bounded[0], scale), (inf.dx, inf.dy), steps=1)


def check_distance_profile(rec: EdgeRecord, sites: Sequence[Site]) -> Optional[str]:
    """None when the record's sites are in range, each bounded end is as
    far from the pair as from its extra site, and the record's midpoint has
    the advertised distance ranking."""
    n = len(sites)
    scale = sites[0].scale
    a, b = rec.pair
    if not all(0 <= i < n for i in (a, b, *rec.closest)):
        return "site index out of range"
    if isinstance(rec.tail, Unbounded) and isinstance(rec.head, Unbounded):
        return "both ends unbounded: a full line is no edge for n >= 3 sites"
    for end, extra in ((rec.tail, rec.extra_t), (rec.head, rec.extra_h)):
        if isinstance(end, Unbounded):
            if extra is not None:
                return "unbounded end has an extra site"
        elif extra is None or not 0 <= extra < n or extra in rec.pair:
            return "bounded end's extra is not a site outside the pair"
        elif exact.dist2_cmp(_lift(end, scale), sites[a].ipt, sites[extra].ipt) != 0:
            return f"end not equidistant from site {a} and its extra site {extra}"
    probe = _probe_hpoint(rec, scale)
    if exact.dist2_cmp(probe, sites[a].ipt, sites[b].ipt) != 0:
        return "pair not equidistant at probe"
    closer = []
    for s in sites:
        if s.index in (a, b):
            continue
        c = exact.dist2_cmp(probe, s.ipt, sites[a].ipt)
        if c == 0:
            return f"site {s.index} tied with pair at probe"
        if c < 0:
            closer.append(s.index)
    if len(closer) != rec.k - 1:
        return f"expected {rec.k - 1} closer sites at probe, found {len(closer)}"
    if set(closer) != set(rec.closest):
        return "closest set mismatch at probe"
    return None


def verify_run(
    emitted: Sequence[EdgeRecord],
    oracle: OracleDiagram,
    k: int,
    directed: bool = False,
) -> VerifyReport:
    """Compare one order's emitted records against the oracle diagram."""
    mine = [r for r in emitted if r.k == k]
    keyfn = (lambda r: r.canonical_key()) if directed else (lambda r: r.undirected_key())
    want = oracle.halfedge_keys() if directed else oracle.undirected_keys()

    seen = {}
    duplicated = []
    for r in mine:
        key = keyfn(r)
        if key in seen:
            duplicated.append(r)
        seen[key] = r
    got = set(seen)
    missing = sorted(want - got)
    spurious = [seen[key] for key in sorted(got - want)]
    invalid = []
    for r in mine:
        err = check_distance_profile(r, oracle.sites)
        if err:
            invalid.append((r, err))
    return VerifyReport(missing, spurious, duplicated, invalid)
