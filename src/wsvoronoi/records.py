"""Edge record wire format.

One record per line, bit-exact and float-free so streams round-trip:

    k=<int> closest=<i1,...> pair=<a,b> tail=<x,y|INF:dx,dy> \
head=<x,y|INF:dx,dy> extraT=<i|-> extraH=<i|->

Rationals are printed ``num/den`` in lowest terms (den > 0); an unbounded
end carries its primitive integer direction instead of a point.  In
memory a bounded end is the four integers it prints,
``(x_num, x_den, y_num, y_den)`` in lowest terms, the form
`EdgeRecord.endpoint_key` keys it by: the builders reduce a homogeneous
point to it with two gcds, `parse_record` reads it back, and no
`Fraction` is made on the way; the oracle's checks lift it to a
homogeneous point, and `svg` makes rationals of it.  The builders take
closest lists already sorted.  Streams may start with ``#``-comment
lines; `vw run` writes one holding the run parameters.

For k in {1, n-1} an edge is written once, canonically oriented; the
order-k pipeline writes directed half-edge records where the pair order
encodes which cell lies to the left.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Union

from . import exact


class RecordFormatError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class Unbounded:
    """Marker for a missing endpoint: the edge leaves in direction (dx, dy)."""

    dx: int
    dy: int


Endpoint = Union[tuple, Unbounded]  # (x_num, x_den, y_num, y_den) or Unbounded


@dataclass(frozen=True, slots=True)
class EdgeRecord:
    k: int
    closest: tuple[int, ...]
    pair: tuple[int, int]
    tail: Endpoint
    head: Endpoint
    extra_t: Optional[int]
    extra_h: Optional[int]

    def endpoint_key(self, which: str):
        ep = self.tail if which == "tail" else self.head
        if isinstance(ep, Unbounded):
            return ("I", ep.dx, ep.dy)
        return ("P", *ep)

    def canonical_key(self):
        """Identity of the record as written (direction included)."""
        return (
            self.k,
            self.closest,
            self.pair,
            self.endpoint_key("tail"),
            self.endpoint_key("head"),
            self.extra_t,
            self.extra_h,
        )

    def undirected_key(self):
        """Identity of the underlying edge, directions collapsed.

        Extras are excluded: they name the same endpoint sites in either
        direction and are validated geometrically by the verifier instead.
        """
        ends = sorted([self.endpoint_key("tail"), self.endpoint_key("head")])
        return (self.k, self.closest, tuple(sorted(self.pair)), ends[0], ends[1])


def _fmt_endpoint(ep: Endpoint) -> str:
    if isinstance(ep, Unbounded):
        return f"INF:{ep.dx}/1,{ep.dy}/1"
    return f"{ep[0]}/{ep[1]},{ep[2]}/{ep[3]}"


def _parse_frac(text: str) -> tuple[int, int]:
    """(num, den) of `text`, "num/den", in lowest terms with den > 0."""
    num, _, den = text.partition("/")
    if not den:
        raise RecordFormatError(f"rational must be num/den: {text!r}")
    try:
        n, d = int(num), int(den)
    except ValueError as e:
        raise RecordFormatError(f"bad rational {text!r}") from e
    if d == 0:
        raise RecordFormatError(f"bad rational {text!r}")
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    return n // g, d // g


def _parse_endpoint(text: str) -> Endpoint:
    if text.startswith("INF:"):
        parts = text[4:].split(",")
        if len(parts) != 2:
            raise RecordFormatError(f"bad unbounded end {text!r}")
        dx, dx_den = _parse_frac(parts[0])
        dy, dy_den = _parse_frac(parts[1])
        if dx_den != 1 or dy_den != 1:
            raise RecordFormatError(f"unbounded direction must be integral: {text!r}")
        return Unbounded(dx, dy)
    parts = text.split(",")
    if len(parts) != 2:
        raise RecordFormatError(f"bad endpoint {text!r}")
    return (*_parse_frac(parts[0]), *_parse_frac(parts[1]))


#: Text of the indices 0..M-1 for the largest M needed so far, as
#: (indices, text, starts): indices is tuple(range(M)), text is
#: "0,1,...,M-1," and starts[i] is the offset of index i in text, with
#: starts[M] == len(text).  It is output-layer text the size of one
#: order-(M-1) record and holds nothing of the input but the index range,
#: so no workspace word is charged for it.
_index_text: tuple = ((), "", [0])


def _grow_index_text(m: int) -> tuple:
    global _index_text
    names = [str(i) for i in range(m)]
    starts = [0]
    for name in names:
        starts.append(starts[-1] + len(name) + 1)
    _index_text = (tuple(range(m)), ",".join(names + [""]), starts)
    return _index_text


def _closest_text(closest: tuple[int, ...], pair: tuple[int, int]) -> str:
    """`",".join(map(str, closest))`, cut from the cached index text when it can be.

    An order-(m-1) record of an m-site diagram, m = len(closest) + 2, lists
    every index in range(m) but its pair's two.  Checked exactly, such a
    list is the cached "0,1,...,m-1," with the pair's two entries cut out.
    """
    m = len(closest) + 2
    a, b = pair
    if a > b:
        a, b = b, a
    if closest and 0 <= a < b < m:
        indices, text, starts = _index_text
        if m > len(indices):
            indices, text, starts = _grow_index_text(m)
        if (
            closest[:a] == indices[:a]
            and closest[a : b - 1] == indices[a + 1 : b]
            and closest[b - 1 :] == indices[b + 1 : m]
        ):
            return (text[: starts[a]] + text[starts[a + 1] : starts[b]] + text[starts[b + 1] : starts[m]])[:-1]
    return ",".join(map(str, closest))


def format_record(rec: EdgeRecord) -> str:
    closest = _closest_text(rec.closest, rec.pair)
    extra_t = "-" if rec.extra_t is None else str(rec.extra_t)
    extra_h = "-" if rec.extra_h is None else str(rec.extra_h)
    return (
        f"k={rec.k} closest={closest} pair={rec.pair[0]},{rec.pair[1]} "
        f"tail={_fmt_endpoint(rec.tail)} head={_fmt_endpoint(rec.head)} "
        f"extraT={extra_t} extraH={extra_h}"
    )


_FIELDS = ("k", "closest", "pair", "tail", "head", "extraT", "extraH")


def parse_record(line: str) -> EdgeRecord:
    tokens = line.split()
    if len(tokens) != len(_FIELDS):
        raise RecordFormatError(f"expected {len(_FIELDS)} fields, got {len(tokens)}: {line!r}")
    values = {}
    for token, name in zip(tokens, _FIELDS):
        key, eq, value = token.partition("=")
        if key != name or not eq:
            raise RecordFormatError(f"expected field {name}: {token!r}")
        values[name] = value
    try:
        k = int(values["k"])
        closest = tuple(int(t) for t in values["closest"].split(",") if t != "")
        a, b = values["pair"].split(",")
        pair = (int(a), int(b))
    except ValueError as e:
        raise RecordFormatError(f"bad record {line!r}") from e
    extra_t = None if values["extraT"] == "-" else int(values["extraT"])
    extra_h = None if values["extraH"] == "-" else int(values["extraH"])
    return EdgeRecord(
        k,
        closest,
        pair,
        _parse_endpoint(values["tail"]),
        _parse_endpoint(values["head"]),
        extra_t,
        extra_h,
    )


def _hpoint_end(hp, scale: int) -> tuple[int, int, int, int]:
    """The homogeneous point hp = (x, y, w), w > 0, of scaled coordinates
    as a record's bounded end: (x_num, x_den, y_num, y_den) in lowest terms."""
    x, y, w = hp
    w *= scale
    g = gcd(x, w)
    h = gcd(y, w)
    return (x // g, w // g, y // h, w // h)


def undirected_record(
    k: int,
    closest: tuple[int, ...],
    pair: tuple[int, int],
    carrier_line,
    lo,
    hi,
    lo_extra: Optional[int],
    hi_extra: Optional[int],
    scale: int,
) -> EdgeRecord:
    """Canonically oriented record for an undirected edge; `closest` must
    be sorted.

    Endpoints come as homogeneous points (w > 0) in scaled coordinates,
    aligned with the carrier's canonical direction.  The edge keeps that
    direction unless `hi` is bounded and comes first: `lo` unbounded, or
    `hi` before `lo` in (x, y) order.  So a bounded end comes before an
    unbounded one, and two bounded ends are written in (x, y) order.
    """
    d = exact.line_dir(carrier_line)
    # (x, y) order, on both points scaled by the positive w1 * w2.
    if hi is not None and (lo is None or (hi[0] * lo[2], hi[1] * lo[2]) < (lo[0] * hi[2], lo[1] * hi[2])):
        d, lo, hi, lo_extra, hi_extra = (-d[0], -d[1]), hi, lo, hi_extra, lo_extra
    return directed_record(k, closest, (min(pair), max(pair)), d, lo, hi, lo_extra, hi_extra, scale)


def directed_record(
    k: int,
    closest: tuple[int, ...],
    pair: tuple[int, int],
    direction,
    tail,
    head,
    tail_extra: Optional[int],
    head_extra: Optional[int],
    scale: int,
) -> EdgeRecord:
    """Record for one directed half-edge; pair[0] names the left cell, and
    `closest` must be sorted."""
    tail_ep = Unbounded(-direction[0], -direction[1]) if tail is None else _hpoint_end(tail, scale)
    head_ep = Unbounded(*direction) if head is None else _hpoint_end(head, scale)
    return EdgeRecord(k, closest, pair, tail_ep, head_ep, tail_extra, head_extra)


def read_stream(fh):
    """Returns (header dict, list of records); header may be empty."""
    header: dict = {}
    records = []
    for lineno, raw in enumerate(fh, 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not records and not header:
                for token in line[1:].split():
                    key, eq, value = token.partition("=")
                    if eq:
                        header[key] = value
            continue
        try:
            records.append(parse_record(line))
        except RecordFormatError as e:
            raise RecordFormatError(f"line {lineno}: {e}") from None
    return header, records
