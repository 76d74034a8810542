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

An order-(n-1) record of n sites holds its closest set, every index but
its pair, as `AllBut`: three integers at any n, which `format_record`
writes as the text of range(n), built for the record from n alone, with
the pair's two entries cut out.  Nothing is kept from one record, or one
run, to the next.

For k in {1, n-1} an edge is written once, canonically oriented; the
order-k pipeline writes directed half-edge records where the pair order
encodes which cell lies to the left.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from itertools import chain
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


@total_ordering
@dataclass(frozen=True, slots=True, eq=False)
class AllBut:
    """The indices range(n) but a and b, 0 <= a < b < n: the closest set of
    an order-(n-1) edge of n sites whose pair is (a, b), in three integers
    at every n.  It iterates, compares, orders and hashes as the sorted
    tuple it stands for, building that tuple only for the moment, so a
    record holding it equals, and hashes like, one holding the tuple, as
    `parse_record` reads it back."""

    n: int
    a: int
    b: int

    def __iter__(self):
        return chain(range(self.a), range(self.a + 1, self.b), range(self.b + 1, self.n))

    def __eq__(self, other):
        if not isinstance(other, (tuple, AllBut)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __lt__(self, other):
        if not isinstance(other, (tuple, AllBut)):
            return NotImplemented
        return tuple(self) < tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True, slots=True)
class EdgeRecord:
    k: int
    closest: Union[tuple[int, ...], AllBut]  # sorted
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


#: The fixed templates an `AllBut` is written from: the text of the
#: indices below 100, and that of each later hundred h, "#" standing for
#: h's digits.  They hold no index of any run.
_LOW = ",".join(map(str, range(100))) + ","
_HUNDRED = "".join(f"#{i:02d}," for i in range(100))


def _start(i: int) -> int:
    """Offset of index i >= 0 in the text "0,1,2,...", where each index j
    takes len(str(j)) + 1 characters: with d = len(str(i)), each j < i
    takes d + 1 less one for every 0 < k < d with j < 10**k, and those
    10**k indices, summed over k, are (10**d - 10) / 9."""
    d = len(str(i))
    return (d + 1) * i - (10**d - 10) // 9


def _all_but_text(closest: AllBut) -> str:
    """`",".join(map(str, closest))`, with no look at its elements: the
    text of range(n), built for the record from n alone, with the pair's
    two entries cut out."""
    n, a, b = closest.n, closest.a, closest.b
    text = _LOW
    if n > 100:
        text = "".join([_LOW, *[_HUNDRED.replace("#", str(h)) for h in range(1, (n + 99) // 100)]])
    sa, sb = _start(a), _start(b)
    return (text[:sa] + text[sa + len(str(a)) + 1 : sb] + text[sb + len(str(b)) + 1 : _start(n)])[:-1]


def format_record(rec: EdgeRecord) -> str:
    closest = _all_but_text(rec.closest) if type(rec.closest) is AllBut else ",".join(map(str, rec.closest))
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
    closest: Union[tuple[int, ...], AllBut],
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
    unbounded one, and two bounded ends are written in (x, y) order.  The
    direction is written only for an unbounded end, so only then is it
    worked out.
    """
    d = None if lo is not None and hi is not None else exact.line_dir(carrier_line)
    # (x, y) order, on both points scaled by the positive w1 * w2.
    if hi is not None and (lo is None or (hi[0] * lo[2], hi[1] * lo[2]) < (lo[0] * hi[2], lo[1] * hi[2])):
        d, lo, hi, lo_extra, hi_extra = d and (-d[0], -d[1]), hi, lo, hi_extra, lo_extra
    return directed_record(k, closest, (min(pair), max(pair)), d, lo, hi, lo_extra, hi_extra, scale)


def directed_record(
    k: int,
    closest: Union[tuple[int, ...], AllBut],
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
