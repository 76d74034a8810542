"""Edge record wire format.

One record per line, bit-exact and float-free so streams round-trip:

    k=<int> closest=<i1,...> pair=<a,b> tail=<x,y|INF:dx,dy> \
head=<x,y|INF:dx,dy> extraT=<i|-> extraH=<i|->

Rationals are printed ``num/den`` in lowest terms (den > 0); an unbounded
end carries its primitive integer direction instead of a point.  Streams
may start with ``#``-comment lines; the writer emits one holding the run
parameters.

For k in {1, n-1} an edge is written once, canonically oriented; the
order-k pipeline writes directed half-edge records where the pair order
encodes which cell lies to the left.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import exact


class RecordFormatError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class Unbounded:
    """Marker for a missing endpoint: the edge leaves in direction (dx, dy)."""

    dx: int
    dy: int


Endpoint = Union[tuple, Unbounded]  # (Fraction, Fraction) or Unbounded


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
        return ("P", ep[0].numerator, ep[0].denominator, ep[1].numerator, ep[1].denominator)

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

    def opposite(self) -> "EdgeRecord":
        return EdgeRecord(
            self.k,
            self.closest,
            (self.pair[1], self.pair[0]),
            self.head,
            self.tail,
            self.extra_h,
            self.extra_t,
        )


def _fmt_frac(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _fmt_endpoint(ep: Endpoint) -> str:
    if isinstance(ep, Unbounded):
        return f"INF:{ep.dx}/1,{ep.dy}/1"
    return f"{_fmt_frac(ep[0])},{_fmt_frac(ep[1])}"


def _parse_frac(text: str) -> Fraction:
    num, _, den = text.partition("/")
    if not den:
        raise RecordFormatError(f"rational must be num/den: {text!r}")
    try:
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as e:
        raise RecordFormatError(f"bad rational {text!r}") from e


def _parse_endpoint(text: str) -> Endpoint:
    if text.startswith("INF:"):
        parts = text[4:].split(",")
        if len(parts) != 2:
            raise RecordFormatError(f"bad unbounded end {text!r}")
        dx = _parse_frac(parts[0])
        dy = _parse_frac(parts[1])
        if dx.denominator != 1 or dy.denominator != 1:
            raise RecordFormatError(f"unbounded direction must be integral: {text!r}")
        return Unbounded(dx.numerator, dy.numerator)
    parts = text.split(",")
    if len(parts) != 2:
        raise RecordFormatError(f"bad endpoint {text!r}")
    return (_parse_frac(parts[0]), _parse_frac(parts[1]))


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


def _hpoint_fracs(hp, scale: int):
    return (Fraction(hp[0], hp[2] * scale), Fraction(hp[1], hp[2] * scale))


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
    """Canonically oriented record for an undirected edge.

    Endpoints come as homogeneous points in scaled coordinates, aligned
    with the carrier's canonical direction.  Bounded before unbounded;
    two bounded endpoints are ordered lexicographically; an unbounded end
    is written with its receding direction.
    """
    d = exact.line_dir(carrier_line)
    pair = (min(pair), max(pair))
    closest = tuple(sorted(closest))
    lo_f = None if lo is None else _hpoint_fracs(lo, scale)
    hi_f = None if hi is None else _hpoint_fracs(hi, scale)
    if lo_f is not None and hi_f is not None:
        if lo_f <= hi_f:
            return EdgeRecord(k, closest, pair, lo_f, hi_f, lo_extra, hi_extra)
        return EdgeRecord(k, closest, pair, hi_f, lo_f, hi_extra, lo_extra)
    if lo_f is not None:
        return EdgeRecord(k, closest, pair, lo_f, Unbounded(*d), lo_extra, None)
    if hi_f is not None:
        return EdgeRecord(k, closest, pair, hi_f, Unbounded(-d[0], -d[1]), hi_extra, None)
    return EdgeRecord(k, closest, pair, Unbounded(-d[0], -d[1]), Unbounded(*d), None, None)


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
    """Record for one directed half-edge; pair[0] names the left cell."""
    tail_ep = Unbounded(-direction[0], -direction[1]) if tail is None else _hpoint_fracs(tail, scale)
    head_ep = Unbounded(*direction) if head is None else _hpoint_fracs(head, scale)
    return EdgeRecord(k, tuple(sorted(closest)), pair, tail_ep, head_ep, tail_extra, head_extra)


def write_stream(records: Sequence[EdgeRecord], fh, header: Optional[dict] = None) -> None:
    if header:
        meta = " ".join(f"{k}={v}" for k, v in header.items())
        fh.write(f"# {meta}\n")
    for rec in records:
        fh.write(format_record(rec) + "\n")


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
