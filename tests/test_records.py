"""Wire-format round trips and canonical identity."""

import io
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsvoronoi import exact
from wsvoronoi.datagen import random_sites
from wsvoronoi.memory import ReadOnlyArena, observing_ledger
from wsvoronoi.oracle import oracle_vdk
from wsvoronoi.records import (
    AllBut,
    EdgeRecord,
    RecordFormatError,
    Unbounded,
    _hpoint_end,
    format_record,
    parse_record,
    read_stream,
    undirected_record,
)
from wsvoronoi.scan import DiagramMode, record_for
from wsvoronoi.tradeoff import iter_diagram


def test_format_shape():
    rec = EdgeRecord(1, (), (0, 1), (4, 1, 3, 1), Unbounded(0, -1), 2, None)
    line = format_record(rec)
    assert line == "k=1 closest= pair=0,1 tail=4/1,3/1 head=INF:0/1,-1/1 extraT=2 extraH=-"
    assert parse_record(line) == rec


def test_rationals_in_lowest_terms():
    # The point (6, -1) / 4 at scale 1, and at scale 2 the same numbers
    # give (3/4, -1/8).
    assert _hpoint_end((6, -1, 4), 1) == (3, 2, -1, 4)
    assert _hpoint_end((6, -1, 4), 2) == (3, 4, -1, 8)
    assert _hpoint_end((0, 5, 5), 3) == (0, 1, 1, 3)
    rec = EdgeRecord(2, (3,), (0, 1), _hpoint_end((6, -1, 4), 1), (1, 1, 2, 1), 3, 4)
    line = format_record(rec)
    assert "tail=3/2,-1/4 " in line
    assert parse_record(line) == rec
    # A reader reduces what it parses, and moves a sign off the denominator.
    assert parse_record(line.replace("tail=3/2,-1/4", "tail=6/4,2/-8")) == rec


def test_malformed_rejected():
    good = "k=1 closest= pair=0,1 tail=4/1,3/1 head=INF:0/1,-1/1 extraT=2 extraH=-"
    for bad in (
        good.replace("pair=0,1", "pair=01"),
        good.replace("tail=", "tial="),
        good + " junk=1",
        good.replace("4/1", "4.0"),
        good.replace("4/1", "4/0"),
        good.replace("INF:0/1", "INF:1/2"),
    ):
        with pytest.raises(RecordFormatError):
            parse_record(bad)


def test_stream_round_trip_with_header():
    P = random_sites(9, 321)
    records = oracle_vdk(P, 2).halfedge_records()
    buf = io.StringIO("# mode=order n=9\n" + "".join(format_record(rec) + "\n" for rec in records))
    header, back = read_stream(buf)
    assert header["mode"] == "order"
    assert back == records


def test_oracle_records_round_trip_many_orders():
    P = random_sites(11, 99)
    for k in (1, 2, 5, 10):
        for rec in oracle_vdk(P, k).undirected_records():
            assert parse_record(format_record(rec)) == rec


# Carriers and points on them, homogeneous in scaled coordinates (w > 0).
VERTICAL = exact.bisector_line((0, 0), (2, 0))  # x = 1, canonical direction (0, -1)
HORIZONTAL = exact.bisector_line((0, 0), (0, 2))  # y = 1, canonical direction (1, 0)
UP, DOWN = (2, 6, 2), (3, -6, 3)  # (1, 3) and (1, -2) on VERTICAL
LEFT, RIGHT = (-4, 2, 2), (3, 1, 1)  # (-2, 1) and (3, 1) on HORIZONTAL


@pytest.mark.parametrize(
    "carrier, lo, hi, want",
    [
        pytest.param(
            HORIZONTAL, LEFT, RIGHT, EdgeRecord(2, (0,), (3, 5), (-2, 3, 1, 3), (1, 1, 1, 3), 7, 8), id="xy-order"
        ),
        pytest.param(
            VERTICAL, UP, DOWN, EdgeRecord(2, (0,), (3, 5), (1, 3, -2, 3), (1, 3, 1, 1), 8, 7), id="against-xy-order"
        ),
        pytest.param(VERTICAL, UP, None, EdgeRecord(2, (0,), (3, 5), (1, 3, 1, 1), Unbounded(0, -1), 7, None), id="lo"),
        pytest.param(VERTICAL, None, DOWN, EdgeRecord(2, (0,), (3, 5), (1, 3, -2, 3), Unbounded(0, 1), 8, None), id="hi"),
        pytest.param(
            VERTICAL, None, None, EdgeRecord(2, (0,), (3, 5), Unbounded(0, 1), Unbounded(0, -1), None, None), id="line"
        ),
    ],
)
def test_undirected_record_orientation(carrier, lo, hi, want):
    """The canonical orientation of each kind of edge, at scale 3: two
    bounded ends in (x, y) order, a bounded end before an unbounded one,
    and a full line along its carrier; the pair sorted."""
    lo_extra = None if lo is None else 7
    hi_extra = None if hi is None else 8
    assert undirected_record(2, (0,), (5, 3), carrier, lo, hi, lo_extra, hi_extra, 3) == want


def test_direction_only_for_an_unbounded_end(monkeypatch):
    """`undirected_record` works out the carrier's direction only for an
    edge that writes it, one with an unbounded end; the records are those
    of the other kinds of edge in `test_undirected_record_orientation`."""
    arena = ReadOnlyArena(random_sites(40, 6))
    edges = list(iter_diagram(arena, DiagramMode.NEAREST, 8, observing_ledger()))
    calls = []
    line_dir = exact.line_dir
    monkeypatch.setattr(exact, "line_dir", lambda line: calls.append(line) or line_dir(line))
    records = [record_for(arena, e, DiagramMode.NEAREST) for e in edges]
    unbounded = [r for r in records if isinstance(r.tail, Unbounded) or isinstance(r.head, Unbounded)]
    assert 0 < len(unbounded) == len(calls) < len(records)


def test_undirected_key_collapses_directions():
    P = random_sites(8, 5)
    diagram = oracle_vdk(P, 2)
    directed = diagram.halfedge_records()
    undirected_keys = {r.undirected_key() for r in directed}
    assert len(undirected_keys) == len(directed) // 2
    for r in directed:
        opposite = EdgeRecord(r.k, r.closest, r.pair[::-1], r.head, r.tail, r.extra_h, r.extra_t)
        assert opposite.undirected_key() == r.undirected_key()


# -- closest lists held as tuples ---------------------------------------------


def reference_format(rec: EdgeRecord) -> str:
    """The formatter, joining every closest list element by element."""
    closest = ",".join(map(str, rec.closest))
    extra_t = "-" if rec.extra_t is None else str(rec.extra_t)
    extra_h = "-" if rec.extra_h is None else str(rec.extra_h)
    ends = []
    for ep in (rec.tail, rec.head):
        if isinstance(ep, Unbounded):
            ends.append(f"INF:{ep.dx}/1,{ep.dy}/1")
        else:
            ends.append(f"{ep[0]}/{ep[1]},{ep[2]}/{ep[3]}")
    return (
        f"k={rec.k} closest={closest} pair={rec.pair[0]},{rec.pair[1]} "
        f"tail={ends[0]} head={ends[1]} extraT={extra_t} extraH={extra_h}"
    )


def _record(closest, pair) -> EdgeRecord:
    return EdgeRecord(len(closest) + 1, tuple(closest), pair, (1, 3, -2, 1), Unbounded(1, -1), None, 4)


def _complement(m, a, b):
    return [i for i in range(m) if i not in (a, b)]


@st.composite
def complements(draw, min_m=3, max_m=300):
    """(m, a, b): a pair of distinct indices in range(m)."""
    m = draw(st.integers(min_m, max_m))
    a = draw(st.integers(0, m - 1))
    b = draw(st.integers(0, m - 1).filter(lambda x: x != a))
    return m, a, b


def test_every_complement_of_small_ranges():
    for m in range(2, 14):
        for a in range(m):
            for b in range(m):
                if a != b:
                    rec = _record(_complement(m, a, b), (a, b))
                    assert format_record(rec) == reference_format(rec)


@given(complements())
@settings(max_examples=200, deadline=None)
def test_complement_of_pair_matches_reference(case):
    m, a, b = case
    rec = _record(_complement(m, a, b), (a, b))
    assert format_record(rec) == reference_format(rec)
    assert parse_record(format_record(rec)) == rec


@given(complements(min_m=4), st.sampled_from(["drop", "add", "swap", "duplicate", "overlap"]), st.data())
@settings(max_examples=300, deadline=None)
def test_near_complements_match_reference(case, how, data):
    """Lists one edit away from a complement take the general path and
    still print as the reference does."""
    m, a, b = case
    closest = _complement(m, a, b)
    if how == "drop":
        del closest[data.draw(st.integers(0, len(closest) - 1))]
    elif how == "add":
        closest.insert(data.draw(st.integers(0, len(closest))), data.draw(st.integers(-2, m + 2)))
    elif how == "swap":
        i = data.draw(st.integers(0, len(closest) - 2))
        closest[i], closest[i + 1] = closest[i + 1], closest[i]
    elif how == "duplicate":
        i = data.draw(st.integers(0, len(closest) - 1))
        closest[i] = closest[i - 1] if i else closest[1]
    else:
        closest[data.draw(st.integers(0, len(closest) - 1))] = data.draw(st.sampled_from([a, b]))
    rec = _record(closest, (a, b))
    assert format_record(rec) == reference_format(rec)


@given(st.lists(st.integers(0, 400), max_size=3), st.tuples(st.integers(0, 400), st.integers(0, 400)))
@settings(max_examples=200, deadline=None)
def test_short_lists_match_reference(closest, pair):
    rec = _record(sorted(closest), pair)
    assert format_record(rec) == reference_format(rec)


@given(
    st.lists(
        st.one_of(st.integers(-50, 600), st.integers(-(10**30), 10**30)),
        max_size=40,
    ),
    st.tuples(st.integers(-3, 600), st.integers(-3, 600)),
)
@settings(max_examples=200, deadline=None)
def test_parsed_unsorted_or_sparse_lists_round_trip(closest, pair):
    """Any closest list a stream may hold, negative and huge indices too,
    prints back as it was read."""
    line = reference_format(_record(closest, pair))
    rec = parse_record(line)
    assert format_record(rec) == line


# -- the closest value of a farthest record ----------------------------------


def _all_but(m, a, b) -> AllBut:
    return AllBut(m, min(a, b), max(a, b))


def _value_record(value: AllBut, pair) -> EdgeRecord:
    """`_record` of the complement `value` stands for, holding the value."""
    return EdgeRecord(value.n - 1, value, pair, (1, 3, -2, 1), Unbounded(1, -1), None, 4)


def test_all_but_text_of_every_small_pair():
    for m in range(2, 14):
        for a in range(m):
            for b in range(a + 1, m):
                rec = _value_record(AllBut(m, a, b), (a, b))
                assert format_record(rec) == reference_format(_record(_complement(m, a, b), (a, b)))


@pytest.mark.parametrize("m", [3, 10, 11, 99, 100, 101, 102, 199, 200, 201, 256, 300, 999, 1000, 1001, 10001])
def test_all_but_text_at_the_ends(m):
    """The pairs at either end of range(m), at the lengths where the index
    text takes another hundred or another digit."""
    for a, b in ((0, 1), (0, m - 1), (m - 2, m - 1), (1, m - 2)):
        if a < b:
            rec = _value_record(AllBut(m, a, b), (b, a))
            assert format_record(rec) == reference_format(_record(_complement(m, a, b), (b, a)))


@given(complements(min_m=2))
@example((2, 0, 1))
@example((300, 0, 1))
@example((300, 0, 299))
@example((300, 298, 299))
@settings(max_examples=200, deadline=None)
def test_all_but_text_matches_its_complement(case):
    m, a, b = case
    rec = _value_record(_all_but(m, a, b), (a, b))
    twin = _record(_complement(m, a, b), (a, b))
    assert format_record(rec) == reference_format(twin)
    assert parse_record(format_record(rec)) == twin


@given(complements(min_m=2, max_m=40), complements(min_m=2, max_m=40))
@example((5, 0, 1), (5, 0, 1))
@example((5, 0, 1), (5, 0, 2))
@example((5, 3, 4), (6, 4, 5))  # (0, 1, 2) against (0, 1, 2, 3)
@settings(max_examples=300, deadline=None)
def test_all_but_compares_and_hashes_as_its_tuple(x, y):
    u, v = _all_but(*x), _all_but(*y)
    s, t = tuple(_complement(*x)), tuple(_complement(*y))
    assert tuple(u) == s and tuple(v) == t
    assert hash(u) == hash(s)
    for left, right in ((u, v), (u, t), (s, v)):
        assert (left == right) == (s == t)
        assert (left != right) == (s != t)
        assert (left < right) == (s < t)
        assert (left <= right) == (s <= t)
        assert (left > right) == (s > t)
        assert (left >= right) == (s >= t)
    assert u != list(s) and u != set(s)
    rec, twin = _value_record(u, x[1:]), _record(s, x[1:])
    assert rec == twin and twin == rec and hash(rec) == hash(twin)
    assert rec.undirected_key() == twin.undirected_key()
    assert hash(rec.undirected_key()) == hash(twin.undirected_key())


def test_all_but_size_does_not_grow_with_n():
    """Three integers below 2**30 at every n: the value and its fields
    take the same bytes for each shape of pair, whatever n is."""

    def size(v):
        return sys.getsizeof(v) + sum(sys.getsizeof(getattr(v, f)) for f in ("n", "a", "b"))

    for pair in (lambda m: (0, 1), lambda m: (0, m - 1), lambda m: (m - 2, m - 1), lambda m: (1, m // 2)):
        assert len({size(AllBut(m, *pair(m))) for m in (4, 300, 10**5, 10**9)}) == 1
