"""Deterministic SVG rendering of edge-record streams.

Identical inputs produce byte-identical files: geometry is clipped to the
viewport with exact rational arithmetic and only converted to fixed-format
decimals at the last moment.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .records import EdgeRecord, Unbounded

CANVAS = 640
PAD_NUM, PAD_DEN = 1, 10  # 10% padding around the auto viewport


def _clip_param_interval(origin, direction, lo, hi, minv, maxv, axis):
    """Intersect {origin + t*direction inside [minv, maxv] on axis} with [lo, hi]."""
    o = origin[axis]
    d = direction[axis]
    if d == 0:
        if minv <= o <= maxv:
            return lo, hi
        return None
    t1 = (minv - o) / d
    t2 = (maxv - o) / d
    if t1 > t2:
        t1, t2 = t2, t1
    lo = t1 if lo is None or t1 > lo else lo
    hi = t2 if hi is None or t2 < hi else hi
    if lo is not None and hi is not None and lo >= hi:
        return None
    return lo, hi


def _xy(end) -> tuple:
    """A record's bounded end, (x_num, x_den, y_num, y_den), as rationals."""
    return Fraction(end[0], end[1]), Fraction(end[2], end[3])


def _segment_for(rec: EdgeRecord, box):
    """The record's visible portion inside the box, as two rational points."""
    minx, miny, maxx, maxy = box
    tail, head = rec.tail, rec.head
    if isinstance(tail, Unbounded) and isinstance(head, Unbounded):
        return None  # carrier anchor is not in the record; full lines are not drawn
    if isinstance(tail, Unbounded):
        origin, inf = _xy(head), tail
    elif isinstance(head, Unbounded):
        origin, inf = _xy(tail), head
    else:
        origin, inf = _xy(tail), None
    if inf is None:
        end = _xy(head)
        direction = (end[0] - origin[0], end[1] - origin[1])
        lo: Optional[Fraction] = Fraction(0)
        hi: Optional[Fraction] = Fraction(1)
    else:
        direction = (Fraction(inf.dx), Fraction(inf.dy))
        lo, hi = Fraction(0), None
    span = _clip_param_interval(origin, direction, lo, hi, minx, maxx, 0)
    if span is None:
        return None
    span = _clip_param_interval(origin, direction, span[0], span[1], miny, maxy, 1)
    if span is None:
        return None
    lo, hi = span
    if lo is None or hi is None:
        return None  # unbounded within the box cannot happen for a finite box
    p1 = (origin[0] + lo * direction[0], origin[1] + lo * direction[1])
    p2 = (origin[0] + hi * direction[0], origin[1] + hi * direction[1])
    return p1, p2


def _auto_box(records: Sequence[EdgeRecord], sites) -> tuple:
    xs: list[Fraction] = []
    ys: list[Fraction] = []
    for rec in records:
        for ep in (rec.tail, rec.head):
            if not isinstance(ep, Unbounded):
                x, y = _xy(ep)
                xs.append(x)
                ys.append(y)
    if sites is not None:
        for s in sites:
            xs.append(s.x)
            ys.append(s.y)
    if not xs:
        return (Fraction(0), Fraction(0), Fraction(1), Fraction(1))
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    spanx = maxx - minx or Fraction(1)
    spany = maxy - miny or Fraction(1)
    pad = Fraction(PAD_NUM, PAD_DEN)
    return (minx - spanx * pad, miny - spany * pad, maxx + spanx * pad, maxy + spany * pad)


def render_svg(
    records: Sequence[EdgeRecord],
    viewport: Optional[tuple] = None,
    sites=None,
) -> str:
    """SVG text for a record stream; same input gives the same bytes."""
    box = viewport if viewport is not None else _auto_box(records, sites)
    minx, miny, maxx, maxy = (Fraction(v) for v in box)
    spanx = maxx - minx or Fraction(1)
    spany = maxy - miny or Fraction(1)

    def px(pt):
        x = float((pt[0] - minx) / spanx * CANVAS)
        y = float(CANVAS - (pt[1] - miny) / spany * CANVAS)
        return f"{x:.6f}", f"{y:.6f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {CANVAS} {CANVAS}">',
        f'<rect width="{CANVAS}" height="{CANVAS}" fill="white"/>',
    ]
    for rec in records:
        seg = _segment_for(rec, (minx, miny, maxx, maxy))
        if seg is None:
            continue
        (x1, y1), (x2, y2) = (px(seg[0]), px(seg[1]))
        lines.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="black" stroke-width="1"/>'
        )
    if sites is not None:
        for s in sites:
            cx, cy = px((s.x, s.y))
            lines.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="crimson"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
