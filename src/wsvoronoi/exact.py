"""Exact integer geometry kernel.

All primitives operate on integer site coordinates (the parsing layer
rescales rational inputs onto a common integer grid, which preserves every
predicate sign and maps constructed points linearly).  Derived points are
kept in homogeneous form ``(X, Y, W)`` with ``W > 0``, so that every
comparison reduces to integer arithmetic and is exact.

Lines are stored as integer triples ``(a, b, c)`` meaning ``a*x + b*y = c``,
reduced and sign-normalized so equal lines have equal triples.
"""

from __future__ import annotations

from math import gcd


def sign(v: int) -> int:
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def orient_ipts(a, b, c) -> int:
    """Sign of the signed area of triangle (a, b, c); inputs are int pairs."""
    return sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def incircle_ipts(a, b, c, d) -> int:
    """Incircle determinant sign for int pairs.

    Positive iff d lies strictly inside the circle through a, b, c when
    (a, b, c) is counterclockwise; the sign flips with the orientation.
    """
    adx = a[0] - d[0]
    ady = a[1] - d[1]
    bdx = b[0] - d[0]
    bdy = b[1] - d[1]
    cdx = c[0] - d[0]
    cdy = c[1] - d[1]
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    return sign(det)


def normalize_line(a: int, b: int, c: int):
    """Reduce a line triple by its gcd and fix the sign of (a, b)."""
    g = gcd(gcd(abs(a), abs(b)), abs(c))
    if g > 1:
        a //= g
        b //= g
        c //= g
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return a, b, c


def bisector_line(p, q):
    """Perpendicular bisector of segment pq as a normalized line triple."""
    a = 2 * (q[0] - p[0])
    b = 2 * (q[1] - p[1])
    c = q[0] * q[0] + q[1] * q[1] - p[0] * p[0] - p[1] * p[1]
    return normalize_line(a, b, c)


def normalize_hpoint(x: int, y: int, w: int):
    """Reduce a homogeneous point and force w > 0."""
    if w < 0:
        x, y, w = -x, -y, -w
    g = gcd(gcd(abs(x), abs(y)), w)
    if g > 1:
        x //= g
        y //= g
        w //= g
    return x, y, w


def line_intersection(l1, l2):
    """Homogeneous intersection point of two lines, or None if parallel."""
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    w = a1 * b2 - a2 * b1
    if w == 0:
        return None
    x = c1 * b2 - c2 * b1
    y = a1 * c2 - a2 * c1
    return normalize_hpoint(x, y, w)


def line_dir(line):
    """Canonical direction vector of the line, as a primitive int pair."""
    a, b, _ = line
    return primitive_dir(b, -a)


def primitive_dir(dx: int, dy: int):
    """Divide a direction by its gcd; keeps orientation."""
    if dx == 0 and dy == 0:
        raise ValueError("zero direction")
    g = gcd(abs(dx), abs(dy))
    return dx // g, dy // g


def cross_dir(d1, d2) -> int:
    return sign(d1[0] * d2[1] - d1[1] * d2[0])


def circumcenter_hpoint(a, b, c):
    """Homogeneous circumcenter of three int-pair sites; None if collinear."""
    pt = line_intersection(bisector_line(a, b), bisector_line(a, c))
    return pt


def param_along(line, hp):
    """Exact parameter of hp along the line's canonical direction.

    Returned as an integer pair (num, den) with den > 0; only comparisons
    between parameters of points on the same line are meaningful.
    """
    d = line_dir(line)
    return (d[0] * hp[0] + d[1] * hp[1], hp[2])


def dist2_cmp(hp, p, q) -> int:
    """Sign of d^2(hp, p) - d^2(hp, q) for int-pair sites p, q."""
    x, y, w = hp
    dpx = x - p[0] * w
    dpy = y - p[1] * w
    dqx = x - q[0] * w
    dqy = y - q[1] * w
    return sign(dpx * dpx + dpy * dpy - (dqx * dqx + dqy * dqy))


def midpoint_h(h1, h2):
    return normalize_hpoint(
        h1[0] * h2[2] + h2[0] * h1[2],
        h1[1] * h2[2] + h2[1] * h1[2],
        2 * h1[2] * h2[2],
    )


def hpoint_shift(hp, d, steps: int = 1):
    """hp + steps * d for a direction d; exact, stays homogeneous."""
    return normalize_hpoint(hp[0] + steps * d[0] * hp[2], hp[1] + steps * d[1] * hp[2], hp[2])
