"""Seeded random site generation for tests, demos, and benchmarks.

Coordinates are drawn uniformly from a large integer grid, which makes
degenerate triples/quadruples vanishingly unlikely while keeping every
value exactly representable.  Generation is deterministic per (n, seed).
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from typing import Sequence

from .geometry import Site, site_set

#: Grid width: collinearity odds per triple are ~1/GRID, so even 10^6
#: random tuples stay clean with overwhelming probability.
GRID = 1 << 40

#: Digits a site file's common grid may need, for each coordinate and for
#: the scale, so that every record integer prints: Python's default limit
#: on int-to-text conversion is 4300 digits.  A record's bounded end is
#: the meet of two bisectors (`exact.line_intersection`), written as
#: x / (w * scale) and y / (w * scale) (`records._hpoint_end`), in lowest
#: terms.  With each grid integer below 10^D in magnitude a bisector has
#: |a|, |b| < 4 * 10^D and |c| < 2 * 10^(2D), so |x|, |y| < 16 * 10^(3D)
#: and |w| * scale < 32 * 10^(3D): at most 3D + 2 digits.
GRID_DIGITS = (4300 - 2) // 3
_GRID_LIMIT = 10**GRID_DIGITS
_GRID_ERROR = f"coordinates need more than {GRID_DIGITS} digits on their common grid"


def random_sites(n: int, seed: int, grid: int = GRID) -> tuple[Site, ...]:
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add((rng.randrange(grid), rng.randrange(grid)))
    ordered = sorted(pts)
    rng.shuffle(ordered)
    return site_set(ordered)


def triangle() -> tuple[Site, ...]:
    """The right triangle used throughout the worked examples."""
    return site_set([(0, 0), (8, 0), (0, 6)])


def with_interior_point() -> tuple[Site, ...]:
    return site_set([(0, 0), (8, 0), (0, 6), (1, 1)])


class SiteParseError(ValueError):
    """The input text is not a well-formed site file."""


class DuplicateSiteError(ValueError):
    """The input contains the same point twice (a degeneracy, not a typo)."""


#: A decimal literal with an exponent, as `Fraction` reads one.
_EXPONENT_LITERAL = re.compile(r"[-+]?(?=\.?\d)(\d*\.?\d*)e([-+]?\d+)", re.IGNORECASE)


def _coordinate(token: str):
    """One coordinate: an integer, a decimal literal with an optional
    exponent, or p/q.  Integers, the common case, stay ints.  A nonzero
    literal with |exponent| > GRID_DIGITS + len(token) can never fit the
    grid, so it is refused before `Fraction` builds its power of ten."""
    try:
        return int(token)
    except ValueError:
        literal = _EXPONENT_LITERAL.fullmatch(token)
        if literal and not literal[1].strip("0."):
            return 0
        if literal and abs(int(literal[2])) > GRID_DIGITS + len(token):
            raise SiteParseError(_GRID_ERROR) from None
        return Fraction(token)


def parse_sites_text(text: str) -> tuple[Site, ...]:
    """Parse the input file format: one `x y` pair per line, # comments.

    Underscores in numbers are rejected on every Python: `int` takes them
    everywhere, `Fraction` from 3.11 on, and `sites_to_text` never writes
    them.  So is a site set whose common grid needs more than GRID_DIGITS
    digits, as its records could not be printed; a literal whose exponent
    alone puts it past that bound is refused before `Fraction` builds it.
    """
    coords = []
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise SiteParseError(f"line {lineno}: expected 'x y', got {raw!r}")
        try:
            if "_" in line:
                raise ValueError
            xy = (_coordinate(parts[0]), _coordinate(parts[1]))
        except SiteParseError:
            raise
        except (ValueError, ZeroDivisionError):
            raise SiteParseError(f"line {lineno}: bad coordinate in {raw!r}") from None
        first = seen.setdefault(xy, lineno)
        if first != lineno:
            raise DuplicateSiteError(f"line {lineno}: duplicate site, first seen on line {first}")
        coords.append(xy)
    if len(coords) < 3:
        raise SiteParseError(f"need at least 3 sites, got {len(coords)}")
    sites = site_set(coords)
    if sites[0].scale >= _GRID_LIMIT or any(abs(s.ix) >= _GRID_LIMIT or abs(s.iy) >= _GRID_LIMIT for s in sites):
        raise SiteParseError(_GRID_ERROR)
    return sites


def sites_to_text(sites: Sequence[Site]) -> str:
    """Site file text: each coordinate as its exact rational, n or p/q."""
    return "".join(f"{s.x} {s.y}\n" for s in sites)
