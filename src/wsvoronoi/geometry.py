"""Sites and general-position validation over rational inputs.

Sites are parsed to exact rationals and rescaled once onto a common integer
grid; every predicate and construction after that point is integer-exact
(see `exact`).  Degenerate inputs (collinear triples, cocircular
quadruples) are rejected up front by :func:`validate_general_position`
rather than perturbed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from . import exact


class DegenerateGeometry(Exception):
    """A construction hit a configuration excluded by general position."""


@dataclass(frozen=True, slots=True)
class Site:
    """An input point with exact coordinates on the common integer grid.

    ``ix``/``iy`` are the grid coordinates, ``scale`` the common positive
    denominator shared by the whole point set: the true coordinates are
    ``ix/scale`` and ``iy/scale``.
    """

    ix: int
    iy: int
    scale: int
    index: int

    @property
    def x(self) -> Fraction:
        return Fraction(self.ix, self.scale)

    @property
    def y(self) -> Fraction:
        return Fraction(self.iy, self.scale)

    @property
    def ipt(self):
        return (self.ix, self.iy)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Site({self.x}, {self.y}, index={self.index})"


def site_set(coords: Iterable, scale: Optional[int] = None) -> tuple[Site, ...]:
    """Build Sites from rationals/ints/strings, rescaled to a common grid.

    Ints are kept as they are: they have a numerator and a denominator
    too, and most inputs are integer grids."""
    fracs = [(x if type(x) is int else Fraction(x), y if type(y) is int else Fraction(y)) for x, y in coords]
    if scale is None:
        scale = 1
        for x, y in fracs:
            scale = lcm(scale, x.denominator, y.denominator)
    sites = []
    for i, (x, y) in enumerate(fracs):
        ix = x.numerator * (scale // x.denominator)
        iy = y.numerator * (scale // y.denominator)
        sites.append(Site(ix, iy, scale, i))
    return tuple(sites)


@dataclass(frozen=True, slots=True)
class Violation:
    kind: str  # DuplicateSite | CollinearTriple | CocircularQuadruple
    indices: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class ValidationReport:
    ok: bool
    mode: str  # "exhaustive" | "sampled"
    violation: Optional[Violation]
    checked_tuples: int


EXHAUSTIVE_LIMIT = 64
SAMPLED_TUPLES = 1_000_000
_SAMPLE_SEED = 0x5EED  # fixed so sampled validation is reproducible


def validate_general_position(sites: Sequence[Site]) -> ValidationReport:
    """Check the no-3-collinear / no-4-cocircular requirements.

    Exhaustive for n <= 64; for larger inputs a fixed-seed random sample of
    10^6 tuples (half triples, half quadruples) is checked and the report
    is marked "sampled".
    """
    n = len(sites)
    if n < 3:
        raise ValueError("need at least 3 sites")
    pts = [s.ipt for s in sites]

    seen = {}
    for i, p in enumerate(pts):
        if p in seen:
            return ValidationReport(False, "exhaustive", Violation("DuplicateSite", (seen[p], i)), i)
        seen[p] = i

    checked = 0
    if n <= EXHAUSTIVE_LIMIT:
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    checked += 1
                    if exact.orient_ipts(pts[i], pts[j], pts[k]) == 0:
                        return ValidationReport(False, "exhaustive", Violation("CollinearTriple", (i, j, k)), checked)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    for m in range(k + 1, n):
                        checked += 1
                        if exact.incircle_ipts(pts[i], pts[j], pts[k], pts[m]) == 0:
                            return ValidationReport(
                                False, "exhaustive", Violation("CocircularQuadruple", (i, j, k, m)), checked
                            )
        return ValidationReport(True, "exhaustive", None, checked)

    rng = random.Random(_SAMPLE_SEED)
    half = SAMPLED_TUPLES // 2
    for _ in range(half):
        i, j, k = rng.sample(range(n), 3)
        checked += 1
        if exact.orient_ipts(pts[i], pts[j], pts[k]) == 0:
            return ValidationReport(False, "sampled", Violation("CollinearTriple", tuple(sorted((i, j, k)))), checked)
    for _ in range(SAMPLED_TUPLES - half):
        i, j, k, m = rng.sample(range(n), 4)
        checked += 1
        if exact.orient_ipts(pts[i], pts[j], pts[k]) == 0:
            return ValidationReport(False, "sampled", Violation("CollinearTriple", tuple(sorted((i, j, k)))), checked)
        if exact.incircle_ipts(pts[i], pts[j], pts[k], pts[m]) == 0:
            return ValidationReport(
                False, "sampled", Violation("CocircularQuadruple", tuple(sorted((i, j, k, m)))), checked
            )
    return ValidationReport(True, "sampled", None, checked)
