"""The benchmark's workloads and their seeded inputs.

Each workload is one fixed `vw run` configuration applied to a site set
generated from the seed.  The program only ever sees the site file; the
seed is the benchmark's own argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from wsvoronoi.datagen import random_sites, sites_to_text
from wsvoronoi.geometry import site_set

#: Convex-position inputs draw x from [1, 2**20): y = x**2 stays below 2**40,
#: the same coordinate range as the uniform grid.
CONVEX_X_LIMIT = 1 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "uniform" or "convex"
    n: int
    flags: tuple[str, ...]


# Why each workload exists is recorded in BENCHMARK.json; in short:
# nvd-uniform loads the tradeoff batching (scan and pipeline idle),
# fvd-convex loads the O(1)-word scan and the records layer (tradeoff
# bypassed), order-uniform loads the order-k pipeline.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("nvd-uniform", "uniform", 144, ("--mode", "nvd", "--workspace", "24", "--enforce")),
        Workload("fvd-convex", "convex", 256, ("--mode", "fvd", "--enforce")),
        Workload(
            "order-uniform",
            "uniform",
            64,
            ("--mode", "order", "--max-k", "3", "--workspace", "18", "--enforce"),
        ),
    )
}


def convex_coords(n: int, seed: int) -> list[tuple[int, int]]:
    """Points (x, x**2) for n distinct positive integers x < 2**20.

    No three points of a parabola are collinear, and four of them are
    cocircular only if their x values sum to 0, which positive x rule out:
    the set is in general position by construction.
    """
    rng = random.Random(seed)
    return [(x, x * x) for x in rng.sample(range(1, CONVEX_X_LIMIT), n)]


def site_text(workload: Workload, seed: int) -> str:
    """The site file the program receives for this workload and seed."""
    if workload.kind == "uniform":
        sites = random_sites(workload.n, seed)
    else:
        sites = site_set(convex_coords(workload.n, seed))
    return sites_to_text(sites)
