"""A fixed pure-Python loop that measures how fast the machine runs right now.

On a shared host the speed of one core drifts by up to a factor of two over
seconds to minutes, in CPU time as well as wall time, so raw operation times
of the same code differ more between runs than the bounds allow.  The
benchmark times this loop between operations and reports each operation's
time scaled to a machine on which the loop takes REFERENCE_S:

    scaled = wall time * REFERENCE_S / loop time around the operation

The loop uses only the standard library, none of the program, so a change to
the program moves the scaled time as much as the wall time.  Its mix
(interpreter arithmetic, calls, 40-bit products that overflow into big
integers, tuple indexing, dict building) resembles the exact-arithmetic code
of the program.
"""

from __future__ import annotations

import random
from time import perf_counter

#: Loop time that scaled times are expressed against; about what the loop
#: takes on a 2-vCPU x86_64 VM running Python 3.11 when the host is quiet.
REFERENCE_S = 0.018

_rng = random.Random(20150805)
_POINTS = [(_rng.randrange(1 << 40), _rng.randrange(1 << 40)) for _ in range(400)]


def _orient(a, b, c) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _kernel() -> int:
    total = 0
    for i in range(150_000):
        total += i * i % 7
    pts = _POINTS
    for i in range(len(pts) - 2):
        a = pts[i]
        for j in range(i + 1, min(i + 40, len(pts) - 1)):
            if _orient(a, pts[j], pts[j + 1]) > 0:
                total += 1
    index = {p: (i, i + 1) for i, p in enumerate(pts)}
    return total + len(index)


def loop_seconds() -> float:
    """Wall time of one pass of the calibration loop."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0
