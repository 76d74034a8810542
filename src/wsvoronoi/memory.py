"""Runtime enforcement of the bounded-workspace execution model.

Three pieces: a read-only instrumented input arena, a word-count ledger
for intermediate storage, and a write-once output sink.  A "word" holds one
semantic unit (a site index, one coordinate, one table entry field);
temporaries inside a single predicate evaluation are covered by the fixed
per-operation constants the algorithms charge.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Sequence

from .geometry import Site

#: Default multiplier: a run with parameter s may hold BUDGET_CONST * s words.
#: Overridable via the VW_BUDGET_CONST environment variable in the CLI.
BUDGET_CONST = 64

#: The arena builds its float twin only when every |coordinate| is below
#: this: then each coordinate, and the difference of any two, is exact in
#: a double (`scan.clip_run`).
TWIN_LIMIT = 1 << 50


class ModelViolation(Exception):
    """An algorithm exceeded its workspace budget in enforcing mode."""


class SequencingError(Exception):
    """Output records arrived out of diagram order, or after close."""


class ReadOnlyArena:
    """Immutable site array with a count of every element access.

    It also holds the run's counts of kernel work, to which the clip and
    nearest-neighbor kernels (`scan.clip_run`, whose two calls on one
    state make each order-k walk step, and `scan.nearest_run`) add once
    per call:
    `site_visits`, the sites each call looked at, skipped and culled ones
    included, and `site_tests`, those of them that reached the exact
    arithmetic.

    `twin` is the input again, read-only, for the float filter of each
    farthest clip that counts into the arena (`scan.clip_run`): (fpts,
    box), fpts[j] being site j's point as two doubles and box the integer
    (min x, max x, min y, max y) of all sites.  It is built once, only
    when every coordinate is below `TWIN_LIMIT` in magnitude, so that
    each fpts[j] is exact; else None.
    """

    __slots__ = ("_items", "read_count", "site_tests", "site_visits", "scale", "twin")

    def __init__(self, sites: Sequence[Site]):
        if not sites:
            raise ValueError("empty arena")
        self._items = tuple((i, s.ipt) for i, s in enumerate(sites))
        self.scale = sites[0].scale
        xs = [s.ix for s in sites]
        ys = [s.iy for s in sites]
        box = (min(xs), max(xs), min(ys), max(ys))
        self.twin = None
        if max(-box[0], box[1], -box[2], box[3]) < TWIN_LIMIT:
            self.twin = (tuple((float(x), float(y)) for x, y in zip(xs, ys)), box)
        self.read_count = 0
        self.site_tests = 0
        self.site_visits = 0

    def __len__(self) -> int:
        return len(self._items)

    def read(self, i: int) -> tuple[int, int]:
        """Site i's integer point, as `read_span` yields it; one read."""
        if not 0 <= i < len(self._items):
            raise IndexError(f"arena index {i} out of range 0..{len(self._items) - 1}")
        self.read_count += 1
        return self._items[i][1]

    def read_span(self, start: int, stop: int) -> tuple:
        """Sites start..stop-1 as (index, integer point) pairs, counted as
        stop - start reads.  The pairs are the arena's own, so a span is a
        view of the input, not a workspace copy."""
        if not 0 <= start <= stop <= len(self._items):
            raise IndexError(f"arena span {start}..{stop} out of range 0..{len(self._items)}")
        self.read_count += stop - start
        return self._items[start:stop]


class WorkLedger:
    """Accounts every word of intermediate storage an algorithm uses.

    In enforcing mode a charge that would push the live count above the
    budget aborts the run; in observing mode only the peak is recorded.
    """

    __slots__ = ("budget_words", "live_words", "peak_words", "enforcing")

    def __init__(self, budget_words: int, enforcing: bool = True):
        if budget_words <= 0:
            raise ValueError("budget must be positive")
        self.budget_words = budget_words
        self.live_words = 0
        self.peak_words = 0
        self.enforcing = enforcing

    def alloc(self, words: int) -> None:
        if words < 0:
            raise ValueError("cannot charge negative words")
        self.live_words += words
        if self.live_words > self.peak_words:
            self.peak_words = self.live_words
        if self.enforcing and self.live_words > self.budget_words:
            raise ModelViolation(
                f"workspace exceeded: {self.live_words} words live, budget {self.budget_words}"
            )

    def release(self, words: int) -> None:
        if words < 0 or words > self.live_words:
            raise ValueError("release does not match an allocation")
        self.live_words -= words

    @contextmanager
    def scope(self, words: int):
        """Charge `words` for the duration of the with-block."""
        self.alloc(words)
        try:
            yield self
        finally:
            self.release(words)


def observing_ledger() -> WorkLedger:
    """Ledger that never aborts and only records the peak: the ledger of
    `vw bench`, of `vw run` without `--enforce`, and of callers that
    measure something other than the budget."""
    return WorkLedger(budget_words=1, enforcing=False)


class OutputSink:
    """Append-only record stream; algorithms can never read it back.

    Records must arrive grouped by nondecreasing diagram order k.  A
    `writer` callable, when given, receives each record as it is emitted
    (the CLI uses this to stream lines to a file); `keep=True` additionally
    retains records in memory for post-hoc verification by the oracle
    tooling, which is outside the workspace model.
    """

    __slots__ = ("emitted_count", "_last_k", "_writer", "_records", "_closed")

    def __init__(self, writer=None, keep: bool = True):
        self.emitted_count = 0
        self._last_k: Optional[int] = None
        self._writer = writer
        self._records = [] if keep else None
        self._closed = False

    def emit(self, record) -> None:
        if self._closed:
            raise SequencingError("emit on a closed sink")
        k = record.k
        if self._last_k is not None and k < self._last_k:
            raise SequencingError(f"diagram order regressed from {self._last_k} to {k}")
        self._last_k = k
        self.emitted_count += 1
        if self._writer is not None:
            self._writer(record)
        if self._records is not None:
            self._records.append(record)

    def close(self) -> None:
        self._closed = True

    @property
    def records(self):
        """Post-run access for verification; not available to algorithms."""
        if self._records is None:
            raise RuntimeError("sink did not keep records")
        return tuple(self._records)
