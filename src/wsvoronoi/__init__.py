"""wsvoronoi: Voronoi diagrams under an enforced bounded-workspace model.

Nearest-site, farthest-site, and order-k diagrams of planar point sets,
computed with exact rational arithmetic against a read-only input array, an
O(s)-word workspace ledger, and a write-once output stream — plus an
unconstrained brute-force oracle and instrumentation for measuring the
time-space trade-offs the streaming algorithms exhibit.
"""

from .geometry import (
    DegenerateGeometry,
    Site,
    site_set,
    validate_general_position,
)
from .memory import (
    BUDGET_CONST,
    ModelViolation,
    OutputSink,
    ReadOnlyArena,
    SequencingError,
    WorkLedger,
    observing_ledger,
)
from .records import EdgeRecord, Unbounded, format_record, parse_record

__all__ = [
    "DegenerateGeometry",
    "Site",
    "site_set",
    "validate_general_position",
    "BUDGET_CONST",
    "ModelViolation",
    "OutputSink",
    "ReadOnlyArena",
    "SequencingError",
    "WorkLedger",
    "observing_ledger",
    "EdgeRecord",
    "Unbounded",
    "format_record",
    "parse_record",
]

__version__ = "0.1.0"
