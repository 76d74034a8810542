"""Output check for every benchmark operation, and the checker's self-test.

An operation passes when `vw run` exited 0, wrote its report, and the
sorted record lines of its output equal those of a reference built once
per seed by a path other than the one under test:

* nvd-uniform (s-workspace tradeoff) against the O(1)-word scan;
* fvd-convex (O(1)-word scan) against the s-workspace tradeoff;
* order-uniform (pipeline) against the brute-force oracle, orders 1..3.

Every record line must also pass `oracle.check_distance_profile`.  That
check is a pure function of the line and the sites, so each distinct line
is checked once per seed and the result reused.
"""

from __future__ import annotations

import re
from pathlib import Path

from wsvoronoi.memory import OutputSink, ReadOnlyArena, observing_ledger
from wsvoronoi.oracle import check_distance_profile, oracle_vdk
from wsvoronoi.records import format_record, parse_record
from wsvoronoi.scan import DiagramMode, enumerate_diagram
from wsvoronoi.tradeoff import run_tradeoff

#: Workspace of the tradeoff path when it serves as the fvd reference.
REFERENCE_S = 16
ORDER_K = 3

_REPORT = re.compile(r"reads=(\d+) peak_words=(\d+) emitted=\[([^\]]*)\]")


def reference_lines(workload: str, sites) -> list[str]:
    """Sorted record lines of the workload's diagram, by the reference path."""
    if workload == "order-uniform":
        records = [r for k in range(1, ORDER_K + 1) for r in oracle_vdk(sites, k).halfedge_records()]
    else:
        sink = OutputSink()
        arena = ReadOnlyArena(sites)
        if workload == "nvd-uniform":
            enumerate_diagram(arena, DiagramMode.NEAREST, sink, observing_ledger())
        else:
            run_tradeoff(arena, DiagramMode.FARTHEST, REFERENCE_S, sink, observing_ledger())
        records = sink.records
    return sorted(format_record(r) for r in records)


def read_report(path: Path):
    """(reads, peak_words, emitted) from a `vw run` report, or None."""
    try:
        m = _REPORT.search(path.read_text(encoding="utf-8"))
    except OSError:
        return None
    if m is None:
        return None
    emitted = sum(int(t.split("=")[1]) for t in m.group(3).split())
    return int(m.group(1)), int(m.group(2)), emitted


class Checker:
    def __init__(self, reference: list[str], sites):
        self.reference = reference
        self.sites = sites
        self._profile: dict[str, bool] = {}

    def _profile_ok(self, line: str) -> bool:
        ok = self._profile.get(line)
        if ok is None:
            ok = check_distance_profile(parse_record(line), self.sites) is None
            self._profile[line] = ok
        return ok

    def check(self, out: Path) -> str | None:
        """None when the record file at `out` is correct, else the reason."""
        report = read_report(Path(str(out) + ".report"))
        if report is None:
            return "missing or malformed report"
        with open(out, encoding="utf-8") as fh:
            lines = sorted(ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#"))
        if report[2] != len(lines):
            return f"report counts {report[2]} records, file holds {len(lines)}"
        if lines != self.reference:
            want, got = set(self.reference), set(lines)
            return (
                f"records differ from reference: {len(want - got)} missing, "
                f"{len(got - want)} spurious, {len(lines) - len(got)} duplicated"
            )
        bad = sum(1 for ln in lines if not self._profile_ok(ln))
        if bad:
            return f"{bad} records fail the distance-profile check"
        return None


def _mutations(lines: list[str]):
    """Record sets with one record dropped, duplicated, or one endpoint moved."""
    yield "dropped", lines[1:]
    yield "duplicated", lines + lines[:1]
    for i, line in enumerate(lines):
        m = re.search(r"tail=(-?\d+)/", line)
        if m:
            moved = line[: m.start(1)] + str(int(m.group(1)) + 1) + line[m.end(1) :]
            yield "endpoint moved", lines[:i] + [moved] + lines[i + 1 :]
            return
    raise AssertionError("no record with a bounded tail to alter")


def self_test(checker: Checker, workdir: Path) -> list[str]:
    """Problems found; the reference must pass and every mutation must fail."""
    problems = []
    cases = [("reference", checker.reference)] + list(_mutations(checker.reference))
    for label, lines in cases:
        path = workdir / "selftest.txt"
        path.write_text("# self-test\n" + "".join(ln + "\n" for ln in lines), encoding="utf-8")
        Path(str(path) + ".report").write_text(
            f"reads=0 peak_words=0 emitted=[k1={len(lines)}]\n", encoding="utf-8"
        )
        verdict = checker.check(path)
        if (verdict is None) != (label == "reference"):
            problems.append(f"self-test: {label} -> {verdict or 'passed'}")
    return problems
