"""Command-line frontend.

Subcommands: validate (general-position check), run (produce a diagram
record stream plus a run report), verify (check a stream against the
brute-force reference), bench (time-space measurement table), svg
(deterministic rendering).

A subcommand returns 0 (ok) or 1 (verification defects) and raises every
other failure; `main` alone turns a failure into an exit code and a
stderr prefix (`FAILURES`): 2 degenerate input, 3 parse error, 4
workspace-model violation, 5 bad configuration.  `_load_sites` and
`_load_records` read the input files, each turning an `OSError` into a
parse error; any other `OSError`, one met while opening, writing or
closing an output file, is a configuration error.
`run_diagram` is the one run dispatch of `vw run` and `vw bench`.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import memory
from .datagen import DuplicateSiteError, SiteParseError, parse_sites_text, random_sites
from .geometry import DegenerateGeometry, validate_general_position
from .memory import ModelViolation, OutputSink, ReadOnlyArena, WorkLedger, observing_ledger
from .pipeline import ConfigError, PipelineConfig, pipeline_run
from .records import RecordFormatError, format_record, read_stream
from .scan import DiagramMode
from .tradeoff import run_tradeoff

#: Failure class -> (exit code, stderr prefix).
FAILURES = {
    DuplicateSiteError: (2, "degenerate"),
    DegenerateGeometry: (2, "degenerate"),
    SiteParseError: (3, "parse error"),
    RecordFormatError: (3, "parse error"),
    ModelViolation: (4, "model violation"),
    ConfigError: (5, "config error"),
    OSError: (5, "config error"),
}


def _budget_const() -> int:
    raw = os.environ.get("VW_BUDGET_CONST")
    if raw is None:
        return memory.BUDGET_CONST
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"VW_BUDGET_CONST must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ConfigError("VW_BUDGET_CONST must be positive")
    return value


def _load_sites(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise SiteParseError(str(e)) from None
    return parse_sites_text(text)


def _load_records(path: str):
    """(header, records) of a record file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read_stream(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise RecordFormatError(str(e)) from None


def _config_ints(text: str) -> list[int]:
    """The comma-separated integers of a flag; anything else is a configuration error."""
    try:
        return [int(t) for t in text.split(",")]
    except ValueError as e:
        raise ConfigError(str(e)) from None


def run_diagram(sites, mode: str, s: int, K: int, sink: OutputSink, budget_const=None):
    """Run the `mode` diagram ("nvd", "fvd", or "order" for orders 1..K)
    of `sites` with workspace s into `sink`; return its arena and ledger,
    which hold the reads and the peak words.

    s = 0 is the one-slot run of the trade-off, the constant-workspace
    diagram.  With `budget_const` the ledger enforces budget_const words
    per slot; without it, it only observes.
    """
    arena = ReadOnlyArena(sites)
    slots = max(s, 1)
    ledger = WorkLedger(budget_const * slots, enforcing=True) if budget_const else observing_ledger()
    if mode == "order":
        pipeline_run(arena, PipelineConfig(K=K, s=s), sink, ledger)
    else:
        run_tradeoff(arena, DiagramMode.NEAREST if mode == "nvd" else DiagramMode.FARTHEST, slots, sink, ledger)
    return arena, ledger


@dataclass
class RunReport:
    """Deterministic run summary; wall time is reported separately."""

    n: int
    mode: str
    s: int
    K: int
    seed: int
    budget_const: int
    reads: int = 0
    peak_words: int = 0
    emitted: dict = field(default_factory=dict)

    def text(self) -> str:
        per_order = " ".join(f"k{k}={c}" for k, c in sorted(self.emitted.items()))
        return (
            f"n={self.n} mode={self.mode} s={self.s} K={self.K} seed={self.seed} "
            f"budget_const={self.budget_const} reads={self.reads} "
            f"peak_words={self.peak_words} emitted=[{per_order}]\n"
        )


def cmd_validate(args) -> int:
    report = validate_general_position(_load_sites(args.file))
    if not report.ok:
        v = report.violation
        raise DegenerateGeometry(f"{v.kind}{v.indices} ({report.mode})")
    print(f"ok ({report.mode}, {report.checked_tuples} tuples checked)")
    return 0


def _remove_regular(path) -> None:
    """Remove `path` if it is a regular file, never a device or a link."""
    with contextlib.suppress(FileNotFoundError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)


def cmd_run(args) -> int:
    sites = _load_sites(args.file)
    c = _budget_const()
    if args.workspace is not None and args.workspace < 1:
        raise ConfigError(f"--workspace must be positive, got {args.workspace}")
    if args.mode == "order":
        if args.max_k is None or args.workspace is None:
            raise ConfigError("--mode order needs --max-k and --workspace")
        PipelineConfig(K=args.max_k, s=args.workspace)  # checked before any output
    elif args.max_k is not None:
        raise ConfigError("--max-k only applies to --mode order")
    report = RunReport(len(sites), args.mode, args.workspace or 0, args.max_k or 1, args.seed, c)

    if args.out:  # a report stands only beside the records it describes
        _remove_regular(args.out + ".report")
    out_fh = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout

    def writer(rec):
        report.emitted[rec.k] = report.emitted.get(rec.k, 0) + 1
        out_fh.write(format_record(rec) + "\n")

    try:
        out_fh.write(
            f"# mode={args.mode} n={report.n} s={report.s} K={report.K} seed={args.seed} budget_const={c}\n"
        )
        t0 = time.perf_counter_ns()
        arena, ledger = run_diagram(
            sites, args.mode, report.s, report.K, OutputSink(writer=writer, keep=False), c if args.enforce else None
        )
        wall_ns = time.perf_counter_ns() - t0
        report.reads = arena.read_count
        report.peak_words = ledger.peak_words
        if args.out:
            out_fh.close()
            with open(args.out + ".report", "w", encoding="utf-8") as rf:
                rf.write(report.text())
    except BaseException:
        # The records written so far depend on the order of the walks and form no diagram.
        if args.out:
            with contextlib.suppress(OSError):
                out_fh.close()
            _remove_regular(args.out)
        raise
    if not args.out:
        sys.stderr.write(report.text())
    print(f"wall_ns={wall_ns}", file=sys.stderr)
    return 0


def _stream_orders(header: dict, n: int) -> range:
    """The orders a record stream holds: those its header's mode writes,
    nvd 1, fvd n - 1 and order 1..min(K, n - 1), or 1..n - 1 with no mode."""
    mode, K = header.get("mode"), header.get("K", "")
    if mode not in (None, "nvd", "fvd", "order") or (mode == "order" and not K.isdecimal()):
        raise RecordFormatError(f"header names no stream of vw run: mode={mode} K={K}")
    if mode == "order":
        return range(1, min(int(K), n - 1) + 1)
    return {"nvd": range(1, 2), "fvd": range(n - 1, n)}.get(mode, range(1, n))


def cmd_verify(args) -> int:
    """Check each order the stream holds, and each its header's mode
    writes, which has all its edges missing when it holds no records."""
    from .oracle import VerifyReport, oracle_vdk, verify_run

    sites = _load_sites(args.file)
    header, records = _load_records(args.records)
    orders = _stream_orders(header, len(sites))
    checked = sorted({r.k for r in records}.union(orders if "mode" in header else ()))
    all_ok = True
    for k in checked:
        if k in orders:
            rep = verify_run(records, oracle_vdk(sites, k), k, directed=header.get("mode") == "order")
        else:
            why = f"order {k} outside {orders.start}..{orders.stop - 1} for {len(sites)} sites"
            rep = VerifyReport([], [], [], [(r, why) for r in records if r.k == k])
        print(f"k={k}: {rep.summary()}")
        all_ok = all_ok and rep.ok
    if not checked:
        print("no records")
    return 0 if all_ok else 1


def cmd_bench(args) -> int:
    from .bench import bench_table, file_input, format_csv, format_json

    if args.repeats < 1:
        raise ConfigError(f"--repeats must be positive, got {args.repeats}")
    if args.random:
        n_seed = _config_ints(args.random)
        if len(n_seed) != 2:
            raise ConfigError(f"--random needs N,SEED, got {args.random!r}")
        if n_seed[0] < 3:
            raise ConfigError(f"need at least 3 sites, got {n_seed[0]}")
        sites, source = random_sites(*n_seed), {"random": args.random}
    elif args.file:
        sites, source = _load_sites(args.file), file_input(args.file)
    else:
        raise ConfigError("bench needs --file or --random")
    c = _budget_const()
    s_list = _config_ints(args.s_list) if args.s_list else [0]
    if any(s < 0 for s in s_list):
        raise ConfigError(f"--s-list values must be >= 0 (0 is the O(1)-word path), got {args.s_list}")
    k_list = _config_ints(args.k_list) if args.k_list else None
    if k_list and args.mode != "nvd":
        raise ConfigError(f"--mode {args.mode} does not apply to --k-list, whose rows are order-k runs")
    mode = "order" if k_list else args.mode
    rows = bench_table(sites, mode, s_list, k_list or [1], args.repeats)
    if not args.out:
        sys.stdout.write(format_csv(rows, c))
        return 0
    text = format_json(rows, c, mode, source) if args.out.endswith(".json") else format_csv(rows, c)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


def cmd_svg(args) -> int:
    from .svg import render_svg

    _, records = _load_records(args.records)
    sites = _load_sites(args.sites) if args.sites else None
    viewport = None
    if args.viewport:
        parts = args.viewport.split(",")
        if len(parts) != 4:
            raise ConfigError("--viewport needs minx,miny,maxx,maxy")
        try:
            viewport = tuple(Fraction(p) for p in parts)
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(str(e)) from None
        if viewport[2] <= viewport[0] or viewport[3] <= viewport[1]:
            raise ConfigError(f"--viewport needs maxx > minx and maxy > miny, got {args.viewport}")
    text = render_svg(records, viewport, sites)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vw",
        description="Voronoi diagrams under a bounded-workspace execution model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a site file for degeneracies")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="compute a diagram and write its records")
    p.add_argument("file")
    p.add_argument("--mode", choices=("nvd", "fvd", "order"), required=True)
    p.add_argument("--max-k", type=int, default=None, help="top order for --mode order")
    p.add_argument(
        "--workspace", type=int, default=None, help="workspace parameter s (default 1: O(1) words)"
    )
    p.add_argument("--enforce", action="store_true", help="abort on workspace budget breach")
    p.add_argument(
        "--seed", type=int, default=0, help="label copied to the record header and report; selects nothing"
    )
    p.add_argument("--out", default=None, help="records path; report goes to PATH.report")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="compare a record stream with the reference")
    p.add_argument("file")
    p.add_argument("records")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="measure reads/peak words across parameters")
    p.add_argument("--file", default=None)
    p.add_argument("--random", default=None, metavar="N,SEED")
    p.add_argument("--s-list", default=None)
    p.add_argument("--k-list", default=None)
    p.add_argument("--mode", choices=("nvd", "fvd"), default="nvd", help="diagram of the rows without --k-list")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--out", default=None, help="CSV, or JSON when PATH ends in .json")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("svg", help="render a record stream deterministically")
    p.add_argument("records")
    p.add_argument("--out", required=True)
    p.add_argument("--viewport", default=None, metavar="MINX,MINY,MAXX,MAXY")
    p.add_argument("--sites", default=None, help="site file for reference dots")
    p.set_defaults(func=cmd_svg)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(FAILURES) as e:
        code, prefix = next(v for cls, v in FAILURES.items() if isinstance(e, cls))
        print(f"{prefix}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
