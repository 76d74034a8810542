"""Command-line frontend.

Subcommands: validate (general-position check), run (produce a diagram
record stream plus a run report), verify (check a stream against the
brute-force reference), bench (time-space measurement table), svg
(deterministic rendering).

Exit codes: 0 ok, 1 verification defects, 2 degenerate input, 3 parse
error, 4 workspace-model violation, 5 bad configuration.
"""

from __future__ import annotations

import argparse
import os
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

EXIT_OK = 0
EXIT_DEFECTS = 1
EXIT_DEGENERATE = 2
EXIT_PARSE = 3
EXIT_MODEL = 4
EXIT_CONFIG = 5


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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sites_text(fh.read())


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
    try:
        sites = _load_sites(args.file)
    except DuplicateSiteError as e:
        print(f"degenerate: DuplicateSite {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (OSError, SiteParseError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    report = validate_general_position(sites)
    if report.ok:
        print(f"ok ({report.mode}, {report.checked_tuples} tuples checked)")
        return EXIT_OK
    v = report.violation
    print(f"degenerate: {v.kind}{v.indices} ({report.mode})", file=sys.stderr)
    return EXIT_DEGENERATE


def _discard_partial(path, fh) -> None:
    """Remove the record file of a run that stopped part way: the records
    written so far depend on the order of the walks and form no diagram."""
    if path:
        fh.close()
        os.remove(path)


def cmd_run(args) -> int:
    try:
        sites = _load_sites(args.file)
    except DuplicateSiteError as e:
        print(f"degenerate: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (OSError, SiteParseError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE

    try:
        c = _budget_const()
        if args.workspace is not None and args.workspace < 1:
            raise ConfigError(f"--workspace must be positive, got {args.workspace}")
        if args.mode == "order":
            if args.max_k is None or args.workspace is None:
                raise ConfigError("--mode order needs --max-k and --workspace")
            config = PipelineConfig(K=args.max_k, s=args.workspace)
        elif args.max_k is not None:
            raise ConfigError("--max-k only applies to --mode order")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    n = len(sites)
    arena = ReadOnlyArena(sites)
    s_words = args.workspace if args.workspace is not None else 1
    ledger = WorkLedger(c * s_words, enforcing=True) if args.enforce else observing_ledger()
    report = RunReport(
        n=n,
        mode=args.mode,
        s=args.workspace if args.workspace is not None else 0,
        K=args.max_k if args.max_k is not None else 1,
        seed=args.seed,
        budget_const=c,
    )

    try:
        out_fh = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except OSError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    emitted: dict = {}

    def writer(rec):
        emitted[rec.k] = emitted.get(rec.k, 0) + 1
        out_fh.write(format_record(rec) + "\n")

    header = (
        f"# mode={args.mode} n={n} s={report.s} K={report.K} "
        f"seed={args.seed} budget_const={c}\n"
    )
    out_fh.write(header)
    sink = OutputSink(writer=writer, keep=False)
    t0 = time.perf_counter_ns()
    try:
        if args.mode == "order":
            pipeline_run(arena, config, sink, ledger)
        else:
            mode = DiagramMode.NEAREST if args.mode == "nvd" else DiagramMode.FARTHEST
            run_tradeoff(arena, mode, s_words, sink, ledger)
    except ModelViolation as e:
        print(f"model violation: {e}", file=sys.stderr)
        _discard_partial(args.out, out_fh)
        return EXIT_MODEL
    except DegenerateGeometry as e:
        print(f"degenerate: {e}", file=sys.stderr)
        _discard_partial(args.out, out_fh)
        return EXIT_DEGENERATE
    finally:
        sink.close()
    wall_ns = time.perf_counter_ns() - t0

    report.reads = arena.read_count
    report.peak_words = ledger.peak_words
    report.emitted = emitted
    if args.out:
        out_fh.close()
        with open(args.out + ".report", "w", encoding="utf-8") as rf:
            rf.write(report.text())
    else:
        sys.stderr.write(report.text())
    print(f"wall_ns={wall_ns}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .oracle import VerifyReport, oracle_vdk, verify_run

    try:
        sites = _load_sites(args.file)
        with open(args.records, "r", encoding="utf-8") as fh:
            header, records = read_stream(fh)
    except DuplicateSiteError as e:
        print(f"degenerate: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (OSError, SiteParseError, RecordFormatError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    directed = header.get("mode") == "order"
    orders = sorted({r.k for r in records})
    all_ok = True
    for k in orders:
        if not 1 <= k <= len(sites) - 1:
            bad = [(r, f"order {k} out of range for {len(sites)} sites") for r in records if r.k == k]
            rep = VerifyReport([], [], [], bad)
        else:
            try:
                oracle = oracle_vdk(sites, k)
            except DegenerateGeometry as e:
                print(f"degenerate: {e}", file=sys.stderr)
                return EXIT_DEGENERATE
            rep = verify_run(records, oracle, k, directed=directed)
        print(f"k={k}: {rep.summary()}")
        all_ok = all_ok and rep.ok
    if not orders:
        print("no records")
    return EXIT_OK if all_ok else EXIT_DEFECTS


def cmd_bench(args) -> int:
    from .bench import bench_table, file_input, format_csv, format_json

    try:
        if args.repeats < 1:
            raise ConfigError(f"--repeats must be positive, got {args.repeats}")
        if args.random:
            n_str, seed_str = args.random.split(",")
            n = int(n_str)
            if n < 3:
                raise ConfigError(f"need at least 3 sites, got {n}")
            sites = random_sites(n, int(seed_str))
            source = {"random": args.random}
        elif args.file:
            sites = _load_sites(args.file)
            source = file_input(args.file)
        else:
            raise ConfigError("bench needs --file or --random")
        c = _budget_const()
        s_list = [int(t) for t in args.s_list.split(",")] if args.s_list else [0]
        if any(s < 0 for s in s_list):
            raise ConfigError(f"--s-list values must be >= 0 (0 is the O(1)-word path), got {args.s_list}")
        k_list = [int(t) for t in args.k_list.split(",")] if args.k_list else None
        if k_list and args.mode != "nvd":
            raise ConfigError(f"--mode {args.mode} does not apply to --k-list, whose rows are order-k runs")
    except DuplicateSiteError as e:
        print(f"degenerate: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (OSError, SiteParseError, ValueError, ConfigError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    mode = DiagramMode.NEAREST if args.mode == "nvd" else DiagramMode.FARTHEST
    try:
        rows = bench_table(sites, s_list, k_list, repeats=args.repeats, mode=mode)
    except DegenerateGeometry as e:
        print(f"degenerate: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    if args.out and args.out.endswith(".json"):
        text = format_json(rows, c, "order" if k_list else args.mode, source)
    else:
        text = format_csv(rows, c)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"config error: {e}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_svg(args) -> int:
    from .svg import render_svg

    try:
        with open(args.records, "r", encoding="utf-8") as fh:
            _, records = read_stream(fh)
        sites = _load_sites(args.sites) if args.sites else None
        viewport = None
        if args.viewport:
            parts = args.viewport.split(",")
            if len(parts) != 4:
                raise ConfigError("--viewport needs minx,miny,maxx,maxy")
            viewport = tuple(Fraction(p) for p in parts)
            if viewport[2] <= viewport[0] or viewport[3] <= viewport[1]:
                raise ConfigError(f"--viewport needs maxx > minx and maxy > miny, got {args.viewport}")
    except (OSError, RecordFormatError, SiteParseError, DuplicateSiteError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, ZeroDivisionError, ConfigError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    text = render_svg(records, viewport, sites)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


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
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelViolation as e:
        print(f"model violation: {e}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
