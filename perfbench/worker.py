"""The process that runs the operations; started by run.py.

    worker.py setup --workload W --seed N --workdir DIR
        set up only (import, generate, write the site file); print setup_s
        and the calibration loop time right after it.
    worker.py run --workload W --seed N --seconds S --trace 0|1 --workdir DIR
        set up, then run `vw run` in a closed loop for S seconds, one
        operation at a time, in this process, timing the calibration loop
        (calibrate.py) before the first operation and after each one.  With
        --trace 1 the loop runs for S/2 seconds untraced, then S/2 seconds
        with the tracer installed.  Writes result.json.

Nothing here checks outputs or builds a reference, so the peak resident
memory of this process is that of the set-up and the operations alone.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from calibrate import loop_seconds

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _run_ops(main, workload, site_path: Path, workdir: Path, seconds: float, first: int, tracer=None):
    ops = []
    start = perf_counter()
    loop_before = loop_seconds()
    while not ops or perf_counter() - start < seconds:
        out = workdir / f"op{first + len(ops)}.txt"
        argv = ["run", str(site_path), *workload.flags, "--out", str(out)]
        err = io.StringIO()
        totals = None
        scope = tracer.operation() if tracer is not None else contextlib.nullcontext()
        with contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                with scope as totals:
                    rc = main(argv)
                error = None if rc == 0 else f"exit code {rc}"
            except (Exception, SystemExit) as e:  # any failure counts; the loop goes on
                error = f"{type(e).__name__}: {e}"
            elapsed = perf_counter() - t0
        loop_after = loop_seconds()
        ops.append(
            {
                "out": str(out),
                "seconds": elapsed,
                "loop_s": (loop_before + loop_after) / 2,
                "error": error,
                "stderr": err.getvalue()[-2000:] if error else "",
                "trace": totals,
            }
        )
        loop_before = loop_after
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    # Set-up: everything before the first operation.
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    from wsvoronoi import cli

    from workloads import WORKLOADS, site_text

    workload = WORKLOADS[args.workload]
    site_path = args.workdir / "sites.txt"
    site_path.write_text(site_text(workload, args.seed), encoding="utf-8")
    setup_s = perf_counter() - t0
    setup_loop_s = statistics.median(loop_seconds() for _ in range(3))
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "loop_s": setup_loop_s}))
        return 0

    window = args.seconds / 2 if args.trace else args.seconds
    ops = _run_ops(cli.main, workload, site_path, args.workdir, window, 0)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    traced = []
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = _run_ops(cli.main, workload, site_path, args.workdir, window, len(ops), tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(args.workdir / "spans.tsv")
    result = {"setup_s": setup_s, "setup_loop_s": setup_loop_s, "peak_rss_kb": peak_rss_kb, "ops": ops, "traced": traced}
    (args.workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
