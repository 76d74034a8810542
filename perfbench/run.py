"""End-to-end benchmark of `vw run`, with a traced per-layer breakdown.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Each operation is one in-process `vw run` (parse the site file, build the
diagram under --enforce, write the records file and its .report).  One
client runs a closed loop, one operation at a time, in one worker process
(worker.py); this process then builds the reference and checks every
operation's output, outside the timed interval and outside the worker, so
neither counts toward the worker's peak memory.

--trace 0 reports the end-to-end metrics:
  diagram_s    median time of one operation over the timed window
  edges_per_s  median of records written per second of operation time
  setup_s      median time to import the package, generate the sites and
               write the site file, over several fresh processes
  peak_rss_mb  peak resident memory of the worker process
and prints error_rate (failed / attempted operations); an operation fails
on a nonzero exit, an exception or a failed output check.
The three times are scaled to a reference machine speed: each is a wall
time multiplied by calibrate.REFERENCE_S over the time of a fixed
calibration loop run right next to it (see calibrate.py).  On a shared
host, where raw wall times of the same code drift by up to a factor of
two, this keeps runs within a few per cent of each other.  The raw wall
times are printed too.
--trace 1 splits the window between an untraced and a traced loop and
reports the per-layer metrics listed in metrics.json.  The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: Set-ups in fresh processes before and after the worker; with the
#: worker's own set-up, setup_s is the median of these samples.  Taking
#: them at both ends of the run keeps one slow spell of the machine from
#: deciding the median.
SETUP_PROBES_BEFORE = 4
SETUP_PROBES_AFTER = 3
#: Hard limit on one worker; the whole run must end within 180 s.
WORKER_TIMEOUT_S = 150


def _worker(mode: str, args, workdir: Path, timeout: float) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    env = {k: v for k, v in os.environ.items() if k != "VW_BUDGET_CONST"}
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker {mode} failed with exit code {proc.returncode}")
    return proc


def _scaled(seconds: float, loop_s: float) -> float:
    """A wall time expressed at the reference machine speed."""
    return seconds * REFERENCE_S / loop_s


def _setup_probe(args, workdir: Path) -> tuple[float, float]:
    probe = json.loads(_worker("setup", args, workdir, 60).stdout)
    return probe["setup_s"], probe["loop_s"]


def _check_ops(checker, ops) -> list[dict]:
    from check import read_report

    for op in ops:
        out = Path(op["out"])
        if op["error"] is None:
            op["error"] = checker.check(out)
        report = read_report(Path(str(out) + ".report"))
        op["reads"], op["peak_words"], op["records"] = report if report else (0, 0, 0)
        op["bytes"] = out.stat().st_size if out.exists() else 0
    return ops


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wsvoronoi" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'wsvoronoi'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from check import Checker, reference_lines, self_test
    from spans import layer_metrics
    from workloads import WORKLOADS

    from wsvoronoi.datagen import parse_sites_text

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    started = perf_counter()
    try:
        probes = 0 if args.trace else SETUP_PROBES_BEFORE
        setups = [_setup_probe(args, workdir) for _ in range(probes)]
        _worker("run", args, workdir, WORKER_TIMEOUT_S)
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        setups.append((result["setup_s"], result["setup_loop_s"]))

        t0 = perf_counter()
        sites = parse_sites_text((workdir / "sites.txt").read_text(encoding="utf-8"))
        checker = Checker(reference_lines(args.workload, sites), sites)
        ops = _check_ops(checker, result["ops"])
        traced = _check_ops(checker, result["traced"])
        check_s = perf_counter() - t0
        problems = self_test(checker, workdir)
        if not args.trace:
            setups += [_setup_probe(args, workdir) for _ in range(SETUP_PROBES_AFTER)]
        if args.trace:
            spans_out = WORK / "traces" / f"{args.workload}-seed{args.seed}.tsv"
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(workdir / "spans.tsv"), spans_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_ops = ops + traced
    notes = []
    failed = sum(1 for op in all_ops if op["error"] is not None)
    for op in all_ops:
        if op["error"] is not None:
            problems.append(f"{Path(op['out']).name}: {op['error']} {op['stderr'].strip()}".strip())
    good = [op for op in ops if op["error"] is None] or ops
    times = [op["seconds"] for op in good]
    scaled = [_scaled(op["seconds"], op["loop_s"]) for op in good]
    diagram_s = statistics.median(scaled)

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} {platform.machine()}")
    print(
        f"workload {args.workload} seed {args.seed}: n={workload.n} "
        f"vw run {' '.join(workload.flags)}; closed loop, 1 client, 1 process"
    )
    lo, hi = _quartiles(scaled)
    print(
        f"  diagram_s    {diagram_s:.4f} s    median of {len(scaled)} ops at reference speed "
        f"(quartiles {lo:.4f} .. {hi:.4f}; wall median {statistics.median(times):.4f})"
    )
    print(f"  op times     {' '.join(f'{t:.3f}' for t in times)} (wall)")
    loops = [op["loop_s"] * 1000 for op in good]
    print(f"  loop times   {' '.join(f'{t:.1f}' for t in loops)} (ms, calibration)")

    if not args.trace:
        metrics = {
            "diagram_s": (diagram_s, "s"),
            "edges_per_s": (statistics.median(op["records"] / t for op, t in zip(good, scaled)), "1/s"),
            "setup_s": (statistics.median(_scaled(*probe) for probe in setups), "s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        }
        for name in ("edges_per_s", "setup_s", "peak_rss_mb"):
            value, unit = metrics[name]
            print(f"  {name:<12} {value:.4f} {unit}")
        print(
            f"  setup_s is the median of {len(setups)} set-ups in fresh processes "
            f"(wall median {statistics.median(t for t, _ in setups):.4f})"
        )
    else:
        per_op = []
        for op in traced:
            if not op["trace"]["consistent"]:
                problems.append(f"{Path(op['out']).name}: layer self times do not add up to the wall time")
            per_op.append(layer_metrics(op["trace"], op["records"], op["bytes"], op["reads"], op["peak_words"]))
        spec = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))["per_layer"]
        metrics = {}
        for entry in spec:
            name, unit = entry["name"], entry["unit"]
            if name == "trace.overhead_ratio":
                value = statistics.fmean(m["trace.op_s"] for m in per_op) / statistics.fmean(times)
            elif name == "oracle.check_s":
                value = check_s
            elif unit == "s":
                value = statistics.median(m[name] for m in per_op)
            else:
                value = per_op[0][name]
                if any(m[name] != value for m in per_op[1:]):
                    notes.append(f"{name} differs between traced operations; the first is reported")
            metrics[name] = (value, unit)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<30} {value:.6g} {unit}")
        print(f"  per-layer times are medians over {len(per_op)} traced ops; counts are those of the first")

    error_rate = failed / len(all_ops)
    print(f"  error_rate   {error_rate:.4f} ratio ({failed} failed / {len(all_ops)} attempted)")
    print(f"  checking took {check_s:.3f} s (reference build and checks, outside the timed loop)")
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(f"  run took {perf_counter() - started:.1f} s")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(all_ops),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
