"""Every function in `src/` is entered by some `vw` subcommand, or is kept
there on purpose, for a stated reason (`KEPT`).

The test runs validate, run, verify, bench and svg on a small corpus
under `sys.setprofile`, with the standard library alone.  The corpus
holds degenerate inputs (`TestSmallCorpus`'s), malformed files and bad
flags, so that the failure paths count as reached.  A function found by
reading the sources (`ast`) is entered when a frame of its code starts
or resumes; the functions never entered must be exactly `KEPT`.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import wsvoronoi
from test_cli import CONVEX_64, SMALL_CORPUS
from wsvoronoi.datagen import random_sites, sites_to_text

SRC = Path(wsvoronoi.__file__).parent

# The functions of `src/` that no `vw` subcommand enters, each with why it
# stays there.
SINGLE_CELL = "the single-cell API, which demo 01 calls (`cell_edges`)"
KEPT = {
    "scan.locate_on_hull": f"{SINGLE_CELL}; a span of perfbench/spans.py's TARGETS",
    "scan._along": f"{SINGLE_CELL}, through `locate_on_hull`",
    "scan._past": f"{SINGLE_CELL}, through `locate_on_hull`",
    "scan.enumerate_cell": f"{SINGLE_CELL}; a span of perfbench/spans.py's TARGETS",
    "scan.cell_edges": SINGLE_CELL,
    "scan.enumerate_diagram": "the constant-workspace entry point of demos 01 and 04; "
    "a span of perfbench/spans.py's TARGETS",
    "tradeoff.find_big_cells": "the walk-only big-cell search the tests hold `iter_diagram`'s "
    "table to; a span of perfbench/spans.py's TARGETS",
    "tradeoff._edge_vanished": "the guard for a clipped edge that vanished, which no input has "
    "reached (a tie at an end raises first); only tests that force it enter it",
    "datagen.sites_to_text": "a fixture: writes the site files of the tests, perfbench and CI",
    "datagen.triangle": "a fixture of the tests and demo 01",
    "datagen.with_interior_point": "a fixture of the tests",
    "geometry.Site.__repr__": "a debugging aid: how a site prints in a failing test",
    "memory.OutputSink.records": "post-run access to kept records, for the tests and demos; "
    "`vw` keeps none",
    "memory.OutputSink.close": "the sink's write-once contract, which the tests check; "
    "`vw` closes its own file",
    **{
        f"records.AllBut.{name}": "a farthest record's closest set behaves as the tuple it stands "
        "for, so records built in memory compare with the oracle's; `vw` writes it without looking"
        for name in ("__iter__", "__eq__", "__lt__", "__hash__")
    },
}


def src_functions() -> dict:
    """{(file name, first line of its code): dotted name} of every function
    defined in `src/`, methods and nested functions included; a decorated
    function's code starts at its first decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path.name, first] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return found


def corpus_argvs(tmp: Path):
    """The `vw` argument lists the test runs, in order; a later one may
    read what an earlier one wrote."""
    files = {name: text for name, text in SMALL_CORPUS.items()}
    files["random24"] = sites_to_text(random_sites(24, 1))
    files["convex"] = "".join(CONVEX_64.splitlines(keepends=True)[:20])
    paths = {}
    for name, text in files.items():
        paths[name] = tmp / f"{name}.txt"
        paths[name].write_text(text, encoding="utf-8")
    for name, path in paths.items():
        yield ["validate", str(path)]
        n = len(files[name].splitlines())
        runs = [["nvd"], ["fvd"], ["nvd", "--workspace", "3"], ["fvd", "--workspace", "3"]]
        runs += [["nvd", "--workspace", str(n)], ["fvd", "--workspace", str(n)]]
        runs += [["order", "--max-k", "2", "--workspace", "4"], ["order", "--max-k", "3", "--workspace", "9"]]
        for i, flags in enumerate(runs):
            out = tmp / f"{name}-{i}.rec"
            yield ["run", str(path), "--mode", *flags, "--enforce", "--out", str(out)]
            yield ["verify", str(path), str(out)]
            yield ["svg", str(out), "--out", str(tmp / "run.svg"), "--sites", str(path)]
    good = str(paths["random24"])
    rec = str(tmp / "random24-0.rec")
    yield ["run", good, "--mode", "nvd"]  # records to stdout
    yield ["svg", rec, "--out", str(tmp / "view.svg"), "--viewport", "0,0,1,1"]
    yield ["bench", "--random", "12,3", "--s-list", "0,2", "--repeats", "2"]
    yield ["bench", "--random", "12,3", "--s-list", "4", "--k-list", "2", "--out", str(tmp / "b.json")]
    yield ["bench", "--file", good, "--mode", "fvd", "--out", str(tmp / "b.csv")]
    # Failures: a stream missing its order (exit 1), malformed and missing
    # files (3), bad flags and an unwritable output (5).
    lost = tmp / "lost.rec"
    lost.write_text("# mode=nvd n=24 s=0 K=1 seed=0 budget_const=64\n", encoding="utf-8")
    bad = tmp / "bad.txt"
    bad.write_text("0 0\n1 x\n", encoding="utf-8")
    yield ["verify", good, str(lost)]
    yield ["run", str(bad), "--mode", "nvd"]
    yield ["verify", good, str(bad)]
    yield ["validate", str(tmp / "missing.txt")]
    yield ["run", good, "--mode", "nvd", "--workspace", "0"]
    yield ["run", good, "--mode", "order", "--max-k", "3", "--workspace", "4"]
    yield ["run", good, "--mode", "nvd", "--out", str(tmp / "missing" / "r.rec")]
    yield ["bench", "--random", "2,1"]
    yield ["svg", rec, "--out", str(tmp / "view.svg"), "--viewport", "1,1,0,0"]


# The corpus runs in a fresh interpreter, so that no cache another test
# warmed (the oracle's) keeps a function from being entered.  It takes the
# directory to import `wsvoronoi` from and the
# package's own directory, reads the argument lists as JSON on stdin, and
# prints as its last line the JSON of the (file name, first line) of each
# code entered and of the exit codes.
PROFILED = """
import json, sys
sys.path.insert(0, sys.argv[1])
from wsvoronoi.cli import main

prefix = sys.argv[2]
hit = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(prefix):
        hit.add((code.co_filename[len(prefix):], code.co_firstlineno))

argvs = json.load(sys.stdin)
sys.setprofile(profile)
codes = [main(argv) for argv in argvs]
sys.setprofile(None)
print(json.dumps({"hit": sorted(hit), "codes": codes}))
"""


def run_corpus(tmp: Path):
    """(src/ functions entered by the corpus, every src/ function, the
    corpus's exit codes)."""
    functions = src_functions()
    argvs = list(corpus_argvs(tmp))  # the files are written before the run
    done = subprocess.run(
        [sys.executable, "-c", PROFILED, str(SRC.parent), str(SRC) + os.sep],
        input=json.dumps(argvs), capture_output=True, text=True, check=True,
    )
    got = json.loads(done.stdout.splitlines()[-1])
    hit = {functions.get(tuple(k)) for k in got["hit"]} - {None}
    return hit, set(functions.values()), set(got["codes"])


def test_never_entered_is_kept(tmp_path):
    reached, everything, codes = run_corpus(tmp_path)
    assert codes == {0, 1, 2, 3, 5}  # model violations (4) need a budget override
    assert set(KEPT) <= everything
    assert sorted(everything - reached) == sorted(KEPT)
