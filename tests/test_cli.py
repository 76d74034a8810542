"""Command-line surface: exit codes, formats, determinism."""

import errno
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wsvoronoi import tradeoff
from wsvoronoi.cli import FAILURES, main, run_diagram
from wsvoronoi.datagen import (
    GRID_DIGITS,
    DuplicateSiteError,
    SiteParseError,
    parse_sites_text,
    random_sites,
    sites_to_text,
)
from wsvoronoi.memory import OutputSink
from wsvoronoi.oracle import check_distance_profile
from wsvoronoi.records import format_record, read_stream

TRIANGLE = "0 0\n8 0\n0 6\n"
RECTANGLE = "0 0\n8 0\n0 6\n8 6\n"
COLLINEAR = "0 0\n1 1\n2 2\n3 3\n"
SQUARE = "0 0\n1 0\n1 1\n0 1\n"
# Four cocircular hull sites, and 0 4, 1 3, 4 0 collinear.
SQUARE_AND_POINT = "0 0\n4 0\n4 4\n0 4\n1 3\n"
# Eight sites on a circle about the origin and one inside: the order-2
# and order-3 diagrams have a vertex where successor crossings tie.
CIRCLE_AND_POINT = "5 0\n3 4\n0 5\n-3 4\n-5 0\n-4 -3\n0 -5\n4 -3\n1 1\n"
# 0 0, 2 0, 4 0 collinear; the farthest diagram is still produced.
COLLINEAR_AND_TWO = "0 0\n2 0\n4 0\n2 5\n1 1\n"
# Every site on one line: every diagram's edges are parallel full lines.
ALL_COLLINEAR = "0 0\n2 0\n4 0\n6 0\n"
# A triangle and one site inside it.
TRIANGLE_AND_POINT = "0 0\n8 0\n0 6\n1 1\n"
# Site files whose common grid needs exactly GRID_DIGITS digits, and one
# more: by the scale a decimal exponent sets, and by wide integers.
WIDE = 10**GRID_DIGITS - 1
GRID_EDGE_SCALE = f"0 0\n1 0\n0 1e-{GRID_DIGITS - 1}\n3 5\n"
GRID_PAST_SCALE = f"0 0\n1 0\n0 1e-{GRID_DIGITS}\n3 5\n"
GRID_EDGE_WIDE = f"{-WIDE} {-WIDE}\n{WIDE} {7 - WIDE}\n3 {WIDE}\n{WIDE - 5} {WIDE - 1}\n{2 - WIDE} 11\n"
GRID_PAST_WIDE = GRID_EDGE_WIDE.replace(f"3 {WIDE}", f"3 {WIDE + 1}")
# Exponents far past the bound: tiny and huge coordinates.
HUGE_EXPONENTS = ["0 0\n1 0\n0 1e-4000\n3 5\n", "0 0\n1 0\n0 1e4400\n3 5\n"]


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text(TRIANGLE)
    return str(path)


@pytest.fixture
def random_file(tmp_path):
    path = tmp_path / "rand.txt"
    path.write_text(sites_to_text(random_sites(12, 2024)))
    return str(path)


# 64 convex sites (x, x^2), x < 2^20.
CONVEX_64 = "".join(f"{x} {x * x}\n" for x in random.Random(11).sample(range(1, 1 << 20), 64))


# Small inputs, degenerate ones among them: each run must end cleanly.
SMALL_CORPUS = {
    "circle": CIRCLE_AND_POINT,
    "square": SQUARE,
    "grid4": "".join(f"{x} {y}\n" for x in range(4) for y in range(4)),
    "collinear": COLLINEAR_AND_TWO,
    "allcollinear": ALL_COLLINEAR,
    **{f"random{n}-{seed}": sites_to_text(random_sites(n, seed)) for n in (3, 4, 5) for seed in (1, 2)},
}


def _small_runs():
    for name, text in SMALL_CORPUS.items():
        n = len(text.splitlines())
        for mode in ("nvd", "fvd"):
            for s in sorted({1, 2, 3, n}):
                yield pytest.param(name, [mode, "--workspace", str(s)], id=f"{name}-{mode}-s{s}")
        for K, s in ((2, 4), (3, 9)):
            yield pytest.param(name, ["order", "--max-k", str(K), "--workspace", str(s)], id=f"{name}-order{K}-s{s}")


class TestSiteGrammar:
    """One coordinate grammar on every supported Python: integers, decimal
    literals with an optional exponent, and p/q, with no underscores
    (`Fraction` takes them from 3.11 on, `int` everywhere)."""

    def test_forms(self):
        sites = parse_sites_text("1/2 0\n-1.5e1 7 # note_1\n.25 +3\n4. 1E-3\n")
        assert [(s.ix, s.iy, s.scale, s.index) for s in sites] == [
            (500, 0, 1000, 0), (-15000, 7000, 1000, 1), (250, 3000, 1000, 2), (4000, 1, 1000, 3)
        ]

    def test_integers_stay_on_the_unit_grid(self):
        sites = parse_sites_text("3 -4\n0 0\n1099511627775 5\n")
        assert [(s.ix, s.iy, s.scale) for s in sites] == [(3, -4, 1), (0, 0, 1), (1099511627775, 5, 1)]
        assert all(type(v) is int for s in sites for v in (s.ix, s.iy, s.scale))

    @pytest.mark.parametrize("token", ["3_000", "1_0/2", "0.5_0", "1e1_0"])
    def test_underscore_rejected(self, token):
        with pytest.raises(SiteParseError, match=f"line 2: bad coordinate in '{token} 0'"):
            parse_sites_text(f"0 0\n{token} 0\n0 6\n")

    def test_equal_values_are_duplicates(self):
        with pytest.raises(DuplicateSiteError, match="line 4: duplicate site, first seen on line 2"):
            parse_sites_text("0 0\n3 1/2\n1 1\n3.0 0.5\n")

    @pytest.mark.parametrize(
        "text, scale",
        [
            ("0.5 1/3\n2 0\n-1e2 7\n", 6),
            ("1/3 2/3\n-4/3 0\n5 1/3\n", 3),
            ("1/7 0\n3 -2/7\n9/7 5\n", 7),
            ("1/12 1/4\n-5/6 1/3\n2 7/12\n", 12),
        ],
    )
    def test_site_text_round_trips(self, text, scale):
        """`sites_to_text` writes each coordinate in a form the parser
        reads, whatever the denominators of the grid."""
        sites = parse_sites_text(text)
        assert sites[0].scale == scale
        assert parse_sites_text(sites_to_text(sites)) == sites

    @pytest.mark.parametrize("token", ["1e-20000000", "1e+20000000"])
    def test_exponent_past_the_grid_is_refused_at_once(self, tmp_path, capsys, token):
        """A literal whose exponent alone puts it past the grid bound is a
        parse error before its power of ten is built."""
        sites = tmp_path / "sites.txt"
        sites.write_text(f"0 {token}\n")
        out = tmp_path / "r.rec"
        start = time.perf_counter()
        assert main(["run", str(sites), "--mode", "nvd", "--out", str(out)]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == f"parse error: coordinates need more than {GRID_DIGITS} digits on their common grid\n"
        assert not out.exists()

    def test_zero_mantissa_with_any_exponent_is_zero(self):
        sites = parse_sites_text("5 0e-20000000\n0 1\n1 7\n")
        assert (sites[0].ix, sites[0].iy, sites[0].scale) == (5, 0, 1)


class TestValidate:
    def test_ok(self, tri_file):
        assert main(["validate", tri_file]) == 0

    def test_cocircular(self, tmp_path):
        path = tmp_path / "rect.txt"
        path.write_text(RECTANGLE)
        assert main(["validate", str(path)]) == 2

    def test_duplicate(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 0\n1 2\n0 0\n")
        assert main(["validate", str(path)]) == 2

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\nnot a line\n1 5\n")
        assert main(["validate", str(path)]) == 3

    def test_comments_and_decimals(self, tmp_path):
        path = tmp_path / "dec.txt"
        path.write_text("# header\n0.5 0.25\n8 0\n0 6\n")
        assert main(["validate", str(path)]) == 0


class TestRun:
    def test_triangle_nvd(self, tri_file, tmp_path):
        out = tmp_path / "records.txt"
        assert main(["run", tri_file, "--mode", "nvd", "--workspace", "8", "--out", str(out)]) == 0
        with open(out) as fh:
            header, records = read_stream(fh)
        assert header["mode"] == "nvd"
        assert len(records) == 3
        report = (tmp_path / "records.txt.report").read_text()
        assert "emitted=[k1=3]" in report

    def test_order_mode_verifies(self, random_file, tmp_path):
        out = tmp_path / "records.txt"
        assert (
            main(
                [
                    "run", random_file, "--mode", "order", "--max-k", "3",
                    "--workspace", "36", "--enforce", "--out", str(out),
                ]
            )
            == 0
        )
        assert main(["verify", random_file, str(out)]) == 0

    def test_config_violation(self, tri_file, tmp_path):
        out = tmp_path / "r.txt"
        code = main(
            ["run", tri_file, "--mode", "order", "--max-k", "10", "--workspace", "9", "--out", str(out)]
        )
        assert code == 5

    @pytest.mark.parametrize("flags", [[], ["--workspace", "4"]], ids=["scan", "workspace"])
    def test_collinear_farthest_is_degenerate(self, tmp_path, capsys, flags):
        path = tmp_path / "line.txt"
        path.write_text(COLLINEAR)
        out = tmp_path / "r.txt"
        assert main(["run", str(path), "--mode", "fvd", *flags, "--out", str(out)]) == 2
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, flags",
        [
            (SQUARE, ["--mode", "nvd"]),
            (SQUARE, ["--mode", "nvd", "--workspace", "2"]),
            (SQUARE, ["--mode", "fvd"]),
            (SQUARE, ["--mode", "fvd", "--workspace", "2"]),
            (SQUARE, ["--mode", "order", "--max-k", "2", "--workspace", "4"]),
            (SQUARE_AND_POINT, ["--mode", "fvd"]),
            (SQUARE_AND_POINT, ["--mode", "order", "--max-k", "2", "--workspace", "4"]),
            (CIRCLE_AND_POINT, ["--mode", "order", "--max-k", "3", "--workspace", "9"]),
            (CIRCLE_AND_POINT, ["--mode", "order", "--max-k", "2", "--workspace", "4"]),
        ],
        ids=["nvd", "nvd-s2", "fvd", "fvd-s2", "order", "fvd-5", "order-5", "order3-9", "order2-9"],
    )
    def test_cocircular_is_degenerate(self, tmp_path, capsys, text, flags):
        path = tmp_path / "square.txt"
        path.write_text(text)
        assert main(["run", str(path), *flags, "--out", str(tmp_path / "r.txt")]) == 2
        assert "degenerate" in capsys.readouterr().err
        # The records written before the degeneracy was found are removed.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["square.txt"]

    @pytest.mark.parametrize("mode, s", [("nvd", 2**63), ("fvd", 2**63), ("order", 2**65)])
    def test_workspace_past_maxsize(self, random_file, tmp_path, mode, s):
        """A workspace with more slots than `islice` takes runs, verifies
        and benches like any other, and reports the s it was given; order
        mode's walks get s // K^2 slots, 2**63 at K = 2."""
        flags = ["--max-k", "2"] if mode == "order" else []
        out = tmp_path / "r.txt"
        assert main(["run", random_file, "--mode", mode, *flags, "--workspace", str(s), "--out", str(out)]) == 0
        assert f" s={s} " in (tmp_path / "r.txt.report").read_text()
        assert main(["verify", random_file, str(out)]) == 0
        bench = tmp_path / "bench.csv"
        flags = ["--k-list", "2"] if mode == "order" else ["--mode", mode]
        assert main(["bench", "--file", random_file, *flags, "--s-list", str(s), "--out", str(bench)]) == 0
        assert bench.read_text().splitlines()[2].split(",")[1] == str(s)

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("mode", ["nvd", "fvd"])
    def test_nonpositive_workspace_is_config_error(self, tri_file, tmp_path, capsys, mode, value):
        code = main(["run", tri_file, "--mode", mode, "--workspace", value, "--out", str(tmp_path / "r.txt")])
        assert code == 5
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["nvd", "order"])
    def test_unwritable_out_is_config_error(self, tri_file, tmp_path, capsys, mode):
        flags = ["--max-k", "2", "--workspace", "4"] if mode == "order" else []
        out = tmp_path / "missing" / "r.rec"
        assert main(["run", tri_file, "--mode", mode, *flags, "--out", str(out)]) == 5
        assert capsys.readouterr().err.startswith("config error: [Errno 2] No such file or directory")
        assert not out.parent.exists()

    @pytest.mark.parametrize("flags", [["nvd"], ["order", "--max-k", "2", "--workspace", "4"]], ids=["nvd", "order"])
    @pytest.mark.parametrize(
        "text", [GRID_EDGE_SCALE, GRID_EDGE_WIDE, GRID_PAST_SCALE, GRID_PAST_WIDE],
        ids=["edge-scale", "edge-wide", "past-scale", "past-wide"],
    )
    def test_grid_digit_bound(self, tmp_path, capsys, text, flags):
        """Sites whose grid needs GRID_DIGITS digits run and every record
        integer prints, the widest with more than 3 * GRID_DIGITS digits;
        one digit more is a parse error that writes no records."""
        sites = tmp_path / "sites.txt"
        sites.write_text(text)
        out = tmp_path / "r.rec"
        code = main(["run", str(sites), "--mode", *flags, "--out", str(out)])
        if text in (GRID_PAST_SCALE, GRID_PAST_WIDE):
            assert code == 3
            assert capsys.readouterr().err.startswith(f"parse error: coordinates need more than {GRID_DIGITS} digits")
            assert not out.exists()
            return
        grid = parse_sites_text(text)
        assert len(str(max(max(abs(s.ix), abs(s.iy), s.scale) for s in grid))) == GRID_DIGITS
        assert code == 0
        written = out.read_text()
        assert read_stream(io.StringIO(written))[1]
        if text == GRID_EDGE_WIDE:
            assert max(map(len, re.findall(r"\d+", written))) > 3 * GRID_DIGITS

    def test_failed_rerun_leaves_no_stale_report(self, tmp_path, capsys):
        """A run that fails after opening --out leaves neither its records
        nor the report of an earlier run on the same path."""
        good = tmp_path / "good.txt"
        good.write_text(sites_to_text(random_sites(20, 3)))
        square = tmp_path / "square.txt"
        square.write_text("0 0\n2 0\n0 2\n2 2\n7 9\n")
        out = tmp_path / "o.rec"
        assert main(["run", str(good), "--mode", "nvd", "--out", str(out)]) == 0
        assert (tmp_path / "o.rec.report").read_text().startswith("n=20 ")
        assert main(["run", str(square), "--mode", "nvd", "--out", str(out)]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["good.txt", "square.txt"]

    def test_scan_path_without_workspace(self, tri_file, tmp_path):
        out = tmp_path / "records.txt"
        assert main(["run", tri_file, "--mode", "fvd", "--out", str(out)]) == 0
        with open(out) as fh:
            _, records = read_stream(fh)
        assert len(records) == 3 and all(r.k == 2 for r in records)


class TestVerify:
    def test_defect_flagged(self, tri_file, tmp_path):
        out = tmp_path / "records.txt"
        main(["run", tri_file, "--mode", "nvd", "--workspace", "8", "--out", str(out)])
        lines = out.read_text().splitlines()
        with open(out, "w") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")  # drop one record
        assert main(["verify", tri_file, str(out)]) == 1

    def test_collinear_is_degenerate(self, tmp_path, capsys):
        sites = tmp_path / "line.txt"
        sites.write_text(COLLINEAR_AND_TWO)
        out = tmp_path / "records.txt"
        assert main(["run", str(sites), "--mode", "fvd", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(sites), str(out)]) == 2
        assert "degenerate: collinear sites" in capsys.readouterr().err

    def test_duplicate_flagged(self, tri_file, tmp_path):
        out = tmp_path / "records.txt"
        main(["run", tri_file, "--mode", "nvd", "--workspace", "8", "--out", str(out)])
        lines = out.read_text().splitlines()
        with open(out, "a") as fh:
            fh.write(lines[-1] + "\n")
        assert main(["verify", tri_file, str(out)]) == 1

    @pytest.mark.parametrize(
        "mode, old, new, summary",
        [
            pytest.param("nvd", "k=1 ", "k=0 ", "k=0: missing=0 spurious=0 duplicated=0 invalid=1", id="order-0"),
            pytest.param("fvd", "k=3 ", "k=7 ", "k=7: missing=0 spurious=0 duplicated=0 invalid=1", id="order-7"),
            pytest.param(
                "nvd", "pair=0,3", "pair=0,9", "k=1: missing=1 spurious=1 duplicated=0 invalid=1", id="site-9"
            ),
            pytest.param(
                "nvd",
                "tail=-2/1,3/1 head=4/1,-3/1 extraT=2 extraH=1",
                "tail=INF:0/1,1/1 head=INF:0/1,-1/1 extraT=- extraH=-",
                "k=1: missing=1 spurious=1 duplicated=0 invalid=1",
                id="full-line",
            ),
            pytest.param(
                "nvd", "extraT=2", "extraT=99", "k=1: missing=0 spurious=0 duplicated=0 invalid=1", id="extra-99"
            ),
            pytest.param(
                "nvd", "extraT=2", "extraT=3", "k=1: missing=0 spurious=0 duplicated=0 invalid=1", id="extra-in-pair"
            ),
            pytest.param(
                "fvd",
                "extraT=1",
                "extraT=3",
                "k=3: missing=0 spurious=0 duplicated=0 invalid=1",
                id="extra-off-circle",
            ),
            pytest.param(
                "fvd",
                "extraH=-",
                "extraH=1",
                "k=3: missing=0 spurious=0 duplicated=0 invalid=1",
                id="extra-at-infinity",
            ),
        ],
    )
    def test_record_that_does_not_fit_the_sites(self, tmp_path, capsys, mode, old, new, summary):
        """A record with an order, a site or an end the site file cannot
        have is a defect: exit 1 with the summary, never a traceback."""
        sites = tmp_path / "sites.txt"
        sites.write_text(TRIANGLE_AND_POINT)
        out = tmp_path / "records.txt"
        assert main(["run", str(sites), "--mode", mode, "--out", str(out)]) == 0
        lines = out.read_text().splitlines(keepends=True)
        assert old in lines[1]
        lines[1] = lines[1].replace(old, new, 1)
        out.write_text("".join(lines))
        capsys.readouterr()
        assert main(["verify", str(sites), str(out)]) == 1
        assert summary in capsys.readouterr().out.splitlines()


class TestVerifyHeaderOrders:
    """With a `mode` header, verify checks every order that mode writes."""

    @pytest.fixture
    def order_run(self, tmp_path):
        sites = tmp_path / "sites.txt"
        sites.write_text(sites_to_text(random_sites(20, 3)))
        out = tmp_path / "r.rec"
        assert main(["run", str(sites), "--mode", "order", "--max-k", "2", "--workspace", "4", "--out", str(out)]) == 0
        return sites, out

    def _verify(self, capsys, sites, out):
        capsys.readouterr()
        code = main(["verify", str(sites), str(out)])
        return code, capsys.readouterr().out.splitlines()

    def test_whole_stream_is_ok(self, order_run, capsys):
        assert self._verify(capsys, *order_run) == (0, ["k=1: ok", "k=2: ok"])

    def test_lost_order_is_missing(self, order_run, capsys):
        sites, out = order_run
        lines = out.read_text().splitlines(keepends=True)
        out.write_text("".join(line for line in lines if not line.startswith("k=2 ")))
        code, printed = self._verify(capsys, sites, out)
        assert code == 1
        assert printed[0] == "k=1: ok"
        assert re.fullmatch(r"k=2: missing=[1-9]\d* spurious=0 duplicated=0 invalid=0", printed[1])

    def test_header_alone_misses_every_order(self, order_run, capsys):
        sites, out = order_run
        out.write_text(out.read_text().splitlines(keepends=True)[0])
        code, printed = self._verify(capsys, sites, out)
        assert code == 1
        assert [line.split(":")[0] for line in printed] == ["k=1", "k=2"]
        assert all(re.search(r"missing=[1-9]", line) for line in printed)

    def test_order_the_header_does_not_name_is_invalid(self, order_run, capsys):
        sites, out = order_run
        text = out.read_text()
        out.write_text(text.replace(" K=2 ", " K=1 ", 1))
        count = text.count("\nk=2 ")
        assert self._verify(capsys, sites, out) == (1, ["k=1: ok", f"k=2: missing=0 spurious=0 duplicated=0 invalid={count}"])

    @pytest.mark.parametrize("old, new", [(" K=2 ", " K=two "), ("mode=order", "mode=voronoi")])
    def test_header_of_no_run_is_a_parse_error(self, order_run, capsys, old, new):
        sites, out = order_run
        out.write_text(out.read_text().replace(old, new, 1))
        capsys.readouterr()
        assert main(["verify", str(sites), str(out)]) == 3
        assert capsys.readouterr().err.startswith("parse error: header names no stream of vw run")


class TestDeterminism:
    def test_byte_identical_records_report_svg(self, random_file, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            rec = tmp_path / f"{tag}.rec"
            svg = tmp_path / f"{tag}.svg"
            assert (
                main(
                    ["run", random_file, "--mode", "order", "--max-k", "2",
                     "--workspace", "16", "--seed", "7", "--out", str(rec)]
                )
                == 0
            )
            assert main(["svg", str(rec), "--out", str(svg), "--sites", random_file]) == 0
            outputs.append(
                (rec.read_bytes(), (tmp_path / f"{tag}.rec.report").read_bytes(), svg.read_bytes())
            )
        assert outputs[0] == outputs[1]

    def test_runs_inherit_nothing(self, tmp_path):
        """fvd runs on 300, then 8, then 64 convex sites in one process
        write, byte for byte, the files a fresh interpreter writes for each
        input: no run leaves anything that a later one reads."""
        paths = []
        for n in (300, 8, 64):
            path = tmp_path / f"convex{n}.txt"
            path.write_text("".join(f"{x} {x * x}\n" for x in random.Random(n).sample(range(1, 1 << 20), n)))
            paths.append(path)
        for path in paths:
            assert main(["run", str(path), "--mode", "fvd", "--out", f"{path}.one.rec"]) == 0
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = "import sys; from wsvoronoi.cli import main; sys.exit(main(sys.argv[1:]))"
        for path in paths:
            argv = ["run", str(path), "--mode", "fvd", "--out", f"{path}.fresh.rec"]
            subprocess.run([sys.executable, "-c", script, *argv], env=env, check=True, timeout=120)
            for suffix in (".rec", ".rec.report"):
                assert Path(f"{path}.one{suffix}").read_bytes() == Path(f"{path}.fresh{suffix}").read_bytes()

    def test_stream_round_trip(self, random_file, tmp_path):
        out = tmp_path / "records.txt"
        main(["run", random_file, "--mode", "nvd", "--workspace", "4", "--out", str(out)])
        with open(out) as fh:
            _, records = read_stream(fh)
        from wsvoronoi.records import format_record, parse_record

        assert [parse_record(format_record(r)) for r in records] == records


# The runs of the small corpus that exit 2, each with the degeneracy its
# message names (which also shows where the walk stopped); every other run
# exits 0.
SMALL_CORPUS_DEGENERATE = {
    "circle-fvd-s1": "edge of site 4 against 3 has a tied end: cocircular sites",
    "circle-fvd-s2": "edge of site 3 against 2 has a tied end: cocircular sites",
    "circle-fvd-s3": "edge of site 3 against 2 has a tied end: cocircular sites",
    "circle-fvd-s9": "edge of site 3 against 2 has a tied end: cocircular sites",
    "circle-order2-s4": "cocircular sites at the successor crossing of pair (0, 1)",
    "circle-order3-s9": "cocircular sites at the successor crossing of pair (0, 1)",
    "square-nvd-s1": "edge of site 0 against 1 has a tied end: cocircular sites",
    "square-nvd-s2": "edge of site 0 against 1 has a tied end: cocircular sites",
    "square-nvd-s3": "edge of site 0 against 1 has a tied end: cocircular sites",
    "square-nvd-s4": "edge of site 0 against 1 has a tied end: cocircular sites",
    "square-fvd-s1": "edge of site 0 against 3 has a tied end: cocircular sites",
    "square-fvd-s2": "edge of site 3 against 2 has a tied end: cocircular sites",
    "square-fvd-s3": "edge of site 3 against 2 has a tied end: cocircular sites",
    "square-fvd-s4": "edge of site 3 against 2 has a tied end: cocircular sites",
    "square-order2-s4": "edge of site 0 against 1 has a tied end: cocircular sites",
    "square-order3-s9": "edge of site 0 against 1 has a tied end: cocircular sites",
    "grid4-nvd-s1": "edge of site 0 against 1 has a tied end: cocircular sites",
    "grid4-nvd-s2": "edge of site 0 against 1 has a tied end: cocircular sites",
    "grid4-nvd-s3": "edge of site 0 against 1 has a tied end: cocircular sites",
    "grid4-nvd-s16": "edge of site 0 against 1 has a tied end: cocircular sites",
    "grid4-fvd-s1": "edge of site 0 against 3 has a tied end: cocircular sites",
    "grid4-fvd-s2": "edge of site 3 against 15 has a tied end: cocircular sites",
    "grid4-fvd-s3": "edge of site 3 against 15 has a tied end: cocircular sites",
    "grid4-fvd-s16": "edge of site 3 against 15 has a tied end: cocircular sites",
    "grid4-order2-s4": "edge of site 0 against 1 has a tied end: cocircular sites",
    "grid4-order3-s9": "edge of site 0 against 1 has a tied end: cocircular sites",
    "collinear-order2-s4": "collinear sites at an unbounded order-k edge",
    "collinear-order3-s9": "collinear sites at an unbounded order-k edge",
    "allcollinear-nvd-s1": "hull has fewer than 3 vertices: the sites are collinear",
    "allcollinear-nvd-s2": "hull has fewer than 3 vertices: the sites are collinear",
    "allcollinear-nvd-s3": "hull has fewer than 3 vertices: the sites are collinear",
    "allcollinear-nvd-s4": "hull has fewer than 3 vertices: the sites are collinear",
    "allcollinear-fvd-s1": "hull has fewer than 3 vertices: the sites are collinear",
    "allcollinear-fvd-s2": "hull has fewer than 3 vertices: the sites are collinear",
    "allcollinear-fvd-s3": "hull has fewer than 3 vertices: the sites are collinear",
    "allcollinear-fvd-s4": "hull has fewer than 3 vertices: the sites are collinear",
    "allcollinear-order2-s4": "hull has fewer than 3 vertices: the sites are collinear",
    "allcollinear-order3-s9": "hull has fewer than 3 vertices: the sites are collinear",
}


class TestSmallCorpus:
    @pytest.mark.parametrize("name, flags", list(_small_runs()))
    def test_degenerate_or_verified(self, tmp_path, capsys, request, name, flags):
        """Every run exits 2 naming the degeneracy, or exits 0 with records
        that verify against the reference; which runs exit 2, and with which
        message, is pinned (`SMALL_CORPUS_DEGENERATE`).

        The reference stops at collinear sites (`TestVerify`), so on the
        collinear input a finished run is checked record by record instead:
        each record's pair is equidistant at a point inside it, with exactly
        its closest set nearer.
        """
        text = SMALL_CORPUS[name]
        path = tmp_path / "sites.txt"
        path.write_text(text)
        out = tmp_path / "r.txt"
        code = main(["run", str(path), "--mode", *flags, "--out", str(out)])
        err = capsys.readouterr().err
        degeneracy = SMALL_CORPUS_DEGENERATE.get(request.node.callspec.id)
        if degeneracy is not None:
            assert code == 2
            assert err.splitlines()[0] == f"degenerate: {degeneracy}"
            return
        assert code == 0, err
        verified = main(["verify", str(path), str(out)])
        if name != "collinear":
            assert verified == 0
            return
        assert verified == 2
        assert capsys.readouterr().err.startswith("degenerate: collinear sites")
        with open(out) as fh:
            _, records = read_stream(fh)
        sites = parse_sites_text(text)
        assert records
        assert [check_distance_profile(r, sites) for r in records] == [None] * len(records)


def _exit_and_lines(sites, mode, s):
    """The exit code `vw run` gives a run, and its sorted record lines if
    it exits 0."""
    sink = OutputSink()
    try:
        run_diagram(sites, mode, s, 1, sink)
    except tuple(FAILURES) as e:
        return next(code for cls, (code, _) in FAILURES.items() if isinstance(e, cls)), None
    return 0, sorted(format_record(r) for r in sink.records)


class TestGridCorpusAcrossS:
    """Degenerate input at every s: on 60 seeded subsets of the 5x5 grid,
    4 to 12 points each, rich in collinear and cocircular sites, each nvd
    and fvd run at s = 2, 3, 5, n - 1 and n exits as the one-slot run
    does, and one that exits 0 writes the same lines."""

    GRID = [(x, y) for x in range(5) for y in range(5)]

    @pytest.mark.parametrize("mode", ["nvd", "fvd"])
    def test_exit_and_lines_as_one_slot(self, mode):
        codes = set()
        for seed in range(60):
            rng = random.Random(seed)
            pts = rng.sample(self.GRID, rng.randint(4, 12))
            sites = parse_sites_text("".join(f"{x} {y}\n" for x, y in pts))
            want = _exit_and_lines(sites, mode, 1)
            codes.add(want[0])
            for s in (2, 3, 5, len(pts) - 1, len(pts)):
                assert _exit_and_lines(sites, mode, s) == want, (seed, s)
        assert codes == {0, 2}


class TestBench:
    def test_csv_columns_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            path = tmp_path / f"bench_{tag}.csv"
            assert (
                main(
                    ["bench", "--random", "48,3", "--s-list", "4,16",
                     "--repeats", "2", "--out", str(path)]
                )
                == 0
            )
            rows = path.read_text().splitlines()
            assert rows[0].startswith("# budget_const=")
            assert rows[1] == "n,s,K,reads,peak_words,site_tests,site_visits,wall_ns"
            outs.append([",".join(r.split(",")[:7]) for r in rows[2:]])
        assert outs[0] == outs[1]
        assert len(outs[0]) == 4  # 2 repeats x 2 s values

    def test_header_records_budget_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VW_BUDGET_CONST", "128")
        path = tmp_path / "bench.csv"
        assert main(["bench", "--random", "12,3", "--s-list", "4", "--out", str(path)]) == 0
        assert path.read_text().splitlines()[0] == "# budget_const=128"


    def test_fvd_columns_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            path = tmp_path / f"bench_{tag}.csv"
            assert main(["bench", "--random", "48,3", "--s-list", "0,4", "--mode", "fvd",
                         "--repeats", "2", "--out", str(path)]) == 0
            outs.append([",".join(r.split(",")[:7]) for r in path.read_text().splitlines()[2:]])
        assert outs[0] == outs[1]
        assert len(outs[0]) == 4

    def test_fvd_with_k_list_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        argv = ["bench", "--random", "12,3", "--s-list", "4", "--k-list", "2", "--mode", "fvd", "--out", str(path)]
        assert main(argv) == 5
        assert "config error" in capsys.readouterr().err
        assert not path.exists()

    # n,s,K,reads,peak_words,site_tests,site_visits of `--random 64,1`,
    # fixed so that a change to the reads, words or kernel work of a path
    # shows here (how a pass is split shows in test_tradeoff's
    # TestPassStructure).
    PINNED = {
        "nvd": (["--s-list", "0,2,8"], [
            "64,0,1,27560,35,6495,27432",
            "64,2,1,16102,78,5486,23650",
            "64,8,1,4894,416,4123,17261",
        ]),
        "fvd": (["--s-list", "0,2,8", "--mode", "fvd"], [
            "64,0,1,1567,60,1385,1429",
            "64,2,1,1703,88,1881,1941",
            "64,8,1,544,424,1252,1320",
        ]),
        "order": (["--s-list", "9,18", "--k-list", "2,3"], [
            "64,9,2,68211,169,24226,109860",
            "64,9,3,315739,128,65995,306028",
            "64,18,2,37228,332,22472,102947",
            "64,18,3,173195,244,62908,294422",
        ]),
    }

    @pytest.mark.parametrize("path", sorted(PINNED))
    def test_counters_pinned(self, path, tmp_path):
        flags, rows = self.PINNED[path]
        out = tmp_path / "bench.csv"
        assert main(["bench", "--random", "64,1", *flags, "--out", str(out)]) == 0
        assert [",".join(r.split(",")[:7]) for r in out.read_text().splitlines()[2:]] == rows

    # The same counters for `--file` of 64 convex sites (x, x^2), x < 2^20,
    # where every farthest cell is unbounded and farthest clips never cull.
    CONVEX_PINNED = {
        "nvd": (["--s-list", "0,2,8"], [
            "64,0,1,20410,35,15982,20282",
            "64,2,1,13242,78,13777,17005",
            "64,8,1,3350,416,8542,12203",
        ]),
        "fvd": (["--s-list", "0,2,8", "--mode", "fvd"], [
            "64,0,1,12347,60,11780,12154",
            "64,2,1,12474,88,15686,16186",
            "64,8,1,3094,416,13040,13456",
        ]),
        "order": (["--s-list", "9,18", "--k-list", "2,3"], [
            "64,9,2,45330,168,54098,61786",
            "64,9,3,166144,128,145076,162734",
            "64,18,2,25040,332,42681,50420",
            "64,18,3,102272,243,138461,152903",
        ]),
    }

    @pytest.mark.parametrize("path", sorted(CONVEX_PINNED))
    def test_convex_counters_pinned(self, path, tmp_path):
        flags, rows = self.CONVEX_PINNED[path]
        sites = tmp_path / "convex.txt"
        sites.write_text(CONVEX_64)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--file", str(sites), *flags, "--out", str(out)]) == 0
        assert [",".join(r.split(",")[:7]) for r in out.read_text().splitlines()[2:]] == rows

    @pytest.mark.parametrize("kind", ["random", "convex"])
    def test_fvd_seed_adds_one_test_per_seeded_clip(self, kind, monkeypatch):
        """The fvd rows' pins move only by the seeds: against the same runs
        with every clip unseeded, each seeded clip adds one site test and
        one site visit, and the records, reads and peak words are the same."""
        sites = random_sites(64, 1) if kind == "random" else parse_sites_text(CONVEX_64)
        kernel = tradeoff.clip_run
        for s in (0, 2, 8):
            runs = []
            for keep_seed in (True, False):
                seeded = 0

                def clip(*args, seed=None, **kwargs):
                    nonlocal seeded
                    seeded += seed is not None
                    return kernel(*args, seed=seed if keep_seed else None, **kwargs)

                monkeypatch.setattr(tradeoff, "clip_run", clip)
                sink = OutputSink()
                arena, ledger = run_diagram(sites, "fvd", s, 1, sink)
                runs.append((seeded, arena, ledger.peak_words, sink.records))
            (count, ray, peak, records), (_, plain, plain_peak, plain_records) = runs
            assert count > 0
            assert ray.site_tests - plain.site_tests == ray.site_visits - plain.site_visits == count
            assert (ray.read_count, peak, records) == (plain.read_count, plain_peak, plain_records)

    def test_negative_s_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        assert main(["bench", "--random", "12,3", "--s-list", "4,-2", "--out", str(path)]) == 5
        assert "config error" in capsys.readouterr().err
        assert not path.exists()

    # Inputs on which `vw bench` must end cleanly, with no traceback and no
    # empty table: (flags, exit code, stderr).  "SQUARE" stands for a file
    # of SQUARE, on which `vw run` exits 2 too.
    BAD = {
        "square-fvd": (["--file", "SQUARE", "--mode", "fvd"], 2,
                       "degenerate: edge of site 0 against 3 has a tied end: cocircular sites\n"),
        "square-order": (["--file", "SQUARE", "--k-list", "2", "--s-list", "4"], 2,
                         "degenerate: edge of site 0 against 1 has a tied end: cocircular sites\n"),
        "two-sites": (["--random", "2,1"], 5, "config error: need at least 3 sites, got 2\n"),
        "no-sites": (["--random", "0,1"], 5, "config error: need at least 3 sites, got 0\n"),
        "zero-repeats": (["--random", "12,3", "--repeats", "0"], 5,
                         "config error: --repeats must be positive, got 0\n"),
        "negative-repeats": (["--random", "12,3", "--repeats", "-1"], 5,
                             "config error: --repeats must be positive, got -1\n"),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_input_exits_cleanly(self, case, tmp_path, capsys):
        flags, code, err = self.BAD[case]
        square = tmp_path / "square.txt"
        square.write_text(SQUARE)
        path = tmp_path / "bench.csv"
        argv = ["bench", *(str(square) if f == "SQUARE" else f for f in flags), "--out", str(path)]
        assert main(argv) == code
        assert capsys.readouterr().err == err
        assert not path.exists()

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "bench.csv"
        assert main(["bench", "--random", "12,3", "--out", str(path)]) == 5
        assert capsys.readouterr().err.startswith("config error: [Errno 2] No such file or directory")

    def test_json_out(self, tmp_path):
        """An --out path ending in .json gets the CSV's rows as a JSON list
        of one run, with the budget constant, the mode and the input."""
        csv_path, json_path = tmp_path / "bench.csv", tmp_path / "bench.json"
        for path in (csv_path, json_path):
            argv = ["bench", "--random", "24,3", "--s-list", "0,4", "--mode", "fvd", "--out", str(path)]
            assert main(argv) == 0
        [run] = json.loads(json_path.read_text())
        lines = csv_path.read_text().splitlines()
        assert lines[0] == f"# budget_const={run['budget_const']}"
        assert (run["mode"], run["input"]) == ("fvd", {"random": "24,3"})
        assert run["machine"]
        columns = lines[1].split(",")
        assert [list(row) for row in run["rows"]] == [columns] * 2
        assert [[row[c] for c in columns[:7]] for row in run["rows"]] == [
            [int(v) for v in line.split(",")[:7]] for line in lines[2:]
        ]


class TestBudgetEnv:
    def test_override_applied(self, tri_file, tmp_path, monkeypatch):
        monkeypatch.setenv("VW_BUDGET_CONST", "128")
        out = tmp_path / "r.rec"
        assert (
            main(["run", tri_file, "--mode", "nvd", "--workspace", "2", "--enforce", "--out", str(out)])
            == 0
        )
        assert "budget_const=128" in (tmp_path / "r.rec.report").read_text()

    def test_invalid_value_rejected(self, tri_file, tmp_path, monkeypatch):
        monkeypatch.setenv("VW_BUDGET_CONST", "zero")
        out = tmp_path / "r.rec"
        assert main(["run", tri_file, "--mode", "nvd", "--workspace", "2", "--out", str(out)]) == 5

    def test_too_small_budget_trips_enforcement(self, tmp_path, monkeypatch):
        from wsvoronoi.datagen import sites_to_text

        site_file = tmp_path / "s.txt"
        site_file.write_text(sites_to_text(random_sites(24, 11)))
        monkeypatch.setenv("VW_BUDGET_CONST", "2")
        out = tmp_path / "r.rec"
        code = main(["run", str(site_file), "--mode", "nvd", "--workspace", "4", "--enforce", "--out", str(out)])
        assert code == 4
        assert not out.exists() and not (tmp_path / "r.rec.report").exists()


class TestSvg:
    def test_empty_stream_renders(self, tmp_path):
        rec = tmp_path / "empty.rec"
        rec.write_text("# mode=nvd n=0\n")
        out = tmp_path / "empty.svg"
        assert main(["svg", str(rec), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_viewport_flag(self, tri_file, tmp_path):
        rec = tmp_path / "r.rec"
        main(["run", tri_file, "--mode", "nvd", "--workspace", "8", "--out", str(rec)])
        out = tmp_path / "v.svg"
        assert main(["svg", str(rec), "--out", str(out), "--viewport=-2,-2,10,10"]) == 0
        text = out.read_text()
        lines = [l for l in text.splitlines() if l.startswith("<line")]
        # Three rays meeting at the image of the shared vertex (4, 3).
        assert len(lines) == 3
        cx = (4 - -2) / 12 * 640
        cy = 640 - (3 - -2) / 12 * 640
        anchor = f'x1="{cx:.6f}" y1="{cy:.6f}"'
        assert all(anchor in l for l in lines)

    @pytest.mark.parametrize("viewport", ["0,0,0,0", "1,1,0,0", "0,0,5,0"])
    def test_empty_viewport_is_a_config_error(self, tri_file, tmp_path, capsys, viewport):
        rec = tmp_path / "r.rec"
        main(["run", tri_file, "--mode", "nvd", "--workspace", "8", "--out", str(rec)])
        out = tmp_path / "v.svg"
        assert main(["svg", str(rec), "--out", str(out), f"--viewport={viewport}"]) == 5
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unopenable_out_is_a_config_error(self, tri_file, tmp_path, capsys):
        rec = tmp_path / "r.rec"
        main(["run", tri_file, "--mode", "nvd", "--workspace", "8", "--out", str(rec)])
        capsys.readouterr()
        assert main(["svg", str(rec), "--out", str(tmp_path / "missing" / "v.svg")]) == 5
        assert capsys.readouterr().err.startswith("config error:")


def test_import_leaves_oracle_and_svg_unloaded():
    """`vw run` loads no verifier, no renderer and no bench harness:
    `verify`, `svg` and `bench` import theirs when called.  The pipeline stays loaded, since tracing wraps its
    functions right after importing the command line."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, wsvoronoi.cli; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "wsvoronoi.pipeline" in loaded
    assert "wsvoronoi.oracle" not in loaded
    assert "wsvoronoi.svg" not in loaded
    assert "wsvoronoi.bench" not in loaded


# Site files that every subcommand reading one refuses the same way:
# (text, or None for no file; exit code; stderr prefix).
BAD_SITE_FILES = {
    "missing": (None, 3, "parse error: [Errno 2] No such file or directory"),
    "malformed": ("0 0\nnot a line\n1 5\n", 3, "parse error: line 2: expected 'x y', got 'not a line'"),
    "duplicate": ("0 0\n1 2\n0 0\n", 2, "degenerate: line 3: duplicate site, first seen on line 1"),
    **{
        name: (text, 3, f"parse error: coordinates need more than {GRID_DIGITS} digits")
        for name, text in zip(("tiny-exponent", "huge-exponent"), HUGE_EXPONENTS)
    },
}
UNWRITABLE_OUT = (TRIANGLE, 5, "config error: [Errno 2] No such file or directory")

# Each subcommand that reads a site file, with SITES, RECORDS and OUT
# standing for the site file, a record file of TRIANGLE and the --out path.
SITE_READERS = {
    "validate": ["validate", "SITES"],
    "run": ["run", "SITES", "--mode", "nvd", "--out", "OUT"],
    "verify": ["verify", "SITES", "RECORDS"],
    "bench": ["bench", "--file", "SITES", "--out", "OUT"],
    "svg": ["svg", "RECORDS", "--sites", "SITES", "--out", "OUT"],
}


def _failure_cases():
    for command, argv in SITE_READERS.items():
        cases = [*BAD_SITE_FILES, "unwritable-out"] if "OUT" in argv else list(BAD_SITE_FILES)
        for case in cases:
            yield pytest.param(command, case, id=f"{command}-{case}")


@pytest.mark.parametrize("command, case", list(_failure_cases()))
def test_failure_exit_code_and_prefix(tmp_path, capsys, command, case):
    """A bad site file or --out ends every subcommand with the same exit
    code and stderr prefix, and leaves no output file."""
    text, code, prefix = UNWRITABLE_OUT if case == "unwritable-out" else BAD_SITE_FILES[case]
    tri = tmp_path / "tri.txt"
    tri.write_text(TRIANGLE)
    records = tmp_path / "tri.rec"
    assert main(["run", str(tri), "--mode", "nvd", "--out", str(records)]) == 0
    sites = tmp_path / "sites.txt"
    if text is not None:
        sites.write_text(text)
    out = tmp_path / ("missing" if case == "unwritable-out" else "") / "out"
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    paths = {"SITES": str(sites), "RECORDS": str(records), "OUT": str(out)}
    assert main([paths.get(a, a) for a in SITE_READERS[command]]) == code
    assert capsys.readouterr().err.startswith(prefix)
    assert sorted(tmp_path.iterdir()) == before


def test_unwritable_report_discards_records(tmp_path, capsys):
    """A `.report` that cannot be written is a configuration error, and the
    records already written are removed, as on exits 2 and 4."""
    sites = tmp_path / "tri.txt"
    sites.write_text(TRIANGLE)
    (tmp_path / "r.txt.report").mkdir()
    assert main(["run", str(sites), "--mode", "nvd", "--out", str(tmp_path / "r.txt")]) == 5
    assert capsys.readouterr().err.startswith("config error: [Errno 21] Is a directory")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.txt.report", "tri.txt"]


class _FullDisk:
    """A text file on a full disk: `write` (when `on_write`) or `close`
    raises ENOSPC, as buffered output meets the disk at close."""

    def __init__(self, fh, on_write):
        self._fh = fh
        self._on_write = on_write

    def _full(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        if self._on_write:
            self._full()
        return self._fh.write(text)

    def close(self):
        self._fh.close()
        self._full()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _fill_disk(monkeypatch, path, on_write):
    """Make `vw`'s text output to `path` fail as on a full disk."""
    import wsvoronoi.cli as cli

    def fake_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return _FullDisk(fh, on_write) if str(file) == str(path) and "w" in mode else fh

    monkeypatch.setattr(cli, "open", fake_open, raising=False)


WRITERS = {
    "run": ["run", "SITES", "--mode", "nvd", "--out", "OUT"],
    "bench": ["bench", "--random", "12,3", "--out", "OUT"],
    "svg": ["svg", "RECORDS", "--out", "OUT"],
}


@pytest.mark.parametrize("on_write", [False, True], ids=["close", "write"])
@pytest.mark.parametrize("command", sorted(WRITERS))
def test_full_disk_is_config_error(tmp_path, capsys, monkeypatch, command, on_write):
    """An output that fails when written or closed ends `run`, `bench` and
    `svg` with exit 5, not a traceback; `run` removes its partial records."""
    sites = tmp_path / "sites.txt"
    sites.write_text(TRIANGLE_AND_POINT)
    records = tmp_path / "tri.rec"
    assert main(["run", str(sites), "--mode", "nvd", "--out", str(records)]) == 0
    out = tmp_path / "out"
    _fill_disk(monkeypatch, out, on_write)
    capsys.readouterr()
    paths = {"SITES": str(sites), "RECORDS": str(records), "OUT": str(out)}
    assert main([paths.get(a, a) for a in WRITERS[command]]) == 5
    assert capsys.readouterr().err == "config error: [Errno 28] No space left on device\n"
    if command == "run":
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sites.txt", "tri.rec", "tri.rec.report"]


def test_failed_run_leaves_a_linked_out_in_place(tmp_path, capsys):
    """A run that stops part way removes only a regular record file: an
    --out that is a link to a device stays, and so does the device."""
    sites = tmp_path / "square.txt"
    sites.write_text(SQUARE)
    link = tmp_path / "out"
    link.symlink_to(os.devnull)
    assert main(["run", str(sites), "--mode", "nvd", "--out", str(link)]) == 2
    assert capsys.readouterr().err.startswith("degenerate: ")
    assert link.is_symlink() and os.path.exists(os.devnull)


@pytest.mark.parametrize("mode", ["nvd", "order"])
def test_unmapped_failure_discards_records(tmp_path, monkeypatch, mode):
    """A failure outside `FAILURES`, here an AssertionError raised part way
    through the run, still removes the records written so far, and reaches
    the caller with its traceback."""
    import wsvoronoi.pipeline as pipeline
    import wsvoronoi.tradeoff as tradeoff

    def broken(*args):
        raise AssertionError("injected")

    if mode == "nvd":
        real, calls = tradeoff.record_for, []

        def record_for(*args):
            calls.append(args)
            if len(calls) > 5:
                broken()
            return real(*args)

        monkeypatch.setattr(tradeoff, "record_for", record_for)
        flags = ["--mode", "nvd", "--workspace", "8"]
    else:
        # Stage 2 starts once stage 1 has written the order-1 records.
        monkeypatch.setattr(pipeline, "find_big_cells_k", broken)
        flags = ["--mode", "order", "--max-k", "2", "--workspace", "8"]
    sites = tmp_path / "sites.txt"
    sites.write_text(sites_to_text(random_sites(40, 1)))
    out = tmp_path / "r.rec"
    with pytest.raises(AssertionError, match="^injected$"):
        main(["run", str(sites), *flags, "--out", str(out)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sites.txt"]
