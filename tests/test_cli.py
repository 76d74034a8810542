"""Command-line surface: exit codes, formats, determinism."""

import io
import random

import pytest

from wsvoronoi.cli import main
from wsvoronoi.datagen import parse_sites_text, random_sites, sites_to_text
from wsvoronoi.oracle import check_distance_profile
from wsvoronoi.records import read_stream

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

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("mode", ["nvd", "fvd"])
    def test_nonpositive_workspace_is_config_error(self, tri_file, tmp_path, capsys, mode, value):
        code = main(["run", tri_file, "--mode", mode, "--workspace", value, "--out", str(tmp_path / "r.txt")])
        assert code == 5
        assert "config error" in capsys.readouterr().err

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

    def test_stream_round_trip(self, random_file, tmp_path):
        out = tmp_path / "records.txt"
        main(["run", random_file, "--mode", "nvd", "--workspace", "4", "--out", str(out)])
        with open(out) as fh:
            _, records = read_stream(fh)
        from wsvoronoi.records import format_record, parse_record

        assert [parse_record(format_record(r)) for r in records] == records


class TestSmallCorpus:
    @pytest.mark.parametrize("name, flags", list(_small_runs()))
    def test_degenerate_or_verified(self, tmp_path, capsys, name, flags):
        """Every run exits 2 naming the degeneracy, or exits 0 with records
        that verify against the reference.

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
        if name == "allcollinear":
            assert code == 2
        if code == 2:
            assert err.startswith("degenerate:")
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
            "64,0,1,28262,35,7084,27432",
            "64,2,1,16148,70,7012,27042",
            "64,8,1,6453,408,7254,27857",
        ]),
        "fvd": (["--s-list", "0,2,8", "--mode", "fvd"], [
            "64,0,1,2129,52,1860,1920",
            "64,2,1,1745,82,1860,1920",
            "64,8,1,1033,417,1616,1710",
        ]),
        "order": (["--s-list", "9,18", "--k-list", "2,3"], [
            "64,9,2,107490,144,41216,178316",
            "64,9,3,508810,103,106639,467390",
            "64,18,2,62060,328,40692,176815",
            "64,18,3,281491,191,106301,465194",
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
            "64,0,1,20782,35,15982,20282",
            "64,2,1,11694,62,15982,20282",
            "64,8,1,3871,392,16058,21487",
        ]),
        "fvd": (["--s-list", "0,2,8", "--mode", "fvd"], [
            "64,0,1,16814,52,15500,16000",
            "64,2,1,12846,82,15500,16000",
            "64,8,1,5471,416,18292,18914",
        ]),
    }

    @pytest.mark.parametrize("path", sorted(CONVEX_PINNED))
    def test_convex_counters_pinned(self, path, tmp_path):
        flags, rows = self.CONVEX_PINNED[path]
        sites = tmp_path / "convex.txt"
        sites.write_text("".join(f"{x} {x * x}\n" for x in random.Random(11).sample(range(1, 1 << 20), 64)))
        out = tmp_path / "bench.csv"
        assert main(["bench", "--file", str(sites), *flags, "--out", str(out)]) == 0
        assert [",".join(r.split(",")[:7]) for r in out.read_text().splitlines()[2:]] == rows

    def test_negative_s_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        assert main(["bench", "--random", "12,3", "--s-list", "4,-2", "--out", str(path)]) == 5
        assert "config error" in capsys.readouterr().err
        assert not path.exists()


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
