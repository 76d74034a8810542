"""Golden outputs: `vw run` must keep writing the same bytes.

Each case pins the sha256 of the record file, of its lines sorted, and
of its `.report` for a small seeded input: random sites, and sites in
convex position.  A change meant only to make the program faster must
leave every hash as it is; a change that alters output on purpose updates
the hashes and says why.  A change that only reorders the records (a walk
that starts on another edge of its cell) moves the first hash and, through
the reads, the third, but never the sorted one.
"""

import hashlib
import random

import pytest

from wsvoronoi.cli import main
from wsvoronoi.datagen import random_sites, sites_to_text

N = 40
SEED = 11

# (flags, sha256 of the records, of their sorted lines, of the .report)
CASES = {
    "nvd-s8": (
        ["--mode", "nvd", "--workspace", "8"],
        "5f8d0f03206ee41e524999b1781ef1f87a9fe0c11069248073f36000158371f5",
        "c6562c9f69933e42b4bf3bc7e6143ad1b9e96186d52e4e24c314559e1378fdca",
        "c8cac5461c18405299eb5ad1ce0b1a7907bc00893ca646b5636ca60ddde72c93",
    ),
    "nvd-scan": (
        ["--mode", "nvd"],
        "5b3294c469d3f9b5ed2114f9b512ace1c81ba415936436b6ba2f9a83499d630a",
        "5bf9591f7bbc9a700ff0d5ef25aa6705a74ace1c2ce29a916ef32cb96827669f",
        "9e86e6b179a5a247a9287a74eeb0a86e551281cf74d19d061a6e49f6d1db537d",
    ),
    "fvd-s8": (
        ["--mode", "fvd", "--workspace", "8"],
        "2d8b88578fc255ca86fd0e168bab56a9fb245087103ec18475fee40e32c3acf4",
        "3bc5f44eaae45ed1dfac87af84aaf9c4ef9bd27cba781b8b7a4c17ff899bb76c",
        "c35abfab0820d03b1f333ab002a06185f87b1bd264d3e291ae0ad0400a71ec08",
    ),
    "fvd-scan": (
        ["--mode", "fvd"],
        "8b50cfa9d3a7883bb134ef0ff9e3b593e713c9e7d44462099c6ef85f600fbbb1",
        "e40ed468ba43e4560270f0dbf1defffe91ae9ccfb6acccf3156a90f92a9ea743",
        "83c827618c7a4be2bf5a7ec4806a3e448097a34b804ac6bb5067817c3c1b779e",
    ),
    "order-K2-s8": (
        ["--mode", "order", "--max-k", "2", "--workspace", "8"],
        "fc42af1b46d7179bcd5f2bd941717692d85afa9d2ab4bff4fdf97ba02fbf990a",
        "1c6ca951ab1e7a1ac331c153d4fbc05e867276e0b9914f8c891950457f212c55",
        "08b88730d45533ce17b1bd5de63c9e6c93f8a17ceb105e4c82df8421621cef77",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check(out, records_sha, sorted_sha, report_sha):
    lines = sorted(out.read_text(encoding="utf-8").splitlines(keepends=True))
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == sorted_sha
    assert _sha256(out) == records_sha
    assert _sha256(out.with_name(out.name + ".report")) == report_sha


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_unchanged(case, tmp_path, capsys):
    flags, *hashes = CASES[case]
    sites = tmp_path / "sites.txt"
    sites.write_text(sites_to_text(random_sites(N, SEED)), encoding="utf-8")
    out = tmp_path / "records.txt"
    assert main(["run", str(sites), *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    _check(out, *hashes)


# 64 sites (x, x^2), x < 2^20, in convex position: every farthest cell is
# unbounded, as on the benchmark's convex input.
CONVEX = [(x, x * x) for x in random.Random(SEED).sample(range(1, 1 << 20), 64)]

CONVEX_CASES = {
    "fvd-scan": (
        ["--mode", "fvd"],
        "8ec2fa95bdad74a8e4f63181f7ab4db4a0cb49d8e82d448c0985c9cf55eb6f0c",
        "934f560e2aea41d2ea9d4b2834f6224d0b49945054757fce44dae925514c7bdc",
        "b996afe93ff0017dfb2ea490a10ce18366e7c1c756738b7f9edd2da90387b8b2",
    ),
    "fvd-s8": (
        ["--mode", "fvd", "--workspace", "8"],
        "3003d86632f3fd0703891ed6aa77bf2b39dca56cac12439123f024330c417310",
        "f4f03a383ab3983e2b7268fa3254b437bdfecad187c8e0b7e044770c7a65f68a",
        "11e5e6461c6b75326ab8799878b6e6669a26e2f0db0439e87d33a5f0b7b1511d",
    ),
    "nvd-s8": (
        ["--mode", "nvd", "--workspace", "8"],
        "cf59950fbdf45577441db6757668703ddf32596eb585cc99534312b13d53b10a",
        "b162f10419814ecbc0709b8ad3c659231171e71c34656693d8c614cd05badd90",
        "0087c855717b6fa2e156297d5c517d19948404dbba8e7204cd41021de2fb17b1",
    ),
}


@pytest.mark.parametrize("case", sorted(CONVEX_CASES))
def test_convex_output_bytes_unchanged(case, tmp_path, capsys):
    flags, *hashes = CONVEX_CASES[case]
    sites = tmp_path / "sites.txt"
    sites.write_text("".join(f"{x} {y}\n" for x, y in CONVEX), encoding="utf-8")
    out = tmp_path / "records.txt"
    assert main(["run", str(sites), *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    _check(out, *hashes)
