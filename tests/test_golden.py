"""Golden outputs: `vw run` must keep writing the same bytes.

Each case pins the sha256 of the record file, of its lines sorted, and
of its `.report` for a small seeded input: random sites, and sites in
convex position.  A change meant only to make the program faster must
leave every hash as it is; a change that alters output on purpose updates
the hashes and says why.  A change that only reorders the records (a walk
that starts on another edge of its cell, an edge reported from its other
cell) moves the first hash and, through the reads and peak words, the
third, but never the sorted one.
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
        "d46134817f120bb6460253fbbb2dd7376f2f54f1582c1e9460ceb4ee3f037c7e",
        "c6562c9f69933e42b4bf3bc7e6143ad1b9e96186d52e4e24c314559e1378fdca",
        "5297b99825710fff69ac750cbb9d730634f5a12ece2368ea515ddf7be446b6bd",
    ),
    "nvd-scan": (
        ["--mode", "nvd"],
        "5b3294c469d3f9b5ed2114f9b512ace1c81ba415936436b6ba2f9a83499d630a",
        "5bf9591f7bbc9a700ff0d5ef25aa6705a74ace1c2ce29a916ef32cb96827669f",
        "9e86e6b179a5a247a9287a74eeb0a86e551281cf74d19d061a6e49f6d1db537d",
    ),
    "fvd-s8": (
        ["--mode", "fvd", "--workspace", "8"],
        "ba901b68820cb0948c52baaec0f22119bc610ab9f54a27a09d3de2c700dbda6f",
        "3bc5f44eaae45ed1dfac87af84aaf9c4ef9bd27cba781b8b7a4c17ff899bb76c",
        "c80f189e3126bba85cb449cfef310f459cb052e89eb66bd77cc0fbaeaf756974",
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
        "c5157dfa6c3f437ad2a3fcf7ef05b36abd0298e1f3f500054d171bffa1de7f84",
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
        "5ddbca8382eae2c485171b3925ad575b4a5df4d067cba95c78d6aac08b95e532",
        "f4f03a383ab3983e2b7268fa3254b437bdfecad187c8e0b7e044770c7a65f68a",
        "527923236fdca84abdc3b370cf4180efa5cb531e96e7fc3067116bab661b4910",
    ),
    "nvd-s8": (
        ["--mode", "nvd", "--workspace", "8"],
        "5aa60f2e71996d45129e3e03355f29a9d8b75929a444e305038e45cd3cb0509e",
        "b162f10419814ecbc0709b8ad3c659231171e71c34656693d8c614cd05badd90",
        "4cbb7844a9c3785cab8681dd1bdd01d84aac7cdf30485b715c3c8c044444b733",
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
