"""Golden outputs: `vw run` must keep writing the same bytes.

Each case pins the sha256 of the record file, of its lines sorted, and
of its `.report` for a small seeded input: random sites, and sites in
convex position.  A change meant only to make the program faster must
leave every hash as it is; a change that alters output on purpose updates
the hashes and says why.  A change that only reorders the records (a walk
that starts on another edge of its cell, an edge reported from its other
cell) moves the first hash and, through the reads and peak words, the
third, but never the sorted one; a change that reads less moves the third
alone (the one-slot farthest chain handing each walk its first edge
whole, two reads fewer per walk after the first, moved the fvd-scan
reports).  The oracle's own record bytes are pinned the same way.
"""

import hashlib
import random

import pytest

from wsvoronoi.cli import main
from wsvoronoi.datagen import random_sites, sites_to_text
from wsvoronoi.geometry import site_set
from wsvoronoi.oracle import oracle_vdk
from wsvoronoi.records import format_record

N = 40
SEED = 11

# (flags, sha256 of the records, of their sorted lines, of the .report)
CASES = {
    "nvd-s8": (
        ["--mode", "nvd", "--workspace", "8"],
        "282455484f0a87ad5b4d63644358ddc3b3c744e690874bfd94c2818d9bdb8811",
        "c6562c9f69933e42b4bf3bc7e6143ad1b9e96186d52e4e24c314559e1378fdca",
        "9235130d03b7c388e07abf42da543e78add6757db7a8d8e8504ad89f1d9c08d5",
    ),
    "nvd-scan": (
        ["--mode", "nvd"],
        "5b3294c469d3f9b5ed2114f9b512ace1c81ba415936436b6ba2f9a83499d630a",
        "5bf9591f7bbc9a700ff0d5ef25aa6705a74ace1c2ce29a916ef32cb96827669f",
        "6e6fb800561fd68a0e408af91dbb8149a1d324c332b1d2c71759d24e1e346aa8",
    ),
    "fvd-s8": (
        ["--mode", "fvd", "--workspace", "8"],
        "0eea67ffc0f9214ac5eb7a3ac7a8f3557ba39f06e8656c7504c427b0c9e4b097",
        "3bc5f44eaae45ed1dfac87af84aaf9c4ef9bd27cba781b8b7a4c17ff899bb76c",
        "5815cc9073ee48a59ae067841f6c6898367ba7a9dd3cfbd7b664bf2e9ef7ea87",
    ),
    "fvd-scan": (
        ["--mode", "fvd"],
        "0d39103b881a398159b008c7281cee5c7ac2e40eb92b4ff024924ebf2c0016cf",
        "e40ed468ba43e4560270f0dbf1defffe91ae9ccfb6acccf3156a90f92a9ea743",
        "577ad162137b84a27b56cb7364e9ca6005de3ba8207d62006afb810ba6419c75",
    ),
    "order-K2-s8": (
        ["--mode", "order", "--max-k", "2", "--workspace", "8"],
        "88ba59eb1abae5f3ac437e295b488530f677feb653f18af13fa9307e2aae85fb",
        "1c6ca951ab1e7a1ac331c153d4fbc05e867276e0b9914f8c891950457f212c55",
        "57fc2dee01d9e5cf6500be65e85320a0eb5eda010ecd1c8ce54e5814241eff9f",
    ),
    "order-K3-s9": (
        ["--mode", "order", "--max-k", "3", "--workspace", "9"],
        "b53a76595729085110ab4155f15e1bdb072034075ecae919d080c5b52227c500",
        "5a335969a0350f2d37863d94948cf42343fec61c8d677b681127f485448346f9",
        "6a85925838081daeb0edb9145069a79fe585580567dab8bb5a38ec88728c2d73",
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
# unbounded, as on the benchmark's convex input, and every farthest record
# lists all 62 sites outside its pair.  Seed 1 is the benchmark's seed.
def convex(seed):
    return [(x, x * x) for x in random.Random(seed).sample(range(1, 1 << 20), 64)]


CONVEX_CASES = {
    "fvd-scan": (
        SEED,
        ["--mode", "fvd"],
        "0e959f5fb849c424183ce9f85f443d98343f8950466491b27325368e7f6d472f",
        "934f560e2aea41d2ea9d4b2834f6224d0b49945054757fce44dae925514c7bdc",
        "4b443d2630902a8470aaa507d1869efde65b2c34bbc7028342c8f6ac75d23830",
    ),
    "fvd-s8": (
        SEED,
        ["--mode", "fvd", "--workspace", "8"],
        "f9228a49eb4b9e61e430347390fdd24943745dc844656f6ae40bc8a92904c6dc",
        "f4f03a383ab3983e2b7268fa3254b437bdfecad187c8e0b7e044770c7a65f68a",
        "17a1fb47ea46b701c8f1fc1ec547a531a4b0c2678bb2c36d741acbf12b150702",
    ),
    "nvd-s8": (
        SEED,
        ["--mode", "nvd", "--workspace", "8"],
        "531ac6c3ec52309f7835d3a28e564c1d56a9a25719e86015a71d51ce02a16257",
        "b162f10419814ecbc0709b8ad3c659231171e71c34656693d8c614cd05badd90",
        "2d6c71fc267f7229cd6b1ca0c9c5cae4612bcc8d48e614cd6a660d658ab68c62",
    ),
    "fvd-scan-seed1": (
        1,
        ["--mode", "fvd"],
        "8524c9a6a4d86e8bdeb6aadb896dcf133a39b869513169c78416326488c45a2a",
        "b81e0104c3a51868d63898fe14c759bfe4e91b36ea9512a7f9c5c83d4ae8dafb",
        "4b443d2630902a8470aaa507d1869efde65b2c34bbc7028342c8f6ac75d23830",
    ),
    "fvd-s8-seed1": (
        1,
        ["--mode", "fvd", "--workspace", "8"],
        "52c5cb697bc72358f1c15b1c060db47c9718057b226bfb14e959e7c331d77a4d",
        "1f7390139028c42c52ae1500b01ca44eb10d637362417ab5899a63f718b796f2",
        "17a1fb47ea46b701c8f1fc1ec547a531a4b0c2678bb2c36d741acbf12b150702",
    ),
}


@pytest.mark.parametrize("case", sorted(CONVEX_CASES))
def test_convex_output_bytes_unchanged(case, tmp_path, capsys):
    seed, flags, *hashes = CONVEX_CASES[case]
    sites = tmp_path / "sites.txt"
    sites.write_text("".join(f"{x} {y}\n" for x, y in convex(seed)), encoding="utf-8")
    out = tmp_path / "records.txt"
    assert main(["run", str(sites), *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    _check(out, *hashes)


# sha256 of the oracle's formatted records at orders 1, 2, 3 and n - 1:
# for each order its undirected records, then its half-edge records.  The
# benchmark's order-k reference is these bytes; the other tests compare
# keys only.
ORACLE_CASES = {
    "random-40": (
        random_sites(N, SEED),
        "52d075cda74a77e5142f5fba596545fa2cfb4e3b6c282dbdae2a5756412a6f6c",
    ),
    "parabola-24": (
        site_set([(x, x * x) for x in random.Random(SEED).sample(range(1, 1 << 20), 24)]),
        "2514c182944c364756f7eeb9d6c79d100adc6ffdf69de33e9b29d0fe7165d982",
    ),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_oracle_record_bytes_unchanged(case):
    sites, want = ORACLE_CASES[case]
    h = hashlib.sha256()
    for k in (1, 2, 3, len(sites) - 1):
        diagram = oracle_vdk(sites, k)
        for rec in (*diagram.undirected_records(), *diagram.halfedge_records()):
            h.update((format_record(rec) + "\n").encode())
    assert h.hexdigest() == want
