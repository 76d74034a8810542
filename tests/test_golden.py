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
        "5c7ca88c9f31096832648ece69455ae1ffb050c54a80666a8541a75db4732b77",
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
        "ba901b68820cb0948c52baaec0f22119bc610ab9f54a27a09d3de2c700dbda6f",
        "3bc5f44eaae45ed1dfac87af84aaf9c4ef9bd27cba781b8b7a4c17ff899bb76c",
        "4f3b27453f4adde880246d5acb2590017b8682d2d2c2a7c0927dad4b7fd7e3e3",
    ),
    "fvd-scan": (
        ["--mode", "fvd"],
        "8b50cfa9d3a7883bb134ef0ff9e3b593e713c9e7d44462099c6ef85f600fbbb1",
        "e40ed468ba43e4560270f0dbf1defffe91ae9ccfb6acccf3156a90f92a9ea743",
        "0247786a55a441abd337edb524fe0c8b924bdefb0a473be8fc9b5ca50a9f6b4e",
    ),
    "order-K2-s8": (
        ["--mode", "order", "--max-k", "2", "--workspace", "8"],
        "3859a06d5fad179b3b57d6b51f037019ec817a5aea856534144b4c82b31ba0a9",
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
        "8ec2fa95bdad74a8e4f63181f7ab4db4a0cb49d8e82d448c0985c9cf55eb6f0c",
        "934f560e2aea41d2ea9d4b2834f6224d0b49945054757fce44dae925514c7bdc",
        "d0b48c2feac0c17b3b94dc4c2b2e4ec893e34b6d1ad354df9800383af084ca35",
    ),
    "fvd-s8": (
        SEED,
        ["--mode", "fvd", "--workspace", "8"],
        "5ddbca8382eae2c485171b3925ad575b4a5df4d067cba95c78d6aac08b95e532",
        "f4f03a383ab3983e2b7268fa3254b437bdfecad187c8e0b7e044770c7a65f68a",
        "126322978ea9a6ac1df7fdbdd82a630a69d85b05b1194ba33e379b8eff04e17b",
    ),
    "nvd-s8": (
        SEED,
        ["--mode", "nvd", "--workspace", "8"],
        "dc18d4fe7c26851105a797ce06647bf23ec38c36df1054eee1f070d0c4c832ba",
        "b162f10419814ecbc0709b8ad3c659231171e71c34656693d8c614cd05badd90",
        "4a43723734f6c40efcbb70ca436ec59ad9395fa4df06117dcd1cc01f84b15ce4",
    ),
    "fvd-scan-seed1": (
        1,
        ["--mode", "fvd"],
        "f5d11f89aa332fcd2372b2b4f34e802bb228c939d3a28a1b6237c6390f735625",
        "b81e0104c3a51868d63898fe14c759bfe4e91b36ea9512a7f9c5c83d4ae8dafb",
        "d0b48c2feac0c17b3b94dc4c2b2e4ec893e34b6d1ad354df9800383af084ca35",
    ),
    "fvd-s8-seed1": (
        1,
        ["--mode", "fvd", "--workspace", "8"],
        "4bd545a0cb30a1264fe5d185f51fa4f830ae4544eb0092b8f534c0baae8e5f94",
        "1f7390139028c42c52ae1500b01ca44eb10d637362417ab5899a63f718b796f2",
        "553b59c584a79ecdd2ff2e60a1afd4bff5c2b0910f55f9f6ceaddac79f881db4",
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
