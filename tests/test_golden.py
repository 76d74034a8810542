"""Golden outputs: `vw run` must keep writing the same bytes.

Each case pins the sha256 of the record file and of its `.report` for a
small seeded input: random sites, and sites in convex position.  A change meant only to make the program faster must
leave every hash as it is; a change that alters output on purpose updates
the hashes and says why.
"""

import hashlib
import random

import pytest

from wsvoronoi.cli import main
from wsvoronoi.datagen import random_sites, sites_to_text

N = 40
SEED = 11

# (flags, sha256 of the records, sha256 of the .report)
CASES = {
    "nvd-s8": (
        ["--mode", "nvd", "--workspace", "8"],
        "2658524b2213700ff8815654a30a495b51cf3041bab0ebfc9ac2db44304887e1",
        "e235f4a955ea307a1b723f9b603732480579bd0be6c0630c5fc4fe14ff9d1301",
    ),
    "nvd-scan": (
        ["--mode", "nvd"],
        "ecddc305b23b82dcfd17698edf368378447068d6e4863edf96b653d49a03c840",
        "40b7010c87389b81c041f48e7a31b017f8ebb49f74e044cf59c9c5e963b0f374",
    ),
    "fvd-s8": (
        ["--mode", "fvd", "--workspace", "8"],
        "2d8b88578fc255ca86fd0e168bab56a9fb245087103ec18475fee40e32c3acf4",
        "c35abfab0820d03b1f333ab002a06185f87b1bd264d3e291ae0ad0400a71ec08",
    ),
    "fvd-scan": (
        ["--mode", "fvd"],
        "8b50cfa9d3a7883bb134ef0ff9e3b593e713c9e7d44462099c6ef85f600fbbb1",
        "83c827618c7a4be2bf5a7ec4806a3e448097a34b804ac6bb5067817c3c1b779e",
    ),
    "order-K2-s8": (
        ["--mode", "order", "--max-k", "2", "--workspace", "8"],
        "2a0a0d157a4f8dad4fc3746a7df856a8bd51360aeaa3c7776b1cf332138e4961",
        "f5999c6fa2238af273b04d574c7be071bb581618a523528ba57e83d8c66830e6",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_unchanged(case, tmp_path, capsys):
    flags, records_sha, report_sha = CASES[case]
    sites = tmp_path / "sites.txt"
    sites.write_text(sites_to_text(random_sites(N, SEED)), encoding="utf-8")
    out = tmp_path / "records.txt"
    assert main(["run", str(sites), *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out) == records_sha
    assert _sha256(tmp_path / "records.txt.report") == report_sha


# 64 sites (x, x^2), x < 2^20, in convex position: every farthest cell is
# unbounded, as on the benchmark's convex input.
CONVEX = [(x, x * x) for x in random.Random(SEED).sample(range(1, 1 << 20), 64)]

CONVEX_CASES = {
    "fvd-scan": (
        ["--mode", "fvd"],
        "8ec2fa95bdad74a8e4f63181f7ab4db4a0cb49d8e82d448c0985c9cf55eb6f0c",
        "b996afe93ff0017dfb2ea490a10ce18366e7c1c756738b7f9edd2da90387b8b2",
    ),
    "fvd-s8": (
        ["--mode", "fvd", "--workspace", "8"],
        "3003d86632f3fd0703891ed6aa77bf2b39dca56cac12439123f024330c417310",
        "11e5e6461c6b75326ab8799878b6e6669a26e2f0db0439e87d33a5f0b7b1511d",
    ),
    "nvd-s8": (
        ["--mode", "nvd", "--workspace", "8"],
        "3db53f670d3860ad0dedd3413090292638dc98b466ce0f85185ed20743df6d6c",
        "e66fdc44bc7be1317607ef7a0d07d8bbb1138a88d9b3062a7a4cebb2bd7a6a3d",
    ),
}


@pytest.mark.parametrize("case", sorted(CONVEX_CASES))
def test_convex_output_bytes_unchanged(case, tmp_path, capsys):
    flags, records_sha, report_sha = CONVEX_CASES[case]
    sites = tmp_path / "sites.txt"
    sites.write_text("".join(f"{x} {y}\n" for x, y in CONVEX), encoding="utf-8")
    out = tmp_path / "records.txt"
    assert main(["run", str(sites), *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out) == records_sha
    assert _sha256(tmp_path / "records.txt.report") == report_sha
