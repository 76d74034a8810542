"""Golden outputs: `vw run` must keep writing the same bytes.

Each case pins the sha256 of the record file and of its `.report` for a
small seeded input.  A change meant only to make the program faster must
leave every hash as it is; a change that alters output on purpose updates
the hashes and says why.
"""

import hashlib

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
