"""The per-layer tracer (perfbench/spans.py) wraps program names given as
(module, attribute); every one must still resolve, or `run.py --trace 1`
fails when it installs its wrappers."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("modname, attr", [(t[0], t[1]) for t in spans.TARGETS])
def test_target_resolves(modname, attr):
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize(
    "flags",
    [
        ["--mode", "nvd", "--workspace", "8"],
        ["--mode", "fvd"],
        ["--mode", "order", "--max-k", "2", "--workspace", "8"],
    ],
    ids=["nvd", "fvd", "order"],
)
def test_traced_run_is_consistent(flags, tmp_path, capsys):
    """A `vw run` under the installed tracer, as `run.py --trace 1` makes
    it, succeeds, and its layers' self times add up to its wall time."""
    from wsvoronoi.cli import main
    from wsvoronoi.datagen import random_sites, sites_to_text

    sites = tmp_path / "sites.txt"
    sites.write_text(sites_to_text(random_sites(40, 11)), encoding="utf-8")
    argv = ["run", str(sites), *flags, "--enforce", "--out", str(tmp_path / "records.txt")]
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.operation() as totals:
            rc = main(argv)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    assert totals["consistent"]
    assert totals["counts"]["tradeoff.walk_edges"] > 0
