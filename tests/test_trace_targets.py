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
