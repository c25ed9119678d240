"""The benchmark's traced run patches crossnet functions by name.

``perfbench/tracing.py`` lists them in ``TARGETS``; a renamed or deleted
function would make ``perfbench/run.py --trace 1`` crash when it installs
its spans, so every entry must resolve to a callable.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize("module, attr, span", _targets(), ids=lambda v: str(v))
def test_target_resolves_to_a_callable(module, attr, span):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj), f"{module}.{attr} ({span}) is not callable"
