"""The benchmark's tracer wraps evgnn functions by name; each must exist.

A renamed or deleted function is not an error to the tracer: it only
reports the point as untraced and its per-layer metric reads 0.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.tracing import TRACE_POINTS  # noqa: E402


@pytest.mark.parametrize("module, name",
                         [(m, a) for m, a, *_ in TRACE_POINTS])
def test_trace_point_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
