"""The benchmark's tracer wraps evgnn functions by name; each must exist.

A renamed or deleted function is not an error to the tracer: it only
reports the point as untraced and its per-layer metric reads 0. A
renamed parameter is worse: the counter that reads it by name raises on
a keyword call, inside the traced round.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.tracing import TRACE_POINTS  # noqa: E402


@pytest.mark.parametrize("module, name",
                         [(m, a) for m, a, *_ in TRACE_POINTS])
def test_trace_point_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


# Counters that read a parameter by a name it no longer has (ROADMAP item
# 1, stale names). Each keyword call raises KeyError until item 1 mends it.
STALE_KEYWORDS = {"forward_eq7_int8": "the counter reads 'graph', a "
                                      "parameter now named 'stream'"}


@pytest.mark.parametrize("module, name, count", [
    pytest.param(m, a, count, id=f"{m}.{a}", marks=[pytest.mark.xfail(
        raises=KeyError, strict=True, reason=STALE_KEYWORDS[a])]
        if a in STALE_KEYWORDS else [])
    for m, a, _, count in TRACE_POINTS
    if count.__qualname__.startswith("_events_of.")])
def test_event_counter_takes_keywords(module, name, count):
    """A counter that reads its event count from a parameter finds it when
    the traced function is called with keyword arguments only."""
    fn = getattr(importlib.import_module(module), name)
    kwargs = {p: [0] * 3 for p in inspect.signature(fn).parameters}
    assert count((), kwargs, None) == {"events": 3}
