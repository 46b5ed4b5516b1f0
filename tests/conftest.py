import numpy as np
import pytest

from evgnn import event_io
from evgnn.model import random_model


def _make_stream(width, height, rows=()):
    """A stream from (x, y, t, p) rows; row n becomes event n."""
    cols = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return event_io.EventStream(width, height, *cols)


@pytest.fixture(scope="session")
def make_stream():
    return _make_stream


@pytest.fixture(scope="session")
def small_stream():
    return event_io.gen_synthetic(
        "uniform_random",
        {"width": 64, "height": 48, "count": 600, "duration_us": 20_000},
        seed=5)


@pytest.fixture(scope="session")
def small_model():
    return random_model(seed=9)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
