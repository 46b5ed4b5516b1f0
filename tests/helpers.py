"""Test-only references shared by several test files."""

import numpy as np

from evgnn.model import QuantizedModel, model_to_json
from evgnn.perf_model import EventTrace, fetch_bytes_per_neighbor


def calibration_trace(model: QuantizedModel, n_events: int = 2000,
                      seed: int = 7, mean_deg: float = 12.2,
                      mean_entries: float = 150.0) -> EventTrace:
    """Deterministic synthetic trace used for the calibrated-profile checks.

    Degrees are drawn around the documented calibration mean degree (12.2,
    capped at D_max) and entries scanned around the documented mean queue
    occupancy of the candidate window.
    """
    rng = np.random.default_rng(seed)
    deg = np.clip(np.round(rng.normal(mean_deg, 1.5, n_events)),
                  0, model.search.d_max).astype(np.int64)
    entries = np.clip(np.round(rng.normal(mean_entries, 25.0, n_events)),
                      deg, None).astype(np.int64)
    return EventTrace(deg, entries)


def assert_keeps_queued_rows(state, model: QuantizedModel, pixels) -> None:
    """The scalar oracle's state keeps a row for exactly the events in its
    grid's queues at pixels, which hold every pixel that has received an
    event, and the rows take fetch_bytes_per_neighbor(model) bytes each."""
    queued = sorted(e.n for x, y in pixels for e in state.grid.entries(x, y))
    assert sorted(state.rows) == queued
    assert (sum(r.nbytes for r in state.rows.values())
            == len(queued) * fetch_bytes_per_neighbor(model))


def neighbors(adj, stream, i: int) -> list[tuple[int, int, int, int]]:
    """(n, dx, dy, dt) of event i's neighbours in scan order; dx and dy
    are looked up in the adjacency's window by window slot, dt is taken
    from the stream's timestamps."""
    out = []
    for n, o in zip(adj.nbr_n[i, :adj.deg[i]].tolist(),
                    adj.nbr_o[i, :adj.deg[i]].tolist()):
        out.append((n, int(adj.win_dx[o]), int(adj.win_dy[o]),
                    int(stream.t[i] - stream.t[n])))
    return out


def list_form_doc(model: QuantizedModel) -> dict:
    """model's document in the version-1 form: every weights and bias
    array a flat list of JSON integers, as files written before the base64
    blobs hold them."""
    doc = model_to_json(model)
    doc["version"] = 1
    for d, p in zip(doc["layers"] + [doc["fc"]], model.layers + [model.fc]):
        d.update(weights=p.weights.reshape(-1).tolist(), bias=p.bias.tolist())
    return doc


def assert_models_equal(a: QuantizedModel, b: QuantizedModel) -> None:
    """Every value the INT8 model file holds is equal in a and b."""
    assert a.header() == b.header()
    assert len(a.layers) == len(b.layers)
    for la, lb in zip(a.layers + [a.fc], b.layers + [b.fc]):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
        assert la.weights.dtype == lb.weights.dtype == np.int64
        assert la.bias.dtype == lb.bias.dtype == np.int64
    for la, lb in zip(a.layers, b.layers):
        assert (la.requant, la.pos_requant) == (lb.requant, lb.pos_requant)
