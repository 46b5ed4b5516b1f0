import dataclasses

import numpy as np
import pytest

from evgnn import engine, event_io
from evgnn.graph_builder import SearchParams
from evgnn.model import FPLayer, FPModel, random_model
from evgnn.static_oracle import (BATCH_ROWS, baq_batch, forward_eq7_fp,
                                 forward_eq7_int8)
from helpers import neighbors

PARAMS = SearchParams(r_s=3, r_t=500, d_max=8, queue_depth=6)


def _stream(seed=1, count=300, width=32, height=24):
    return event_io.gen_synthetic(
        "uniform_random",
        {"width": width, "height": height, "count": count,
         "duration_us": 1_500}, seed)


def _fp_model(seed=0, width=32, height=24):
    rng = np.random.default_rng(seed)
    dims = (1, 4, 4)
    layers = [FPLayer(rng.normal(0, 0.5, size=(co, ci + 2)),
                      rng.normal(0, 0.1, size=co))
              for ci, co in zip(dims, dims[1:])]
    gx, gy = -(-width // 16), -(-height // 16)
    fc_w = rng.normal(0, 0.2, size=(2, gx * gy * dims[-1]))
    return FPModel(width=width, height=height, layers=layers, fc_weights=fc_w,
                   fc_bias=rng.normal(0, 0.1, size=2), search=PARAMS)


@pytest.mark.parametrize("p", [-1, 2])
def test_every_forward_rejects_a_polarity_outside_0_1(p):
    """Both static forwards, like run_stream, index their input encoding
    by polarity; no stream holds one outside {0, 1} to leave the INT8
    input unset or read as +1.0 (FP): the constructor rejects it."""
    with pytest.raises(event_io.OutOfBounds,
                       match=rf"^line 2: polarity {p} not in"):
        event_io.EventStream(32, 24, [1, 2, 3], [1, 1, 2], [0, 10, 20],
                             [0, p, 1])


@pytest.mark.parametrize("shift", [0, 1, 5, 30, 31])
def test_baq_batch_equals_generic_requant(shift, rng):
    """The in-place requant equals ReLU, rne_mulshift and the clamp, on
    random aggregates in +-2**31, on exact halves and their neighbours,
    and at M from 0 to 2**31 - 1."""
    half = 1 << shift >> 1
    edges = [0, 1, -1, 2**31 - 1, -(2**31 - 1), 126, 127, 128]
    edges += [m * (1 << shift) + half + d for m in (0, 1, 2, 3, 126, 127)
              for d in (-1, 0, 1)]
    v = np.r_[edges, rng.integers(-2**31 + 1, 2**31, size=3998)]
    v = v.reshape(-1, 4).astype(np.float64)
    for mult in (0, 1, 3, 1 << 20, 2**31 - 1,
                 *rng.integers(0, 2**31, size=4).tolist()):
        want = np.minimum(engine.rne_mulshift(
            np.maximum(v, 0).astype(np.int64), mult, shift), 127)
        got = baq_batch(v, (mult, shift))
        assert got.dtype == np.int64
        assert np.array_equal(got, want), mult


class TestBuildStaticGraph:
    """The static graph is the whole stream's engine.build_adjacency."""

    def test_two_events_one_directed_edge(self, make_stream):
        s = make_stream(8, 8, [(3, 3, 10, 0), (4, 3, 20, 1)])
        adj = engine.build_adjacency(s, PARAMS)
        assert neighbors(adj, s, 0) == []
        assert neighbors(adj, s, 1) == [(0, 1, 0, 10)]

    @pytest.mark.parametrize("shape", ["prism"])
    def test_matches_brute_force(self, shape):
        from evgnn.graph_builder import brute_force_neighbors
        params = dataclasses.replace(PARAMS, shape=shape)
        s = _stream(2, count=200)
        adj = engine.build_adjacency(s, params)
        for i, ev in enumerate(s.events):
            expect = [(nb.n, nb.dx, nb.dy, int(ev.t - s.t[nb.n])) for nb in
                      brute_force_neighbors(s.events[:i], ev, params)]
            assert neighbors(adj, s, i) == expect

    def test_directed_chain_topology(self, make_stream):
        # chain A -> B -> C -> D in time at one pixel: a node has only
        # in-edges from earlier events within r_t
        s = make_stream(4, 4, [(1, 1, t, 1) for t in [0, 10, 20, 30]])
        params = SearchParams(r_s=1, r_t=11, d_max=4, queue_depth=4)
        adj = engine.build_adjacency(s, params)
        assert [[nb[0] for nb in neighbors(adj, s, i)]
                for i in range(4)] == \
            [[], [0], [1], [2]]  # D (t=30) is out of r_t range of A (t=0)


class TestEq7Int8:
    def test_matches_event_driven_engine(self, small_model, small_stream):
        res = engine.run_stream(small_model, small_stream)
        sta = forward_eq7_int8(small_stream, res.adjacency, small_model)
        for l in range(len(small_model.layers)):
            assert np.array_equal(sta.feats[l], res.feats[l])
        assert np.array_equal(sta.logits, res.logits)
        assert np.array_equal(sta.cls, res.cls)
        assert np.array_equal(sta.readout, res.readout)

    def test_permutation_invariance(self, small_model, small_stream, rng):
        adj = engine.build_adjacency(small_stream, small_model)
        base = forward_eq7_int8(small_stream, adj, small_model)
        # shuffle every adjacency row in place (post-truncation)
        for i in range(len(small_stream)):
            d = int(adj.deg[i])
            if d > 1:
                perm = rng.permutation(d)
                for arr in (adj.nbr_n, adj.nbr_o):
                    arr[i, :d] = arr[i, :d][perm]
        res = forward_eq7_int8(small_stream, adj, small_model)
        for a, b in zip(base.feats, res.feats):
            assert np.array_equal(a, b)
        assert np.array_equal(base.logits, res.logits)

    def test_matches_engine_across_batches(self):
        # more events than one gather batch; a short r_t leaves events
        # without neighbours next to d_max-saturated ones
        params = dataclasses.replace(PARAMS, r_t=200)
        model = random_model(3, width=32, height=24, search=params)
        s = _stream(7, count=BATCH_ROWS + 904)
        res = engine.run_stream(model, s)
        sta = forward_eq7_int8(s, res.adjacency, model)
        assert (res.adjacency.deg == 0).any()
        assert (res.adjacency.deg == params.d_max).any()
        for l in range(len(model.layers)):
            assert np.array_equal(sta.feats[l], res.feats[l])
        assert np.array_equal(sta.logits, res.logits)

    def test_trace_lines(self, small_model):
        s = _stream(3, count=20, width=64, height=48)
        res = engine.run_stream(small_model, s)
        lines = engine.prediction_trace_lines(
            forward_eq7_int8(s, res.adjacency, small_model))
        assert len(lines) == 20
        n, cls, *logits = lines[7].split()
        assert int(n) == 7
        assert int(cls) == int(res.cls[7])
        assert [int(v) for v in logits] == res.logits[7].tolist()


class TestEq7Fp:
    def test_hand_computed_three_events(self, make_stream):
        """+-1.0 inputs, raw |dx|, |dy| and ReLU, worked out by hand.

        e0 (1,1) p=1 has no neighbour; e1 (2,1) p=0 sees e0 at (|dx|,|dy|)
        = (1,0); e2 (1,2) p=1 sees e0 at (0,1) and e1 at (1,1).
        """
        s = make_stream(4, 4, [(1, 1, 0, 1), (2, 1, 10, 0), (1, 2, 20, 1)])
        params = SearchParams(r_s=2, r_t=100, d_max=4, queue_depth=4)
        layer = FPLayer([[1.0, 0.5, -1.0], [-2.0, 1.0, 0.25]], [0.5, -0.25])
        fp = FPModel(width=4, height=4, layers=[layer],
                     fc_weights=[[1.0, -1.0], [0.5, 2.0]],
                     fc_bias=[0.0, 0.25], search=params)
        res = forward_eq7_fp(s, engine.build_adjacency(s, params), fp)
        # e0: empty -> 0; relu(0 + b) = (0.5, 0)
        # e1: W.(+1, 1, 0) = (1.5, -1); relu(+ b) = (2, 0)
        # e2: W.(+1, 0, 1) = (0, -1.75), W.(-1, 1, 1) = (-1.5, 3.25);
        #     max (0, 3.25); relu(+ b) = (0.5, 3)
        assert res.feats[0].tolist() == [[0.5, 0.0], [2.0, 0.0], [0.5, 3.0]]
        # one readout cell: its running max is (0.5,0), (2,0), (2,3)
        assert res.logits.tolist() == [[0.5, 0.5], [2.0, 1.25], [-1.0, 7.25]]
        assert res.cls.tolist() == [0, 0, 1]
        assert res.readout.tolist() == [2.0, 3.0]

    def test_logits_equal_per_event_readout(self):
        """Logits of event i are fc_b + W_fc . (per-cell max up to i)."""
        width, height = 64, 48
        s = _stream(4, count=400, width=width, height=height)
        fp = _fp_model(5, width, height)
        res = forward_eq7_fp(s, engine.build_adjacency(s, PARAMS), fp)
        cells = np.zeros((fp.n_cells_x * fp.n_cells_y, fp.layers[-1].c_out))
        for i, ev in enumerate(s.events):
            k = (ev.y // fp.patch) * fp.n_cells_x + ev.x // fp.patch
            cells[k] = np.maximum(cells[k], res.feats[-1][i])
            want = fp.fc_bias + fp.fc_weights @ cells.reshape(-1)
            assert np.allclose(res.logits[i], want), f"event {i}"
        assert np.array_equal(res.readout, cells.reshape(-1))
        assert np.array_equal(res.cls, np.argmax(res.logits, axis=1))


class TestDirectedness:
    def test_zeroing_later_node_cannot_affect_earlier(self, rng):
        s = _stream(6, count=120)
        adj = engine.build_adjacency(s, PARAMS)
        model = _fp_model(3)
        base = forward_eq7_fp(s, adj, model)
        k = len(s) // 2
        # drop all edges into nodes >= k; features of nodes < k must hold
        adj.deg[k:] = 0
        cut = forward_eq7_fp(s, adj, model)
        for lb, lc in zip(base.feats, cut.feats):
            assert np.allclose(lb[:k], lc[:k])
