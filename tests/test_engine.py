import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evgnn import engine, event_io, graph_builder, static_oracle
from evgnn.cli import main
from evgnn.engine import (DimMismatch, EngineState, Epilogue, LengthMismatch,
                          Prediction, ReadoutState, StoreError, aggregate_max,
                          baq, baq_block, count_ops, fc_forward,
                          message_matvec, rne_mulshift)
from evgnn.graph_builder import SearchParams
from evgnn.model import (IDENTITY_REQUANT, POLARITY_INPUT, DenseParams,
                         LayerParams, QuantizedModel, calibration_model,
                         random_fp_model, random_model, save_model)

from helpers import assert_keeps_queued_rows


def _layer(weights, bias=None, requant=IDENTITY_REQUANT,
           pos_requant=IDENTITY_REQUANT):
    weights = np.asarray(weights)
    co, width = weights.shape
    if bias is None:
        bias = np.zeros(co, dtype=np.int64)
    return LayerParams(c_in=width - 2, c_out=co, weights=weights,
                       bias=np.asarray(bias), requant=requant,
                       pos_requant=pos_requant)


class TestPrimitives:
    def test_encode_default_map(self):
        """Polarity 0 and 1 enter layer 1 as -127 and 127: the scalar
        oracle keeps them as each queued event's layer-1 input, and the
        run plan's input_terms are layer 1's W_x times them."""
        assert POLARITY_INPUT == (-127, 127)
        model = random_model(0)
        stream = event_io.EventStream(64, 48, [1, 2], [1, 1], [0, 1],
                                      [0, 1])
        state = EngineState.new(model, len(stream))
        for ev in stream.events:
            engine.process_event(state, model, ev)
        assert [int(state.rows[n][0]) for n in (0, 1)] == [-127, 127]
        w_x = model.layers[0].weights[:, 0]
        assert np.array_equal(engine.build_plan(model).input_terms,
                              np.outer([-127, 127], w_x))

    def test_matvec_zero_weights(self):
        layer = _layer(np.zeros((3, 4), dtype=np.int64))
        out = message_matvec(layer, np.array([5, -3]), 2, 1)
        assert np.array_equal(out, np.zeros(3))

    def test_matvec_hand_arithmetic(self):
        # row (2, 1, 1), input (x=3, |dx|=4, |dy|=0): 6 + 4 + 0 = 10
        layer = _layer(np.array([[2, 1, 1]]))
        out = message_matvec(layer, np.array([3]), 4, 0)
        assert out.tolist() == [10]

    def test_matvec_against_bigint(self, rng):
        layer = _layer(rng.integers(-127, 128, size=(6, 10)))
        x = rng.integers(0, 128, size=8)
        out = message_matvec(layer, x, -3, 2)
        inp = [int(v) for v in x] + [3, 2]
        for c in range(6):
            assert int(out[c]) == sum(
                int(layer.weights[c, k]) * inp[k] for k in range(10))

    def test_matvec_dim_mismatch(self):
        layer = _layer(np.zeros((2, 5), dtype=np.int64))
        with pytest.raises(DimMismatch):
            message_matvec(layer, np.zeros(2), 0, 0)

    def test_aggregate_pairs(self):
        out = aggregate_max([np.array([1, -5]), np.array([-2, 7])], 2)
        assert out.tolist() == [1, 7]

    def test_aggregate_single_identity(self):
        m = np.array([4, -9, 0])
        assert aggregate_max([m], 3).tolist() == m.tolist()

    def test_aggregate_empty_default_zero(self):
        assert aggregate_max([], 4).tolist() == [0, 0, 0, 0]

    def test_aggregate_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            aggregate_max([np.zeros(2), np.zeros(3)], 2)

    def test_baq_zero(self):
        layer = _layer(np.zeros((1, 3), dtype=np.int64))
        assert baq(np.array([0]), layer).tolist() == [0]

    def test_baq_relu(self):
        layer = _layer(np.zeros((1, 3), dtype=np.int64))
        assert baq(np.array([-100]), layer).tolist() == [0]

    def test_baq_clamp(self):
        # acc 1000 + bias 24 = 1024, x 2^-3 = 128, clamps to 127
        layer = _layer(np.zeros((1, 3), dtype=np.int64),
                       bias=[24], requant=(1 << 30, 33))
        assert baq(np.array([1000]), layer).tolist() == [127]

    def test_prediction_argmax_tie_lowest(self):
        assert Prediction.from_logits(np.array([5, 5, 1])).cls == 0


class TestRequant:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 2**31 - 1),
           st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_rne_matches_rational(self, v, mult, shift):
        exact = Fraction(v * mult, 2**shift)
        got = rne_mulshift(v, mult, shift)
        # round half to even
        floor = exact.numerator // exact.denominator
        frac = exact - floor
        if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and floor % 2):
            expect = floor + 1
        else:
            expect = floor
        assert got == expect

    def test_shift_zero_is_product(self):
        assert rne_mulshift(7, 3, 0) == 21

    def test_half_rounds_to_even(self):
        assert rne_mulshift(1, 1, 1) == 0   # 0.5 -> 0
        assert rne_mulshift(3, 1, 1) == 2   # 1.5 -> 2
        assert rne_mulshift(np.array([1, 3, 5]), 1, 1).tolist() == [0, 2, 2]

    def test_array_matches_scalar(self, rng):
        top = 2**31 - 1
        for shift in range(63):
            for mult in (1, top, int(rng.integers(1, 2**31))):
                v = np.r_[0, 1, top, rng.integers(0, 2**31, size=200)]
                got = rne_mulshift(v, mult, shift)
                assert got.dtype == np.int64
                assert got.tolist() == [rne_mulshift(int(x), mult, shift)
                                        for x in v]


TOP = 2**31 - 1


def _ties(mult, shift, below=256):
    """Every v in [0, 2**31) whose v * mult / 2**shift is a rounding tie
    with a quotient below `below`, each with its two neighbours."""
    if shift == 0 or mult == 0:
        return []
    out = []
    for q in range(below):
        num = q * 2**shift + 2**(shift - 1)
        if num % mult == 0 and num // mult <= TOP:
            out += [num // mult - 1, num // mult, num // mult + 1]
    return out


def _biased_values(rng, mult, shift, size=None):
    """Biased aggregates for one channel: 0, the ReLU and clamp edges,
    +-(2**31 - 1), every rounding tie of (mult, shift), random fill."""
    v = np.r_[-TOP, -2, -1, 0, 1, 2, 126, 127, 128, 255, 256, TOP - 1, TOP,
              _ties(mult, shift), rng.integers(-TOP, TOP + 1, size=64)]
    return v if size is None else rng.choice(v, size=size)


class TestBlockEpilogue:
    """baq_block, the batch kernel's in-place int64 epilogue, against the
    scalar baq of the per-event oracle."""

    @pytest.mark.parametrize("shift", [0, 1, 2, 31, 33, 62])
    @pytest.mark.parametrize("mult", [0, 1, 3, 2**30, TOP])
    def test_one_layer_equals_scalar_baq(self, rng, mult, shift):
        v = _biased_values(rng, mult, shift)
        bias = rng.integers(-2**20, 2**20, size=len(v))
        layer = _layer(np.zeros((len(v), 3), dtype=np.int64), bias=bias,
                       requant=(mult, shift))
        ep = Epilogue.of([layer])
        assert np.ndim(ep.mult) == np.ndim(ep.shift) == 0
        acc = v - bias
        got = baq_block(acc[None].astype(np.int64), ep)
        assert got.dtype == np.int64
        assert got[0].tolist() == baq(acc, layer).tolist()

    def test_ties_round_both_ways(self):
        """The tie grid holds ties below the clamp that round down (even
        quotient) and up (odd quotient), and the one tie at shift 31."""
        mid = _ties(1, 1)[1::3]
        assert len(mid) == 256
        assert {rne_mulshift(v, 1, 1) - v // 2 for v in mid
                if v < 254} == {0, 1}
        assert _ties(1, 31)[1::3] == [2**30]
        assert len(_ties(3, 2)) > 0 and _ties(0, 5) == []

    def test_block_with_mixed_shifts(self, rng):
        """Layers side by side, one at shift 0: each channel takes its own
        layer's bias, M and shift, and rounds only when its shift is > 0."""
        requants = [(TOP, 62), (3, 0), (1, 1), (2**30, 31),
                    (1_500_000_007, 36)]
        widths = [3, 2, 4, 1, 5]
        layers = [_layer(np.zeros((c, 3), dtype=np.int64),
                         bias=rng.integers(-2**20, 2**20, size=c),
                         requant=rq)
                  for c, rq in zip(widths, requants)]
        ep = Epilogue.of(layers)
        assert ep.shift.tolist() == np.repeat(
            [s for _, s in requants], widths).tolist()
        rows = 400
        cols = [_biased_values(rng, *lp.requant, size=rows) - lp.bias[c]
                for lp in layers for c in range(lp.c_out)]
        acc = np.stack(cols, axis=1).astype(np.int64)
        got = baq_block(acc.copy(), ep)
        off = np.cumsum([0] + widths)
        for b in range(rows):
            expect = np.concatenate([baq(acc[b, a:z], lp) for lp, a, z in
                                     zip(layers, off, off[1:])])
            assert got[b].tolist() == expect.tolist(), b


class TestReadout:
    def test_grid_8x7_for_120x100(self):
        m = random_model(0, width=120, height=100)
        assert (m.n_cells_x, m.n_cells_y) == (8, 7)

    def test_cell_indexing(self):
        m = random_model(0, width=64, height=48, layer_dims=(4,))
        r = ReadoutState(m)
        r.update(17, 0, np.array([9, 0, 0, 0]))
        assert r.cells[0, 1, 0] == 9  # floor(17 / 16) = 1

    def test_max_idempotent(self):
        m = random_model(0, width=64, height=48, layer_dims=(2,))
        r = ReadoutState(m)
        r.update(0, 0, np.array([5, 6]))
        before = r.cells.copy()
        r.update(0, 0, np.array([4, 6]))
        assert np.array_equal(r.cells, before)

    def test_flatten_row_major(self):
        m = random_model(0, width=32, height=32, layer_dims=(2,))
        r = ReadoutState(m)  # 2x2 grid
        r.update(16, 0, np.array([1, 2]))   # cell (gy=0, gx=1)
        flat = r.flatten()
        assert flat.tolist() == [0, 0, 1, 2, 0, 0, 0, 0]

    def test_fc_zero_weights_bias_passthrough(self):
        m = random_model(0, width=32, height=32, layer_dims=(2,))
        r = ReadoutState(m)
        fc = DenseParams(in_dim=8, out_dim=2,
                         weights=np.zeros((2, 8), dtype=np.int64),
                         bias=np.array([3, -1]))
        pred = fc_forward(r, fc)
        assert pred.logits.tolist() == [3, -1] and pred.cls == 0

    def test_fc_against_bigint(self, rng):
        m = random_model(0, width=32, height=32, layer_dims=(2,))
        r = ReadoutState(m)
        r.cells[:] = rng.integers(0, 128, size=r.cells.shape)
        fc = DenseParams(in_dim=8, out_dim=3,
                         weights=rng.integers(-64, 65, size=(3, 8)),
                         bias=rng.integers(-100, 101, size=3))
        pred = fc_forward(r, fc)
        flat = [int(v) for v in r.flatten()]
        for c in range(3):
            expect = sum(int(fc.weights[c, k]) * flat[k]
                         for k in range(8)) + int(fc.bias[c])
            assert int(pred.logits[c]) == expect


def _readout_loop(model, stream, last, fc_cells, fc_b):
    """readout_trace in its per-cell form: a running max, a diff and a
    matmul for each occupied cell in turn."""
    cell = (stream.y // model.patch) * model.n_cells_x + stream.x // model.patch
    cells = np.zeros((len(fc_cells), last.shape[1]), dtype=last.dtype)
    step = np.zeros((len(last), len(fc_b)),
                    dtype=np.result_type(fc_cells, last))
    for k in np.unique(cell).tolist():
        rows = np.flatnonzero(cell == k)
        run = np.maximum.accumulate(last[rows])
        step[rows] = np.diff(run, axis=0, prepend=0) @ fc_cells[k]
        cells[k] = run[-1]
    logits = fc_b + np.cumsum(step, axis=0)
    return logits, np.argmax(logits, axis=1), cells.reshape(-1)


def _readout_case(seed, n=200, c_last=5):
    """A 40x36 sensor (a 3x3 grid whose last cell is 8x4 pixels) and n
    events in cells 0 and 4 only, plus one alone in cell 3 with every
    channel at 127 and, last, one at the last pixel. The outputs are
    random in [0, 127], a quarter of the events all 0, cell 4's first
    among them: in cell order, it follows cell 3's saturated channels."""
    rng = np.random.default_rng(seed)
    model = random_model(seed, width=40, height=36, layer_dims=(c_last,))
    in_4 = 16 * rng.integers(0, 2, n - 2)  # cell 0 or cell 4, interleaved
    x = np.r_[rng.integers(0, 16, n - 2) + in_4, 3, 39]
    y = np.r_[rng.integers(0, 16, n - 2) + in_4, 20, 35]
    last = rng.integers(0, 128, size=(n, c_last)).astype(np.uint8)
    last[rng.choice(n - 2, n // 4, replace=False)] = 0
    last[np.flatnonzero(in_4)[0]] = 0
    last[-2] = 127
    last[-1] = np.maximum(last[-1], 1)
    stream = event_io.EventStream(40, 36, x, y, np.arange(n), np.zeros(n))
    return model, stream, last


class TestReadoutTrace:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_per_event_readout(self, seed):
        """Logits, classes and readout equal ReadoutState.update and
        fc_forward event by event, with their dtypes."""
        model, stream, last = _readout_case(seed)
        plan = engine.build_plan(model)
        logits, cls, readout = engine.readout_trace(plan, stream, last)
        state = ReadoutState(model)
        for i in range(len(last)):
            state.update(int(stream.x[i]), int(stream.y[i]), last[i])
            pred = fc_forward(state, model.fc)
            assert logits[i].tolist() == pred.logits.tolist(), f"event {i}"
            assert cls[i] == pred.cls
        assert readout.tolist() == state.flatten().tolist()
        assert (logits.dtype, cls.dtype, readout.dtype) == (
            np.int64, np.int64, np.uint8)
        cell = (stream.y // 16) * 3 + stream.x // 16
        assert np.bincount(cell, minlength=9)[[1, 2, 3, 5, 6, 7, 8]].tolist(
            ) == [0, 0, 1, 0, 0, 0, 1]

    def test_int64_lift_equals_per_cell_loop(self, monkeypatch):
        """Under the int64 lift, which the int32 one leaves unused at
        these spans, logits, classes and readout equal the per-cell loop
        with their dtypes."""
        monkeypatch.setattr(engine, "lift_dtype",
                            lambda span, cells: np.int64)
        model, stream, last = _readout_case(5)
        plan = engine.build_plan(model)
        got = engine.readout_trace(plan, stream, last)
        want = _readout_loop(model, stream, last, plan.fc_cells,
                             model.fc.bias)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
            assert a.dtype == b.dtype

    def test_no_events(self):
        model = _readout_case(0)[0]
        logits, cls, readout = engine.readout_trace(
            engine.build_plan(model), event_io.EventStream(40, 36),
            np.zeros((0, model.c_last), dtype=np.uint8))
        assert logits.shape == (0, len(model.classes)) and cls.shape == (0,)
        assert readout.tolist() == [0] * (9 * model.c_last)
        assert (logits.dtype, cls.dtype, readout.dtype) == (
            np.int64, np.int64, np.uint8)

    def test_lift_dtype_boundary(self):
        assert engine.lift_dtype(128, 2**24 - 1) is np.int32
        assert engine.lift_dtype(128, 2**24) is np.int64  # 2**31
        assert engine.lift_dtype(2**31 - 1, 1) is np.int32
        assert engine.lift_dtype(2**31, 1) is np.int64


# run_stream's two batch schedules: the default (layer-sequential) and the
# layer-parallel wavefront
SCHEDULES = ({}, {"levels": True})


def _per_event_run(model, stream):
    state = EngineState.new(model, len(stream))
    preds = [engine.process_event(state, model, ev) for ev in stream.events]
    return state, preds


class TestProcessEvent:
    def test_first_event_defined(self, small_model, make_stream):
        stream = make_stream(64, 48, [(3, 3, 10, 1)])
        state, preds = _per_event_run(small_model, stream)
        assert preds[0].cls in (0, 1)
        assert state.rows[0][:1].tolist() == [127]  # polarity input

    def test_out_of_order_rejected(self, small_model, small_stream):
        state = EngineState.new(small_model, len(small_stream))
        with pytest.raises(StoreError):
            engine.process_event(state, small_model,
                                 small_stream.events[1])

    def test_event_past_num_events_rejected(self, small_model,
                                            small_stream):
        state = EngineState.new(small_model, 2)
        for ev in small_stream.events[:2]:
            engine.process_event(state, small_model, ev)
        with pytest.raises(StoreError):
            engine.process_event(state, small_model, small_stream.events[2])

    def test_state_does_not_grow_with_num_events(self):
        """No allocation grows with the stream: the state for 100k events
        starts as an empty grid and the readout."""
        model = calibration_model()
        tracemalloc.start()
        try:
            state = EngineState.new(model, 100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.num_events == 100_000 and peak < 2**20

    @pytest.mark.parametrize("case", ["moving_dot", "hot_pixel_depth2",
                                      "hot_pixel_depth3"])
    def test_keeps_only_queued_rows(self, case):
        """After every event the state keeps exactly the queued events'
        layer inputs, fetch_bytes_per_neighbor bytes each, on streams
        whose queues overflow and evict."""
        if case == "moving_dot":
            model = calibration_model()
            stream = event_io.gen_synthetic(
                "moving_dot", {"width": 120, "height": 100, "count": 300,
                               "duration_us": 1_500, "velocity": (1.0, 0.0),
                               "dot_radius": 1.5}, seed=1)
        else:
            model = random_model(2, width=32, height=24, search=SearchParams(
                queue_depth=int(case[-1])))
            stream = event_io.gen_synthetic(
                "moving_dot", {"width": 32, "height": 24, "count": 300,
                               "duration_us": 6_000, "velocity": (0.0, 0.0),
                               "dot_radius": 1.0}, seed=3)
        depth = model.search.queue_depth
        state = EngineState.new(model, len(stream))
        pixels = set()
        for ev in stream.events:
            engine.process_event(state, model, ev)
            pixels.add((ev.x, ev.y))
            assert_keeps_queued_rows(state, model, pixels)
        _, count = np.unique(stream.y * stream.width + stream.x,
                             return_counts=True)
        assert count.max() > depth  # the hottest pixel's queue evicted
        assert len(state.rows) == np.minimum(count, depth).sum()

    @pytest.mark.parametrize("schedule", ["parallel", "graph", "static"])
    @pytest.mark.parametrize("case", ["zero", "dmax_saturated", "cylinder"])
    def test_per_event_equals_batch(self, small_stream, case, schedule):
        if case == "dmax_saturated":
            model = calibration_model()
            stream = event_io.gen_synthetic(
                "moving_dot", {"width": 120, "height": 100, "count": 250,
                               "duration_us": 1_250, "velocity": (1.0, 0.0),
                               "dot_radius": 1.5}, seed=1)
        elif case == "cylinder":
            model = random_model(9, search=SearchParams(shape="cylinder",
                                                        r_s=3))
            stream = small_stream
        else:
            model = random_model(9)
            stream = small_stream
        state, preds = _per_event_run(model, stream)
        adj = engine.build_adjacency(stream, model)
        if case == "dmax_saturated":
            assert np.mean(adj.deg == model.search.d_max) >= 0.9
        else:
            assert np.any(adj.deg == 0)  # the empty identity is exercised
        if case == "cylinder":
            # the cylinder window holds (+-2, +-2), which the prism's lacks
            edge = adj.nbr_o[np.arange(adj.d_max) < adj.deg[:, None]]
            assert np.any((np.abs(adj.win_dx[edge]) == 2)
                          & (np.abs(adj.win_dy[edge]) == 2))
        if schedule == "static":
            res = static_oracle.forward_eq7_int8(stream, adj, model)
        else:
            res = engine.run_stream(model, stream, adjacency=adj,
                                    levels=schedule == "parallel")
        per_nbr = sum((lp.c_in + 2) * lp.c_out for lp in model.layers)
        assert np.array_equal(res.macs, adj.deg * per_nbr)
        for l in range(len(model.layers)):
            assert np.array_equal(res.feats[l], np.stack(
                [preds[i].feats[l] for i in range(len(stream))]))
        assert np.array_equal(res.logits, np.stack([p.logits for p in preds]))
        assert res.cls.tolist() == [p.cls for p in preds]
        assert np.array_equal(res.readout, state.readout.flatten())

    def test_per_event_equals_chunked_graph(self):
        """Whole-graph chunks vs the scalar oracle: isolated events on a
        chunk boundary, and a layer at the loader's 32-bit range limit."""
        rng = np.random.default_rng(4)
        model = random_model(4, layer_dims=(32, 32, 32))
        weights = rng.choice([-127, 127], size=(32, 34))
        col = np.r_[np.full(32, 127), 32767, 32767]
        big = 2**31 - 1 - int((np.abs(weights) @ col).max())
        bias = np.r_[np.full(10, big), np.full(10, -big),
                     rng.integers(-2000, 2001, size=12)]
        # every nonzero offset requantizes to the 32767 clamp
        wide = LayerParams(c_in=32, c_out=32, weights=weights, bias=bias,
                           requant=(2**30, 46), pos_requant=(2**30, 15))
        model = dataclasses.replace(
            model, layers=[model.layers[0], wide, model.layers[2]])
        assert int((np.abs(wide.weights) @ col + np.abs(wide.bias)).max()
                   ) == 2**31 - 1

        rows = engine.CHUNK_CELLS // (model.search.d_max * 32)
        base = event_io.gen_synthetic(
            "uniform_random", {"width": 64, "height": 48,
                               "count": 2 * rows + 40, "duration_us": 2_000},
            seed=6)
        x, y, t = base.x.copy(), base.y.copy(), base.t.copy()
        t[rows - 1:] += 2 * model.search.r_t  # nothing before is in reach
        x[rows - 1], y[rows - 1] = 0, 0
        x[rows], y[rows] = 63, 47
        stream = event_io.EventStream(64, 48, x, y, t, base.p)

        state, preds = _per_event_run(model, stream)
        adj = engine.build_adjacency(stream, model)
        assert adj.deg[rows - 1] == adj.deg[rows] == 0
        assert adj.deg[rows + 1:].max() > 0
        for kw in SCHEDULES:
            res = engine.run_stream(model, stream, adjacency=adj, **kw)
            for l in range(len(model.layers)):
                assert np.array_equal(res.feats[l], np.stack(
                    [preds[i].feats[l] for i in range(len(stream))]))
            assert np.array_equal(res.logits,
                                  np.stack([p.logits for p in preds]))
            assert np.array_equal(res.readout, state.readout.flatten())
        wide_out = res.feats[1][adj.deg > 0, :20]  # bias at +-(limit - acc)
        assert np.all(wide_out[:, :10] == 127)
        assert np.all(wide_out[:, 10:] == 0)

    @pytest.mark.parametrize("r_s", [12, 16])
    def test_per_event_equals_batch_wide_window(self, r_s):
        """Windows of K = 313 and 545 slots: window slots past uint8, and
        edges whose |dx| + |dy| reaches r_s - 1."""
        params = SearchParams(r_s=r_s, r_t=5_000, d_max=8, queue_depth=2)
        model = random_model(5, width=40, height=36, layer_dims=(6, 5),
                             search=params)
        stream = event_io.gen_synthetic(
            "uniform_random", {"width": 40, "height": 36, "count": 120,
                               "duration_us": 1_000}, seed=8)
        _, preds = _per_event_run(model, stream)
        adj = engine.build_adjacency(stream, model)
        assert adj.nbr_o.dtype == np.uint16
        edge = adj.nbr_o[np.arange(params.d_max) < adj.deg[:, None]]
        assert (np.abs(adj.win_dx[edge])
                + np.abs(adj.win_dy[edge])).max() >= r_s - 1
        res = engine.run_stream(model, stream, adjacency=adj)
        for l in range(len(model.layers)):
            assert np.array_equal(res.feats[l], np.stack(
                [preds[i].feats[l] for i in range(len(stream))]))
        assert np.array_equal(res.logits, np.stack([p.logits for p in preds]))

    def test_single_layer_model(self, small_stream):
        model = random_model(3, layer_dims=(6,))
        _, preds = _per_event_run(model, small_stream)
        logits = np.stack([p.logits for p in preds])
        for kw in SCHEDULES:
            res = engine.run_stream(model, small_stream, **kw)
            assert np.array_equal(res.logits, logits)


def _assert_feats_equal(feats, preds):
    for l, f in enumerate(feats):
        assert np.array_equal(f, np.stack(
            [preds[i].feats[l] for i in range(len(f))]))


def test_position_clamp_at_32767(make_stream):
    """A position requant of q|d| = 16384 |d| reaches the 32767 clamp at
    |d| = 2, inside an r_s = 3 window. The message is q|dx| alone, so
    events 1 and 2, each with a neighbour at |dx| >= 2, output
    32767 - 32700 = 67 on the scalar, both batch and the static paths;
    with no clamp, or another bound, they would not."""
    model = QuantizedModel(
        width=16, height=16, search=SearchParams(shape="prism", r_s=3),
        layers=[_layer([[0, 1, 0]], bias=[-32700],
                       requant=(1 << 30, 30), pos_requant=(1 << 30, 16))],
        fc=DenseParams(in_dim=1, out_dim=2, weights=np.zeros((2, 1)),
                       bias=np.zeros(2)))
    stream = make_stream(16, 16, [(5, 5, 0, 1), (7, 5, 10, 1),
                                  (4, 5, 20, 1)])
    _, preds = _per_event_run(model, stream)
    adj = engine.build_adjacency(stream, model.search)
    outs = {"process_event": [int(p.feats[0][0]) for p in preds]}
    for name, res in [
            ("run_stream", engine.run_stream(model, stream)),
            ("levels", engine.run_stream(model, stream, levels=True)),
            ("forward_eq7_int8",
             static_oracle.forward_eq7_int8(stream, adj, model))]:
        outs[name] = res.feats[0][:, 0].tolist()
    assert {k: v[1:] for k, v in outs.items()} == dict.fromkeys(outs,
                                                                [67, 67])


def _plan_arrays(obj, path="plan"):
    """(path, array) of every array reachable from obj through the
    dataclasses and tuples of a run plan, other than the model and the
    search it was built from."""
    if isinstance(obj, np.ndarray):
        return [(path, obj)]
    if isinstance(obj, tuple):
        return [a for i, o in enumerate(obj)
                for a in _plan_arrays(o, f"{path}[{i}]")]
    if dataclasses.is_dataclass(obj):
        return [a for f in dataclasses.fields(obj)
                if f.name not in ("model", "search")
                for a in _plan_arrays(getattr(obj, f.name),
                                      f"{path}.{f.name}")]
    return []


def test_run_plan_arrays_are_read_only():
    """One plan serves any number of runs, so no run may write into it:
    every array it holds is read-only, down to each Block's position
    table, w_next and epilogue arrays, and so is the window its search
    holds. Each one-layer block's w_next is C-ordered, the layout the
    node-term products read fastest."""
    plan = engine.build_plan(random_model(9, layer_dims=(5, 7, 6)))
    arrays = dict(_plan_arrays(plan))
    for b in ["layered[0]", "layered[1]", "layered[2]", "wavefront[0]"]:
        assert {f"plan.{b}.table", f"plan.{b}.ep.bias"} <= set(arrays), b
    assert {"plan.layered[0].w_next", "plan.layered[1].w_next",
            "plan.wavefront[0].w_next", "plan.wavefront[0].ep.mult",
            "plan.wavefront[0].ep.shift", "plan.wavefront[0].ep.half",
            "plan.wavefront[0].ep.odd", "plan.input_terms",
            "plan.fc_cells"} <= set(arrays)
    arrays.update({"plan.search.window[0]": plan.search.window[0],
                   "plan.search.window[1]": plan.search.window[1]})
    assert [p for p, a in arrays.items() if a.flags.writeable] == []
    assert plan.input_terms.dtype == np.int32
    assert all(b.w_next.flags.c_contiguous for b in plan.layered[:-1])


def test_wavefront_weights_built_with_the_plan(small_stream, monkeypatch):
    """The wavefront's block-diagonal weights are built once, with the
    plan; the runs on it build none."""
    real, calls = engine._block_diag, []
    monkeypatch.setattr(engine, "_block_diag",
                        lambda blocks: calls.append(1) or real(blocks))
    plan = engine.build_plan(random_model(9))
    assert len(calls) == 1
    calls.clear()
    for _ in range(2):
        engine.run_stream(plan, small_stream, levels=True)
    assert calls == []


def test_default_schedule_builds_no_levels(small_model, small_stream,
                                           tmp_path, monkeypatch):
    """infer and bench run the default schedule, and sequential picks it
    even with levels: none builds the dependency levels. That run equals
    the default bit for bit, with as many eq7_block calls."""
    levels, calls = [], []
    real_levels, real_kernel = (graph_builder.dependency_levels,
                                engine.eq7_block)
    monkeypatch.setattr(graph_builder, "dependency_levels",
                        lambda adj: levels.append(1) or real_levels(adj))
    monkeypatch.setattr(engine, "eq7_block",
                        lambda *a: calls.append(1) or real_kernel(*a))
    model_path, stream_path = tmp_path / "m.json", tmp_path / "s.txt"
    save_model(small_model, str(model_path))
    stream_path.write_text(event_io.write_text_stream(small_stream))
    for command in ("infer", "bench"):
        assert main([command, str(model_path), str(stream_path)]) == 0
    plan = engine.build_plan(small_model)
    runs = []
    for kw in ({}, {"sequential": True, "levels": True}):
        calls.clear()
        runs.append((engine.run_stream(plan, small_stream, **kw),
                     len(calls)))
    assert levels == []
    (default, n_default), (seq, n_seq) = runs
    assert n_seq == n_default > len(small_model.layers)
    for a, b in zip(default.feats, seq.feats):
        assert np.array_equal(a, b)
    assert np.array_equal(default.logits, seq.logits)


@pytest.mark.parametrize("shape", ["prism", "cylinder"])
def test_build_adjacency_from_plan_model_or_search(shape, small_stream,
                                                   monkeypatch):
    """A plan, its model and their search give the same Adjacency, field
    for field, and one window: the search builds its offsets once, for
    the plan and every build."""
    real, calls = graph_builder.window_offsets, []
    monkeypatch.setattr(graph_builder, "window_offsets",
                        lambda *a: calls.append(1) or real(*a))
    model = random_model(9)
    model.search = dataclasses.replace(model.search, shape=shape)
    plan = engine.build_plan(model)
    adjs = [engine.build_adjacency(small_stream, source)
            for source in (plan, model, model.search)]
    assert len(calls) == 1
    assert adjs[0].deg.sum() > 0
    for adj in adjs[1:]:
        for f in dataclasses.fields(adj):
            a, b = getattr(adj, f.name), getattr(adjs[0], f.name)
            assert np.asarray(a).dtype == np.asarray(b).dtype, f.name
            assert np.array_equal(a, b), f.name


def test_schedules_reject_an_adjacency_of_another_window(small_stream):
    """An adjacency built with r_s = 4 for an r_s = 3 model: its window
    slots index no table of the run plan, so every schedule refuses it.
    The static forward reads its offsets from the adjacency's window, so
    it computes what the schedules compute for the same weights at r_s = 4.
    """
    model = random_model(9)
    assert model.search.r_s == 3
    wide = random_model(9, search=dataclasses.replace(model.search, r_s=4))
    adj = engine.build_adjacency(small_stream, wide)
    edge = adj.nbr_o[np.arange(adj.d_max) < adj.deg[:, None]]
    assert (np.abs(adj.win_dx[edge]) == 4).any()
    sta = static_oracle.forward_eq7_int8(small_stream, adj, model)
    for kw in SCHEDULES:
        with pytest.raises(DimMismatch, match="window"):
            engine.run_stream(model, small_stream, adjacency=adj, **kw)
        res = engine.run_stream(wide, small_stream, adjacency=adj, **kw)
        for a, b in zip(res.feats, sta.feats):
            assert np.array_equal(a, b), kw
        assert np.array_equal(res.logits, sta.logits), kw


def _burst_then_sparse_stream():
    """A slow dot (rows saturated at d_max = 4) followed by sparse uniform
    events (rows of degree 0 and low degree), on a 40x32 sensor."""
    dot = event_io.gen_synthetic(
        "moving_dot", {"width": 40, "height": 32, "count": 150,
                       "duration_us": 600, "velocity": (0.02, 0.01),
                       "dot_radius": 1.5}, seed=3)
    uni = event_io.gen_synthetic(
        "uniform_random", {"width": 40, "height": 32, "count": 250,
                           "duration_us": 5_000}, seed=4)
    return event_io.EventStream(
        40, 32, np.r_[dot.x, uni.x], np.r_[dot.y, uni.y],
        np.r_[dot.t, uni.t + dot.t[-1] + 1], np.r_[dot.p, uni.p])


@pytest.mark.parametrize("n_layers", [1, 2, 3, 4])
def test_schedules_agree_on_random_models(n_layers, monkeypatch):
    """wavefront == default (layer-sequential) == static oracle, with
    CHUNK_CELLS cut so that a wavefront chunk holds 3 rows and a level
    spans several chunks, on a stream with rows of degree 0 and d_max."""
    rng = np.random.default_rng(40 + n_layers)
    dims = tuple(int(d) for d in rng.integers(3, 17, size=n_layers))
    params = SearchParams(r_s=2, r_t=400, d_max=4, queue_depth=4)
    model = random_model(50 + n_layers, width=40, height=32,
                         layer_dims=dims, search=params)
    stream = _burst_then_sparse_stream()
    adj = engine.build_adjacency(stream, model)
    assert np.any(adj.deg == 0) and np.any(adj.deg == params.d_max)
    monkeypatch.setattr(engine, "CHUNK_CELLS",
                        3 * params.d_max * sum(dims))
    # level 0 holds the rows of degree 0; a later level of several
    # chunks holds rows at d_max
    assert np.all(adj.deg[adj.levels[0]] == 0)
    assert any(len(g) > 3 and np.any(adj.deg[g] == params.d_max)
               for g in adj.levels[1:])
    plan = engine.build_plan(model)
    runs = [engine.run_stream(plan, stream, adjacency=adj, **kw)
            for kw in ({"levels": True}, {})]
    runs.append(static_oracle.forward_eq7_int8(stream, adj, model))
    par = runs[0]
    assert [f.shape[1] for f in par.feats] == list(dims)
    assert all(f.flags.c_contiguous and f.dtype == np.uint8
               for f in par.feats)
    assert 0 < np.mean(par.feats[-1] > 0) < 1
    for res in runs[1:]:
        for a, b in zip(par.feats, res.feats):
            assert np.array_equal(a, b)
        assert np.array_equal(par.logits, res.logits)
        assert np.array_equal(par.readout, res.readout)


class TestSentinelKernel:
    """Slots past an event's degree point at the sentinel rows: the last
    row of the node terms (MSG_FLOOR) and of the position table (0)."""

    def test_sentinel_table_row_past_uint8(self):
        """r_s = 11: a window of K = 265 slots, so the sentinel row 265
        needs uint16 (a uint8 index would wrap to row 9)."""
        params = SearchParams(r_s=11, r_t=5_000, d_max=8, queue_depth=2)
        model = random_model(6, width=40, height=36, layer_dims=(6, 5),
                             search=params)
        stream = event_io.gen_synthetic(
            "uniform_random", {"width": 40, "height": 36, "count": 120,
                               "duration_us": 1_000}, seed=9)
        adj = engine.build_adjacency(stream, model)
        k = len(adj.win_dx)
        assert k == 265 and adj.nbr_o.dtype == np.uint16
        nbr, pos = engine.slot_major(adj)
        pad = np.arange(params.d_max)[:, None] >= adj.deg
        assert pad.any() and (~pad).any() and np.any(adj.deg == 0)
        assert nbr.shape == pos.shape == (params.d_max, len(stream))
        assert pos.dtype == np.uint16
        assert np.all(pos[pad] == k) and pos[~pad].max() < k
        assert np.all(nbr[pad] == len(stream))
        _, preds = _per_event_run(model, stream)
        for kw in SCHEDULES:
            res = engine.run_stream(model, stream, adjacency=adj, **kw)
            _assert_feats_equal(res.feats, preds)
            assert np.array_equal(res.logits,
                                  np.stack([p.logits for p in preds]))

    def test_whole_graph_chunk_without_edges(self):
        """Every row of the first whole-graph chunk has degree 0, so its
        gather takes D = 0 slots."""
        model = random_model(7, layer_dims=(32, 32))
        rows = engine.CHUNK_CELLS // (model.search.d_max * 32)
        base = event_io.gen_synthetic(
            "uniform_random", {"width": 64, "height": 48,
                               "count": 2 * rows, "duration_us": 2_000},
            seed=10)
        step = model.search.r_t + 1  # one event per time window: no edges
        t = base.t.copy()
        t[:rows] = np.arange(rows) * step
        t[rows:] += rows * step
        stream = event_io.EventStream(64, 48, base.x, base.y, t, base.p)
        adj = engine.build_adjacency(stream, model)
        assert adj.deg[:rows].max() == 0 and adj.deg[rows:].max() > 0
        _, preds = _per_event_run(model, stream)
        for kw in SCHEDULES:
            res = engine.run_stream(model, stream, adjacency=adj, **kw)
            _assert_feats_equal(res.feats, preds)
            assert np.array_equal(res.logits,
                                  np.stack([p.logits for p in preds]))

    @pytest.mark.parametrize("wave", [True, False])
    def test_group_mixing_empty_and_saturated_rows(self, wave):
        """One batch holds rows of degree 0 beside rows at d_max: the
        wavefront's last group, or a one-layer block's last slice chunk."""
        model = calibration_model()
        dot = event_io.gen_synthetic(
            "moving_dot", {"width": 120, "height": 100, "count": 250,
                           "duration_us": 1_250, "velocity": (1.0, 0.0),
                           "dot_radius": 1.5}, seed=1)
        # isolated events after the dot: nothing reads them
        k = 5
        tail_t = int(dot.t[-1]) + np.arange(1, k + 1) * (
            model.search.r_t + 1)
        stream = event_io.EventStream(
            120, 100, np.r_[dot.x, np.full(k, 60)],
            np.r_[dot.y, np.full(k, 50)], np.r_[dot.t, tail_t],
            np.r_[dot.p, np.ones(k, dtype=dot.p.dtype)])
        adj = engine.build_adjacency(stream, model)
        tail = np.arange(len(dot), len(stream))
        assert np.all(adj.deg[tail] == 0)
        groups = [g for g in (np.setdiff1d(g, tail) for g in adj.levels)
                  if len(g)]
        groups[-1] = np.r_[groups[-1], tail]
        assert np.any(adj.deg[groups[-1]] == model.search.d_max)
        for lp in model.layers:
            size = engine.CHUNK_CELLS // (model.search.d_max * lp.c_out)
            last = slice((len(stream) - 1) // size * size, len(stream))
            assert np.any(adj.deg[last] == model.search.d_max)
        adj.levels = groups
        plan = engine.build_plan(model)
        feats = engine.run_layers(plan, stream.p, adj,
                                  plan.wavefront if wave else plan.layered)
        _, preds = _per_event_run(model, stream)
        _assert_feats_equal(feats, preds)


class TestInvariantsOnStream:
    def test_result_dtypes(self, small_stream):
        """INT8 paths keep uint8 layer outputs, int64 logits and classes;
        the FP forward float64 outputs, logits and readout. So do an empty
        stream, on which the static forwards still run one empty batch
        that types their outputs."""
        for count in [0, 600]:
            model = random_model(seed=9)
            stream = event_io.EventStream(64, 48, *(
                c[:count] for c in (small_stream.x, small_stream.y,
                                    small_stream.t, small_stream.p)))
            adj = engine.build_adjacency(stream, model)
            runs = [engine.run_stream(model, stream, adjacency=adj, **kw)
                    for kw in SCHEDULES]
            runs.append(static_oracle.forward_eq7_int8(stream, adj, model))
            fp = random_fp_model(9, layer_dims=(8,) * 4)
            runs.append(static_oracle.forward_eq7_fp(stream, adj, fp))
            cells = model.n_cells_x * model.n_cells_y * model.c_last
            for res in runs:
                feat_type = np.float64 if res is runs[-1] else np.uint8
                assert [(f.shape, f.dtype) for f in res.feats] == [
                    ((count, lp.c_out), feat_type) for lp in model.layers]
                assert res.logits.shape == (count, len(model.classes))
                assert res.logits.dtype == (np.float64 if res is runs[-1]
                                            else np.int64)
                assert res.cls.shape == (count,)
                assert res.cls.dtype == np.int64
                assert res.readout.shape == (cells,)
                assert res.readout.dtype == feat_type
                assert res.macs.shape == (count,)
                assert res.macs.dtype == np.int64

    @pytest.mark.parametrize("p", [-1, 2])
    def test_polarity_without_encoding_rejected(self, p):
        """No stream holds a polarity outside {0, 1}, so the batch path's
        encoding lookup can neither wrap -1 to polarity 1 nor read past
        it: a hand-built stream's constructor rejects one."""
        with pytest.raises(event_io.OutOfBounds,
                           match=rf"^line 2: polarity {p} not in"):
            event_io.EventStream(64, 48, [1, 2], [1, 1], [0, 10], [0, p])

    def test_baq_range(self, small_model, small_stream):
        res = engine.run_stream(small_model, small_stream)
        for f in res.feats:
            assert f.min() >= 0 and f.max() <= 127

    def test_readout_monotone(self, small_model, small_stream):
        state = EngineState.new(small_model, len(small_stream))
        prev = state.readout.cells.copy()
        for ev in small_stream.events:
            engine.process_event(state, small_model, ev)
            assert np.all(state.readout.cells >= prev)
            prev = state.readout.cells.copy()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_max_requant_commutes(self, seed):
        rng = np.random.default_rng(seed)
        layer = _layer(np.zeros((4, 6), dtype=np.int64),
                       bias=rng.integers(-100, 100, size=4),
                       requant=(int(rng.integers(2**29, 2**31)),
                                int(rng.integers(30, 38))))
        msgs = [rng.integers(-10**6, 10**6, size=4) for _ in range(5)]
        lhs = baq(aggregate_max(msgs, 4), layer)
        rhs = np.max([baq(np.asarray(m), layer) for m in msgs], axis=0)
        assert np.array_equal(lhs, rhs)


class TestCountOps:
    def test_deg_zero_fixed_term(self, small_model):
        ops = count_ops(small_model, np.zeros(10, dtype=np.int64))
        fixed = (sum(2 * l.c_out for l in small_model.layers)
                 + small_model.c_last
                 + 2 * small_model.fc.in_dim * small_model.fc.out_dim)
        assert ops.dtype == np.int64 and ops.shape == (10,)
        assert np.all(ops == fixed)

    def test_formula_single_layer(self):
        # C_in=1, C_out=4, deg=2: conv MACs = 2 * 3 * 4 = 24 -> 48 ops
        m = random_model(0, width=16, height=16, layer_dims=(4,))
        ops = count_ops(m, np.array([2]))
        conv_ops = int(ops[0]) - (
            2 * 4 + 4 + 2 * m.fc.in_dim * m.fc.out_dim)
        assert conv_ops == 48

    def test_matches_instrumentation(self, small_model, small_stream):
        res = engine.run_stream(small_model, small_stream)
        ops = count_ops(small_model, res.adjacency.deg)
        fixed = (sum(2 * l.c_out for l in small_model.layers)
                 + small_model.c_last
                 + 2 * small_model.fc.in_dim * small_model.fc.out_dim)
        assert np.array_equal(ops, 2 * res.macs + fixed)
