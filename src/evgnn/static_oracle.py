"""Reference GNN execution over a whole, fully built directed event graph.

The graph is the stream plus its Adjacency, as engine.build_adjacency
builds it for the event-driven engine (retention, canonical scan order,
d_max truncation), so comparisons against the engine isolate the
execution schedule and the layer arithmetic, not the topology.

Both forwards run the static schedule (each layer over the whole graph,
then the next) through one gather-form layer loop that computes eq 7
unfactored: each message is W . (x_j, q|dx|, q|dy|), where each edge's
|dx|, |dy| is looked up in the adjacency's window by its window slot and
quantized edge by edge, one float64 matmul per batch with the layer's
full weights, then the max over neighbours, the bias and the activation.
Each takes (stream, adjacency, model) and returns the engine's RunResult:
    eq7_fp   -- inputs +-1.0, raw pixel offsets, ReLU; its activations set
                the quantizer's scales
    eq7_int8 -- the encoded inputs, the layer's position requant (RNE,
                clipped at 32767) and BAQ, with uint8 outputs. The float64
                sums are exact, because the model loader proves every
                |sum| < 2**31, so it is bit-exact against the engine's
                factored eq7_block while using none of that factoring
                (node terms, per-slot position table, slot-major rows)
                nor its epilogue (baq_batch requantizes through
                rne_mulshift): verify's static leg checks it.
"""

from __future__ import annotations

import numpy as np

from . import perf_model
from .engine import RunResult, fc_by_cell, readout_trace, rne_mulshift
from .event_io import EventStream
from .graph_builder import Adjacency
from .model import FPModel, QuantizedModel

BATCH_ROWS = 4096  # events per step; bounds the [B, D, C_in+2] gather


def baq_batch(v: np.ndarray, requant: tuple[int, int]) -> np.ndarray:
    """BAQ of biased aggregates: ReLU, requantize (RNE), clamp to [0, 127]."""
    return np.minimum(rne_mulshift(np.maximum(v, 0).astype(np.int64),
                                   *requant), 127)


def _gather_forward(stream: EventStream, adj: Adjacency, model, x: np.ndarray,
                    position, activation, fc_w: np.ndarray,
                    fc_b: np.ndarray) -> RunResult:
    """Every layer of model over the whole graph, eq 7 in gather form.

    x is the input feature of every event, [N]. Per batch of events, the
    loop looks up the |dx|, |dy| of every neighbour slot in the window by
    its window slot (nbr_o), gathers (x_j, position(layer, |dx|),
    position(layer, |dy|)), runs one float64 matmul with the layer's
    weights, sets the slots past the degree to -inf, takes the max, applies
    the empty identity (0 for "zero"; -inf stays for "neg_inf") and hands
    the sum with the bias to activation(v, layer). Its result is the
    layer's output and the next layer's input.
    """
    n = len(stream)
    # |dx|, |dy| of each window slot, and of slot K past the degree
    window = np.abs(np.stack([np.r_[adj.win_dx, 0], np.r_[adj.win_dy, 0]],
                             axis=1))
    x = x[:, None]
    feats = []
    for layer in model.layers:
        # C-ordered: BLAS takes its threaded path for the transposed
        # (F-ordered) operand, and waking its threads costs milliseconds
        w = np.ascontiguousarray(np.asarray(layer.weights, np.float64).T)
        outs = []
        # an empty stream still runs one empty batch, which types its output
        for s in range(0, max(n, 1), BATCH_ROWS):
            rows = slice(s, s + BATCH_ROWS)
            d = int(adj.deg[rows].max(initial=0))
            ok = np.arange(d) < adj.deg[rows, None]
            offs = window[adj.nbr_o[rows, :d]]
            inp = np.concatenate([x[adj.nbr_n[rows, :d]],
                                  position(layer, offs)],
                                 axis=2, dtype=np.float64)
            b = len(inp)
            msgs = (inp.reshape(b * d, inp.shape[2]) @ w
                    ).reshape(b, d, layer.c_out)
            msgs[~ok] = -np.inf
            agg = msgs.max(axis=1, initial=-np.inf)
            if model.empty_aggregation == "zero":
                agg[~ok.any(axis=1)] = 0.0
            outs.append(activation(agg + layer.bias, layer))
        x = np.concatenate(outs)
        feats.append(x)
    logits, cls, readout = readout_trace(model, stream, x,
                                         fc_by_cell(model, fc_w), fc_b)
    return RunResult(adj, feats, logits, cls, readout,
                     perf_model.conv_macs(model, adj.deg))


def encoded_inputs(stream: EventStream, model: QuantizedModel) -> np.ndarray:
    """The model's input encoding of every event's polarity, int64[N]."""
    feats0 = np.empty(len(stream), dtype=np.int64)
    for p, v in model.input_encoding.items():
        feats0[stream.p == p] = v
    return feats0


def forward_eq7_fp(stream: EventStream, adj: Adjacency,
                   model: FPModel) -> RunResult:
    """Float eq 7: relu(max_j W . (x_j, |dx|, |dy|) + b), x0 = +-1.0."""
    return _gather_forward(
        stream, adj, model, np.where(stream.p != 0, 1.0, -1.0),
        lambda layer, offs: offs,
        lambda v, layer: np.maximum(v, 0.0),
        model.fc_weights, model.fc_bias)


def forward_eq7_int8(stream: EventStream, adj: Adjacency,
                     model: QuantizedModel) -> RunResult:
    """INT8 eq 7: BAQ(max_j W . (x_j, q|dx|, q|dy|) + b), uint8 outputs."""
    def position(layer, offs):
        return np.minimum(rne_mulshift(offs.astype(np.int64),
                                       *layer.pos_requant), 32767)

    return _gather_forward(
        stream, adj, model, encoded_inputs(stream, model), position,
        lambda v, layer: baq_batch(v, layer.requant).astype(np.uint8),
        model.fc.weights, model.fc.bias)
