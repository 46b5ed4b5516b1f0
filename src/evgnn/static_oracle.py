"""Reference GNN execution over a whole, fully built directed event graph.

The graph is the stream plus its Adjacency, as
graph_builder.build_adjacency builds it for the engine (retention,
canonical scan order, d_max truncation), so comparisons against the
engine isolate the schedule and the arithmetic, not the topology.

Both forwards run the static schedule (each layer over the whole graph,
then the next) through one gather-form layer loop that computes eq 7
unfactored: each message is W . (x_j, q|dx|, q|dy|), one float64 matmul
row per edge with the layer's full weights, then the max over
neighbours, the bias and the activation. Each layer quantizes the |dx|,
|dy| of every window slot once, and an edge takes its slot's. Batches are
laid out slot-first, [D, B, C], with their own mask of the slots past an
event's degree, so the max runs over the contiguous axis 0. The readout
takes every event's FC product in full, cell by cell. Each forward takes
(stream, adjacency, model) and returns the engine's RunResult, which
with rne_mulshift is all it takes from the engine:
    eq7_fp   -- inputs +-1.0, raw pixel offsets, ReLU; its activations set
                the quantizer's scales
    eq7_int8 -- inputs +-127, the layer's position requant (RNE, clipped
                at 32767) and BAQ, with uint8 outputs. Its float64 sums
                are exact, as the loader proves every |sum| < 2**31, so it
                is bit-exact against the engine's eq7_block and
                readout_trace while using none of their factoring (node
                terms, position table, sentinel rows; lifted running max,
                FC increments) nor their epilogue (baq_batch requantizes
                with its own operations): verify's static leg checks both.
"""

from __future__ import annotations

import numpy as np

from . import perf_model
from .engine import RunResult, rne_mulshift
from .event_io import EventStream
from .graph_builder import Adjacency
from .model import POLARITY_INPUT, FPModel, QuantizedModel

BATCH_ROWS = 4096  # events per step; bounds the [D, B, C_in+2] gather


def baq_batch(v: np.ndarray, requant: tuple[int, int]) -> np.ndarray:
    """BAQ of biased aggregates: ReLU, requantize (RNE), clamp to [0, 127].

    v holds exact integers; one int64 copy of it is worked in place: ReLU,
    * M, the round-half-even carry ((q >> s) & 1) + 2**(s-1) - 1, >> s and
    the clamp. Exact, as the loader keeps v and M below 2**31.
    """
    mult, shift = requant
    q = v.astype(np.int64)
    np.maximum(q, 0, out=q)
    q *= mult
    if shift:
        carry = q >> shift
        carry &= 1
        carry += (1 << (shift - 1)) - 1
        q += carry
        q >>= shift
    np.minimum(q, 127, out=q)
    return q


def _readout(model, stream: EventStream, last: np.ndarray, fc_w: np.ndarray,
             fc_b: np.ndarray):
    """(logits, cls, flattened readout) of the per-cell max readout.

    Per cell, grouped by one stable argsort: the state after each event is
    the running max of the cell's outputs, whose FC product W_fc[:, cell]
    . state is taken in full. The logits are fc_b plus the running sum of
    each product less its cell's previous one: exact in int64, each being
    a partial sum of a logit, which the loader proves below 2**31.
    """
    cells = model.n_cells_x * model.n_cells_y
    cell = stream.y // model.patch * model.n_cells_x + stream.x // model.patch
    order = np.argsort(cell, kind="stable")
    w = fc_w.reshape(len(fc_b), cells, -1)
    step = np.zeros((len(last), len(fc_b)), np.result_type(fc_w, last))
    readout = np.zeros((cells, last.shape[1]), last.dtype)
    for rows in np.split(order, np.flatnonzero(np.diff(cell[order])) + 1):
        if len(rows):  # an empty stream splits into one empty group
            k = cell[rows[0]]
            state = np.maximum.accumulate(last[rows], axis=0)
            step[rows] = np.diff(state @ w[:, k].T, axis=0, prepend=0)
            readout[k] = state[-1]
    logits = fc_b + np.cumsum(step, axis=0)
    return logits, np.argmax(logits, axis=1), readout.reshape(-1)


def _gather_forward(stream: EventStream, adj: Adjacency, model, x: np.ndarray,
                    position, activation, fc_w: np.ndarray,
                    fc_b: np.ndarray) -> RunResult:
    """Every layer of model over the whole graph, eq 7 in gather form.

    x is the input feature of every event, [N]. The batches of events,
    each with its neighbour rows and window slots slot-first, [D, B], the
    mask of the slots past each event's degree and its rows of degree 0,
    are built once and serve every layer. Per layer, position(layer,
    offsets) quantizes the |dx|, |dy| of each window slot once; per batch,
    the loop gathers (x_j, the position terms of slot o_j) into
    [D, B, C_in+2], runs one float64 matmul with the layer's weights, sets
    the masked slots to -inf, takes the max over the slot axis, sets the
    rows of degree 0 to the empty identity 0 and hands the sum with the
    bias to activation(v, layer). Its result is the layer's output and
    the next layer's input.
    """
    n = len(stream)
    # |dx|, |dy| of each window slot, and of slot K past the degree
    window = np.abs(np.stack([np.r_[adj.win_dx, 0], np.r_[adj.win_dy, 0]],
                             axis=1))
    batches = []
    # an empty stream still runs one empty batch, which types its output
    for s in range(0, max(n, 1), BATCH_ROWS):
        rows = slice(s, s + BATCH_ROWS)
        deg = adj.deg[rows]
        d = int(deg.max(initial=0))
        # intp, C-ordered: np.take casts no index and gathers slot-first
        nbr, slot = (a[rows, :d].T.astype(np.intp, order="C")
                     for a in (adj.nbr_n, adj.nbr_o))
        batches.append((nbr, slot, np.arange(d)[:, None] >= deg, deg == 0))
    x = x[:, None]
    feats = []
    for layer in model.layers:
        # C-ordered: BLAS takes its threaded path for the transposed
        # (F-ordered) operand, and waking its threads costs milliseconds
        w = np.ascontiguousarray(np.asarray(layer.weights, np.float64).T)
        offs = np.asarray(position(layer, window), dtype=np.float64)
        outs = []
        for nbr, slot, pad, empty in batches:
            inp = np.empty(nbr.shape + (len(w),))
            inp[..., :-2] = np.take(x, nbr, axis=0)
            inp[..., -2:] = np.take(offs, slot, axis=0)
            msgs = inp.reshape(-1, len(w)) @ w
            msgs = msgs.reshape(nbr.shape + (layer.c_out,))
            msgs[pad] = -np.inf
            agg = msgs.max(axis=0, initial=-np.inf)
            agg[empty] = 0.0
            outs.append(activation(agg + layer.bias, layer))
        x = np.concatenate(outs)
        feats.append(x)
    return RunResult(adj, feats, *_readout(model, stream, x, fc_w, fc_b),
                     perf_model.conv_macs(model, adj.deg))


def forward_eq7_fp(stream: EventStream, adj: Adjacency,
                   model: FPModel) -> RunResult:
    """Float eq 7: relu(max_j W . (x_j, |dx|, |dy|) + b), x0 = +-1.0."""
    return _gather_forward(
        stream, adj, model,
        np.where(stream.p == 1, 1.0, -1.0),
        lambda _layer, offs: offs,
        lambda v, _layer: np.maximum(v, 0.0),
        model.fc_weights, model.fc_bias)


def forward_eq7_int8(stream: EventStream, adj: Adjacency,
                     model: QuantizedModel) -> RunResult:
    """INT8 eq 7: BAQ(max_j W . (x_j, q|dx|, q|dy|) + b), uint8 outputs."""
    def position(layer, offs):
        return np.minimum(rne_mulshift(offs.astype(np.int64),
                                       *layer.pos_requant), 32767)

    return _gather_forward(
        stream, adj, model, np.array(POLARITY_INPUT)[stream.p], position,
        lambda v, layer: baq_batch(v, layer.requant).astype(np.uint8),
        model.fc.weights, model.fc.bias)
