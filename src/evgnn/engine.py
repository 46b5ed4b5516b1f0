"""Event-driven integer GNN inference.

Two granularities are provided:

    - process_event: one Event at a time against explicit EngineState,
      built from the per-op primitives below (message_matvec,
      aggregate_max, baq, ReadoutState.update, fc_forward). This scalar
      path is the independent oracle of the batch path.
    - run_stream: whole-stream execution through one factored INT8
      kernel, eq7_block, reading the stream's x, y, t, p columns. It
      splits each message W . (x_j, q|dx|, q|dy|) into a per-node term
      W_x . x_j and a per-layer table with one row per slot of the
      search window, so an edge, held as its neighbour and its window
      slot (Adjacency.nbr_n, nbr_o), costs one add per channel and a max.
      Both are held slot-major, [d_max, N], and a slot past an event's
      degree points at a sentinel row appended to the node terms
      (MSG_FLOOR) and to the table (0, row K): a batch of B events is one
      gather into a [D, B, C] tensor, one max over the slot axis with no
      mask, and one BAQ epilogue (Epilogue, baq_block) on int64. The
      kernel runs a Block of layers whose output channels sit side by
      side, C in all; run_layers is one loop over a plan's blocks. It
      runs two batch schedules. The layer-sequential one, the default of
      infer, bench and verify, runs a block per layer over the whole graph
      in contiguous row slices. The layer-parallel wavefront of the
      paper's idea (iii) runs one block of every layer over the dependency
      levels one by one: each layer of an event reads only stored
      features of past neighbours, so all L layers of a level run at once.
      The wavefront is kept to verify the default. Both share one
      incremental readout / FC, readout_trace: one loop-free pass over
      every readout cell, whose running max is one accumulate along the
      event axis of a channel-major [C_last, N] array of the events
      sorted by cell and lifted apart, and whose FC step is computed only
      for the events that raise their cell. Both return one RunResult
      whose feats hold one uint8 [N, C_out] array per layer (BAQ clamps
      every output to [0, 127]). The static forwards of static_oracle
      return it too; they compute each message unfactored, so verify
      checks this factoring against them.

What a run reads of the model alone (the window, W_x, the blocks, the
input encoding, the FC weights per readout cell) is one immutable
RunPlan, built once per (model, search) by build_plan; a command builds
one and runs all its streams and schedules on it.

All INT8 arithmetic is exact. The node terms are float64 products, which
hold every partial sum exactly because the model loader proves that each
stays below 2**31; requantization rounds to nearest even, in int64,
where v * M + 2**61 stays below 2**63.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import perf_model
from .event_io import Event, EventStream, checked_polarity
from .graph_builder import (Adjacency, EventQueueGrid, SearchParams,
                            replay_build, search_neighbors, window_offsets)
from .model import ACC_LIMIT, LayerParams, ModelHeader, QuantizedModel

NEG_IDENTITY = np.int64(-(2**62))  # "-inf" empty-aggregation identity
MSG_FLOOR = np.int32(-(2**31))  # batch path's "-inf": below every message
# Message cells (rows * D * C) per eq7_block call; bounds the batch path's
# working memory.
CHUNK_CELLS = 1 << 16


class AccOverflow(ArithmeticError):
    pass


class LengthMismatch(ValueError):
    pass


class DimMismatch(ValueError):
    pass


class StoreError(RuntimeError):
    """Write-once violation or read of an unwritten feature slot."""


def rne_mulshift(v, mult: int, shift: int):
    """Round-to-nearest-even of (v * mult) / 2**shift for v >= 0.

    v is an int (exact at any size) or an int64 array, where v * mult must
    fit in int64; the model loader's range proof keeps v and mult < 2**31.
    """
    prod = v * int(mult)
    if shift == 0:
        return prod
    q = prod >> shift
    rem = prod & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    return q + ((rem > half) | ((rem == half) & (q & 1 == 1)))


def quantize_position(offset: int, pos_requant: tuple[int, int]) -> int:
    """Non-negative pixel offset into the layer's input activation scale."""
    return min(rne_mulshift(abs(int(offset)), *pos_requant), 32767)


def message_matvec(layer, x_j: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """acc[c] = sum_k weights[c][k] * (x_j, q_pos|dx|, q_pos|dy|)[k]."""
    x_j = np.asarray(x_j, dtype=np.int64)
    if x_j.shape != (layer.c_in,):
        raise DimMismatch(f"input length {x_j.shape} != ({layer.c_in},)")
    qdx = quantize_position(dx, layer.pos_requant)
    qdy = quantize_position(dy, layer.pos_requant)
    inp = np.concatenate([x_j, np.array([qdx, qdy], dtype=np.int64)])
    acc = layer.weights @ inp
    if np.any(np.abs(acc) >= ACC_LIMIT):
        raise AccOverflow("accumulator escaped 32-bit range")
    return acc


def aggregate_max(messages, width: int,
                  empty_aggregation: str = "zero") -> np.ndarray:
    """Elementwise max over messages; empty input yields the identity."""
    messages = list(messages)
    if not messages:
        if empty_aggregation == "zero":
            return np.zeros(width, dtype=np.int64)
        return np.full(width, NEG_IDENTITY, dtype=np.int64)
    out = np.asarray(messages[0], dtype=np.int64).copy()
    for m in messages[1:]:
        m = np.asarray(m, dtype=np.int64)
        if m.shape != out.shape:
            raise LengthMismatch("aggregated vectors differ in length")
        np.maximum(out, m, out=out)
    return out


def baq(acc: np.ndarray, layer) -> np.ndarray:
    """Bias add, ReLU, requantize (RNE), clamp to [0, 127]."""
    mult, shift = layer.requant
    v = np.maximum(np.asarray(acc, dtype=np.int64) + layer.bias, 0)
    out = np.array([rne_mulshift(int(x), mult, shift) for x in v],
                   dtype=np.int64)
    return np.minimum(out, 127)


@dataclass
class Prediction:
    logits: np.ndarray  # int32-range, len num_classes
    cls: int

    @staticmethod
    def from_logits(logits: np.ndarray) -> "Prediction":
        return Prediction(np.asarray(logits, dtype=np.int64),
                          int(np.argmax(logits)))  # argmax ties -> lowest


class FeatureStore:
    """Per-event, per-layer INT8 feature vectors (DRAM stand-in).

    Slot (n, l) is write-once; reading an unwritten slot is an error.
    Layer 0 is the encoded input polarity (length 1).
    """

    def __init__(self, num_events: int, layer_dims: list[int]):
        self.layer_dims = [1] + list(layer_dims)
        self._data = [np.zeros((num_events, d), dtype=np.int64)
                      for d in self.layer_dims]
        self._written = np.zeros((num_events, len(self.layer_dims)),
                                 dtype=bool)

    def write(self, n: int, l: int, feat: np.ndarray) -> None:
        if self._written[n, l]:
            raise StoreError(f"slot ({n},{l}) already written")
        feat = np.asarray(feat, dtype=np.int64)
        if feat.shape != (self.layer_dims[l],):
            raise StoreError(f"feature length mismatch at ({n},{l})")
        self._data[l][n] = feat
        self._written[n, l] = True

    def read(self, n: int, l: int) -> np.ndarray:
        if not self._written[n, l]:
            raise StoreError(f"slot ({n},{l}) not yet written")
        return self._data[l][n]


class ReadoutState:
    """Grid of per-patch elementwise-max cells over final-layer features."""

    def __init__(self, model: QuantizedModel):
        self.patch = model.patch
        self.n_cells_x = model.n_cells_x
        self.n_cells_y = model.n_cells_y
        self.c_last = model.c_last
        self.cells = np.zeros((self.n_cells_y, self.n_cells_x, self.c_last),
                              dtype=np.int64)
        self._width = model.width
        self._height = model.height

    def update(self, x: int, y: int, feat: np.ndarray) -> None:
        if not (0 <= x < self._width and 0 <= y < self._height):
            raise DimMismatch(f"({x},{y}) outside sensor")
        feat = np.asarray(feat, dtype=np.int64)
        if feat.shape != (self.c_last,):
            raise DimMismatch("readout feature length mismatch")
        cell = self.cells[y // self.patch, x // self.patch]
        np.maximum(cell, feat, out=cell)

    def flatten(self) -> np.ndarray:
        """Row-major by (gy, gx), channels contiguous per cell."""
        return self.cells.reshape(-1)


def fc_forward(readout: ReadoutState, fc) -> Prediction:
    flat = readout.flatten()
    if flat.shape != (fc.in_dim,):
        raise DimMismatch(f"readout size {flat.shape} != fc in_dim")
    return Prediction.from_logits(fc.weights @ flat + fc.bias)


@dataclass
class EngineState:
    grid: EventQueueGrid
    store: FeatureStore
    readout: ReadoutState
    next_n: int = 0

    @staticmethod
    def new(model: QuantizedModel, num_events: int) -> "EngineState":
        grid = EventQueueGrid(model.width, model.height,
                              model.search.queue_depth)
        store = FeatureStore(num_events, [l.c_out for l in model.layers])
        return EngineState(grid, store, ReadoutState(model))


def process_event(state: EngineState, model: QuantizedModel,
                  ev: Event) -> Prediction:
    """The scalar per-event oracle: one neighbor list feeds every layer.

    All layers read only stored (past) features, so the per-layer outputs
    are computed independently from the same neighbor list, and the order
    in which the layers run cannot change them.
    """
    if ev.n != state.next_n:
        raise StoreError(f"events must arrive in stream order (got {ev.n})")
    neighbors = search_neighbors(state.grid, ev, model.search)
    outs = []
    for level, layer in enumerate(model.layers):
        msgs = [message_matvec(layer, state.store.read(nb.n, level),
                               nb.dx, nb.dy) for nb in neighbors]
        agg = aggregate_max(msgs, layer.c_out, model.empty_aggregation)
        outs.append(baq(agg, layer))
    state.store.write(ev.n, 0,
                      np.array([model.encode_input(ev.p)], dtype=np.int64))
    for l, out in enumerate(outs, start=1):
        state.store.write(ev.n, l, out)
    state.readout.update(ev.x, ev.y, outs[-1])
    pred = fc_forward(state.readout, model.fc)
    state.grid.push_event(ev)
    state.next_n = ev.n + 1
    return pred


@dataclass
class RunResult:
    """Whole-stream outputs of a batch schedule or a static forward."""

    adjacency: Adjacency
    feats: list[np.ndarray]  # one [N, C_out_l] array per layer; uint8 on
                             # the INT8 paths, float64 from forward_eq7_fp
    logits: np.ndarray       # [N, classes]
    cls: np.ndarray          # int64[N]
    readout: np.ndarray      # flattened final readout state
    # conv MACs per event of the modelled hardware, deg * sum (C_in+2)*C_out;
    # the factored batch path executes fewer
    macs: np.ndarray


def build_adjacency(stream: EventStream, source) -> Adjacency:
    """Replay the queue grid over a whole stream.

    source is a RunPlan, whose window is reused, or a model or
    SearchParams, whose window is built here.
    """
    params = getattr(source, "search", source)
    if isinstance(source, RunPlan):
        win = source.win_dx, source.win_dy
    else:
        win = window_offsets(params.r_s, params.shape == "cylinder")
    return Adjacency(*replay_build(
        stream.x, stream.y, stream.t, stream.width, stream.height,
        params.queue_depth, params.r_t, params.d_max, *win),
        d_max=params.d_max)


def position_terms(layer: LayerParams, win_dx: np.ndarray,
                   win_dy: np.ndarray) -> np.ndarray:
    """int32[K+1, C_out]: row o is W_pos . (q|dx_o|, q|dy_o|) of window slot o.

    q is the layer's position requant of an absolute pixel offset; win_dx
    and win_dy are the search window's K offsets (Adjacency.win_dx/_dy).
    Row K, of offset (0, 0), is the sentinel row of 0 that the slots past
    an event's degree point at.
    """
    offs = np.zeros((len(win_dx) + 1, 2), dtype=np.int64)
    offs[:-1, 0], offs[:-1, 1] = np.abs(win_dx), np.abs(win_dy)
    q = np.minimum(rne_mulshift(offs, *layer.pos_requant), 32767)
    return (q @ layer.weights[:, -2:].T).astype(np.int32)


def node_terms(x: np.ndarray, w_x: np.ndarray) -> np.ndarray:
    """int32[B, C_out] W_x . x_j of every row of x (float64[B, C_in]).

    w_x is float64[C_in, C_out]. The product is exact and fits int32
    because the model loader proves every partial sum stays below 2**31.
    """
    return (x @ w_x).astype(np.int32)


def fc_by_cell(model: ModelHeader, fc_w: np.ndarray) -> np.ndarray:
    """[cells, C_last, classes]: the FC columns that read each readout cell.

    The readout flattens the grid row-major by (gy, gx) with the channels
    contiguous per cell, so cell k is columns k*C_last ... (k+1)*C_last-1.
    """
    return np.ascontiguousarray(fc_w.reshape(
        len(fc_w), model.n_cells_x * model.n_cells_y, model.c_last
    ).transpose(1, 2, 0))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Epilogue:
    """BAQ constants of a block of channels: bias, M, shift and rounding.

    Each field is a scalar that every channel shares or an array with one
    entry per channel. half is 2**(shift-1) - 1 and odd is 1, or both are
    0 at shift 0, so that (v + half + ((v >> shift) & odd)) >> shift rounds
    v / 2**shift to nearest even at any shift.
    """

    bias: np.ndarray  # int64[C]
    mult: int | np.ndarray
    shift: int | np.ndarray
    half: int | np.ndarray
    odd: int | np.ndarray

    @staticmethod
    def of(layers: list[LayerParams]) -> "Epilogue":
        """One layer's epilogue, with its scalar M and shift, or the
        per-channel epilogue of layers whose channels sit side by side."""
        bias = _frozen(np.concatenate([lp.bias for lp in layers])
                       .astype(np.int64))
        if len(layers) == 1:
            mult, shift = layers[0].requant
            return Epilogue(bias, mult, shift,
                            (1 << shift >> 1) - (shift > 0), int(shift > 0))
        reps = [lp.c_out for lp in layers]
        mult, shift = (_frozen(np.repeat(np.array(c, dtype=np.int64), reps))
                       for c in zip(*(lp.requant for lp in layers)))
        return Epilogue(bias, mult, shift,
                        _frozen((1 << shift >> 1) - (shift > 0)),
                        _frozen((shift > 0).astype(np.int64)))


def baq_block(v: np.ndarray, ep: Epilogue) -> np.ndarray:
    """BAQ of aggregates v (int64[B, C], changed in place and returned):
    bias, ReLU, requantize (RNE), clamp to [0, 127].

    Exact: the loader's range proof keeps every biased aggregate and M
    below 2**31, so v * M + 2**61 < 2**63 fits int64 at any shift <= 62.
    """
    v += ep.bias
    np.maximum(v, 0, out=v)
    v *= ep.mult
    if np.ndim(ep.shift) or ep.shift:
        r = v >> ep.shift
        r &= ep.odd
        r += ep.half
        v += r
        v >>= ep.shift
    np.minimum(v, 127, out=v)
    return v


@dataclass(frozen=True, eq=False)
class Block:
    """Layers of a model side by side, C output channels in all, as one
    eq7_block call runs them: one layer, or every layer.

    layers indexes the model's layers; off holds their output-column
    offsets, 0 ... C; table their position_terms over a window side by
    side, with the sentinel row K of 0; ep the block's Epilogue. w_next is
    the float64 input weights (RunPlan.w_x) of the layers its outputs
    feed, on a block diagonal, or None when they feed none; its rows read
    the block's first outputs.
    """

    layers: range
    off: tuple[int, ...]
    table: np.ndarray
    ep: Epilogue
    w_next: np.ndarray | None

    @staticmethod
    def of(layers: list[LayerParams], ids: range, pos: list[np.ndarray],
           w_next: np.ndarray | None) -> "Block":
        """The block of layers[i] for i in ids; pos[i] is layer i's
        position_terms over the window."""
        own = [layers[i] for i in ids]
        off = tuple(accumulate((lp.c_out for lp in own), initial=0))
        return Block(ids, off, _frozen(np.hstack([pos[i] for i in ids])),
                     Epilogue.of(own), w_next)


@dataclass(frozen=True, eq=False)
class RunPlan:
    """What every run of one model under one search reads, built once.

    win_dx, win_dy are the search window's offsets. w_x[l] is
    float64[C_in, C_out], the weights that multiply layer l's input
    features. layered holds one Block per layer, each with that layer's
    own Epilogue and feeding the next; wavefront one Block of every layer,
    with the per-channel Epilogue, whose outputs feed its own later layers.
    encoding maps a polarity to its encoded input; fc_cells is fc_by_cell
    of the FC weights. The arrays are read-only, so one plan serves any
    number of runs.
    """

    model: QuantizedModel
    search: SearchParams
    win_dx: np.ndarray
    win_dy: np.ndarray
    w_x: tuple[np.ndarray, ...]
    layered: tuple[Block, ...]
    wavefront: tuple[Block]
    encoding: np.ndarray  # float64[2], indexed by polarity 0 / 1
    fc_cells: np.ndarray


def _block_diag(blocks) -> np.ndarray:
    """float64 matrix with blocks on its diagonal and 0 elsewhere."""
    rows = sum(b.shape[0] for b in blocks)
    out = np.zeros((rows, sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def build_plan(model: QuantizedModel) -> RunPlan:
    """The run plan of model under its current search parameters."""
    search = model.search
    layers = model.layers
    win_dx, win_dy = window_offsets(search.r_s, search.shape == "cylinder")
    w_x = tuple(_frozen(np.ascontiguousarray(lp.weights[:, :-2].T,
                                             dtype=np.float64))
                for lp in layers)
    pos = [position_terms(lp, win_dx, win_dy) for lp in layers]
    layered = tuple(Block.of(layers, range(l, l + 1), pos, w)
                    for l, w in enumerate(w_x[1:] + (None,)))
    # w_x[1:] on the diagonal: one product of the outputs of every layer
    # but the last gives every layer's node terms but the first
    wavefront = Block.of(layers, range(len(layers)), pos,
                         _frozen(_block_diag(w_x[1:]))
                         if len(layers) > 1 else None)
    encoding = np.array([model.input_encoding[0], model.input_encoding[1]],
                        dtype=np.float64)
    return RunPlan(model, search, _frozen(win_dx), _frozen(win_dy), w_x,
                   layered, (wavefront,), _frozen(encoding),
                   _frozen(fc_by_cell(model, model.fc.weights)))


def eq7_block(terms: np.ndarray, table: np.ndarray, nbr: np.ndarray,
              pos: np.ndarray, empty: np.ndarray, ep: Epilogue,
              empty_aggregation: str) -> np.ndarray:
    """Eq-7 INT8 conv of a block of layers for a batch of B events, factored.

    The block's layers have their output channels side by side, C in all;
    a block of one layer is that layer. Channel c of event b is
    BAQ(max over slots j of (terms[nbr_jb, c] + table[pos_jb, c])), which
    equals BAQ(max_j W . (x_j, q|dx_bj|, q|dy_bj|) + bias) of the layer c
    belongs to exactly. nbr (neighbour rows) and pos (window slots, the
    table's rows) are slot-major [D, B]. terms holds each layer's W_x . x_j
    of every event plus a last sentinel row of MSG_FLOOR, int32[N+1, C];
    table holds each layer's position_terms, with its sentinel row of 0,
    row K. A slot at or past an event's degree points at both sentinels,
    so its message is exactly MSG_FLOOR. One gather of each builds one
    [D, B, C] tensor, one reduce over the slot axis takes the max and one
    baq_block with ep, the block's epilogue, requantizes it. empty marks
    the rows of degree 0, which aggregate to the empty identity: 0
    ("zero") or -inf ("neg_inf"). The loader's range proof puts every
    message, bias and their sum strictly inside int32, so MSG_FLOOR lies
    below every real message and MSG_FLOOR + bias < 0 maps to 0 exactly
    as -inf does. Returns int64[B, C], every value in [0, 127].
    """
    msgs = np.take(terms, nbr, axis=0)
    msgs += np.take(table, pos, axis=0)
    agg = np.maximum.reduce(msgs, axis=0, initial=MSG_FLOOR).astype(np.int64)
    if empty_aggregation == "zero":
        agg[empty] = 0
    return baq_block(agg, ep)


def _row_chunks(group, size: int):
    """group's rows in runs of at most size.

    A slice yields slices (views of the per-event arrays), an index array
    yields index arrays.
    """
    if isinstance(group, slice):
        return [slice(s, min(s + size, group.stop))
                for s in range(group.start, group.stop, size)]
    return [group[s:s + size] for s in range(0, len(group), size)]


def slot_major(adj: Adjacency) -> tuple[np.ndarray, np.ndarray]:
    """C-contiguous [d_max, N] neighbour rows and window slots.

    A slot at or past an event's degree holds the sentinels: row N of the
    node terms and row K of the position table, which nbr_o holds there
    already.
    """
    n = len(adj.deg)
    nbr = np.array(adj.nbr_n.T, order="C", dtype=np.promote_types(
        adj.nbr_n.dtype, np.min_scalar_type(n)))
    nbr[np.arange(adj.nbr_n.shape[1])[:, None] >= adj.deg] = n
    return nbr, np.ascontiguousarray(adj.nbr_o.T)


def run_layers(plan: RunPlan, x0: np.ndarray, adj: Adjacency,
               groups: list[np.ndarray],
               blocks: tuple[Block, ...]) -> list[np.ndarray]:
    """Run every INT8 layer over every event row, block by block.

    Each of blocks (the plan's layered or wavefront) runs in turn, one
    eq7_block call per chunk of at most CHUNK_CELLS message cells. After
    each chunk, one node_terms product of its outputs writes the terms
    they feed: the next block's (a block's own are dropped once it is
    done), or the block's own later-layer columns. A one-layer block reads
    only terms the block before it wrote in full, so it runs every row in
    contiguous slices (views of the per-event arrays). Only a block whose
    outputs feed its own later layers (the wavefront: layer l of an event
    reads only layer l-1 outputs of earlier groups) walks groups, index
    arrays of event rows (the dependency levels) whose events depend only
    on earlier groups, chunking each in turn; every other block ignores
    them. x0 is the encoded input of every event.
    The offsets come from the adjacency's window. Returns the per-layer
    outputs (uint8[N, C_out]).
    """
    if not (np.array_equal(adj.win_dx, plan.win_dx)
            and np.array_equal(adj.win_dy, plan.win_dy)):
        layers = plan.model.layers
        pos = [position_terms(lp, adj.win_dx, adj.win_dy) for lp in layers]
        blocks = tuple(Block.of(layers, b.layers, pos, b.w_next)
                       for b in blocks)
    n, d_max = adj.nbr_n.shape
    nbr, pos = slot_major(adj)
    empty = adj.deg == 0

    def new_terms(width):
        t = np.empty((n + 1, width), dtype=np.int32)
        t[n] = MSG_FLOOR
        return t

    terms = new_terms(blocks[0].off[-1])
    terms[:n, :blocks[0].off[1]] = node_terms(
        np.asarray(x0, dtype=np.float64)[:, None], plan.w_x[0])
    outs = []
    for blk in blocks:
        off, w = blk.off, blk.w_next
        # the terms the outputs feed: its own later layers' or the next's
        dest = (None if w is None else terms[:, off[1]:] if len(off) > 2
                else new_terms(w.shape[1]))
        feats = np.zeros((n, off[-1]), dtype=np.uint8)
        size = max(1, CHUNK_CELLS // (max(d_max, 1) * off[-1]))
        # only a block that feeds its own later layers walks the groups
        own = groups if len(off) > 2 else [slice(0, n)]
        for rows in (rows for group in own
                     for rows in _row_chunks(group, size)):
            d = int(adj.deg[rows].max())
            out = eq7_block(terms, blk.table, nbr[:d, rows], pos[:d, rows],
                            empty[rows], blk.ep,
                            plan.model.empty_aggregation)
            feats[rows] = out
            if dest is not None:  # w reads the first len(w) outputs
                dest[rows] = node_terms(out[:, :len(w)].astype(np.float64),
                                        w)
            # freed before the next gather: held across it, a chunk's
            # output raised dense_dot's peak RSS by 0.2 MB
            del out
        outs += [np.ascontiguousarray(feats[:, a:b])
                 for a, b in zip(off, off[1:])]
        terms = dest
    return outs


def lift_dtype(span: int, cells: int) -> type:
    """The integer type of readout_trace's lifted values: int32 while
    span * cells < 2**31, so every v + span * cell with v < span fits it,
    and int64 beyond."""
    return np.int32 if span * cells < 2**31 else np.int64


def readout_trace(model: ModelHeader, stream: EventStream, last: np.ndarray,
                  fc_cells: np.ndarray, fc_b: np.ndarray):
    """Per-event logits of the cumulative per-cell max readout.

    model supplies the readout grid (patch, n_cells_x, n_cells_y); last is
    the final-layer output of every event, [N, C_last], all >= 0 (uint8 on
    the INT8 paths, float64 from forward_eq7_fp); fc_cells is fc_by_cell
    of the FC weights. Every cell starts at 0 and each event raises its
    cell's running max by grow >= 0, so logits_i = fc_b + sum_{k<=i}
    W_fc[:, cell_k] . grow_k, which equals fc_b + W_fc . readout_i exactly
    in integers.

    One pass over all cells, channel-major: the events are stably sorted
    by cell, and each value is lifted by span * cell, span being above
    every value, so one running max along the event axis of [C_last, N]
    never carries a value across cells. Float values are lifted as their
    ranks among the distinct values. Unlifted, a cell's run diffs to
    grow, its first event growing by its own value; one einsum over only
    the events that grow some channel gives their logit steps. Returns
    (logits[N, classes], cls[N] with ties to the lowest class, flattened
    readout).
    """
    n = len(last)
    cell = ((stream.y // model.patch) * model.n_cells_x
            + stream.x // model.patch)
    # the narrowest key type: numpy radix-sorts up to 16 bits
    cell = cell.astype(np.min_scalar_type(len(fc_cells)))
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    if last.dtype.kind == "f":
        values, ranks = np.unique(last, return_inverse=True)
        ranks = ranks.reshape(last.shape)
    else:
        values, ranks = None, last
    span = int(ranks.max(initial=0)) + 1
    dt = lift_dtype(span, len(fc_cells))
    lift = cell.astype(dt) * dt(span)
    run = np.take(ranks, order, axis=0).T.astype(dt)  # [C_last, N], by cell
    run += lift
    np.maximum.accumulate(run, axis=1, out=run)
    run -= lift
    run = values[run] if values is not None else run.astype(last.dtype)
    new = np.ones(n, dtype=bool)  # the first event of a cell's run
    np.not_equal(cell[1:], cell[:-1], out=new[1:])
    # within a run, run never falls, so its steps fit last's own type
    grow = np.empty_like(run)
    np.subtract(run[:, 1:], run[:, :-1], out=grow[:, 1:])
    grow[:, new] = run[:, new]
    g = np.flatnonzero(grow.max(axis=0) > 0)
    step = np.zeros((n, len(fc_b)), dtype=np.result_type(fc_cells, last))
    step[order[g]] = np.einsum("cg,gck->gk", grow[:, g], fc_cells[cell[g]])
    logits = fc_b + np.cumsum(step, axis=0)
    cells = np.zeros((len(fc_cells), last.shape[1]), dtype=last.dtype)
    end = np.ones(n, dtype=bool)  # the last event of a cell's run
    end[:-1] = new[1:]
    cells[cell[end]] = run[:, end].T
    return logits, np.argmax(logits, axis=1), cells.reshape(-1)


def run_stream(model: QuantizedModel | RunPlan, stream: EventStream,
               sequential: bool = False,
               adjacency: Adjacency | None = None, *,
               levels: bool = False) -> RunResult:
    """Process a whole stream through the batch executor.

    model is a QuantizedModel, or the RunPlan of one: a caller that runs
    several streams or schedules builds the plan once and passes it.
    Default, the layer-sequential schedule of infer, bench and verify: each
    layer runs over the whole graph before the next; layer l of an event
    reads only layer l-1 outputs of earlier events, so this computes what
    the event-driven schedules compute. levels: each dependency level of
    adjacency.levels runs every layer (the layer-parallel wavefront), which
    verify checks the default against; only this schedule builds the
    levels. sequential: the default, even with levels.
    """
    plan = model if isinstance(model, RunPlan) else build_plan(model)
    if stream.width != plan.model.width or stream.height != plan.model.height:
        raise DimMismatch("stream geometry != model sensor geometry")
    adj = (adjacency if adjacency is not None
           else build_adjacency(stream, plan))
    wave = levels and not sequential
    feats = run_layers(plan, plan.encoding[checked_polarity(stream)], adj,
                       adj.levels if wave else [],
                       plan.wavefront if wave else plan.layered)
    logits, cls, readout = readout_trace(plan.model, stream, feats[-1],
                                         plan.fc_cells, plan.model.fc.bias)
    return RunResult(adj, feats, logits, cls, readout,
                     perf_model.conv_macs(plan.model, adj.deg))


def prediction_trace_lines(result: RunResult) -> list[str]:
    """UTF-8 trace: one "n class logit0 logit1 ..." line per event."""
    n, classes = result.logits.shape
    cols = np.column_stack([np.arange(n), result.cls, result.logits])
    fmt = " ".join(["%d"] * (classes + 2)) + "\n"
    return ((fmt * n) % tuple(cols.ravel().tolist())).splitlines()


def count_ops(model: QuantizedModel,
              neighbor_counts: np.ndarray) -> np.ndarray:
    """int64 arithmetic ops of each event (1 MAC = 2 OPs) from its degree.

    The MACs are perf_model's: 2 * conv_macs plus 2 * fc_macs, plus
    2*C_out BAQ ops per layer and C_last readout max-compares.
    """
    deg = np.asarray(neighbor_counts, dtype=np.int64)
    baq_ops = sum(2 * l.c_out for l in model.layers)
    return (2 * perf_model.conv_macs(model, deg) + baq_ops + model.c_last
            + 2 * perf_model.fc_macs(model))
