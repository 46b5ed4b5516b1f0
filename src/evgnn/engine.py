"""Event-driven integer GNN inference.

Two granularities are provided:

    - process_event: one Event at a time against explicit EngineState,
      built from the per-op primitives below (message_matvec,
      aggregate_max, baq, ReadoutState.update, fc_forward). This scalar
      path is the independent oracle of the batch path.
    - run_stream: whole-stream execution through one factored INT8 layer
      function, eq7_layer, reading the stream's x, y, t, p columns. It
      splits each message W . (x_j, q|dx|, q|dy|) into a per-node term
      W_x . x_j and a per-layer table over the window offsets, so an edge
      costs one C_out add and a max. run_layers batches it three ways: the
      whole graph, layer by layer (the default and the static oracle,
      static_oracle.forward_eq7_int8), and the layer-sequential and
      layer-parallel schedules over the adjacency's dependency levels,
      kept to verify it. All share one incremental readout / FC,
      readout_trace, and return one RunResult whose feats hold one
      uint8 [N, C_out] array per layer (BAQ clamps every output to
      [0, 127]); the static forwards return it too.

All INT8 arithmetic is exact. The node terms are float64 products, which
hold every partial sum exactly because the model loader proves that each
stays below 2**31; requantization rounds to nearest even.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import perf_model
from .event_io import Event, EventStream
from .graph_builder import (Adjacency, EventQueueGrid, replay_build,
                            search_neighbors)
from .model import ACC_LIMIT, LayerParams, QuantizedModel

NEG_IDENTITY = np.int64(-(2**62))  # "-inf" empty-aggregation identity
MSG_FLOOR = np.int32(-(2**31))  # batch path's "-inf": below every message
# Message cells (rows * D * C_out) per eq7_layer call; bounds the batch
# path's working memory.
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

    @property
    def num_events(self) -> int:
        return self._written.shape[0]

    @property
    def num_levels(self) -> int:
        return len(self.layer_dims)

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

    def dump(self) -> bytes:
        """Debug dump: (n:u32, l:u8, len:u16, payload int8*len), LE."""
        chunks = []
        for n in range(self.num_events):
            for l in range(self.num_levels):
                if not self._written[n, l]:
                    continue
                payload = self._data[l][n].astype(np.int8).tobytes()
                chunks.append(struct.pack("<IBH", n, l, len(payload)))
                chunks.append(payload)
        return b"".join(chunks)


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


def build_adjacency(stream: EventStream,
                    model_or_params) -> Adjacency:
    """Replay the queue grid over a whole stream (prism / cylinder)."""
    params = getattr(model_or_params, "search", model_or_params)
    if params.shape not in ("prism", "cylinder"):
        raise ValueError("queue replay supports prism/cylinder only")
    deg, nbr_n, nbr_dx, nbr_dy, nbr_dt, scanned = replay_build(
        stream.x, stream.y, stream.t, stream.width, stream.height,
        params.queue_depth, params.r_s, params.r_t, params.d_max,
        params.shape == "cylinder")
    return Adjacency(deg, nbr_n, nbr_dx, nbr_dy, nbr_dt, scanned,
                     d_max=params.d_max)


def encoded_inputs(stream: EventStream, model: QuantizedModel) -> np.ndarray:
    feats0 = np.empty(len(stream), dtype=np.int64)
    for p, v in model.input_encoding.items():
        feats0[stream.p == p] = v
    return feats0


def baq_batch(v: np.ndarray, requant: tuple[int, int]) -> np.ndarray:
    """BAQ of biased aggregates: ReLU, requantize (RNE), clamp to [0, 127]."""
    return np.minimum(rne_mulshift(np.maximum(v, 0).astype(np.int64),
                                   *requant), 127)


def position_terms(layer: LayerParams, extent: int) -> np.ndarray:
    """int32[(extent+1)**2, C_out]: row a*(extent+1)+b is W_pos . (q(a), q(b)).

    q is the layer's position requant of an absolute pixel offset. Offsets
    never exceed the search window's half-width, extent, so the table
    covers every (|dx|, |dy|) an edge can carry.
    """
    offs = np.arange(extent + 1, dtype=np.int64)
    q = np.minimum(rne_mulshift(offs, *layer.pos_requant), 32767)
    w_dx, w_dy = layer.weights[:, -2], layer.weights[:, -1]
    return (q[:, None, None] * w_dx + q[None, :, None] * w_dy
            ).reshape(-1, layer.c_out).astype(np.int32)


def node_terms(x: np.ndarray, w_x: np.ndarray) -> np.ndarray:
    """int32[B, C_out] W_x . x_j of every row of x (float64[B, C_in]).

    w_x is float64[C_in, C_out]. The product is exact and fits int32
    because the model loader proves every partial sum stays below 2**31.
    """
    return (x @ w_x).astype(np.int32)


def eq7_layer(layer: LayerParams, terms: np.ndarray, table: np.ndarray,
              nbr: np.ndarray, pos: np.ndarray, valid: np.ndarray,
              empty_aggregation: str) -> np.ndarray:
    """Eq-7 INT8 conv of one layer for a batch of B events, factored.

    out_b = BAQ(max over valid j of (terms[nbr_bj] + table[pos_bj]) + bias),
    which equals BAQ(max_j W . (x_j, q|dx_bj|, q|dy_bj|) + bias) exactly.
    terms holds W_x . x_j of every event, int32[N, C_out]; table is the
    layer's position_terms. nbr, pos (the table row of |dx|, |dy|) and
    valid (the real-slot mask) are [B, D]. A row with no valid slot
    aggregates to the empty identity: 0 ("zero") or -inf ("neg_inf").
    The loader's range proof puts every message, bias and their sum
    strictly inside int32, so MSG_FLOOR lies below every message and
    MSG_FLOOR + bias < 0 maps to 0 exactly as -inf does.
    """
    msgs = terms[nbr]
    msgs += table[pos]
    msgs[~valid] = MSG_FLOOR
    agg = msgs.max(axis=1, initial=MSG_FLOOR).astype(np.int64)
    if empty_aggregation == "zero":
        agg[~valid.any(axis=1)] = 0
    return baq_batch(agg + layer.bias, layer.requant)


def run_layers(model: QuantizedModel, x0: np.ndarray, adj: Adjacency,
               groups: list[np.ndarray],
               layer_outer: bool) -> list[np.ndarray]:
    """Run every INT8 layer over every group of event rows, in schedule order.

    A group's events must depend only on earlier groups. layer_outer runs
    layer by layer over all groups; otherwise group by group over all
    layers. Each eq7_layer call holds at most CHUNK_CELLS message cells.
    x0 is the encoded input of every event; a layer's node terms are
    computed as its input rows are written. Returns the per-layer outputs
    (uint8[N, C_out]).
    """
    layers = model.layers
    n, d_max = adj.nbr_n.shape
    extent = model.search.spatial_extent
    valid = np.arange(d_max) < adj.deg[:, None]
    # table row |dx| * (extent+1) + |dy|, in the narrowest unsigned type
    # that holds the last row; |dx| and |dy| are cast to it before the
    # multiply, which would overflow int8 from extent = 11
    pos_type = np.min_scalar_type((extent + 1) ** 2 - 1)
    pos = np.abs(adj.nbr_dx).astype(pos_type)
    pos *= extent + 1
    pos += np.abs(adj.nbr_dy).astype(pos_type)
    tables = [position_terms(lp, extent) for lp in layers]
    w_x = [lp.weights[:, :-2].T.astype(np.float64) for lp in layers]
    terms = [node_terms(np.asarray(x0, dtype=np.float64)[:, None], w_x[0])]
    terms += [np.zeros((n, lp.c_out), dtype=np.int32) for lp in layers[1:]]
    outs = [np.zeros((n, lp.c_out), dtype=np.uint8) for lp in layers]
    chunk = [max(1, CHUNK_CELLS // (max(d_max, 1) * lp.c_out))
             for lp in layers]
    steps = ([(l, g) for l in range(len(layers)) for g in groups]
             if layer_outer else
             [(l, g) for g in groups for l in range(len(layers))])
    for l, group in steps:
        for s in range(0, len(group), chunk[l]):
            rows = group[s:s + chunk[l]]
            d = int(adj.deg[rows].max())
            out = eq7_layer(layers[l], terms[l], tables[l],
                            adj.nbr_n[rows, :d], pos[rows, :d],
                            valid[rows, :d], model.empty_aggregation)
            outs[l][rows] = out
            if l + 1 < len(layers):
                terms[l + 1][rows] = node_terms(out.astype(np.float64),
                                                w_x[l + 1])
    return outs


def readout_trace(model, stream: EventStream, last: np.ndarray,
                  fc_w: np.ndarray, fc_b: np.ndarray):
    """Per-event logits of the cumulative per-cell max readout.

    model supplies the readout grid (patch, n_cells_x, n_cells_y); last is
    the final-layer output of every event, [N, C_last]. Each event raises
    its cell's running max by delta >= 0, so logits_i = fc_b + sum_{k<=i}
    W_fc[:, cell_k] . delta_k, which equals fc_b + W_fc . readout_i exactly
    in integers. Returns (logits[N, classes], cls[N] with ties to the
    lowest class, flattened readout).
    """
    n_cells = model.n_cells_x * model.n_cells_y
    cell = ((stream.y // model.patch) * model.n_cells_x
            + stream.x // model.patch)
    cells = np.zeros((n_cells, last.shape[1]), dtype=last.dtype)
    delta = np.zeros_like(last)
    order = np.argsort(cell, kind="stable")
    bounds = np.cumsum(np.bincount(cell, minlength=n_cells))[:-1]
    for k, rows in enumerate(np.split(order, bounds)):
        if len(rows):
            run = np.maximum.accumulate(np.vstack([cells[k], last[rows]]))
            delta[rows] = np.diff(run, axis=0)
            cells[k] = run[-1]
    w = fc_w.reshape(len(fc_b), n_cells, last.shape[1])
    logits = fc_b + np.cumsum(np.einsum("kic,ic->ik", w[:, cell], delta),
                              axis=0)
    return logits, np.argmax(logits, axis=1), cells.reshape(-1)


def _run_groups(model: QuantizedModel, stream: EventStream, adj: Adjacency,
                groups: list[np.ndarray], layer_outer: bool) -> RunResult:
    """run_layers over groups, then the readout / FC trace of every event."""
    feats = run_layers(model, encoded_inputs(stream, model), adj, groups,
                       layer_outer)
    logits, cls, readout = readout_trace(model, stream, feats[-1],
                                         model.fc.weights, model.fc.bias)
    return RunResult(adj, feats, logits, cls, readout,
                     perf_model.conv_macs(model, adj.deg))


def run_stream(model: QuantizedModel, stream: EventStream,
               sequential: bool = False,
               adjacency: Adjacency | None = None, *,
               levels: bool = False) -> RunResult:
    """Process a whole stream through the batch executor.

    Default: each layer runs over the whole graph before the next; layer l
    of an event reads only layer l-1 outputs of earlier events, so this
    computes what the event-driven schedules compute. The dependency-level
    schedules, over adjacency.levels, are kept to verify it. sequential:
    each layer runs every dependency level in turn (layer-sequential).
    levels: each dependency level runs every layer (the layer-parallel
    wavefront).
    """
    if stream.width != model.width or stream.height != model.height:
        raise DimMismatch("stream geometry != model sensor geometry")
    adj = adjacency if adjacency is not None else build_adjacency(stream, model)
    groups = (adj.levels if sequential or levels
              else [np.arange(len(adj.deg))])
    return _run_groups(model, stream, adj, groups,
                       layer_outer=sequential or not levels)


def prediction_trace_lines(model: QuantizedModel, result: RunResult) -> list[str]:
    """UTF-8 trace: one "n class logit0 logit1 ..." line per event."""
    n, classes = result.logits.shape
    cols = np.column_stack([np.arange(n), result.cls, result.logits])
    fmt = " ".join(["%d"] * (classes + 2)) + "\n"
    return ((fmt * n) % tuple(cols.ravel().tolist())).splitlines()


@dataclass
class OpCount:
    per_event: np.ndarray
    total: int
    mean: float
    percentiles: dict[int, float]
    mflops_per_event: float


def count_ops(model: QuantizedModel, neighbor_counts: np.ndarray) -> OpCount:
    """Arithmetic ops per event (1 MAC = 2 OPs) from per-event degrees.

    conv: 2*(C_in+2)*C_out*deg MACs-as-ops plus 2*C_out BAQ ops per layer;
    readout: C_last max-compares; FC: 2*(Gx*Gy*C_last)*num_classes.
    """
    deg = np.asarray(neighbor_counts, dtype=np.int64)
    per_nbr = 2 * perf_model.conv_weight_bytes(model)
    baq_ops = sum(2 * l.c_out for l in model.layers)
    fixed = baq_ops + model.c_last + 2 * model.fc.in_dim * model.fc.out_dim
    per_event = per_nbr * deg + fixed
    mean = float(per_event.mean()) if len(per_event) else 0.0
    pct = {p: float(np.percentile(per_event, p)) if len(per_event) else 0.0
           for p in (50, 90, 99)}
    return OpCount(per_event=per_event, total=int(per_event.sum()),
                   mean=mean, percentiles=pct,
                   mflops_per_event=mean / 1e6)
