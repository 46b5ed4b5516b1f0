"""Reference GNN execution over a whole, fully built directed event graph.

The graph is the stream plus its Adjacency, as engine.build_adjacency
builds it for the event-driven engine (retention, canonical scan order,
d_max truncation), so comparisons against the engine isolate the
execution schedule, not the topology.

Supported forward paths run the static schedule (each layer over the
whole graph, then the next); each takes (stream, adjacency, model) and
returns the engine's RunResult:
    eq7_int8 -- integer simplified conv through the engine's factored
                layer function, bit-exact vs the engine
    eq7_fp   -- the same conv in float (relu(max_j W (x_j,|dx|,|dy|) + b)),
                kept on the unfactored gather form: factoring moves float
                rounding, and with it the quantizer's activation scales
plus a scalar generic message-passing framework over an Adjacency, with
pluggable phi / aggregator / gamma, that reproduces eq7_fp when
specialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import perf_model
from .engine import RunResult, _run_groups, readout_trace
from .event_io import EventStream
from .graph_builder import Adjacency, SearchParams
from .model import QuantizedModel

FP_BATCH_ROWS = 4096  # events per FP step; bounds the [B, D, C_in+2] gather


# ---------------------------------------------------------------- FP model

@dataclass
class FPLayer:
    """Float conv layer; weights (C_out, C_in+2), optional batchnorm block."""

    weights: np.ndarray
    bias: np.ndarray
    bn: dict | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)

    @property
    def c_out(self) -> int:
        return self.weights.shape[0]

    @property
    def c_in(self) -> int:
        return self.weights.shape[1] - 2


@dataclass
class FPModel:
    width: int
    height: int
    layers: list[FPLayer]
    fc_weights: np.ndarray
    fc_bias: np.ndarray
    search: SearchParams = field(default_factory=SearchParams)
    patch: int = 16
    classes: list[str] = field(default_factory=lambda: ["0", "1"])
    empty_aggregation: str = "zero"

    def __post_init__(self):
        self.fc_weights = np.asarray(self.fc_weights, dtype=np.float64)
        self.fc_bias = np.asarray(self.fc_bias, dtype=np.float64)

    @property
    def n_cells_x(self) -> int:
        return -(-self.width // self.patch)

    @property
    def n_cells_y(self) -> int:
        return -(-self.height // self.patch)


def _fp_inputs(stream: EventStream) -> np.ndarray:
    """Polarity to float feature: 0 -> -1.0, 1 -> +1.0."""
    return np.where(stream.p != 0, 1.0, -1.0)


def forward_eq7_fp(stream: EventStream, adj: Adjacency,
                   model: FPModel) -> RunResult:
    n = len(stream)
    valid = np.arange(adj.nbr_n.shape[1]) < adj.deg[:, None]
    offsets = np.abs(np.stack([adj.nbr_dx, adj.nbr_dy], axis=2))
    x = _fp_inputs(stream)[:, None]
    feats = []
    for layer in model.layers:
        out = np.zeros((n, layer.c_out))
        for s in range(0, n, FP_BATCH_ROWS):
            rows = slice(s, s + FP_BATCH_ROWS)
            d = int(adj.deg[rows].max())
            ok = valid[rows, :d]
            inp = np.concatenate([x[adj.nbr_n[rows, :d]], offsets[rows, :d]],
                                 axis=2)
            b = len(inp)
            msgs = (inp.reshape(b * d, inp.shape[2]) @ layer.weights.T
                    ).reshape(b, d, layer.c_out)
            msgs[~ok] = -np.inf
            agg = msgs.max(axis=1, initial=-np.inf)
            if model.empty_aggregation == "zero":
                agg[~ok.any(axis=1)] = 0.0
            out[rows] = np.maximum(agg + layer.bias, 0.0)
        feats.append(out)
        x = out
    logits, cls, readout = readout_trace(model, stream, feats[-1],
                                         model.fc_weights, model.fc_bias)
    return RunResult(adj, feats, logits, cls, readout,
                     perf_model.conv_macs(model, adj.deg))


def forward_eq7_int8(stream: EventStream, adj: Adjacency,
                     model: QuantizedModel) -> RunResult:
    """The engine's INT8 layers, each over the whole graph in turn."""
    return _run_groups(model, stream, adj, [slice(0, len(stream))],
                       layer_outer=True)


# ----------------------------------------------- generic message passing

@dataclass
class GenericConvSpec:
    """Eq-style pluggable conv: x'_i = gamma(x_i, agg_j phi(x_i, x_j, rel))."""

    phi: Callable[[np.ndarray, np.ndarray, tuple[int, int, int]], np.ndarray]
    aggregator: str  # sum | mean | max
    gamma: Callable[[np.ndarray, np.ndarray], np.ndarray]
    out_dim: int
    include_self: bool = False
    empty_aggregation: str = "zero"  # zero | neg_inf (max only)


def message_passing_generic(adj: Adjacency, spec: GenericConvSpec,
                            features: np.ndarray) -> np.ndarray:
    if spec.aggregator not in ("sum", "mean", "max"):
        raise ValueError(f"unknown aggregator {spec.aggregator!r}")
    n = len(adj.deg)
    features = np.asarray(features, dtype=np.float64)
    out = []
    for i in range(n):
        msgs = []
        if spec.include_self:
            msgs.append(np.asarray(
                spec.phi(features[i], features[i], (0, 0, 0)),
                dtype=np.float64))
        for k in range(int(adj.deg[i])):
            j = int(adj.nbr_n[i, k])
            rel = (int(adj.nbr_dx[i, k]), int(adj.nbr_dy[i, k]),
                   int(adj.nbr_dt[i, k]))
            msgs.append(np.asarray(spec.phi(features[i], features[j], rel),
                                   dtype=np.float64))
        if not msgs:
            if spec.aggregator == "max" and spec.empty_aggregation == "neg_inf":
                agg = np.full(spec.out_dim, -np.inf)
            else:
                agg = np.zeros(spec.out_dim)
        elif spec.aggregator == "sum":
            agg = np.sum(msgs, axis=0)
        elif spec.aggregator == "mean":
            agg = np.mean(msgs, axis=0)
        else:
            agg = np.max(msgs, axis=0)
        out.append(np.asarray(spec.gamma(features[i], agg), dtype=np.float64))
    return np.stack(out)
