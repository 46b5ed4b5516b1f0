"""Quantized model container and its JSON config format.

The on-disk model is a UTF-8 JSON document:

    {version, sensor:{W,H},
     search:{shape,r_s,r_t,D_max,queue_depth},
     input_encoding:{"0":-127,"1":127},
     empty_aggregation:"zero"|"neg_inf",
     layers:[{C_in,C_out,weights(row-major int array),bias,
              requant:{M,shift}, pos_requant:{M,shift}}],
     fc:{in_dim,out_dim,weights,bias},
     grid:{patch,Gx,Gy},
     classes:[labels],
     hw:{...}}            # optional HwConfig, see perf_model

Integer arrays are stored as decimal JSON arrays; value-exactness matters,
byte-exactness does not. Other search keys are ignored, such as the "r"
and "beta" that older files carry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graph_builder import SearchParams

IDENTITY_REQUANT = (1 << 30, 30)  # exact multiply-shift identity
ACC_LIMIT = 2**31  # accumulators and logits stay in 32-bit signed range


class ModelConfigError(ValueError):
    pass


@dataclass
class LayerParams:
    """One graph-convolution layer in the integer domain.

    weights has shape (C_out, C_in + 2); the two extra columns multiply the
    requantized |dx| and |dy| positional inputs. bias lives in the 32-bit
    accumulator domain; (M, shift) requantize the accumulator to the output
    activation scale; (M_pos, shift_pos) map raw pixel offsets into the
    input activation scale. s_in is kept for documentation/quantizer use.
    """

    c_in: int
    c_out: int
    weights: np.ndarray
    bias: np.ndarray
    requant: tuple[int, int]
    pos_requant: tuple[int, int] = IDENTITY_REQUANT
    s_in: float = 1.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.int64)
        self.bias = np.asarray(self.bias, dtype=np.int64)
        if self.weights.shape != (self.c_out, self.c_in + 2):
            raise ModelConfigError(
                f"weights shape {self.weights.shape} != "
                f"({self.c_out},{self.c_in + 2})")
        if self.bias.shape != (self.c_out,):
            raise ModelConfigError("bias length mismatch")
        if np.abs(self.weights).max(initial=0) > 127:
            raise ModelConfigError("weight magnitude > 127")
        for name, (m, s) in (("requant", self.requant),
                             ("pos_requant", self.pos_requant)):
            if not (0 <= m < 2**31 and 0 <= s <= 62):
                raise ModelConfigError(
                    f"{name} needs M in [0, 2**31) and shift in [0, 62]")


@dataclass
class DenseParams:
    """FC prediction head: 32-bit logits, no positional columns, no requant."""

    in_dim: int
    out_dim: int
    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.int64)
        self.bias = np.asarray(self.bias, dtype=np.int64)
        if self.weights.shape != (self.out_dim, self.in_dim):
            raise ModelConfigError(
                f"fc weights shape {self.weights.shape} != "
                f"({self.out_dim},{self.in_dim})")
        if self.bias.shape != (self.out_dim,):
            raise ModelConfigError("fc bias length mismatch")
        if np.abs(self.weights).max(initial=0) > 127:
            raise ModelConfigError("fc weight magnitude > 127")


@dataclass
class QuantizedModel:
    width: int
    height: int
    layers: list[LayerParams]
    fc: DenseParams
    search: SearchParams
    patch: int = 16
    classes: list[str] = field(default_factory=lambda: ["0", "1"])
    input_encoding: dict[int, int] = field(
        default_factory=lambda: {0: -127, 1: 127})
    empty_aggregation: str = "zero"  # or "neg_inf"
    hw: dict | None = None

    def __post_init__(self):
        if not self.layers:
            raise ModelConfigError("at least one conv layer required")
        if self.layers[0].c_in != 1:
            raise ModelConfigError("layer 0 must take the 1-channel polarity")
        for a, b in zip(self.layers, self.layers[1:]):
            if b.c_in != a.c_out:
                raise ModelConfigError("layer channel dims do not chain")
        expect = self.n_cells_x * self.n_cells_y * self.layers[-1].c_out
        if self.fc.in_dim != expect:
            raise ModelConfigError(
                f"fc in_dim {self.fc.in_dim} != grid*C_last {expect}")
        if self.fc.out_dim != len(self.classes):
            raise ModelConfigError("fc out_dim != number of classes")
        if self.empty_aggregation not in ("zero", "neg_inf"):
            raise ModelConfigError("empty_aggregation: zero or neg_inf")
        # Prove every accumulator and logit stays inside 32-bit range: the
        # batch engine relies on it, since float64 partial sums are exact
        # only below 2**53 and requant products v * M must stay below 2**63.
        if any(abs(v) > 127 for v in self.input_encoding.values()):
            raise ModelConfigError("input encoding magnitude > 127")
        for i, lp in enumerate(self.layers):
            # |features| <= 127 and q_pos <= 32767 bound every input column
            col = np.full(lp.c_in + 2, 127.0)
            col[-2:] = 32767.0
            bound = (np.abs(lp.weights) @ col
                     + np.abs(lp.bias.astype(np.float64))).max()
            if bound >= ACC_LIMIT:
                raise ModelConfigError(
                    f"layer {i}: |acc + bias| may reach {bound:.0f} >= 2**31")
        fc_bound = (np.abs(self.fc.weights).sum(axis=1) * 127.0
                    + np.abs(self.fc.bias.astype(np.float64))).max()
        if fc_bound >= ACC_LIMIT:
            raise ModelConfigError(
                f"fc: |logit| may reach {fc_bound:.0f} >= 2**31")

    @property
    def n_cells_x(self) -> int:
        return math.ceil(self.width / self.patch)

    @property
    def n_cells_y(self) -> int:
        return math.ceil(self.height / self.patch)

    @property
    def c_last(self) -> int:
        return self.layers[-1].c_out

    def encode_input(self, p: int) -> int:
        return self.input_encoding[p]


def _params_to_json(sp: SearchParams) -> dict:
    return {"shape": sp.shape, "r_s": sp.r_s, "r_t": sp.r_t,
            "D_max": sp.d_max, "queue_depth": sp.queue_depth}


def _params_from_json(d: dict) -> SearchParams:
    return SearchParams(shape=d.get("shape", "prism"),
                        r_s=int(d.get("r_s", 3)),
                        r_t=int(d.get("r_t", 50_000)),
                        d_max=int(d.get("D_max", 16)),
                        queue_depth=int(d.get("queue_depth", 16)))


def model_to_json(model: QuantizedModel) -> dict:
    return {
        "version": 1,
        "sensor": {"W": model.width, "H": model.height},
        "search": _params_to_json(model.search),
        "input_encoding": {str(k): v for k, v in model.input_encoding.items()},
        "empty_aggregation": model.empty_aggregation,
        "layers": [
            {"C_in": l.c_in, "C_out": l.c_out,
             "weights": l.weights.reshape(-1).tolist(),
             "bias": l.bias.tolist(),
             "requant": {"M": l.requant[0], "shift": l.requant[1]},
             "pos_requant": {"M": l.pos_requant[0], "shift": l.pos_requant[1]},
             "s_in": l.s_in}
            for l in model.layers
        ],
        "fc": {"in_dim": model.fc.in_dim, "out_dim": model.fc.out_dim,
               "weights": model.fc.weights.reshape(-1).tolist(),
               "bias": model.fc.bias.tolist()},
        "grid": {"patch": model.patch,
                 "Gx": model.n_cells_x, "Gy": model.n_cells_y},
        "classes": list(model.classes),
        **({"hw": model.hw} if model.hw else {}),
    }


def model_from_json(doc: dict) -> QuantizedModel:
    try:
        sensor = doc["sensor"]
        layers = []
        for ld in doc["layers"]:
            ci, co = int(ld["C_in"]), int(ld["C_out"])
            layers.append(LayerParams(
                c_in=ci, c_out=co,
                weights=np.asarray(ld["weights"],
                                   dtype=np.int64).reshape(co, ci + 2),
                bias=np.asarray(ld["bias"], dtype=np.int64),
                requant=(int(ld["requant"]["M"]), int(ld["requant"]["shift"])),
                pos_requant=(int(ld["pos_requant"]["M"]),
                             int(ld["pos_requant"]["shift"])),
                s_in=float(ld.get("s_in", 1.0))))
        fd = doc["fc"]
        fc = DenseParams(
            in_dim=int(fd["in_dim"]), out_dim=int(fd["out_dim"]),
            weights=np.asarray(fd["weights"],
                               dtype=np.int64).reshape(int(fd["out_dim"]),
                                                       int(fd["in_dim"])),
            bias=np.asarray(fd["bias"], dtype=np.int64))
        model = QuantizedModel(
            width=int(sensor["W"]), height=int(sensor["H"]),
            layers=layers, fc=fc,
            search=_params_from_json(doc.get("search", {})),
            patch=int(doc.get("grid", {}).get("patch", 16)),
            classes=[str(c) for c in doc.get("classes", ["0", "1"])],
            input_encoding={int(k): int(v)
                            for k, v in doc.get(
                                "input_encoding",
                                {"0": -127, "1": 127}).items()},
            empty_aggregation=doc.get("empty_aggregation", "zero"),
            hw=doc.get("hw"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ModelConfigError):
            raise
        raise ModelConfigError(f"bad model config: {exc}") from None
    grid = doc.get("grid", {})
    if "Gx" in grid and int(grid["Gx"]) != model.n_cells_x:
        raise ModelConfigError("grid Gx inconsistent with sensor/patch")
    if "Gy" in grid and int(grid["Gy"]) != model.n_cells_y:
        raise ModelConfigError("grid Gy inconsistent with sensor/patch")
    return model


def save_model(model: QuantizedModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh)
        fh.write("\n")


def load_model(path: str) -> QuantizedModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_json(json.load(fh))


def random_model(seed: int, width: int = 64, height: int = 48,
                 layer_dims: tuple[int, ...] = (8, 8, 8, 8),
                 n_classes: int = 2, patch: int = 16,
                 search: SearchParams | None = None,
                 empty_aggregation: str = "zero") -> QuantizedModel:
    """Random but valid quantized model (test/benchmark stimulus)."""
    rng = np.random.default_rng(seed)
    layers = []
    dims = (1,) + tuple(layer_dims)
    for ci, co in zip(dims, dims[1:]):
        layers.append(LayerParams(
            c_in=ci, c_out=co,
            weights=rng.integers(-64, 65, size=(co, ci + 2)),
            bias=rng.integers(-2000, 2001, size=co),
            requant=(int(rng.integers(2**29, 2**31)),
                     int(rng.integers(32, 38))),
            pos_requant=(int(rng.integers(2**28, 2**30)),
                         int(rng.integers(28, 31)))))
    gx = math.ceil(width / patch)
    gy = math.ceil(height / patch)
    in_dim = gx * gy * dims[-1]
    fc = DenseParams(in_dim=in_dim, out_dim=n_classes,
                     weights=rng.integers(-64, 65, size=(n_classes, in_dim)),
                     bias=rng.integers(-1000, 1001, size=n_classes))
    return QuantizedModel(
        width=width, height=height, layers=layers, fc=fc,
        search=search or SearchParams(),
        patch=patch, classes=[str(i) for i in range(n_classes)],
        empty_aggregation=empty_aggregation)


def calibration_model(seed: int = 0) -> QuantizedModel:
    """The documented calibration architecture for the performance model.

    Four conv layers 1->24->40->40->24 over a 120x100 sensor (8x7 readout
    grid of 16x16 patches, 2 classes): 3800 conv weights plus 2688 FC
    weights, about 6.6k INT8 parameters total. Per-neighbor matvec depths
    (C_in + 2) are (3, 26, 42, 42): sum 113, max 42, so the sequential vs
    layer-parallel conv cycle ratio tends to 113/42 ~ 2.69 at large degree.
    """
    return random_model(seed, width=120, height=100,
                        layer_dims=(24, 40, 40, 24), n_classes=2,
                        search=SearchParams(shape="prism", r_s=3,
                                            r_t=50_000, d_max=16))
