"""The float and the INT8 model: containers, structure and JSON format.

Both kinds are UTF-8 JSON documents with one header and one structure:

    {version, sensor:{W,H},
     search:{shape,r_s,r_t,D_max,queue_depth},
     grid:{patch,Gx,Gy},          # Gx, Gy optional; checked when present
     classes:[labels],
     layers:[{C_in,C_out,weights(row-major array),bias,...}],
     fc:{in_dim,out_dim,weights,bias}}

The FP model (gen-model writes it, quantize reads it) is version 1, has
float arrays and "precision":"fp32"; a layer may carry a batchnorm block
bn:{gamma,beta,mean,var,eps}. The INT8 model (infer, verify and bench run
it) has no "precision"; it adds requant:{M,shift} and pos_requant:{M,shift}
per layer. Each reader rejects the other kind's document, and a version
other than 1 or 2.

Two facts are fixed by the format, not held by a model. An event enters
layer 1 through one input feature, its polarity p, as POLARITY_INPUT[p]
(-127 or 127, standing for -1.0 and 1.0); and an event without
neighbours aggregates to 0, the one empty identity. A file that carries
a retired key for either loads only if the key holds that fact: an INT8
"input_encoding" exactly {"0": -127, "1": 127}, an "empty_aggregation"
"zero". Another value would change what the file computes.

The INT8 writer stores version 2: each weights array is a base64 string
of its int8 bytes, each bias one of its little-endian int32 bytes, and it
raises on a value that does not fit its type. The reader also takes
version-1 arrays, flat lists of JSON integers (either form, in either
version), and rejects a non-integer such as 1.7 or true in them and in
the requant pairs. Decoded arrays then pass the same shape, magnitude
and 32-bit range checks as lists.

Value-exactness matters, byte-exactness does not. Other keys are ignored,
such as the search "r" and "beta", the top-level "hw" block and the
per-layer "s_in" that older files carry.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graph_builder import SearchParams

IDENTITY_REQUANT = (1 << 30, 30)  # exact multiply-shift identity
POLARITY_INPUT = (-127, 127)  # layer 1's input of polarity 0 and 1
# the retired key's one value, that of POLARITY_INPUT
_INPUT_ENCODING = {"0": POLARITY_INPUT[0], "1": POLARITY_INPUT[1]}
ACC_LIMIT = 2**31  # accumulators and logits stay in 32-bit signed range
FORMAT_VERSIONS = (1, 2)  # the versions the readers take
WEIGHT_BLOB, BIAS_BLOB = np.dtype("<i1"), np.dtype("<i4")  # INT8 version 2
# the SearchParams field of each key of the document's search block
_SEARCH_KEYS = {"shape": "shape", "r_s": "r_s", "r_t": "r_t", "D_max": "d_max",
                "queue_depth": "queue_depth"}


class ModelConfigError(ValueError):
    pass


def _int8_arrays(weights, bias, shape: tuple[int, int], what: str):
    """weights and bias as int64, checked against shape and INT8 range."""
    weights = np.asarray(weights, dtype=np.int64)
    bias = np.asarray(bias, dtype=np.int64)
    if weights.shape != shape:
        raise ModelConfigError(f"{what}weights {weights.shape} != {shape}")
    if bias.shape != shape[:1]:
        raise ModelConfigError(f"{what}bias length mismatch")
    # not np.abs(weights).max(): np.abs(-2**63) wraps to -2**63
    if weights.min(initial=0) < -127 or weights.max(initial=0) > 127:
        raise ModelConfigError(f"{what}weight magnitude > 127")
    return weights, bias


def _finite(what: str, *arrays: np.ndarray) -> None:
    """Raise unless every value of every array is finite (Python's json
    reads NaN and Infinity)."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ModelConfigError(f"{what} is not finite")


@dataclass
class LayerParams:
    """One graph-convolution layer in the integer domain.

    weights has shape (C_out, C_in + 2); the two extra columns multiply the
    requantized |dx| and |dy| positional inputs. bias lives in the 32-bit
    accumulator domain; (M, shift) requantize the accumulator to the output
    activation scale; (M_pos, shift_pos) map raw pixel offsets into the
    input activation scale.
    """

    c_in: int
    c_out: int
    weights: np.ndarray
    bias: np.ndarray
    requant: tuple[int, int]
    pos_requant: tuple[int, int] = IDENTITY_REQUANT

    def __post_init__(self):
        self.weights, self.bias = _int8_arrays(
            self.weights, self.bias, (self.c_out, self.c_in + 2), "")
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
        self.weights, self.bias = _int8_arrays(
            self.weights, self.bias, (self.out_dim, self.in_dim), "fc ")


@dataclass
class FPLayer:
    """Float conv layer; weights (C_out, C_in+2), optional batchnorm block."""

    weights: np.ndarray
    bias: np.ndarray
    bn: dict | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.bias.shape != self.weights.shape[:1]:
            raise ModelConfigError("FP layer bias length != C_out")
        if self.bn is not None:
            self.bn = {k: np.asarray(v, dtype=np.float64)
                       for k, v in self.bn.items()}
            if any(np.shape(self.bn.get(k)) != self.bias.shape
                   for k in ("gamma", "beta", "mean", "var")):
                raise ModelConfigError("bn needs C_out gamma, beta, mean, var")
        _finite("an FP layer weight, bias or bn value", self.weights,
                self.bias, *(self.bn or {}).values())

    @property
    def c_out(self) -> int:
        return self.weights.shape[0]

    @property
    def c_in(self) -> int:
        return self.weights.shape[1] - 2


@dataclass(kw_only=True)
class ModelHeader:
    """What both model kinds share: sensor, search, readout grid, classes.

    A model subclass adds its layers and FC head and calls
    _check_structure on them.
    """

    width: int
    height: int
    search: SearchParams = field(default_factory=SearchParams)
    patch: int = 16
    classes: list[str] = field(default_factory=lambda: ["0", "1"])

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ModelConfigError("sensor W and H must be >= 1")
        if self.patch < 1:
            raise ModelConfigError("grid patch must be >= 1")

    @property
    def n_cells_x(self) -> int:
        return -(-self.width // self.patch)

    @property
    def n_cells_y(self) -> int:
        return -(-self.height // self.patch)

    @property
    def c_last(self) -> int:
        return self.layers[-1].c_out

    def header(self) -> dict:
        """The header fields, to build another model on the same header."""
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(ModelHeader)}

    def _check_structure(self, fc_weights: np.ndarray,
                         fc_bias: np.ndarray) -> None:
        """The layers chain from the polarity input to an FC head that
        reads the whole readout grid and scores every class."""
        if not self.classes:
            raise ModelConfigError("classes is empty: the FC head needs at "
                                   "least one class to score")
        c_in = [l.c_in for l in self.layers]
        chain = [1] + [l.c_out for l in self.layers[:-1]]
        if c_in != chain:  # also rejects a model without layers
            raise ModelConfigError(f"layer C_in {c_in} != {chain}: the "
                                   f"layers do not chain from the polarity")
        shape = (len(self.classes),
                 self.n_cells_x * self.n_cells_y * self.c_last)
        if fc_weights.shape != shape or fc_bias.shape != shape[:1]:
            raise ModelConfigError(
                f"fc weights {fc_weights.shape}, bias {fc_bias.shape}: "
                f"need (classes, Gx*Gy*C_last) = {shape}")


@dataclass(kw_only=True)
class FPModel(ModelHeader):
    layers: list[FPLayer]
    fc_weights: np.ndarray
    fc_bias: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.fc_weights = np.asarray(self.fc_weights, dtype=np.float64)
        self.fc_bias = np.asarray(self.fc_bias, dtype=np.float64)
        _finite("an FP fc weight or bias", self.fc_weights, self.fc_bias)
        self._check_structure(self.fc_weights, self.fc_bias)


@dataclass(kw_only=True)
class QuantizedModel(ModelHeader):
    layers: list[LayerParams]
    fc: DenseParams

    def __post_init__(self):
        super().__post_init__()
        self._check_structure(self.fc.weights, self.fc.bias)
        # Prove every accumulator and logit stays inside 32-bit range: the
        # batch engine relies on it, since float64 partial sums are exact
        # only below 2**53 and requant products v * M must stay below 2**63.
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


# ------------------------------------------------------------------ JSON

def _header_to_json(model: ModelHeader, version: int) -> dict:
    return {"version": version,
            "sensor": {"W": model.width, "H": model.height},
            "search": {k: getattr(model.search, f)
                       for k, f in _SEARCH_KEYS.items()},
            "grid": {"patch": model.patch},
            "classes": list(model.classes)}


def _header_from_json(doc: dict) -> dict:
    version = doc.get("version")
    if type(version) is not int or version not in FORMAT_VERSIONS:
        raise ModelConfigError(f"format version {version!r}: this reader "
                               f"takes versions {FORMAT_VERSIONS}")
    empty = doc.get("empty_aggregation", "zero")
    if empty != "zero":
        raise ModelConfigError(f"empty_aggregation {empty!r}: an event "
                               f"without neighbours aggregates to 0, "
                               f"\"zero\" is the only identity")
    classes = doc.get("classes", [])
    if type(classes) is not list:  # a string or dict would read as labels
        raise ModelConfigError(f"classes {classes!r}: need a JSON list")
    # only the keys the file holds: the others keep the dataclass defaults
    given = {"classes": [str(c) for c in classes]} if "classes" in doc else {}
    sensor, sp = doc["sensor"], doc.get("search", {})
    grid = doc.get("grid", {})
    if "patch" in grid:
        given["patch"] = _json_int(grid["patch"], "grid patch")
    header = ModelHeader(
        width=_json_int(sensor["W"], "sensor W"),
        height=_json_int(sensor["H"], "sensor H"),
        search=SearchParams(**{
            f: sp[k] if f == "shape" else _json_int(sp[k], f"search {k}")
            for k, f in _SEARCH_KEYS.items() if k in sp}), **given)
    for key, cells in (("Gx", header.n_cells_x), ("Gy", header.n_cells_y)):
        if key in grid and _json_int(grid[key], f"grid {key}") != cells:
            raise ModelConfigError(f"grid {key} disagrees with sensor/patch")
    return vars(header)  # header() without its field scan on every load


@contextlib.contextmanager
def _reading(what: str):
    """Turn a missing key, a wrong type or a bad value met while reading
    a document into a ModelConfigError that names the model kind."""
    try:
        yield
    except ModelConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError,
            AttributeError) as exc:
        raise ModelConfigError(f"bad {what} config: {exc}") from None


def _blob(values: np.ndarray, dtype: np.dtype, what: str) -> str:
    """base64 of values as dtype bytes; raises if a value does not fit."""
    info = np.iinfo(dtype)
    if values.size and (values.min() < info.min or values.max() > info.max):
        raise ModelConfigError(f"{what}: a value does not fit {dtype.name}")
    return base64.b64encode(values.astype(dtype).tobytes()).decode("ascii")


def _json_int(value, what: str) -> int:
    """value, which must be a JSON integer (not 1.7, "1" or true)."""
    if type(value) is not int:
        raise ModelConfigError(f"{what}: {value!r} is not an integer")
    return value


def _dims(d: dict, k_in: str, k_out: str, what: str) -> tuple[int, int]:
    """The (input, output) widths of a layer or fc document."""
    return (_json_int(d[k_in], f"{what}{k_in}"),
            _json_int(d[k_out], f"{what}{k_out}"))


def _ints(value, count: int, dtype: np.dtype, what: str) -> np.ndarray:
    """An INT8-model array: a base64 blob of count dtype values, or a flat
    list of JSON integers."""
    if isinstance(value, str):
        data = base64.b64decode(value, validate=True)
        if len(data) != count * dtype.itemsize:
            raise ModelConfigError(f"{what}: {len(data)} bytes, need "
                                   f"{count} {dtype.name} values")
        return np.frombuffer(data, dtype=dtype)
    bad = [v for v in value if type(v) is not int]
    if bad:
        raise ModelConfigError(f"{what}: {bad[0]!r} is not an integer")
    return np.asarray(value, dtype=np.int64)


def _floats(value, *_) -> np.ndarray:
    """An FP-model array: a list of JSON numbers."""
    return np.asarray(value, dtype=np.float64)


def _arrays(d: dict, rows: int, cols: int, read, what: str) -> tuple:
    """The (rows, cols) weights and the bias of a layer or fc document,
    each read by read(value, count, blob dtype, name)."""
    if rows < 0 or cols < 0:  # reshape would infer a -1 from the data
        raise ValueError(f"negative dims ({rows}, {cols})")
    return (read(d["weights"], rows * cols, WEIGHT_BLOB,
                 f"{what}weights").reshape(rows, cols),
            read(d["bias"], rows, BIAS_BLOB, f"{what}bias"))


def _pair(d: dict, what: str) -> tuple[int, int]:
    return (_json_int(d["M"], f"{what} M"),
            _json_int(d["shift"], f"{what} shift"))


def model_to_json(model: QuantizedModel) -> dict:
    doc = _header_to_json(model, 2)
    doc["grid"].update(Gx=model.n_cells_x, Gy=model.n_cells_y)

    def arrays(what: str, weights: np.ndarray, bias: np.ndarray) -> dict:
        return {"weights": _blob(weights.reshape(-1), WEIGHT_BLOB,
                                 f"{what}weights"),
                "bias": _blob(bias, BIAS_BLOB, f"{what}bias")}

    doc["layers"] = [
        {"C_in": l.c_in, "C_out": l.c_out,
         **arrays(f"layer {i} ", l.weights, l.bias),
         "requant": {"M": l.requant[0], "shift": l.requant[1]},
         "pos_requant": {"M": l.pos_requant[0], "shift": l.pos_requant[1]}}
        for i, l in enumerate(model.layers)]
    doc["fc"] = {"in_dim": model.fc.in_dim, "out_dim": model.fc.out_dim,
                 **arrays("fc ", model.fc.weights, model.fc.bias)}
    return doc


def model_from_json(doc: dict) -> QuantizedModel:
    with _reading("model"):
        header = _header_from_json(doc)
        if "precision" in doc:
            raise ModelConfigError(
                f"an FP model (precision {doc['precision']!r}); "
                f"evgnn quantize turns it into an INT8 model")
        enc = doc.get("input_encoding", _INPUT_ENCODING)
        # == alone would take -127.0 or true for an integer
        if enc != _INPUT_ENCODING or any(type(v) is not int
                                         for v in enc.values()):
            raise ModelConfigError(
                f"input_encoding {enc!r}: polarity 0 and 1 enter layer 1 "
                f"as {POLARITY_INPUT}, the only input encoding")
        layers = []
        for i, ld in enumerate(doc["layers"]):
            ci, co = _dims(ld, "C_in", "C_out", f"layer {i} ")
            layers.append(LayerParams(
                ci, co, *_arrays(ld, co, ci + 2, _ints, f"layer {i} "),
                requant=_pair(ld["requant"], f"layer {i} requant"),
                pos_requant=_pair(ld["pos_requant"],
                                  f"layer {i} pos_requant")))
        fd = doc["fc"]
        ci, co = _dims(fd, "in_dim", "out_dim", "fc ")
        return QuantizedModel(
            **header, layers=layers,
            fc=DenseParams(ci, co, *_arrays(fd, co, ci, _ints, "fc ")))


def fp_model_to_json(model: FPModel) -> dict:
    def layer_doc(l: FPLayer) -> dict:
        doc = {"C_in": l.c_in, "C_out": l.c_out,
               "weights": l.weights.reshape(-1).tolist(),
               "bias": l.bias.tolist()}
        if l.bn is not None:
            doc["bn"] = {k: np.asarray(v).tolist() for k, v in l.bn.items()}
        return doc

    fc_w = model.fc_weights
    return {"precision": "fp32", **_header_to_json(model, 1),
            "layers": [layer_doc(l) for l in model.layers],
            "fc": {"in_dim": fc_w.shape[1], "out_dim": fc_w.shape[0],
                   "weights": fc_w.reshape(-1).tolist(),
                   "bias": model.fc_bias.tolist()}}


def fp_model_from_json(doc: dict) -> FPModel:
    with _reading("FP model"):
        header = _header_from_json(doc)
        if doc.get("precision") != "fp32":
            raise ModelConfigError('not an FP model: no "precision": "fp32"')
        layers = []
        for i, ld in enumerate(doc["layers"]):
            ci, co = _dims(ld, "C_in", "C_out", f"layer {i} ")
            layers.append(FPLayer(*_arrays(ld, co, ci + 2, _floats, ""),
                                  ld.get("bn")))
        fd = doc["fc"]
        ci, co = _dims(fd, "in_dim", "out_dim", "fc ")
        fc_w, fc_b = _arrays(fd, co, ci, _floats, "fc ")
        return FPModel(**header, layers=layers, fc_weights=fc_w,
                       fc_bias=fc_b)


def save_model(model: QuantizedModel, path: str) -> None:
    # built first, so a value that does not fit raises before the file exists
    text = json.dumps(model_to_json(model)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path: str) -> QuantizedModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_json(json.load(fh))


def save_fp_model(model: FPModel, path: str) -> None:
    text = json.dumps(fp_model_to_json(model)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_fp_model(path: str) -> FPModel:
    with open(path, encoding="utf-8") as fh:
        return fp_model_from_json(json.load(fh))


def random_model(seed: int, width: int = 64, height: int = 48,
                 layer_dims: tuple[int, ...] = (8, 8, 8, 8),
                 search: SearchParams | None = None) -> QuantizedModel:
    """Random but valid quantized model (test/benchmark stimulus)."""
    header = ModelHeader(width=width, height=height,
                         search=search or SearchParams())
    n_classes = len(header.classes)
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
    in_dim = header.n_cells_x * header.n_cells_y * dims[-1]
    fc = DenseParams(in_dim=in_dim, out_dim=n_classes,
                     weights=rng.integers(-64, 65, size=(n_classes, in_dim)),
                     bias=rng.integers(-1000, 1001, size=n_classes))
    return QuantizedModel(**header.header(), layers=layers, fc=fc)


def random_fp_model(seed: int, width: int = 64, height: int = 48,
                    layer_dims: tuple[int, ...] = (8, 12, 12, 8),
                    search: SearchParams | None = None,
                    with_bn: bool = False) -> FPModel:
    """Random float model with fan-in scaled weights (test/demo stimulus)."""
    header = ModelHeader(width=width, height=height,
                         search=search or SearchParams())
    n_classes = len(header.classes)
    rng = np.random.default_rng(seed)
    layers = []
    dims = (1,) + tuple(layer_dims)
    for ci, co in zip(dims, dims[1:]):
        w = rng.normal(0.0, 1.0 / math.sqrt(ci + 2), size=(co, ci + 2))
        b = rng.normal(0.0, 0.1, size=co)
        bn = None
        if with_bn:
            bn = {"gamma": rng.uniform(0.5, 1.5, size=co),
                  "beta": rng.normal(0.0, 0.1, size=co),
                  "mean": rng.normal(0.0, 0.2, size=co),
                  "var": rng.uniform(0.5, 2.0, size=co),
                  "eps": 1e-5}
        layers.append(FPLayer(w, b, bn))
    in_dim = header.n_cells_x * header.n_cells_y * dims[-1]
    fc_w = rng.normal(0.0, 1.0 / math.sqrt(in_dim), size=(n_classes, in_dim))
    fc_b = rng.normal(0.0, 0.1, size=n_classes)
    return FPModel(**header.header(), layers=layers, fc_weights=fc_w,
                   fc_bias=fc_b)


def calibration_model(seed: int = 0) -> QuantizedModel:
    """The documented calibration architecture for the performance model.

    Four conv layers 1->24->40->40->24 over a 120x100 sensor (8x7 readout
    grid of 16x16 patches, 2 classes): 3800 conv weights plus 2688 FC
    weights, about 6.6k INT8 parameters total. Per-neighbor matvec depths
    (C_in + 2) are (3, 26, 42, 42): sum 113, max 42, so the sequential vs
    layer-parallel conv cycle ratio tends to 113/42 ~ 2.69 at large degree.
    """
    return random_model(seed, width=120, height=100,
                        layer_dims=(24, 40, 40, 24),
                        search=SearchParams(shape="prism", r_s=3,
                                            r_t=50_000, d_max=16))
