"""Batchnorm folding and post-training FP -> INT8 quantization.

Weight quantization is symmetric per-tensor (scale = max|w| / 127);
activation scales come from per-layer max-abs over a calibration forward
pass on the float reference path. Each requantizer (M, shift) approximates
its real scale with relative error <= 2^-24; positions are mapped into the
input activation scale the same way.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .engine import build_adjacency
from .event_io import EventStream
from .model import (ACC_LIMIT, DenseParams, FPLayer, FPModel, LayerParams,
                    ModelConfigError, QuantizedModel)
from .static_oracle import forward_eq7_fp


class DegenerateVariance(ModelConfigError):
    pass


class EmptyCalibration(ValueError):
    pass


def fold_batchnorm(weights: np.ndarray, bias: np.ndarray,
                   gamma, beta, mean, var, eps: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Absorb a per-channel batchnorm into the preceding linear layer.

    W' = W * g, b' = (b - mean) * g + beta with g = gamma / sqrt(var + eps),
    so that the folded layer equals BN(conv(x)) exactly in real arithmetic.
    """
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    denom = var + eps
    if np.any(denom <= 0):
        raise DegenerateVariance("var + eps must be positive per channel")
    g = gamma / np.sqrt(denom)
    return weights * g[:, None], (bias - mean) * g + beta


def fold_model(model: FPModel) -> FPModel:
    """Return a copy with every layer's batchnorm block folded away."""
    layers = []
    for layer in model.layers:
        if layer.bn is None:
            layers.append(FPLayer(layer.weights.copy(), layer.bias.copy()))
            continue
        bn = layer.bn
        w, b = fold_batchnorm(layer.weights, layer.bias,
                              bn["gamma"], bn["beta"], bn["mean"],
                              bn["var"], float(bn.get("eps", 1e-5)))
        layers.append(FPLayer(w, b))
    return dataclasses.replace(model, layers=layers,
                               fc_weights=model.fc_weights.copy(),
                               fc_bias=model.fc_bias.copy())


def choose_requant(scale: float) -> tuple[int, int]:
    """31-bit multiplier and right shift with M * 2^-shift ~ scale.

    Relative error is <= 2^-30 for scale > 0; scale 0 maps to (0, 0).
    """
    if scale <= 0.0:
        return 0, 0
    m, e = math.frexp(scale)          # scale = m * 2^e, m in [0.5, 1)
    mult = round(m * (1 << 31))
    shift = 31 - e
    if mult == 1 << 31:
        mult >>= 1
        shift -= 1
    if shift < 0:
        raise ModelConfigError(f"requant scale {scale} too large")
    return mult, shift


@dataclass
class QuantizationReport:
    weight_scales: list[float]
    activation_scales: list[float]
    fc_weight_scale: float


def _weight_scale(w: np.ndarray) -> float:
    m = float(np.abs(w).max()) if w.size else 0.0
    return m / 127.0 if m > 0 else 1.0


def _quantize_bias(bias: np.ndarray, scale: float, what: str) -> np.ndarray:
    """bias / scale rounded to integers, each checked to lie below 2**31,
    as the model loader's range proof needs, before the int64 cast."""
    with np.errstate(over="ignore"):
        q = np.round(bias / scale)
    bad = np.flatnonzero(~(np.abs(q) < ACC_LIMIT))
    if len(bad):
        i = bad[0]
        raise ModelConfigError(f"{what} bias {i}: {bias[i]:g} quantizes to "
                               f"{q[i]:.4g}, |bias| >= 2**31")
    return q.astype(np.int64)


def quantize_model(model_fp: FPModel, calib: EventStream
                   ) -> tuple[QuantizedModel, QuantizationReport]:
    """Quantize a BN-folded float model using a calibration stream.

    Input features are the encoded polarity (+-127 representing +-1.0, so
    the layer-1 input scale is 1/127); every subsequent input scale is the
    previous layer's output scale. The calibration graph is the queue
    replay of the calibration stream.
    """
    if len(calib) == 0:
        raise EmptyCalibration("calibration stream has no events")
    if any(l.bn is not None for l in model_fp.layers):
        model_fp = fold_model(model_fp)

    ref = forward_eq7_fp(calib, build_adjacency(calib, model_fp.search),
                         model_fp)

    act_scales = []
    for feat in ref.feats:
        m = float(np.abs(feat).max()) if feat.size else 0.0
        act_scales.append(m / 127.0 if m > 0 else 1.0)

    layers = []
    w_scales = []
    s_in = 1.0 / 127.0
    for layer, s_out in zip(model_fp.layers, act_scales):
        s_w = _weight_scale(layer.weights)
        w_scales.append(s_w)
        q_w = np.clip(np.round(layer.weights / s_w), -127, 127).astype(np.int64)
        # bias lives in the accumulator scale s_in * s_w
        q_b = _quantize_bias(layer.bias, s_in * s_w, f"layer {len(layers)}")
        layers.append(LayerParams(
            c_in=layer.c_in, c_out=layer.c_out,
            weights=q_w, bias=q_b,
            requant=choose_requant(s_in * s_w / s_out),
            pos_requant=choose_requant(1.0 / s_in),
            s_in=s_in))
        s_in = s_out

    s_last = act_scales[-1]
    s_wfc = _weight_scale(model_fp.fc_weights)
    q_fcw = np.clip(np.round(model_fp.fc_weights / s_wfc),
                    -127, 127).astype(np.int64)
    q_fcb = _quantize_bias(model_fp.fc_bias, s_last * s_wfc, "fc")
    fc = DenseParams(in_dim=model_fp.fc_weights.shape[1],
                     out_dim=model_fp.fc_weights.shape[0],
                     weights=q_fcw, bias=q_fcb)

    qm = QuantizedModel(**model_fp.header(), layers=layers, fc=fc)
    return qm, QuantizationReport(w_scales, act_scales, s_wfc)

