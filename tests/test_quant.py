from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evgnn import engine, event_io, static_oracle
from evgnn.engine import rne_mulshift
from evgnn.graph_builder import SearchParams
from evgnn.model import (ModelConfigError, fp_model_from_json,
                         fp_model_to_json, random_fp_model)
from evgnn.quant import (DegenerateVariance, EmptyCalibration, choose_requant,
                         fold_batchnorm, fold_model, quantize_model)
from evgnn.static_oracle import forward_eq7_fp


def _calib_stream(seed=0, count=1500):
    return event_io.gen_synthetic(
        "moving_dot",
        {"width": 64, "height": 48, "count": count, "duration_us": 50_000},
        seed)


class TestFoldBatchnorm:
    def test_identity_fold(self, rng):
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=3)
        w2, b2 = fold_batchnorm(w, b, gamma=np.ones(3), beta=np.zeros(3),
                                mean=np.zeros(3), var=np.ones(3), eps=0.0)
        assert np.allclose(w2, w) and np.allclose(b2, b)

    def test_hand_scale(self):
        # gamma=2, var=3, eps=1: g = 2 / sqrt(4) = 1.0
        w = np.full((1, 3), 5.0)
        w2, b2 = fold_batchnorm(w, np.zeros(1), gamma=[2.0], beta=[0.0],
                                mean=[0.0], var=[3.0], eps=1.0)
        assert np.allclose(w2, w)

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            fold_batchnorm(np.zeros((1, 3)), np.zeros(1), [1.0], [0.0],
                           [0.0], [-2.0], 1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_fold_equals_bn_of_conv(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        gamma = rng.uniform(0.5, 2.0, size=4)
        beta = rng.normal(size=4)
        mean = rng.normal(size=4)
        var = rng.uniform(0.5, 2.0, size=4)
        eps = 1e-5
        w2, b2 = fold_batchnorm(w, b, gamma, beta, mean, var, eps)
        x = rng.normal(size=(20, 6))
        conv = x @ w.T + b
        bn = (conv - mean) * gamma / np.sqrt(var + eps) + beta
        folded = x @ w2.T + b2
        scale = np.maximum(np.abs(bn), 1.0)
        assert np.all(np.abs(folded - bn) / scale <= 1e-5)

    def test_fold_model_removes_bn(self):
        fp = random_fp_model(1, with_bn=True)
        folded = fold_model(fp)
        assert all(l.bn is None for l in folded.layers)


class TestChooseRequant:
    def test_zero_scale(self):
        assert choose_requant(0.0) == (0, 0)

    def test_exact_power_of_two(self):
        m, s = choose_requant(0.125)
        assert m * 2.0**-s == 0.125

    @given(st.floats(min_value=1e-12, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_relative_error_bound(self, scale):
        m, s = choose_requant(scale)
        approx = m * 2.0**-s
        assert abs(approx - scale) / scale <= 2.0**-24
        assert 0 < m < 2**31

    @given(st.integers(0, 2**31 - 1),
           st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=500, deadline=None)
    def test_requant_within_one_ulp_of_rational(self, v, scale):
        """Integer requant vs exact rational rounding of v * scale."""
        m, s = choose_requant(scale)
        got = rne_mulshift(v, m, s)
        exact = Fraction(v) * Fraction(scale)
        nearest = round(exact)  # Fraction round is round-half-even
        assert abs(got - nearest) <= 1


class TestQuantizeModel:
    def test_empty_calibration(self, make_stream):
        with pytest.raises(EmptyCalibration):
            quantize_model(random_fp_model(0), make_stream(64, 48))

    def test_weight_scale_rule(self):
        fp = random_fp_model(2)
        fp.layers[0].weights[:] = 0.0
        fp.layers[0].weights[0, 0] = 12.7
        fp.layers[0].weights[0, 1] = 1.27
        qm, _ = quantize_model(fp, _calib_stream(count=300))
        assert qm.layers[0].weights[0, 0] == 127
        assert qm.layers[0].weights[0, 1] == 13

    def test_all_zero_weights(self):
        fp = random_fp_model(3)
        fp.layers[1].weights[:] = 0.0
        qm, rep = quantize_model(fp, _calib_stream(count=300))
        assert np.all(qm.layers[1].weights == 0)
        # weight scale 1.0: the bias is quantized at the input scale alone
        assert np.array_equal(qm.layers[1].bias, np.round(
            fp.layers[1].bias / rep.activation_scales[0]))

    def test_quantized_model_runs(self, small_stream):
        fp = random_fp_model(4)
        qm, _ = quantize_model(fp, _calib_stream())
        res = engine.run_stream(qm, small_stream)
        assert max(f.max() for f in res.feats) <= 127

    def test_argmax_agreement(self):
        fp = random_fp_model(5)
        calib = _calib_stream(seed=1)
        qm, _ = quantize_model(fp, calib)
        held_out = _calib_stream(seed=2)
        adj = engine.build_adjacency(held_out, fp.search)
        ref = forward_eq7_fp(held_out, adj, fp)
        got = static_oracle.forward_eq7_int8(held_out, adj, qm)
        agree = float(np.mean(got.cls == ref.cls))
        assert agree >= 0.95


class TestFpModelSerialization:
    def test_round_trip(self):
        fp = random_fp_model(6, with_bn=True)
        back = fp_model_from_json(fp_model_to_json(fp))
        for a, b in zip(fp.layers, back.layers):
            assert np.allclose(a.weights, b.weights)
            assert np.allclose(a.bias, b.bias)
            assert np.allclose(a.bn["gamma"], b.bn["gamma"])
        assert np.allclose(fp.fc_weights, back.fc_weights)
        assert back.search == fp.search

    @pytest.mark.parametrize("shape", ["hemisphere", "semi_octahedron"])
    def test_cone_shape_rejected(self, shape):
        doc = fp_model_to_json(random_fp_model(6))
        doc["search"] = {"shape": shape, "r": 2.5, "beta": 0.02, "D_max": 8}
        with pytest.raises(ModelConfigError, match=shape):
            fp_model_from_json(doc)

    def test_old_cone_keys_ignored(self):
        """FP files that still carry the "r" and "beta" search keys load."""
        fp = random_fp_model(6, search=SearchParams(shape="cylinder", d_max=8))
        doc = fp_model_to_json(fp)
        old = fp_model_to_json(fp)
        old["search"].update(r=2.5, beta=0.02)
        assert "r" not in doc["search"] and "beta" not in doc["search"]
        assert fp_model_from_json(old).search == fp.search
        assert fp_model_from_json(doc).search == fp.search

    def test_quantize_after_round_trip_identical(self):
        fp = random_fp_model(7)
        calib = _calib_stream(count=400)
        qm1, _ = quantize_model(fp, calib)
        qm2, _ = quantize_model(
            fp_model_from_json(fp_model_to_json(fp)), calib)
        for a, b in zip(qm1.layers, qm2.layers):
            assert np.array_equal(a.weights, b.weights)
            assert a.requant == b.requant
