import base64
import json

import numpy as np
import pytest

from evgnn import engine, event_io
from evgnn.cli import EXIT_OK, main
from evgnn.graph_builder import SearchParams
from evgnn.model import (DenseParams, LayerParams, ModelConfigError,
                         ModelHeader, QuantizedModel, calibration_model,
                         fp_model_from_json, fp_model_to_json, load_model,
                         model_from_json, model_to_json, random_fp_model,
                         random_model, save_model)
from helpers import assert_models_equal, list_form_doc


class TestValidation:
    def test_weights_shape_checked(self):
        with pytest.raises(ModelConfigError):
            LayerParams(c_in=2, c_out=3, weights=np.zeros((3, 3)),
                        bias=np.zeros(3), requant=(1, 0))

    def test_weight_magnitude_checked(self):
        w = np.zeros((1, 3))
        w[0, 0] = 128
        with pytest.raises(ModelConfigError):
            LayerParams(c_in=1, c_out=1, weights=w, bias=np.zeros(1),
                        requant=(1, 0))

    def test_requant_31_bit(self):
        with pytest.raises(ModelConfigError):
            LayerParams(c_in=1, c_out=1, weights=np.zeros((1, 3)),
                        bias=np.zeros(1), requant=(2**31, 0))

    def test_layer_chain_checked(self):
        m = random_model(0)
        bad = m.layers[:-1] + [LayerParams(
            c_in=m.layers[-1].c_in + 1, c_out=m.layers[-1].c_out,
            weights=np.zeros((m.layers[-1].c_out, m.layers[-1].c_in + 3)),
            bias=np.zeros(m.layers[-1].c_out), requant=(1, 0))]
        with pytest.raises(ModelConfigError):
            QuantizedModel(width=m.width, height=m.height, layers=bad,
                           fc=m.fc, search=m.search)

    def test_fc_in_dim_checked(self):
        m = random_model(0)
        bad_fc = DenseParams(in_dim=m.fc.in_dim + 1, out_dim=2,
                             weights=np.zeros((2, m.fc.in_dim + 1)),
                             bias=np.zeros(2))
        with pytest.raises(ModelConfigError):
            QuantizedModel(width=m.width, height=m.height, layers=m.layers,
                           fc=bad_fc, search=m.search)


def _max_bias(doc: dict, layer: int) -> int:
    """Largest channel-0 bias keeping |acc + bias| < 2**31 in that layer."""
    ld = doc["layers"][layer]
    row = np.abs(np.asarray(ld["weights"]).reshape(ld["C_out"], -1)[0])
    worst = int(row[:-2].sum()) * 127 + int(row[-2:].sum()) * 32767
    return 2**31 - 1 - worst


class TestRangeProof:
    """On version-1 list-form documents, whose arrays can hold any JSON
    integer; test_cli's TestModelFiles holds the base64-blob cases."""

    def test_huge_bias_rejected(self):
        # the batch engine's int64 requant product v * M would wrap
        doc = list_form_doc(random_model(2, width=48, height=32))
        doc["layers"][1]["bias"][0] = 2**40
        with pytest.raises(ModelConfigError):
            model_from_json(doc)

    def test_just_under_limit_runs_exactly(self):
        doc = list_form_doc(random_model(2, width=48, height=32))
        doc["layers"][1]["bias"][0] = _max_bias(doc, 1)
        model = model_from_json(doc)
        stream = event_io.gen_synthetic(
            "uniform_random",
            {"width": 48, "height": 32, "count": 300, "duration_us": 3_000},
            seed=4)
        state = engine.EngineState.new(model, len(stream))
        preds = [engine.process_event(state, model, ev)
                 for ev in stream.events]
        res = engine.run_stream(model, stream)
        assert np.array_equal(res.logits, np.stack([p.logits for p in preds]))
        for l in range(len(model.layers)):
            assert np.array_equal(res.feats[l],
                                  np.stack([p.feats[l] for p in preds]))

    def test_just_over_limit_rejected(self):
        doc = list_form_doc(random_model(2, width=48, height=32))
        doc["layers"][1]["bias"][0] = _max_bias(doc, 1) + 1
        with pytest.raises(ModelConfigError):
            model_from_json(doc)

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(input_encoding={"0": -127, "1": 128}),
        lambda d: d["layers"][0]["pos_requant"].update({"M": 2**31}),
        lambda d: d["layers"][0]["requant"].update({"shift": 63}),
        lambda d: d["layers"][0]["pos_requant"].update({"shift": -1}),
        lambda d: d["fc"]["weights"].__setitem__(0, 128),
        lambda d: d["fc"]["bias"].__setitem__(0, 2**31),
    ], ids=["input_encoding", "pos_M", "shift", "pos_shift", "fc_weight",
            "fc_bias"])
    def test_out_of_range_rejected(self, edit):
        doc = list_form_doc(random_model(2, width=48, height=32))
        edit(doc)
        with pytest.raises(ModelConfigError):
            model_from_json(doc)


class TestSerialization:
    def test_blob_form(self, small_model):
        """Version 2 stores each weights array as base64 int8 bytes and
        each bias as base64 little-endian int32 bytes."""
        doc = model_to_json(small_model)
        assert doc["version"] == 2
        for d, p in zip(doc["layers"] + [doc["fc"]],
                        small_model.layers + [small_model.fc]):
            w = np.frombuffer(base64.b64decode(d["weights"]), dtype="<i1")
            b = np.frombuffer(base64.b64decode(d["bias"]), dtype="<i4")
            assert np.array_equal(w, p.weights.reshape(-1))
            assert np.array_equal(b, p.bias)

    @pytest.mark.parametrize("version", [1, 2])
    def test_list_form_loads_equal(self, small_model, version):
        """A list-form file, as every file before the blobs, loads to the
        values of the model it was written from, under either version."""
        doc = list_form_doc(small_model)
        doc["version"] = version
        assert_models_equal(model_from_json(json.loads(json.dumps(doc))),
                            small_model)

    @pytest.mark.parametrize("where, value", [
        ("weights", 128), ("weights", -129), ("bias", 2**31),
        ("bias", -2**31 - 1)])
    @pytest.mark.parametrize("layer", [0, None], ids=["layer0", "fc"])
    def test_writer_rejects_what_its_blob_cannot_hold(self, where, value,
                                                      layer):
        """A value changed after construction that the blob type cannot
        hold makes the writer raise, not wrap."""
        model = random_model(2, width=48, height=32)
        params = model.fc if layer is None else model.layers[layer]
        getattr(params, where).reshape(-1)[0] = value
        with pytest.raises(ModelConfigError, match="does not fit"):
            model_to_json(model)

    def test_round_trip(self, small_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_model, str(path))
        assert_models_equal(load_model(str(path)), small_model)

    def test_grid_consistency_checked(self, small_model):
        doc = model_to_json(small_model)
        doc["grid"]["Gx"] = 99
        with pytest.raises(ModelConfigError):
            model_from_json(doc)

    def test_missing_field(self):
        with pytest.raises(ModelConfigError):
            model_from_json({"sensor": {"W": 8, "H": 8}})

    def test_absent_header_blocks_take_the_defaults(self):
        """A document without search, grid and classes loads SearchParams()
        and the ModelHeader defaults."""
        doc = model_to_json(random_model(2, width=48, height=32))
        for key in ("search", "grid", "classes"):
            del doc[key]
        model = model_from_json(doc)
        assert model.search == SearchParams()
        assert model.header() == ModelHeader(width=48, height=32).header()

    @pytest.mark.parametrize("block, key", [
        ("search", "r_s"), ("search", "r_t"), ("search", "D_max"),
        ("search", "queue_depth"), ("grid", "patch")])
    def test_a_lone_header_key_must_be_an_integer(self, block, key):
        """A key read alone from its block still goes through the integer
        check, with its own message."""
        doc = model_to_json(random_model(2, width=48, height=32))
        doc[block] = {key: 3.0}
        with pytest.raises(ModelConfigError,
                           match=rf"^{block} {key}: 3.0 is not an integer$"):
            model_from_json(doc)

    def test_old_cone_keys_ignored(self, small_model):
        """Files that still carry the "r" and "beta" search keys load."""
        doc = model_to_json(small_model)
        old = model_to_json(small_model)
        old["search"].update(r=2.5, beta=0.02)
        assert "r" not in doc["search"] and "beta" not in doc["search"]
        assert model_from_json(old).search == model_from_json(doc).search

    def test_retired_keys_load_equal(self, small_model):
        """A file that carries the retired "empty_aggregation": "zero",
        "input_encoding": {"0": -127, "1": 127} and a per-layer "s_in"
        loads equal to one without them."""
        doc = model_to_json(small_model)
        old = json.loads(json.dumps(doc))
        old["empty_aggregation"] = "zero"
        old["input_encoding"] = {"0": -127, "1": 127}
        for ld in old["layers"]:
            ld["s_in"] = 0.5
        assert "empty_aggregation" not in doc and "input_encoding" not in doc
        assert all("s_in" not in ld for ld in doc["layers"])
        assert_models_equal(model_from_json(old), model_from_json(doc))

    def test_hw_block_ignored(self, small_model, small_stream, tmp_path):
        """A model file that still carries an "hw" block loads as it would
        without it, and bench --hw reads the block from that file."""
        doc = model_to_json(small_model)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**doc, "hw": {"clock_hz": 1e8}}))
        assert "hw" not in doc
        assert model_to_json(load_model(str(path))) == doc
        stream, report = tmp_path / "stream.txt", tmp_path / "report.json"
        stream.write_text(event_io.write_text_stream(small_stream))
        assert main(["bench", str(path), str(stream), "--hw", str(path),
                     "--report-out", str(report)]) == EXIT_OK
        totals = json.loads(report.read_text())["totals"]
        assert totals["ns"] == totals["cycles"] * 10  # 100 MHz


class _Recording(dict):
    """A JSON object that records each of its keys a reader reads."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def items(self):
        self.read.update(self)
        return super().items()

    def values(self):
        self.read.update(self)
        return super().values()


def _unread(value, path="") -> list[str]:
    """The path of every key under value that its reader did not read."""
    if isinstance(value, list):
        return [u for i, v in enumerate(value)
                for u in _unread(v, f"{path}[{i}]")]
    if not isinstance(value, _Recording):
        return []
    out = []
    for k, v in dict.items(value):  # dict.items: walking reads nothing
        if k not in value.read:
            out.append(f"{path}.{k}")
        out += _unread(v, f"{path}.{k}")
    return out


def _unread_keys(doc: dict, read) -> list[str]:
    """The keys of the written document doc that read(doc) leaves."""
    recorded = json.loads(json.dumps(doc), object_hook=_Recording)
    read(recorded)
    return _unread(recorded)


class TestWrittenKeysAreRead:
    """Nothing a writer emits is ignored by its reader: a key written and
    never read (as "s_in" and "input_encoding" were) would claim a
    meaning the loaded model does not have."""

    def test_int8_model(self):
        doc = model_to_json(random_model(3, layer_dims=(4, 5)))
        assert _unread_keys(doc, model_from_json) == []

    def test_fp_model(self):
        doc = fp_model_to_json(random_fp_model(3, with_bn=True))
        assert all("bn" in ld for ld in doc["layers"])
        assert _unread_keys(doc, fp_model_from_json) == []

    def test_flags_a_stray_key(self):
        doc = model_to_json(random_model(3, layer_dims=(4, 5)))
        doc["stray"] = 1
        doc["layers"][1]["s_in"] = 0.5
        doc["search"]["r"] = 2.5
        assert sorted(_unread_keys(doc, model_from_json)) == [
            ".layers[1].s_in", ".search.r", ".stray"]


class TestCalibrationModel:
    def test_architecture(self):
        m = calibration_model()
        assert (m.width, m.height) == (120, 100)
        assert [l.c_out for l in m.layers] == [24, 40, 40, 24]
        assert (m.n_cells_x, m.n_cells_y) == (8, 7)
        assert m.search.shape == "prism"

    def test_parameter_budget(self):
        m = calibration_model()
        conv = sum(l.weights.size for l in m.layers)
        total = conv + m.fc.weights.size
        assert conv == 3800
        assert 6_000 <= total <= 7_000

    def test_depth_ratio(self):
        m = calibration_model()
        depths = [l.c_in + 2 for l in m.layers]
        assert 2.35 <= sum(depths) / max(depths) <= 2.95
