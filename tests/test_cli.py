import json

import numpy as np
import pytest

from evgnn import engine, event_io, graph_builder, quant, static_oracle
from evgnn.cli import EXIT_DIVERGENCE, EXIT_IO, EXIT_OK, main
from evgnn.graph_builder import SearchParams
from evgnn.model import load_model, model_to_json, save_model


@pytest.fixture()
def model_path(small_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(small_model, str(path))
    return str(path)


@pytest.fixture(params=["hemisphere", "semi_octahedron"])
def brute_force_shape_model(request, small_model, tmp_path):
    """A model whose search shape has no queue-backed graph build."""
    doc = model_to_json(small_model)
    doc["search"] = {"shape": request.param, "r": 3.0, "beta": 0.01}
    path = tmp_path / "shape_model.json"
    path.write_text(json.dumps(doc))
    return str(path), request.param


@pytest.fixture()
def stream_path(small_stream, tmp_path):
    path = tmp_path / "stream.txt"
    path.write_text(event_io.write_text_stream(small_stream))
    return str(path)


def _inject(monkeypatch, module, name, feats=(), logits=(), only=None):
    """Rebind module.name to return its result off by one at each fault.

    feats holds (layer, n, channel), layers numbered from 1 as verify
    prints them; logits holds (n, class). only, if given, picks the calls
    to corrupt by their keyword arguments.
    """
    real = getattr(module, name)

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        if only is None or only(kwargs):
            for l, n, c in feats:
                out.feats[l - 1][n, c] += 1
            for n, c in logits:
                out.logits[n, c] += 1
        return out

    monkeypatch.setattr(module, name, corrupted)


class TestGen:
    def test_deterministic(self, tmp_path):
        args = ["gen", "--kind", "uniform_random", "--width", "32",
                "--height", "24", "--count", "200", "--seed", "1"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["-o", str(a)]) == EXIT_OK
        assert main(args + ["-o", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_binary_output_parses(self, tmp_path):
        out = tmp_path / "s.bin"
        assert main(["gen", "--width", "32", "--height", "24",
                     "--count", "100", "--format", "bin",
                     "-o", str(out)]) == EXIT_OK
        s = event_io.parse_binary_stream(out.read_bytes(), 32, 24)
        assert len(s) == 100

    def test_binary_field_overflow_is_config_error(self, tmp_path, capsys):
        # x up to 69999 does not fit the record's u16 field
        assert main(["gen", "--kind", "uniform_random", "--width", "70000",
                     "--height", "4", "--count", "200", "--format", "bin",
                     "-o", str(tmp_path / "s.bin")]) == EXIT_IO
        assert "does not fit" in capsys.readouterr().err


class TestInfer:
    def test_trace_deterministic(self, model_path, stream_path, tmp_path):
        t1, t2 = tmp_path / "t1.txt", tmp_path / "t2.txt"
        assert main(["infer", model_path, stream_path,
                     "--trace-out", str(t1)]) == EXIT_OK
        assert main(["infer", model_path, stream_path,
                     "--trace-out", str(t2)]) == EXIT_OK
        assert t1.read_bytes() == t2.read_bytes()

    def test_sequential_trace_identical(self, model_path, stream_path,
                                        tmp_path):
        par, seq = tmp_path / "par.txt", tmp_path / "seq.txt"
        main(["infer", model_path, stream_path, "--trace-out", str(par)])
        main(["infer", model_path, stream_path, "--sequential",
              "--trace-out", str(seq)])
        assert par.read_bytes() == seq.read_bytes()

    def test_trace_line_format(self, model_path, stream_path, tmp_path):
        trace = tmp_path / "t.txt"
        main(["infer", model_path, stream_path, "--trace-out", str(trace)])
        lines = trace.read_text().splitlines()
        first = lines[0].split()
        assert first[0] == "0"
        assert len(first) == 4  # n, class, two logits

    def test_empty_stream_ok(self, model_path, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["infer", model_path, str(empty)]) == EXIT_OK
        assert "no events" in capsys.readouterr().out

    def test_missing_stream_is_io_error(self, model_path, tmp_path):
        assert main(["infer", model_path,
                     str(tmp_path / "nope.txt")]) == EXIT_IO

    def test_unsupported_shape_is_config_error(self, brute_force_shape_model,
                                               stream_path, capsys):
        path, shape = brute_force_shape_model
        assert main(["infer", path, stream_path]) == EXIT_IO
        assert shape in capsys.readouterr().err

    def test_bad_search_override_is_config_error(self, model_path,
                                                 stream_path):
        assert main(["infer", model_path, stream_path,
                     "--d-max", "0"]) == EXIT_IO

    def test_jobs_parallel_streams(self, model_path, small_stream, tmp_path):
        paths = []
        for i in range(3):
            p = tmp_path / f"s{i}.txt"
            p.write_text(event_io.write_text_stream(small_stream))
            paths.append(str(p))
        assert main(["infer", model_path, *paths, "--jobs", "2"]) == EXIT_OK


class TestVerify:
    def test_clean_model_exit_zero(self, model_path, stream_path, capsys,
                                   monkeypatch):
        # both level schedules run on one build of the dependency levels
        builds = []
        real = graph_builder.dependency_levels
        monkeypatch.setattr(graph_builder, "dependency_levels",
                            lambda adj: builds.append(adj) or real(adj))
        assert main(["verify", model_path, stream_path]) == EXIT_OK
        assert "OK" in capsys.readouterr().out
        assert len(builds) == 1

    def test_corrupted_requant_stays_consistent(self, small_model,
                                                stream_path, tmp_path):
        # all three paths share the model, so corrupting a requant changes
        # every path identically; verify must still report equality
        doc = model_to_json(small_model)
        doc["layers"][1]["requant"]["M"] -= 12345
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad), stream_path]) == EXIT_OK

    def test_divergence_detected(self, model_path, stream_path,
                                 monkeypatch, capsys):
        # fault-inject the static oracle to prove verify catches divergence
        _inject(monkeypatch, static_oracle, "forward_eq7_int8",
                feats=[(2, 3, 0)])
        assert main(["verify", model_path, stream_path]) == EXIT_DIVERGENCE
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out and "n=3" in out

    def test_sequential_leg_divergence(self, small_model, small_stream,
                                       model_path, stream_path, monkeypatch,
                                       capsys):
        v = engine.run_stream(small_model, small_stream).feats[1][5, 3]
        _inject(monkeypatch, engine, "run_stream", feats=[(2, 5, 3)],
                only=lambda kwargs: kwargs.get("sequential"))
        assert main(["verify", model_path, stream_path]) == EXIT_DIVERGENCE
        assert capsys.readouterr().out == (
            f"DIVERGENCE vs layer-sequential: event n=5 layer=2 channel=3: "
            f"{v} != {v + 1}\n")

    def test_logits_only_divergence(self, model_path, stream_path,
                                    monkeypatch, capsys):
        _inject(monkeypatch, static_oracle, "forward_eq7_int8",
                logits=[(77, 1)])
        assert main(["verify", model_path, stream_path]) == EXIT_DIVERGENCE
        assert capsys.readouterr().out == (
            "DIVERGENCE vs static-oracle: logits at event n=77 class=1\n")

    @pytest.mark.parametrize("faults, first", [
        ([(3, 50, 0), (1, 60, 0)], "n=50 layer=3 channel=0"),
        ([(2, 40, 4), (3, 40, 1)], "n=40 layer=2 channel=4"),
        ([(2, 40, 6), (2, 40, 2)], "n=40 layer=2 channel=2"),
    ])
    def test_first_divergence_reported(self, model_path, stream_path,
                                       monkeypatch, capsys, faults, first):
        # the lowest event, then the lowest layer, then the lowest channel
        _inject(monkeypatch, static_oracle, "forward_eq7_int8", feats=faults)
        assert main(["verify", model_path, stream_path]) == EXIT_DIVERGENCE
        out = capsys.readouterr().out
        assert out.startswith(f"DIVERGENCE vs static-oracle: event {first}: ")

    def test_unsupported_shape_is_config_error(self, brute_force_shape_model,
                                               stream_path, capsys):
        path, shape = brute_force_shape_model
        assert main(["verify", path, stream_path]) == EXIT_IO
        assert shape in capsys.readouterr().err

    def test_missing_model_exit_two(self, stream_path, tmp_path):
        assert main(["verify", str(tmp_path / "no.json"),
                     stream_path]) == EXIT_IO

    def test_malformed_stream_exit_two(self, model_path, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3\n")
        assert main(["verify", model_path, str(bad)]) == EXIT_IO

    def test_empty_stream_ok(self, model_path, tmp_path, capsys):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert main(["verify", model_path, str(empty)]) == EXIT_OK
        assert "no events" in capsys.readouterr().out


class TestBench:
    def test_report_written(self, model_path, stream_path, tmp_path):
        report = tmp_path / "report.json"
        assert main(["bench", model_path, stream_path,
                     "--report-out", str(report)]) == EXIT_OK
        doc = json.loads(report.read_text())
        assert "per_stage" in doc and "totals" in doc
        assert doc["totals"]["events"] == 600
        assert doc["mflops_per_event"] > 0

    def test_hw_config_energy(self, model_path, stream_path, tmp_path,
                              capsys):
        hw = tmp_path / "hw.json"
        hw.write_text(json.dumps({"hw": {"e_mac": 1e-12,
                                         "e_sram_byte": 1e-12,
                                         "e_dram_byte": 1e-10}}))
        assert main(["bench", model_path, stream_path,
                     "--hw", str(hw)]) == EXIT_OK
        assert "nJ/ev" in capsys.readouterr().out

    @pytest.mark.parametrize("text, message", [
        ('{"hw": {"clock_hz": 2e8,', "bad hw config"),
        ('{"hw": {"baq_cycles": 0}}', "must be positive"),
        ('{"hw": {"clock_hz": "fast"}}', "bad hw config"),
        ('{"hw": {"e_mac": 1e-12, "e_sram_byte": 1e-12}}',
         "e_mac needs e_sram_byte and e_dram_byte"),
        ('[200000000.0]', "must be a JSON object"),
    ], ids=["malformed_json", "non_positive", "wrong_type",
            "e_mac_alone", "not_an_object"])
    def test_bad_hw_config_is_config_error(self, model_path, stream_path,
                                           tmp_path, capsys, text, message):
        hw = tmp_path / "hw.json"
        hw.write_text(text)
        assert main(["bench", model_path, stream_path,
                     "--hw", str(hw)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_missing_hw_config_is_io_error(self, model_path, stream_path,
                                           tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["bench", model_path, stream_path,
                     "--hw", str(missing)]) == EXIT_IO
        assert "cannot read hw config" in capsys.readouterr().err

    def test_search_overrides(self, model_path, stream_path):
        assert main(["bench", model_path, stream_path, "--r-s", "1",
                     "--d-max", "4"]) == EXIT_OK

    def test_empty_stream_ok(self, model_path, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["bench", model_path, str(empty)]) == EXIT_OK
        assert "no events" in capsys.readouterr().out

    def test_per_event_des_divergence(self, model_path, stream_path,
                                      monkeypatch, capsys):
        # errors of +1 and -1 cancel in the total; the check must see them
        from evgnn import cli, perf_model

        real = perf_model.simulate_cycles

        def shifted(*args, **kwargs):
            report = real(*args, **kwargs)
            report.per_event_cycles[5] += 1
            report.per_event_cycles[9] -= 1
            return report

        monkeypatch.setattr(cli.perf_model, "simulate_cycles", shifted)
        assert main(["bench", model_path, stream_path]) == EXIT_DIVERGENCE
        assert "n=5" in capsys.readouterr().err


class TestQuantizePipeline:
    def test_gen_model_quantize_infer(self, tmp_path, capsys):
        fp_path = tmp_path / "fp.json"
        calib = tmp_path / "calib.txt"
        qpath = tmp_path / "q.json"
        stream = tmp_path / "s.txt"
        assert main(["gen-model", "--width", "48", "--height", "32",
                     "--seed", "2", "--with-bn", "-o", str(fp_path)]) == EXIT_OK
        assert main(["gen", "--width", "48", "--height", "32", "--count",
                     "1500", "--seed", "3", "-o", str(calib)]) == EXIT_OK
        assert main(["quantize", str(fp_path), "--calib", str(calib),
                     "-o", str(qpath)]) == EXIT_OK
        assert main(["gen", "--width", "48", "--height", "32", "--count",
                     "400", "--seed", "4", "-o", str(stream)]) == EXIT_OK
        assert main(["infer", str(qpath), str(stream)]) == EXIT_OK
        assert main(["verify", str(qpath), str(stream)]) == EXIT_OK

    def test_identity_bn_fold_unchanged(self, tmp_path):
        fp = quant.random_fp_model(5, width=48, height=32, with_bn=True)
        for layer in fp.layers:
            layer.bn = {"gamma": np.ones(layer.c_out),
                        "beta": np.zeros(layer.c_out),
                        "mean": np.zeros(layer.c_out),
                        "var": np.ones(layer.c_out), "eps": 0.0}
        folded = quant.fold_model(fp)
        for a, b in zip(fp.layers, folded.layers):
            assert np.allclose(a.weights, b.weights)
            assert np.allclose(a.bias, b.bias)

    def test_quantize_bad_fp_model(self, tmp_path, stream_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["quantize", str(bad), "--calib", stream_path,
                     "-o", str(tmp_path / "q.json")]) == EXIT_IO

    @pytest.mark.parametrize("shape", ["hemisphere", "semi_octahedron"])
    def test_unsupported_shape_is_config_error(self, shape, tmp_path,
                                               stream_path, capsys):
        fp = quant.random_fp_model(
            5, search=SearchParams(shape=shape, r=3.0, beta=0.01))
        fp_path = tmp_path / "fp.json"
        quant.save_fp_model(fp, str(fp_path))
        out = tmp_path / "q.json"
        assert main(["quantize", str(fp_path), "--calib", stream_path,
                     "-o", str(out)]) == EXIT_IO
        assert shape in capsys.readouterr().err
        assert not out.exists()


def test_commands_build_no_event_objects(model_path, tmp_path, monkeypatch):
    """Every command runs on the stream's columns alone."""
    def no_events(*_args):
        raise AssertionError("an Event object was built")

    monkeypatch.setattr(event_io, "Event", no_events)
    sensor = ["--width", "64", "--height", "48", "--count", "300"]
    bin_path, text_path = tmp_path / "s.bin", tmp_path / "s.txt"
    assert main(["gen", *sensor, "--format", "bin",
                 "-o", str(bin_path)]) == EXIT_OK
    assert main(["gen", *sensor, "-o", str(text_path)]) == EXIT_OK
    stream = str(bin_path)
    assert main(["infer", model_path, stream,
                 "--trace-out", str(tmp_path / "t.txt")]) == EXIT_OK
    assert main(["verify", model_path, stream]) == EXIT_OK
    assert main(["bench", model_path, stream,
                 "--report-out", str(tmp_path / "r.json")]) == EXIT_OK
    fp_path = tmp_path / "fp.json"
    assert main(["gen-model", "--width", "64", "--height", "48",
                 "-o", str(fp_path)]) == EXIT_OK
    assert main(["quantize", str(fp_path), "--calib", stream,
                 "-o", str(tmp_path / "q.json")]) == EXIT_OK
