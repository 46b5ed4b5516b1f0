import argparse
import base64
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evgnn import cli, engine, event_io, graph_builder, quant, static_oracle
from evgnn.cli import EXIT_DIVERGENCE, EXIT_IO, EXIT_OK, main
from evgnn.model import (fp_model_to_json, load_fp_model, load_model,
                         model_to_json, random_fp_model, random_model,
                         save_fp_model, save_model)
from helpers import assert_models_equal, list_form_doc


@pytest.fixture()
def model_path(small_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(small_model, str(path))
    return str(path)


@pytest.fixture(params=["hemisphere", "semi_octahedron"])
def brute_force_shape_model(request, small_model, tmp_path):
    """A model file with a cone search shape, which the loader rejects."""
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


@pytest.fixture()
def inline_pool(monkeypatch):
    """Swap in a pool stand-in that records its size and maps in this
    process, so a test starts no process; returns the recorded sizes."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    return sizes


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

    @pytest.mark.parametrize("argv", [
        ["gen", "--vx", "nan"], ["gen", "--vy", "nan"],
        ["gen", "--dot-radius", "nan"], ["gen", "--vx", "inf"],
        ["gen", "--vx", "1e307"], ["gen-model", "--width", "0"],
        ["gen-model", "--seed", "-1"],
    ], ids=["vx_nan", "vy_nan", "radius_nan", "vx_inf", "vx_overflows",
            "model_width_0", "model_seed_negative"])
    def test_bad_flag_is_config_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["-o", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad {argv[0]} flags: ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestInfer:
    def test_trace_deterministic(self, model_path, stream_path, tmp_path):
        t1, t2 = tmp_path / "t1.txt", tmp_path / "t2.txt"
        assert main(["infer", model_path, stream_path,
                     "--trace-out", str(t1)]) == EXIT_OK
        assert main(["infer", model_path, stream_path,
                     "--trace-out", str(t2)]) == EXIT_OK
        assert t1.read_bytes() == t2.read_bytes()

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

    def test_jobs_print_one_line_per_stream_in_order(self, model_path,
                                                      tmp_path):
        """The workers return their lines and the parent prints them: with
        stdout piped, three streams give three lines in argument order,
        though the first stream, the longest, finishes last."""
        paths = []
        for seed, count in enumerate([3000, 600, 60]):
            path = tmp_path / f"s{seed}.txt"
            path.write_text(event_io.write_text_stream(event_io.gen_synthetic(
                "uniform_random", {"width": 64, "height": 48, "count": count,
                                   "duration_us": 20_000}, seed)))
            paths.append(str(path))
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "evgnn.cli", "infer", model_path, *paths,
             "--jobs", "3"], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == EXIT_OK, proc.stderr
        lines = proc.stdout.split("\n")
        assert lines[-1] == ""
        assert [l.split(":")[0] for l in lines[:-1]] == paths
        assert [l.split()[1] for l in lines[:-1]] == [
            "events=3000", "events=600", "events=60"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_out_of_memory_is_io_error(self, model_path, stream_path,
                                       tmp_path, inline_pool, monkeypatch,
                                       capsys, jobs):
        """A failed allocation (a huge --r-s window, say) is one error
        line and exit 2, also when it comes out of the worker pool."""
        def no_memory(*_args, **_kwargs):
            raise MemoryError("Unable to allocate 298. GiB")

        monkeypatch.setattr(engine, "run_stream", no_memory)
        trace = tmp_path / "t.txt"
        argv = (["infer", model_path, stream_path, "--trace-out", str(trace)]
                if jobs == "1" else
                ["infer", model_path, stream_path, stream_path,
                 "--jobs", jobs])
        assert main(argv) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: out of memory: "
                                "Unable to allocate 298. GiB\n")
        assert not trace.exists()

    def test_jobs_capped_at_stream_count(self, model_path, stream_path,
                                         inline_pool):
        assert main(["infer", model_path, stream_path, stream_path,
                     "--jobs", "1000"]) == EXIT_OK
        assert inline_pool == [2]

    @pytest.mark.parametrize("jobs", ["1", "3"])
    def test_model_loaded_once_per_command(self, model_path, stream_path,
                                           inline_pool, monkeypatch, jobs):
        """One model load and one run plan serve all three streams."""
        loads, plans = [], []
        real_load, real_plan = cli.load_model, engine.build_plan

        def counting(path):
            loads.append(path)
            return real_load(path)

        monkeypatch.setattr(cli, "load_model", counting)
        monkeypatch.setattr(engine, "build_plan",
                            lambda model: plans.append(model)
                            or real_plan(model))
        assert main(["infer", model_path, stream_path, stream_path,
                     stream_path, "--jobs", jobs]) == EXIT_OK
        assert loads == [model_path]
        assert len(plans) == 1
        assert inline_pool == ([] if jobs == "1" else [3])

    def test_list_form_model_same_trace(self, small_model, stream_path,
                                        tmp_path, capsys):
        """A version-1 list-form file and the blob file of the same model
        give byte-identical traces and verify output."""
        blob, listed = tmp_path / "blob.json", tmp_path / "list.json"
        save_model(small_model, str(blob))
        listed.write_text(json.dumps(list_form_doc(small_model)))
        outs = []
        for path in (blob, listed):
            trace = tmp_path / f"{path.stem}.trace"
            assert main(["infer", str(path), stream_path,
                         "--trace-out", str(trace)]) == EXIT_OK
            capsys.readouterr()
            assert main(["verify", str(path), stream_path]) == EXIT_OK
            outs.append((trace.read_bytes(), capsys.readouterr().out))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_trace_out_with_several_streams_rejected(self, stream_path,
                                                     tmp_path, capsys, jobs):
        # the model path does not exist: the check comes before any read
        trace = tmp_path / "t.txt"
        assert main(["infer", str(tmp_path / "no_model.json"), stream_path,
                     stream_path, "--trace-out", str(trace),
                     "--jobs", jobs]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--trace-out" in captured.err
        assert not trace.exists()

    def test_empty_stream_writes_empty_trace(self, model_path, tmp_path):
        empty, trace = tmp_path / "empty.txt", tmp_path / "t.txt"
        empty.write_text("")
        trace.write_text("0 1 5 -5\n" * 200)  # a previous run's trace
        assert main(["infer", model_path, str(empty),
                     "--trace-out", str(trace)]) == EXIT_OK
        assert trace.read_bytes() == b""


class TestSharedParser:
    """main reuses one parser; no call may see another call's flags."""

    @pytest.fixture()
    def fresh_parser(self):
        cli.build_parser.cache_clear()
        yield
        cli.build_parser.cache_clear()

    @pytest.fixture()
    def run_stream_calls(self, monkeypatch):
        """The model r_s of every engine.run_stream call."""
        calls = []
        real = engine.run_stream

        def recording(model, stream, **kwargs):
            calls.append(model.search.r_s)
            return real(model, stream, **kwargs)

        monkeypatch.setattr(engine, "run_stream", recording)
        return calls

    def test_built_once(self, model_path, stream_path, fresh_parser,
                        monkeypatch, capsys):
        top = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "evgnn":  # subparsers: "evgnn infer"
                top.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        for _ in range(3):
            assert main(["infer", model_path, stream_path]) == EXIT_OK
        with pytest.raises(SystemExit):
            main(["--help"])
        assert len(top) == 1

    def test_search_override_does_not_carry_over(self, small_model,
                                                 model_path, stream_path,
                                                 run_stream_calls):
        assert small_model.search.r_s != 2
        assert main(["infer", model_path, stream_path,
                     "--r-s", "2"]) == EXIT_OK
        assert main(["infer", model_path, stream_path]) == EXIT_OK
        assert run_stream_calls == [2, small_model.search.r_s]

    def test_parse_error_then_valid_call(self, model_path, stream_path):
        with pytest.raises(SystemExit) as exc:
            main(["infer", model_path, stream_path, "--jobs", "many"])
        assert exc.value.code == EXIT_IO
        assert main(["infer", model_path, stream_path]) == EXIT_OK


class TestVerify:
    def test_clean_model_exit_zero(self, model_path, stream_path, capsys,
                                   monkeypatch):
        # the wavefront builds the dependency levels once, and every leg
        # runs on one run plan
        builds, plans = [], []
        real, real_plan = graph_builder.dependency_levels, engine.build_plan
        monkeypatch.setattr(graph_builder, "dependency_levels",
                            lambda adj: builds.append(adj) or real(adj))
        monkeypatch.setattr(engine, "build_plan",
                            lambda model: plans.append(model)
                            or real_plan(model))
        assert main(["verify", model_path, stream_path]) == EXIT_OK
        assert "OK" in capsys.readouterr().out
        assert len(builds) == 1
        assert len(plans) == 1

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

    def test_default_schedule_checked(self, model_path, stream_path,
                                      monkeypatch, capsys):
        # a whole-graph slice chunk one row short: only the default
        # schedule, the one infer runs, takes slices
        real = engine._row_chunks

        def short(group, size):
            chunks = real(group, size)
            if isinstance(group, slice):
                chunks[0] = slice(chunks[0].start, chunks[0].stop - 1)
            return chunks

        monkeypatch.setattr(engine, "_row_chunks", short)
        assert main(["verify", model_path, stream_path]) == EXIT_DIVERGENCE
        assert capsys.readouterr().out.startswith(
            "DIVERGENCE vs layer-sequential: ")

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

    @pytest.mark.parametrize("name, fault", [
        # the channels: reversed rows would be the same table, since
        # slots o and K-1-o of a window hold (dx, dy) and (-dx, -dy)
        ("position_terms", lambda table: table[:, ::-1]),
        ("node_terms", lambda terms: terms + 1),
    ], ids=["offset_table_reversed", "node_terms_plus_one"])
    def test_factoring_fault_detected(self, tmp_path, monkeypatch, capsys,
                                      name, fault):
        # the factored layer serves all three engine schedules alike, so
        # only the unfactored static oracle can catch a fault in it
        model = random_model(3)
        stream = event_io.gen_synthetic(
            "uniform_random", {"width": model.width, "height": model.height,
                               "count": 2000, "duration_us": 20_000}, 3)
        mpath, spath = tmp_path / "m.json", tmp_path / "s.txt"
        save_model(model, str(mpath))
        spath.write_text(event_io.write_text_stream(stream))
        real = getattr(engine, name)
        monkeypatch.setattr(engine, name,
                            lambda *args: fault(real(*args)))
        assert main(["verify", str(mpath), str(spath)]) == EXIT_DIVERGENCE
        assert "DIVERGENCE vs static-oracle" in capsys.readouterr().out

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
         "give all three or none"),
        ('[200000000.0]', "must be a JSON object"),
        ('{"hw": {"clock_Hz": 1e8}}', "clock_Hz"),
        ('{"hw": {"cycles_per_queue_entry_scan": 1.5}}',
         "cycles_per_queue_entry_scan must be an integer"),
        ('{"hw": {"overlap_fetch_compute": "false"}}',
         "overlap_fetch_compute must be true or false"),
        ('{"hw": {"queue_entry_bytes": 9.5}}',
         "queue_entry_bytes must be an integer"),
        ('{"hw": {"e_mac": -1e-12, "e_sram_byte": 1e-12, '
         '"e_dram_byte": 1e-10}}', "e_mac must be non-negative"),
        ('{"hw": {"clock_hz": Infinity}}', "clock_hz must be positive"),
    ], ids=["malformed_json", "non_positive", "wrong_type",
            "e_mac_alone", "not_an_object", "unknown_key",
            "fractional_scan_cycles", "string_bool", "fractional_bytes",
            "negative_energy", "infinite_clock"])
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
        fp = random_fp_model(5, width=48, height=32, with_bn=True)
        for layer in fp.layers:
            layer.bn = {"gamma": np.ones(layer.c_out),
                        "beta": np.zeros(layer.c_out),
                        "mean": np.zeros(layer.c_out),
                        "var": np.ones(layer.c_out), "eps": 0.0}
        folded = quant.fold_model(fp)
        for a, b in zip(fp.layers, folded.layers):
            assert np.allclose(a.weights, b.weights)
            assert np.allclose(a.bias, b.bias)

    @pytest.mark.parametrize("with_bn", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quantized_file_holds_the_model(self, seed, with_bn, tmp_path):
        """The written file parses to the values quantize computed."""
        fp_path, calib, qpath = (tmp_path / "fp.json", tmp_path / "c.txt",
                                 tmp_path / "q.json")
        assert main(["gen-model", "--seed", str(seed), "-o", str(fp_path)]
                    + ["--with-bn"] * with_bn) == EXIT_OK
        assert main(["gen", "--count", "400", "--seed", str(seed),
                     "-o", str(calib)]) == EXIT_OK
        assert main(["quantize", str(fp_path), "--calib", str(calib),
                     "-o", str(qpath)]) == EXIT_OK
        fp = load_fp_model(str(fp_path))
        stream = event_io.parse_text_stream(calib.read_bytes(), fp.width,
                                            fp.height)
        assert_models_equal(load_model(str(qpath)),
                            quant.quantize_model(fp, stream)[0])

    def test_quantize_bad_fp_model(self, tmp_path, stream_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["quantize", str(bad), "--calib", stream_path,
                     "-o", str(tmp_path / "q.json")]) == EXIT_IO

    @pytest.mark.parametrize("key", ["C_in", "C_out"])
    def test_overflowing_dimension_is_config_error(self, key, tmp_path,
                                                   stream_path, capsys):
        doc = fp_model_to_json(random_fp_model(5))
        doc["layers"][0][key] = "HUGE"
        fp_path = tmp_path / "fp.json"
        fp_path.write_text(json.dumps(doc).replace('"HUGE"', "1e400"))
        out = tmp_path / "q.json"
        assert main(["quantize", str(fp_path), "--calib", stream_path,
                     "-o", str(out)]) == EXIT_IO
        assert "bad FP model" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where, named", [
        (lambda d: d["layers"][1]["bias"], "layer 1 bias 1"),
        (lambda d: d["fc"]["bias"], "fc bias 1"),
    ], ids=["layer", "fc"])
    def test_huge_bias_is_config_error(self, where, named, tmp_path,
                                       stream_path, capsys):
        """A bias that quantizes past 2**31 is named before the int64
        cast, which would warn and wrap it."""
        doc = fp_model_to_json(random_fp_model(5))
        where(doc)[1] = 1e300
        fp_path, out = tmp_path / "fp.json", tmp_path / "q.json"
        fp_path.write_text(json.dumps(doc))
        assert main(["quantize", str(fp_path), "--calib", stream_path,
                     "-o", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert re.match(f"error: bad quantization of .*: {named}: 1e\\+300 "
                        f"quantizes to .*, \\|bias\\| >= 2\\*\\*31$", err)
        assert not out.exists()

    @pytest.mark.parametrize("shape", ["hemisphere", "semi_octahedron"])
    def test_unsupported_shape_is_config_error(self, shape, tmp_path,
                                               stream_path, capsys):
        doc = fp_model_to_json(random_fp_model(5))
        doc["search"] = {"shape": shape, "r": 3.0, "beta": 0.01}
        fp_path = tmp_path / "fp.json"
        fp_path.write_text(json.dumps(doc))
        out = tmp_path / "q.json"
        assert main(["quantize", str(fp_path), "--calib", stream_path,
                     "-o", str(out)]) == EXIT_IO
        assert shape in capsys.readouterr().err
        assert not out.exists()


def _layer0_two_channels(doc):
    layer = doc["layers"][0]
    layer["C_in"] = 2
    layer["weights"] += [0.0] * layer["C_out"]


def _no_classes(doc):
    doc["classes"] = []
    doc["fc"].update(out_dim=0, weights=[], bias=[])


def _model_doc(kind: str, small_model) -> dict:
    if kind == "int8":
        return model_to_json(small_model)
    if kind == "int8_list":
        return list_form_doc(small_model)
    return fp_model_to_json(random_fp_model(5, with_bn=kind == "fp_bn"))


def _edit_blob(d: dict, key: str, dtype: str, edit) -> None:
    """Decode the base64 array d[key], apply edit to it, store it back."""
    a = np.frombuffer(base64.b64decode(d[key]), dtype=dtype)
    d[key] = base64.b64encode(edit(a.copy()).tobytes()).decode()


def _set_first(value):
    def edit(a):
        a[0] = value
        return a
    return edit


class TestModelFiles:
    """A malformed model file, or one of the other kind, is a config error
    that stops the command before it writes anything."""

    @pytest.mark.parametrize("kind, edit, command, expect", [
        ("fp", lambda d: d["layers"].pop(1), "quantize", "bad FP model"),
        ("fp", lambda d: d["grid"].update(patch=32), "quantize",
         "bad FP model"),
        ("fp", lambda d: d["grid"].update(patch=0), "quantize",
         "bad FP model"),
        ("fp", _layer0_two_channels, "quantize", "bad FP model"),
        ("int8", lambda d: d["grid"].update(patch=0), "infer", "bad model"),
        ("int8", lambda d: None, "quantize", "bad FP model"),
        ("fp", lambda d: None, "infer", "bad model .*FP model"),
        ("fp_bn", lambda d: d["layers"][1]["bn"]["gamma"].pop(), "quantize",
         "bad FP model"),
        ("fp_bn", lambda d: d["layers"][1]["bn"]["var"].__setitem__(0, -1.0),
         "quantize", "var \\+ eps"),
        ("fp_bn", lambda d: d["layers"][1]["bn"].update(eps="small"),
         "quantize", "bad FP model"),
        ("fp", lambda d: d["layers"][1].update(C_in=-3), "quantize",
         "bad FP model"),
        ("int8", _no_classes, "infer", "bad model .*classes is empty"),
        ("fp", _no_classes, "quantize", "bad FP model .*classes is empty"),
        ("int8", lambda d: _edit_blob(d["layers"][1], "weights", "<i1",
                                      _set_first(-128)),
         "infer", "bad model .*weight magnitude > 127"),
        ("int8", lambda d: d["fc"].update(weights="*" + d["fc"]["weights"]),
         "infer", "bad model .*base64"),
        ("int8", lambda d: _edit_blob(d["layers"][0], "weights", "<i1",
                                      lambda a: np.r_[a, a[:1]]),
         "infer", "layer 0 weights: 25 bytes, need 24 int8"),
        ("int8", lambda d: _edit_blob(d["fc"], "bias", "<i1",
                                      lambda a: a[:-1]),
         "infer", "fc bias: 7 bytes, need 2 int32"),
        ("int8", lambda d: d.update(version=99), "infer",
         "bad model .*version 99"),
        ("fp", lambda d: d.update(version=3), "quantize",
         "bad FP model .*version 3"),
        ("int8", lambda d: d["input_encoding"].pop("1"), "infer",
         "polarities 0 and 1"),
        ("int8_list", lambda d: d["layers"][0]["weights"].__setitem__(0, 1.7),
         "infer", "layer 0 weights: 1.7 is not an integer"),
        ("int8_list", lambda d: d["fc"]["bias"].__setitem__(1, True),
         "infer", "fc bias: True is not an integer"),
        ("int8", lambda d: d["layers"][2]["requant"].update(M=2.0**30),
         "infer", "layer 2 requant M: 1073741824.0 is not an integer"),
        ("int8", lambda d: d["layers"][0]["pos_requant"].update(shift=True),
         "infer", "layer 0 pos_requant shift: True is not an integer"),
        ("int8", lambda d: d["input_encoding"].update({"1": 126.5}),
         "infer", "input_encoding 1: 126.5 is not an integer"),
        ("int8", lambda d: d["sensor"].update(W=64.7), "infer",
         "sensor W: 64.7 is not an integer"),
        ("int8", lambda d: d["search"].update(r_s=True), "infer",
         "search r_s: True is not an integer"),
        ("int8", lambda d: d["search"].update(queue_depth="16"), "infer",
         "search queue_depth: '16' is not an integer"),
        ("int8", lambda d: d["grid"].update(Gx=float(d["grid"]["Gx"])),
         "infer", "grid Gx: 4.0 is not an integer"),
        ("int8", lambda d: d["layers"][1].update(C_out=str(
            d["layers"][1]["C_out"])), "infer",
         "layer 1 C_out: '[0-9]+' is not an integer"),
        ("int8", lambda d: d["fc"].update(in_dim=True), "infer",
         "fc in_dim: True is not an integer"),
        ("fp", lambda d: d["sensor"].update(H=48.5), "quantize",
         "bad FP model .*sensor H: 48.5 is not an integer"),
        ("fp", lambda d: d["fc"].update(out_dim=str(d["fc"]["out_dim"])),
         "quantize", "bad FP model .*fc out_dim: '[0-9]+' is not an integer"),
        ("int8_list", lambda d: d["layers"][1]["weights"].__setitem__(
            0, -2**63), "infer", "bad model .*weight magnitude > 127"),
        ("int8_list", lambda d: d["fc"]["weights"].__setitem__(0, -2**63),
         "infer", "bad model .*fc weight magnitude > 127"),
        ("fp", lambda d: d["layers"][0]["weights"].__setitem__(
            0, float("nan")), "quantize", "bad FP model .*not finite"),
        ("fp", lambda d: d["layers"][2]["weights"].__setitem__(
            3, float("inf")), "quantize", "bad FP model .*not finite"),
        ("fp_bn", lambda d: d["layers"][1]["bn"].update(eps=float("inf")),
         "quantize", "bad FP model .*not finite"),
        ("fp", lambda d: d["fc"]["bias"].__setitem__(0, -float("inf")),
         "quantize", "bad FP model .*not finite"),
    ], ids=["fp_unchained", "fp_fc_in_dim", "fp_patch_0", "fp_layer0_c_in_2",
            "int8_patch_0", "int8_into_quantize", "fp_into_infer",
            "fp_bn_short_gamma", "fp_bn_negative_var",
            "fp_bn_eps_not_a_number", "fp_c_in_minus_3", "int8_no_classes",
            "fp_no_classes", "blob_weight_minus_128", "blob_bad_base64",
            "blob_weights_one_byte_long", "blob_bias_one_byte_short",
            "int8_version_99", "fp_version_3", "int8_encoding_lacks_1",
            "list_weight_1_7", "list_bias_true", "requant_m_float",
            "pos_shift_true", "encoding_half", "sensor_w_64_7", "r_s_true",
            "queue_depth_string", "grid_gx_float", "c_out_string",
            "fc_in_dim_true", "fp_sensor_h_48_5", "fp_out_dim_string",
            "list_weight_minus_2_63", "list_fc_weight_minus_2_63",
            "fp_weight_nan", "fp_weight_infinity", "fp_bn_eps_infinity",
            "fp_fc_bias_minus_infinity"])
    def test_rejected(self, kind, edit, command, expect, small_model,
                      stream_path, tmp_path, capsys):
        doc = _model_doc(kind, small_model)
        edit(doc)
        path, out = tmp_path / "model.json", tmp_path / "out"
        path.write_text(json.dumps(doc))
        argv = (["quantize", str(path), "--calib", stream_path,
                 "-o", str(out)] if command == "quantize"
                else ["infer", str(path), stream_path,
                      "--trace-out", str(out)])
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert re.search(expect, err), err
        assert not out.exists()


@pytest.mark.parametrize("command", ["infer", "verify", "bench",
                                     "quantize"])
def test_model_file_not_utf8(command, stream_path, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe{}")
    argv = ([command, str(path), "--calib", stream_path,
             "-o", str(tmp_path / "q.json")] if command == "quantize"
            else [command, str(path), stream_path])
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad {'FP ' * (command == 'quantize')}"
                          f"model {path}: ")
    assert err.count("\n") == 1 and "utf-8" in err


@pytest.mark.parametrize("command", ["infer", "quantize"])
def test_stream_file_not_utf8(command, model_path, tmp_path, capsys):
    stream, out = tmp_path / "s.txt", tmp_path / "out"
    stream.write_bytes(b"1 2 3 0\n\xff 1 2 0\n")
    if command == "quantize":
        fp_path = tmp_path / "fp.json"
        save_fp_model(random_fp_model(5), str(fp_path))
        argv = ["quantize", str(fp_path), "--calib", str(stream),
                "-o", str(out)]
    else:
        argv = ["infer", model_path, str(stream), "--trace-out", str(out)]
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad stream {stream}: 'utf-8' codec")
    assert err.count("\n") == 1
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
