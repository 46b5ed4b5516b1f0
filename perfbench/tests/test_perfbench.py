"""Tests of the benchmark's own arithmetic, checks and contract.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from evgnn import engine, event_io, perf_model
from evgnn import model as model_io
from evgnn.graph_builder import Adjacency

from perfbench import compare, run, tracing, workloads
from perfbench.tracing import Span, Tracer

ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------ span arithmetic

def test_self_time_subtracts_union_of_children():
    spans = [Span("root", 0.0, 10.0),
             Span("a", 1.0, 4.0, parent=0),
             Span("b", 3.0, 6.0, parent=0),      # overlaps a: union is 1..6
             Span("a.child", 2.0, 3.0, parent=1),
             Span("c", 9.0, 12.0, parent=0)]     # clipped to the parent
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0,
                                                       3.0])


def test_rate_uses_self_time_and_zero_without_spans():
    spans = [Span("engine.run_stream", 0.0, 4.0, counts={"events": 10}),
             Span("graph_builder.build", 0.0, 2.0, parent=0,
                  counts={"events": 10})]
    selfs = tracing.self_times(spans)
    assert tracing.rate(spans, selfs, "engine.run_stream") == 5.0
    assert tracing.rate(spans, selfs, "graph_builder.build") == 5.0
    assert tracing.rate(spans, selfs, "perf_model.des") == 0.0


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10_000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tracing.tail_percentile(n) == expected


def test_tracer_records_nested_spans_and_restores_bindings(tmp_path):
    from evgnn import cli
    original = model_io.load_model
    tracer = Tracer()
    with tracer.installed():
        assert cli.load_model is not original
        assert cli.load_model is model_io.load_model
        with tracer.span("outer"):
            m = model_io.random_model(0, width=16, height=16)
            path = tmp_path / "model.json"
            model_io.save_model(m, str(path))
            cli.load_model(str(path))
    assert cli.load_model is original and model_io.load_model is original
    assert [s.name for s in tracer.spans] == ["outer", "model.load"]
    assert tracer.spans[1].parent == 0
    assert tracer.spans[1].counts == {"calls": 1}
    assert tracer.missing == []


def test_stopwatch_takes_probe_time_out_of_the_lap():
    watch = tracing.Stopwatch()
    with watch.step() as lap:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.6:
            pass
    assert 0.5 < lap.wall < time.perf_counter() - t0
    assert lap.nominal > 0
    assert len(watch.probes) == 2 * tracing.PROBES_BETWEEN_STEPS


# ------------------------------------------------------------ graph figures

def _brute_levels(deg, nbr_n):
    """Longest dependency chain ending at each event, by relaxation."""
    n = len(deg)
    level = [1] * n
    for _ in range(n):
        for i in range(n):
            for j in nbr_n[i][:deg[i]]:
                level[i] = max(level[i], level[j] + 1)
    return level


def test_dep_levels_match_brute_force():
    deg = np.array([0, 1, 1, 2, 0, 2])
    nbr_n = np.array([[0, 0], [0, 0], [1, 0], [0, 2], [0, 0], [4, 3]])
    assert workloads.dep_levels(deg, nbr_n).tolist() == [1, 2, 3, 4, 1, 5]
    stream = event_io.gen_synthetic(
        "moving_dot", {"width": 20, "height": 20, "count": 60,
                       "duration_us": 300}, 5)
    adj = engine.build_adjacency(stream, model_io.random_model(
        1, width=20, height=20).search)
    got = workloads.dep_levels(adj.deg, adj.nbr_n).tolist()
    assert got == _brute_levels(adj.deg.tolist(), adj.nbr_n.tolist())
    assert max(got) > 2


def test_graph_stats_pool_events():
    model = model_io.random_model(0, width=16, height=16, layer_dims=(4,))
    d_max = model.search.d_max
    deg = np.array([0, 1, d_max])
    nbr = np.zeros((3, d_max), dtype=np.int64)
    nbr[2, :] = 1
    adj = Adjacency(deg, nbr, nbr, nbr, nbr, np.array([2, 4, 34]),
                    d_max=d_max)
    stats = workloads.graph_stats([(adj, model)])
    assert stats["mean_degree"] == (1 + d_max) / 3
    assert stats["scanned_per_event"] == 40 / 3
    assert stats["hit_ratio"] == (1 + d_max) / 40
    assert stats["dmax_saturated_frac"] == 1 / 3
    assert stats["dep_levels"] == 3
    assert stats["events_per_level"] == 1.0
    assert stats["conv_macs_per_event"] == (1 + d_max) * 3 * 4 / 3
    assert stats["fc_macs_per_event"] == model.fc.in_dim * model.fc.out_dim


def test_regimes_reject_values_across_their_limit():
    dense, sparse, hw = (w.regime for w in (workloads.DenseDot,
                                            workloads.SparseCorpus,
                                            workloads.HwSweep))
    assert dense[1](0.95, dense[2]) and not dense[1](0.9499, dense[2])
    assert sparse[1](3.99, sparse[2]) and not sparse[1](4.0, sparse[2])
    assert hw[1](0.15, hw[2]) and not hw[1](0.1501, hw[2])


# ------------------------------------------------------------ smoke runs

def _rounds(wl, tmp_path, seed=3):
    inst = wl.setup(seed, tmp_path)
    plain = wl.run_round(inst)
    tracer = Tracer()
    with tracer.installed():
        traced = wl.run_round(inst, tracer)
    return inst, plain, traced, tracer


def test_smoke_dense_dot(tmp_path):
    wl = workloads.DenseDot(events=40)
    inst, plain, traced, tracer = _rounds(wl, tmp_path)
    assert plain.failed == traced.failed == 0, plain.errors + traced.errors
    assert plain.events == 40 and plain.command_events == {"infer": 40}
    names = {s.name for s in tracer.spans}
    assert {"cli.infer", "event_io.parse", "model.load",
            "graph_builder.build", "engine.run_stream",
            "engine.trace_lines"} <= names
    assert wl.stats(inst)["mean_degree"] > 10


def test_smoke_sparse_corpus(tmp_path):
    wl = workloads.SparseCorpus(streams=3, events=60)
    inst, plain, traced, tracer = _rounds(wl, tmp_path)
    assert plain.failed == traced.failed == 0, plain.errors + traced.errors
    assert plain.jobs == 3 and set(plain.command_wall) == {"infer", "verify"}
    seq = [s for s in tracer.spans if s.name == "engine.run_stream"
           and s.counts["sequential"]]
    assert len(seq) == 3
    assert sum(s.name == "static_oracle.forward" for s in tracer.spans) == 3


def test_smoke_hw_sweep_sim_is_identical_traced_and_untraced(tmp_path):
    wl = workloads.HwSweep(events=2000)
    inst, plain, traced, tracer = _rounds(wl, tmp_path)
    assert plain.failed == traced.failed == 0, plain.errors + traced.errors
    assert plain.events == 2000 * 4
    assert inst.sim["sim_mean_us"] > 0
    assert wl.stats(inst)["scanned_per_event"] > 0
    assert sum(s.name == "perf_model.des" for s in tracer.spans) == 4
    assert len(list(tmp_path.glob("report_*.json"))) == 4


def test_wrong_infer_output_fails_the_job(tmp_path):
    wl = workloads.DenseDot(events=30)
    inst = wl.setup(1, tmp_path)
    case = inst.cases[0]
    case.expected = workloads.oracle_lines(case.model, case.stream)
    case.expected[7] = case.expected[7] + "0"
    res = wl.run_round(inst)
    assert res.jobs == 1 and res.failed == 1
    assert "event 7" in res.errors[0]


def test_des_disagreeing_with_analytic_fails_the_job(tmp_path, monkeypatch):
    wl = workloads.HwSweep(events=2000)
    inst = wl.setup(1, tmp_path)
    real = perf_model.simulate_cycles

    def off_by_one(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.total_cycles += 1
        return rep
    monkeypatch.setattr(perf_model, "simulate_cycles", off_by_one)
    res = wl.run_round(inst)
    assert res.failed == 1 and "DES total" in res.errors[0]


# ------------------------------------------------------------ run.py contract

def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_main_prints_end_to_end_metrics(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "sparse_corpus",
                        lambda: workloads.SparseCorpus(streams=2, events=60))
    code = run.main(["--workload", "sparse_corpus", "--seed", "2",
                     "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out
    assert code == 0
    result = _last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 2
    declared = run.declared_units("end_to_end")
    assert set(result["metrics"]) == set(declared)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("infer_ev_s", "verify_ev_s", "sweep_ev_s", "setup_s",
                 "peak_rss_mb", "failed_frac"):
        assert f"  {name}" in out


def test_main_traced_reports_every_per_layer_metric(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "sparse_corpus",
                        lambda: workloads.SparseCorpus(streams=2, events=60))
    code = run.main(["--workload", "sparse_corpus", "--seed", "2",
                     "--seconds", "0", "--trace", "1"])
    result = _last_json(capsys.readouterr().out)
    assert code == 0
    assert set(result["metrics"]) == set(run.declared_units("per_layer"))
    assert result["metrics"]["engine.forward_seq_ev_s"]["value"] > 0


def test_main_fails_loudly_outside_the_regime(monkeypatch, capsys):
    # 40 events cannot keep 95 % of events at d_max.
    monkeypatch.setitem(workloads.WORKLOADS, "dense_dot",
                        lambda: workloads.DenseDot(events=40))
    code = run.main(["--workload", "dense_dot", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    captured = capsys.readouterr()
    assert code == run.EXIT_REGIME
    assert "left its regime" in captured.err
    assert '"correct"' not in captured.out


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_dot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode == run.EXIT_NO_PROGRAM
    assert '"correct"' not in proc.stdout


def test_compare_refuses_different_backends(tmp_path):
    def write(name, backend, value):
        path = tmp_path / name
        env = {"backend": backend, "workload": "hw_sweep", "trace": 0}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"job_ev_s": {"value": value, "unit": "ev/s"}}}
        path.write_text(f"env {json.dumps(env)}\n{json.dumps(result)}\n")
        return str(path)
    base = write("a.txt", "python", 100.0)
    assert compare.main(["--base", base,
                         "--new", write("b.txt", "python", 110.0)]) == 0
    assert compare.main(["--base", base,
                         "--new", write("c.txt", "numba", 9e4)]) == 2
