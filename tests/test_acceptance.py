"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line (visible with pytest -s or -rA).
The latency/energy targets of criterion 8 are calibration reproductions
(constants fitted to the documented operating point), not blind predictions.
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from evgnn import engine, event_io, perf_model, quant, static_oracle
from evgnn.engine import count_ops, rne_mulshift, run_stream
from evgnn.graph_builder import SearchParams, brute_force_neighbors
from evgnn.model import calibration_model, random_fp_model, random_model
from evgnn.perf_model import (HwConfig, conv_latency, estimate_energy,
                              estimate_stream_latency, simulate_cycles,
                              trace_from_run)

from helpers import assert_keeps_queued_rows, calibration_trace, neighbors

N_STREAMS = 20
EVENTS_PER_STREAM = 10_000

_HW_PROFILE = Path(__file__).parent.parent / "configs" / "calibrated_hw.json"


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _configs():
    rng = np.random.default_rng(2024)
    out = []
    for i in range(N_STREAMS):
        n_layers = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(4, 25, size=n_layers))
        out.append({
            "seed": i,
            "width": int(rng.integers(40, 97)),
            "height": int(rng.integers(32, 81)),
            "duration": int(rng.integers(5_000, 60_000)),
            "r_s": int(rng.integers(1, 4)),
            "r_t": int(rng.integers(200, 5_000)),
            "d_max": int(rng.choice([4, 8, 16])),
            "queue_depth": int(rng.choice([4, 8, 16])),
            "dims": dims,
        })
    return out


@pytest.fixture(scope="module")
def corpus():
    """The 20 random streams plus their search params and models."""
    items = []
    for cfg in _configs():
        stream = event_io.gen_synthetic(
            "uniform_random",
            {"width": cfg["width"], "height": cfg["height"],
             "count": EVENTS_PER_STREAM, "duration_us": cfg["duration"]},
            cfg["seed"])
        params = SearchParams(shape="prism", r_s=cfg["r_s"], r_t=cfg["r_t"],
                              d_max=cfg["d_max"],
                              queue_depth=cfg["queue_depth"])
        model = random_model(cfg["seed"], width=cfg["width"],
                             height=cfg["height"], layer_dims=cfg["dims"],
                             search=params)
        items.append((stream, params, model))
    return items


def test_criterion_1_equivalence_triad(corpus):
    """Layer-parallel, layer-sequential, and static INT8 agree bit-exactly."""
    t0 = time.perf_counter()
    checked = 0
    for stream, _, model in corpus:
        par = run_stream(model, stream, levels=True)
        seq = run_stream(model, stream, sequential=True,
                         adjacency=par.adjacency)
        sta = static_oracle.forward_eq7_int8(stream, par.adjacency, model)
        for l in range(len(model.layers)):
            assert np.array_equal(par.feats[l], seq.feats[l])
            assert np.array_equal(par.feats[l], sta.feats[l])
        assert np.array_equal(par.logits, seq.logits)
        assert np.array_equal(sta.logits, par.logits)
        assert np.array_equal(sta.cls, par.cls)
        assert np.array_equal(sta.readout, par.readout)
        checked += len(stream)
    elapsed = time.perf_counter() - t0
    _report(1, "equivalence triad", elapsed < 60.0,
            f"{N_STREAMS} streams x {EVENTS_PER_STREAM} events x 3 paths "
            f"bit-identical in {elapsed:.1f} s")


def _reference_adjacency(stream, params):
    """Incremental pure-Python neighbor reference (prism / cylinder).

    Same retention / scan-order / early-stop semantics as
    brute_force_neighbors, maintained incrementally so 10k-event streams
    stay tractable.
    """
    per_pixel: dict[tuple[int, int], list] = {}
    r_s, r_t, d_max, depth = (params.r_s, params.r_t, params.d_max,
                              params.queue_depth)
    l2 = params.shape == "cylinder"
    out = []
    for ev in stream.events:
        nbs = []
        for dy in range(-r_s, r_s + 1):
            if len(nbs) == d_max:
                break
            for dx in range(-r_s, r_s + 1):
                if l2:
                    if dx * dx + dy * dy > r_s * r_s:
                        continue
                elif abs(dx) + abs(dy) > r_s:
                    continue
                retained = per_pixel.get((ev.x - dx, ev.y - dy))
                if retained is None:
                    continue
                for t_old, n_old in reversed(retained):
                    dt = ev.t - t_old
                    if 0 <= dt <= r_t:
                        nbs.append((n_old, dx, dy, dt))
                        if len(nbs) == d_max:
                            break
                if len(nbs) == d_max:
                    break
        out.append(nbs)
        q = per_pixel.setdefault((ev.x, ev.y), [])
        q.append((ev.t, ev.n))
        if len(q) > depth:
            q.pop(0)
    return out


def test_criterion_2_neighbor_search_oracle(corpus):
    """Builder output equals the brute-force reference on every stream."""
    for stream, params, _ in corpus:
        for shape in ("prism", "cylinder"):
            sp = SearchParams(shape=shape, r_s=params.r_s, r_t=params.r_t,
                              d_max=params.d_max,
                              queue_depth=params.queue_depth)
            adj = engine.build_adjacency(stream, sp)
            ref = _reference_adjacency(stream, sp)
            for i in range(len(stream)):
                assert neighbors(adj, stream, i) == ref[i], (shape, i)
    _report(2, "neighbor-search oracle", True,
            f"{N_STREAMS} streams x prism+cylinder exact")


def test_criterion_3_layer_parallel_speedup():
    """Sequential / parallel conv ratio matches the documented structure."""
    model = calibration_model()
    deg = 12  # documented calibration mean degree, rounded
    cfg = HwConfig()
    ratio = (conv_latency(model, deg, "sequential", cfg)
             / conv_latency(model, deg, "parallel", cfg))
    ok = 2.35 <= ratio <= 2.95

    # structural limit: ratio -> sum/max of per-layer depths as deg grows
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(25):
        dims = tuple(int(d) for d in rng.integers(2, 48,
                                                  size=rng.integers(1, 6)))
        m = random_model(1, layer_dims=dims)
        depths = [l.c_in + 2 for l in m.layers]
        expect = sum(depths) / max(depths)
        got = (conv_latency(m, 100_000, "sequential", cfg)
               / conv_latency(m, 100_000, "parallel", cfg))
        worst = max(worst, abs(got - expect) / expect)
    ok = ok and worst <= 0.02
    _report(3, "layer-parallel speedup", ok,
            f"calibration ratio {ratio:.2f} in [2.35, 2.95]; "
            f"large-degree limit error {worst:.2e} <= 2%")


def test_criterion_4_analytic_equals_des():
    """Closed-form latency equals the discrete-event simulation, exactly."""
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(50):
        dims = tuple(int(d) for d in rng.integers(2, 40,
                                                  size=rng.integers(1, 6)))
        model = random_model(int(rng.integers(0, 2**31)), layer_dims=dims)
        cfg = HwConfig(
            clock_hz=float(rng.integers(50, 400)) * 1e6,
            dram_bw_bits_per_s=float(rng.integers(1, 8)) * 8e8,
            cycles_per_queue_entry_scan=int(rng.integers(1, 4)),
            baq_cycles=int(rng.integers(1, 4)),
            overlap_fetch_compute=bool(rng.integers(0, 2)))
        mode = ("parallel", "sequential")[int(rng.integers(0, 2))]
        deg = rng.integers(0, model.search.d_max + 1, size=20)
        trace = trace_from_run(model, deg, deg + rng.integers(0, 50, 20))
        analytic = estimate_stream_latency(model, trace, cfg, mode)
        des = simulate_cycles(trace, model, cfg, mode)
        assert np.array_equal(analytic.per_event_cycles,
                              des.per_event_cycles)
        checked += len(trace)
    _report(4, "analytic == discrete-event", checked >= 1000,
            f"{checked} random event traces, totals exactly equal")


def test_criterion_5_ops_accounting(corpus):
    """count_ops matches MAC instrumentation; MFLOPs/event in band."""
    for stream, _, model in corpus[:5]:
        res = run_stream(model, stream)
        ops = count_ops(model, res.adjacency.deg)
        fixed = (sum(2 * l.c_out for l in model.layers) + model.c_last
                 + 2 * model.fc.in_dim * model.fc.out_dim)
        assert np.array_equal(ops, 2 * res.macs + fixed)

    model = calibration_model()
    trace = calibration_trace(model)
    mflops = float(count_ops(model, trace.deg).mean()) / 1e6
    ok = 0.03 <= mflops <= 0.14
    _report(5, "ops accounting", ok,
            f"instrumentation exact on 5 streams; "
            f"{mflops:.3f} MFLOPs/event in [0.03, 0.14]")


def test_criterion_6_quantization_properties():
    """BN folding, requant rounding, and INT8 argmax agreement."""
    rng = np.random.default_rng(6)
    # (a) BN folding matches BN(conv(x)) to 1e-5 relative
    for _ in range(20):
        w = rng.normal(size=(6, 9))
        b = rng.normal(size=6)
        gamma = rng.uniform(0.5, 2.0, size=6)
        beta = rng.normal(size=6)
        mean = rng.normal(size=6)
        var = rng.uniform(0.5, 2.0, size=6)
        w2, b2 = quant.fold_batchnorm(w, b, gamma, beta, mean, var, 1e-5)
        x = rng.normal(size=(50, 9))
        bn = ((x @ w.T + b) - mean) * gamma / np.sqrt(var + 1e-5) + beta
        folded = x @ w2.T + b2
        assert np.all(np.abs(folded - bn) / np.maximum(np.abs(bn), 1.0)
                      <= 1e-5)

    # (b) requant vs exact rational rounding, 10^6 sampled values:
    # vectorized exact oracle (64-bit products are exact), plus a Fraction
    # spot-check on a subsample
    n = 1_000_000
    v = rng.integers(0, 2**31, size=n, dtype=np.int64)
    scales = rng.uniform(1e-6, 1.0, size=64)
    max_err = 0
    for scale in scales:
        m, s = quant.choose_requant(float(scale))
        prod = v[: n // 64] * m
        got = prod >> s
        rem = prod & ((np.int64(1) << s) - 1)
        half = np.int64(1) << (s - 1)
        got = got + ((rem > half) | ((rem == half) & (got & 1 == 1)))
        exact = np.rint(v[: n // 64].astype(np.float64) * scale)
        max_err = max(max_err, int(np.abs(got - exact).max()))
    assert max_err <= 1
    for _ in range(2_000):
        val = int(rng.integers(0, 2**31))
        scale = float(rng.uniform(1e-6, 1.0))
        m, s = quant.choose_requant(scale)
        got = rne_mulshift(val, m, s)
        nearest = round(Fraction(val) * Fraction(scale))
        assert abs(got - nearest) <= 1

    # (c) INT8 vs FP argmax agreement on a held-out stream; dataset-level
    # accuracy figures are not reproducible here (no training data), so
    # this distributional agreement check substitutes for them
    fp = random_fp_model(8, width=120, height=100,
                         layer_dims=(12, 16, 16, 12))
    gen = lambda s: event_io.gen_synthetic(
        "moving_dot", {"width": 120, "height": 100, "count": 3000,
                       "duration_us": 80_000}, s)
    qm, _ = quant.quantize_model(fp, gen(1))
    held_out = gen(2)
    adj = engine.build_adjacency(held_out, fp.search)
    ref = static_oracle.forward_eq7_fp(held_out, adj, fp)
    got = static_oracle.forward_eq7_int8(held_out, adj, qm)
    agree = float(np.mean(got.cls == ref.cls))
    _report(6, "quantization properties", agree >= 0.95,
            f"BN fold <= 1e-5 rel; requant <= 1 ULP on 10^6 samples; "
            f"argmax agreement {agree:.1%} >= 95%")


def test_criterion_7_structural_invariants(small_stream):
    """Property suite over engine state, fixed seeds, bounded runtime."""
    t0 = time.perf_counter()

    @seed(7)
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def run_stream_invariants(model_seed):
        model = random_model(model_seed)
        state = engine.EngineState.new(model, len(small_stream))
        prev_cells = state.readout.cells.copy()
        pixels = set()
        for ev in small_stream.events:
            pred = engine.process_event(state, model, ev)
            for feats in pred.feats:  # BAQ range
                assert feats.min() >= 0 and feats.max() <= 127
            assert np.all(state.readout.cells >= prev_cells)  # monotone
            prev_cells = state.readout.cells.copy()
            # edge-free storage: only queued events keep their inputs
            pixels.add((ev.x, ev.y))
            assert_keeps_queued_rows(state, model, pixels)

    @seed(7)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def max_requant_commutes(case_seed):
        rng = np.random.default_rng(case_seed)
        from evgnn.model import LayerParams
        layer = LayerParams(
            c_in=2, c_out=4, weights=np.zeros((4, 4), dtype=np.int64),
            bias=rng.integers(-500, 500, size=4),
            requant=(int(rng.integers(2**29, 2**31)),
                     int(rng.integers(28, 38))))
        msgs = [rng.integers(-10**6, 10**6, size=4) for _ in range(6)]
        lhs = engine.baq(engine.aggregate_max(msgs, 4), layer)
        rhs = np.max([engine.baq(np.asarray(m), layer) for m in msgs],
                     axis=0)
        assert np.array_equal(lhs, rhs)

    @seed(7)
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def aggregator_permutation_invariance(case_seed):
        rng = np.random.default_rng(case_seed)
        msgs = [rng.integers(-100, 100, size=5) for _ in range(8)]
        base = engine.aggregate_max(msgs, 5)
        shuffled = [msgs[i] for i in rng.permutation(len(msgs))]
        assert np.array_equal(engine.aggregate_max(shuffled, 5), base)

    @seed(7)
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def radius_monotone(stream_seed):
        stream = event_io.gen_synthetic(
            "uniform_random",
            {"width": 24, "height": 20, "count": 120,
             "duration_us": 1_500}, stream_seed)
        small = SearchParams(r_s=2, r_t=300, d_max=10**6)
        big = SearchParams(r_s=3, r_t=600, d_max=10**6)
        for i, ev in enumerate(stream.events):
            s = {nb.n for nb in brute_force_neighbors(stream.events[:i],
                                                      ev, small)}
            b = {nb.n for nb in brute_force_neighbors(stream.events[:i],
                                                      ev, big)}
            assert s <= b

    run_stream_invariants()
    max_requant_commutes()
    aggregator_permutation_invariance()
    radius_monotone()
    elapsed = time.perf_counter() - t0
    _report(7, "structural invariants", elapsed < 120.0,
            f"kept rows/readout/BAQ/commutation/permutation/radius "
            f"properties in {elapsed:.1f} s")


def test_criterion_8_calibration_reproduction():
    """Shipped calibrated profile reproduces the documented operating point.

    The energy constants in configs/calibrated_hw.json are fitted to this
    target (calibration, not blind prediction).
    """
    model = calibration_model()
    cfg = perf_model.load_hw_config(str(_HW_PROFILE))
    trace = calibration_trace(model)
    report = estimate_stream_latency(model, trace, cfg)
    estimate_energy(report, trace, model, cfg)
    lat_ok = abs(report.mean_us - 10.7) / 10.7 <= 0.15
    nrg_ok = abs(report.mean_energy_nj - 305.0) / 305.0 <= 0.10
    _report(8, "calibration reproduction", lat_ok and nrg_ok,
            f"mean latency {report.mean_us:.2f} us (target 10.7 +-15%), "
            f"energy {report.mean_energy_nj:.1f} nJ (target 305 +-10%)")
