import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evgnn import perf_model as pm
from evgnn.model import calibration_model, random_model
from evgnn.perf_model import (EventTrace, HwConfig, MissingConstants,
                              conv_latency, estimate_energy,
                              estimate_stream_latency, simulate_cycles,
                              trace_from_run)

from helpers import calibration_trace


def _one_event(model, deg, entries, cfg, mode="parallel"):
    """The closed form on a one-event trace: its stage and total cycles."""
    return estimate_stream_latency(model, EventTrace([deg], [entries]), cfg,
                                   mode)


def _rand_trace(rng, model, n=50):
    deg = rng.integers(0, model.search.d_max + 1, size=n)
    entries = deg + rng.integers(0, 40, size=n)
    return trace_from_run(model, deg, entries)


class TestHwConfig:
    def test_defaults_two_bytes_per_cycle(self):
        cfg = HwConfig()
        assert cfg.bits_per_cycle == 16.0  # 3.2 Gb/s at 200 MHz

    def test_positive_required(self):
        with pytest.raises(ValueError):
            HwConfig(clock_hz=0)

    def test_json_round_trip(self):
        cfg = HwConfig(e_mac=1e-12, e_sram_byte=1e-12, e_dram_byte=1e-10,
                       overlap_fetch_compute=False)
        assert HwConfig(**dataclasses.asdict(cfg)) == cfg

    @pytest.mark.parametrize("given", [
        {"e_mac": 1e-12},
        {"e_mac": 1e-12, "e_sram_byte": 1e-12},
        {"e_sram_byte": 1e-12, "e_dram_byte": 1e-10},
    ], ids=["e_mac", "e_mac_e_sram", "no_e_mac"])
    def test_energy_constants_all_or_none(self, given):
        with pytest.raises(ValueError, match="all three or none"):
            HwConfig(**given)

    @pytest.mark.parametrize("field, value, message", [
        ("cycles_per_queue_entry_scan", 1.5, "an integer"),
        ("baq_cycles", True, "an integer"),
        ("queue_entry_bytes", 9.5, "an integer"),
        ("queue_entry_bytes", 0, "positive and finite"),
        ("overlap_fetch_compute", "false", "true or false"),
        ("overlap_fetch_compute", 1, "true or false"),
        ("clock_hz", "fast", "a number"),
        ("clock_hz", math.inf, "positive and finite"),
        ("dram_bw_bits_per_s", math.nan, "positive and finite"),
        ("dram_bw_bits_per_s", -3.2e9, "positive and finite"),
        ("e_mac", -1e-12, "non-negative and finite"),
        ("e_sram_byte", math.nan, "non-negative and finite"),
        ("e_dram_byte", math.inf, "non-negative and finite"),
        ("e_dram_byte", "1e-10", "a number"),
    ])
    def test_field_type_and_range(self, field, value, message):
        given = {"e_mac": 0.0, "e_sram_byte": 0.0, "e_dram_byte": 0.0,
                 field: value}
        with pytest.raises(ValueError,
                           match=f"^HwConfig {field} must be {message}"):
            HwConfig(**given)

    def test_integers_and_zero_energy_accepted(self):
        """JSON reads 200000000 as an int; numpy integers count too."""
        cfg = HwConfig(clock_hz=200_000_000, dram_bw_bits_per_s=3_200_000_000,
                       baq_cycles=np.int64(2), e_mac=0, e_sram_byte=0.0,
                       e_dram_byte=0.0)
        assert cfg.bits_per_cycle == 16.0

    def test_load_nested_hw_key(self, tmp_path):
        path = tmp_path / "hw.json"
        path.write_text(json.dumps({"hw": {"clock_hz": 1e8}}))
        assert pm.load_hw_config(str(path)).clock_hz == 1e8

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "hw.json"
        path.write_text(json.dumps({"hw": {"clock_Hz": 1e8}}))
        with pytest.raises(TypeError, match="clock_Hz"):
            pm.load_hw_config(str(path))


class TestEventTrace:
    @pytest.mark.parametrize("deg, entries, message", [
        ([[1, 2]], [3, 4], "deg must be 1-D"),
        ([1, 2], 3, "entries_scanned must be 1-D"),
        ([1, 2], [3], "deg has 2 events, entries_scanned 1"),
        ([1, -2], [3, 4], "deg must be non-negative"),
        ([1, 2], [3, -4], "entries_scanned must be non-negative"),
        ([1.0, 2.0], [3, 4], "deg must hold integers"),
        ([1, 2], [3.5, 4], "entries_scanned must hold integers"),
        ([True], [3], "deg must hold integers"),
        (np.array([2**63], dtype=np.uint64), [0], "leaves int64"),
        ([1], [2**62], "leaves int64"),
        ([3], [2**61], "leaves int64"),
    ], ids=["deg_2d", "entries_0d", "lengths", "deg_negative",
            "entries_negative", "deg_float", "entries_float", "deg_bool",
            "deg_past_int64", "key_past_int64", "key_past_int64_deg3"])
    def test_rejected(self, deg, entries, message):
        with pytest.raises(ValueError, match=f"^EventTrace .*{message}"):
            EventTrace(deg, entries)

    def test_largest_key_accepted(self):
        """deg 1 and entries (2**63 - 2) / 2 make the key 2**63 - 1."""
        trace = EventTrace(np.array([1, 0], dtype=np.uint8),
                           np.array([2**62 - 1, 7], dtype=np.uint64))
        assert trace.deg.dtype == trace.entries_scanned.dtype == np.int64
        assert trace.entries_scanned.tolist() == [2**62 - 1, 7]

    def test_int64_columns_not_copied(self):
        deg = np.arange(5, dtype=np.int64)
        assert EventTrace(deg, deg + 1).deg is deg


def _assert_rows_are_unique(trace):
    """trace.rows against np.unique of the row key, kept and read-only."""
    span = int(trace.deg.max(initial=0)) + 1
    keys, index, count = np.unique(trace.entries_scanned * span + trace.deg,
                                   return_inverse=True, return_counts=True)
    rows = trace.rows
    assert rows is trace.rows
    assert rows.deg.tolist() == (keys % span).tolist()
    assert rows.entries.tolist() == (keys // span).tolist()
    assert rows.count.tolist() == count.tolist()
    assert rows.index.tolist() == index.tolist()
    assert rows.deg.dtype == rows.entries.dtype == rows.count.dtype \
        == np.int64
    assert rows.index.dtype == np.intp
    assert not any(a.flags.writeable for a in
                   (rows.deg, rows.entries, rows.count, rows.index))


@st.composite
def _traces(draw):
    """Events drawn from a few distinct rows, so that rows repeat; the
    entries reach past 2**32 at most, which keeps the key in int64."""
    top = draw(st.sampled_from([2**4, 2**8, 2**16, 2**32]))
    pool = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, top)),
                         min_size=1, max_size=8))
    rows = draw(st.lists(st.sampled_from(pool), max_size=60))
    return EventTrace([d for d, _ in rows], [e for _, e in rows])


class TestTraceRows:
    @given(_traces())
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_unique(self, trace):
        _assert_rows_are_unique(trace)

    @pytest.mark.parametrize("key, dtype", [
        (1, np.uint8), (2**8 - 1, np.uint8), (2**8, np.uint16),
        (2**16 - 1, np.uint16), (2**16, np.uint32), (2**32 - 1, np.uint32),
        (2**32, np.uint64), (2**63 - 1, np.uint64)])
    def test_key_sorted_in_narrowest_type(self, monkeypatch, key, dtype):
        """deg 0 or 1 makes the row key 2 * entries + deg; the largest is
        key, and the trace repeats it. 2**63 - 1 is the largest key
        test_largest_key_accepted takes."""
        sorted_as = []
        real = np.argsort

        def spy(a, *args, **kwargs):
            sorted_as.append(a.dtype)
            return real(a, *args, **kwargs)

        trace = EventTrace([key % 2, 1, key % 2, 0, 1],
                           [key // 2, 0, key // 2, 0, 0])
        monkeypatch.setattr(pm.np, "argsort", spy)
        rows = trace.rows
        monkeypatch.undo()
        assert sorted_as == [dtype]
        assert rows.entries[-1] * 2 + rows.deg[-1] == key
        _assert_rows_are_unique(trace)

    @pytest.mark.parametrize("deg, entries", [([], []), ([5], [9])],
                             ids=["empty", "one_event"])
    def test_small_traces(self, deg, entries):
        trace = EventTrace(deg, entries)
        _assert_rows_are_unique(trace)
        assert trace.rows.count.tolist() == [1] * len(deg)

    def test_rows_read_only(self, rng):
        deg = rng.integers(0, 17, size=100)
        rows = EventTrace(deg, deg + rng.integers(0, 9, size=100)).rows
        for a in (rows.deg, rows.entries, rows.count, rows.index):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            rows.index = np.zeros(100, dtype=np.intp)


class TestConvLatency:
    def test_deg_zero_is_baq_only(self, small_model):
        cfg = HwConfig(baq_cycles=2)
        assert conv_latency(small_model, 0, "parallel", cfg) == 2
        n_layers = len(small_model.layers)
        assert conv_latency(small_model, 0, "sequential",
                            cfg) == 2 * n_layers

    def test_equal_dims_ratio_four(self):
        # four layers with equal C_in: sum / max of equal terms = 4
        m = random_model(0, layer_dims=(8, 8, 8, 8))
        m.layers[0] = m.layers[1]  # make layer 0 depth match (C_in = 8)
        cfg = HwConfig()
        seq = conv_latency(m, 1, "sequential", cfg) - 4  # drop BAQ terms
        par = conv_latency(m, 1, "parallel", cfg) - 1
        assert seq == 4 * par

    def test_parallel_le_sequential(self, small_model):
        cfg = HwConfig()
        for deg in (0, 1, 5, 16):
            assert conv_latency(small_model, deg, "parallel", cfg) <= \
                conv_latency(small_model, deg, "sequential", cfg)

    def test_unknown_mode(self, small_model):
        with pytest.raises(ValueError):
            conv_latency(small_model, 1, "pipelined", HwConfig())

    def test_large_degree_ratio_limit(self, small_model):
        depths = [l.c_in + 2 for l in small_model.layers]
        expect = sum(depths) / max(depths)
        deg, cfg = 10_000, HwConfig()
        ratio = (conv_latency(small_model, deg, "sequential", cfg)
                 / conv_latency(small_model, deg, "parallel", cfg))
        assert ratio == pytest.approx(expect, rel=0.02)


class TestEventLatency:
    def test_no_overlap_total_is_stage_sum(self, small_model):
        cfg = HwConfig(overlap_fetch_compute=False)
        bd = _one_event(small_model, 5, 60, cfg)
        assert bd.total_cycles == sum(bd.stage_cycles.values())

    def test_overlap_total_at_most_sum(self, small_model):
        cfg = HwConfig(overlap_fetch_compute=True)
        bd = _one_event(small_model, 5, 60, cfg)
        assert bd.total_cycles <= sum(bd.stage_cycles.values())
        assert bd.total_cycles >= max(bd.stage_cycles.values())

    def test_zero_neighbor_readout_dominates(self, small_model):
        cfg = HwConfig()
        bd = _one_event(small_model, 0, 0, cfg)
        assert bd.stage_cycles["readout_fc"] == max(bd.stage_cycles.values())

    def test_monotone_in_degree(self, small_model):
        cfg = HwConfig()
        totals = [_one_event(small_model, d, 10 + d, cfg).total_cycles
                  for d in range(17)]
        assert all(a <= b for a, b in zip(totals, totals[1:]))

    def test_monotone_in_bandwidth(self, small_model, rng):
        slow = HwConfig(dram_bw_bits_per_s=1.6e9)
        fast = HwConfig(dram_bw_bits_per_s=3.2e9)
        trace = _rand_trace(rng, small_model)
        for event in zip(trace.deg.tolist(), trace.entries_scanned.tolist()):
            assert (_one_event(small_model, *event, fast).total_cycles
                    <= _one_event(small_model, *event, slow).total_cycles)


def _repeated_rows_trace(rng, n=300):
    """Four distinct (deg, entries) rows, each repeated, in shuffled order.

    They form one pair per column whose rows differ in that column only.
    The pairs lie far apart in every column, so each pair sits side by
    side whichever column a sort puts first.
    """
    base = np.array([1, 10]) + np.arange(2)[:, None] * np.array([4, 100])
    rows = np.concatenate([base, base + np.eye(2, dtype=np.int64)])
    return EventTrace(*rows[rng.permutation(np.arange(n) % len(rows))].T)


class TestAnalyticVsSimulation:
    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("mode", ["parallel", "sequential"])
    def test_totals_match(self, small_model, rng, overlap, mode):
        cfg = HwConfig(overlap_fetch_compute=overlap)
        for trace in (_rand_trace(rng, small_model, n=200),
                      _repeated_rows_trace(rng)):
            analytic = estimate_stream_latency(small_model, trace, cfg, mode)
            des = simulate_cycles(trace, small_model, cfg, mode)
            jobs = pm._stage_jobs(small_model, cfg, mode)
            walked = [pm._simulate_one_event(jobs, *row)
                      for row in zip(trace.deg.tolist(),
                                     trace.entries_scanned.tolist())]
            assert des.per_event_cycles.tolist() == walked
            assert np.array_equal(analytic.per_event_cycles,
                                  des.per_event_cycles)
            assert analytic.total_cycles == des.total_cycles

    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("mode", ["parallel", "sequential"])
    def test_one_walk_per_distinct_pair(self, small_model, rng, monkeypatch,
                                        overlap, mode):
        """The DES stays a walk per pair: never fewer (a per-degree
        shortcut) nor more (a walk per event)."""
        walked = []
        real = pm._simulate_one_event

        def counted(jobs, deg, entries):
            walked.append((deg, entries))
            return real(jobs, deg, entries)

        monkeypatch.setattr(pm, "_simulate_one_event", counted)
        cfg = HwConfig(overlap_fetch_compute=overlap)
        deg = rng.integers(0, 17, size=10_000)
        big = EventTrace(deg, deg + rng.integers(0, 200, size=10_000))
        for trace in (EventTrace([], []), _repeated_rows_trace(rng), big):
            walked.clear()
            des = simulate_cycles(trace, small_model, cfg, mode)
            pairs = set(zip(trace.deg.tolist(),
                            trace.entries_scanned.tolist()))
            assert len(walked) == len(pairs)
            assert set(walked) == pairs
            assert all(type(d) is int and type(e) is int for d, e in walked)
            analytic = estimate_stream_latency(small_model, trace, cfg, mode)
            assert np.array_equal(des.per_event_cycles,
                                  analytic.per_event_cycles)
        assert 1000 < len(pairs) < len(big)  # many pairs, some repeated

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_totals_match_random_models(self, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(2, 24, size=4))
        model = random_model(seed, layer_dims=dims)
        cfg = HwConfig(overlap_fetch_compute=bool(rng.integers(0, 2)),
                       baq_cycles=int(rng.integers(1, 4)))
        trace = _rand_trace(rng, model, n=30)
        analytic = estimate_stream_latency(model, trace, cfg)
        des = simulate_cycles(trace, model, cfg)
        assert np.array_equal(analytic.per_event_cycles,
                              des.per_event_cycles)

    @pytest.mark.parametrize("mode, conv", [
        ("parallel", lambda deg: deg * 42 + 1),
        ("sequential", lambda deg: deg * 113 + 4)])
    def test_fractional_fetch_rounds_up(self, mode, conv):
        """The calibration model fetches 105 bytes per neighbor, 52.5 bus
        cycles at 16 bits per cycle, so an odd degree needs the ceil."""
        model = calibration_model()
        cfg = HwConfig(overlap_fetch_compute=False)
        deg, entries = [1, 3, 15], [7, 20, 90]
        trace = EventTrace(deg, entries)
        # writeback: 128 bytes in 64 cycles; readout_fc: 8*7*24 + 24
        expect = [e + -(-d * 105 // 2) + conv(d) + 64 + 1368
                  for d, e in zip(deg, entries)]
        for report in (estimate_stream_latency(model, trace, cfg, mode),
                       simulate_cycles(trace, model, cfg, mode)):
            assert report.per_event_cycles.tolist() == expect


class TestStreamForm:
    def test_empty_trace(self, small_model):
        trace = trace_from_run(small_model, [], [])
        for report in (estimate_stream_latency(small_model, trace, HwConfig()),
                       simulate_cycles(trace, small_model, HwConfig())):
            assert report.per_event_cycles.shape == (0,)
            assert report.total_cycles == 0
            assert report.stage_cycles == {s: 0 for s in pm.STAGES}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["parallel", "sequential"])
    def test_empty_trace_reports_serialise(self, small_model, mode):
        """The analytic, DES and energy reports of a trace without events
        are strict JSON: 0 events, and 0 for every mean and percentile."""
        cfg = HwConfig(e_mac=1e-12, e_sram_byte=1e-12, e_dram_byte=1e-10)
        trace = EventTrace([], [])
        analytic = estimate_stream_latency(small_model, trace, cfg, mode)
        des = simulate_cycles(trace, small_model, cfg, mode)
        energy = estimate_energy(
            estimate_stream_latency(small_model, trace, cfg, mode), trace,
            small_model, cfg)
        for report in (analytic, des, energy):
            doc = json.loads(json.dumps(report.to_json(), allow_nan=False))
            totals = doc["totals"]
            assert totals["events"] == 0 and totals["cycles"] == 0
            assert totals["mean_cycles_per_event"] == 0.0
            assert totals["mean_us_per_event"] == 0.0
            assert doc["percentiles"] == {"50": 0.0, "90": 0.0, "99": 0.0}
        assert energy.mean_energy_nj == 0.0
        totals = energy.to_json()["totals"]
        assert totals["joules"] == totals["mean_nj_per_event"] == 0.0
        assert all(s["joules"] == 0.0
                   for s in energy.to_json()["per_stage"].values())

    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("mode", ["parallel", "sequential"])
    def test_zero_degree_trace(self, small_model, overlap, mode):
        """Every event without a neighbor: the pair key is entries alone."""
        cfg = HwConfig(overlap_fetch_compute=overlap)
        entries = [0, 5, 0, 40, 5]
        trace = EventTrace([0] * len(entries), entries)
        des = simulate_cycles(trace, small_model, cfg, mode)
        jobs = pm._stage_jobs(small_model, cfg, mode)
        assert des.per_event_cycles.tolist() == [
            pm._simulate_one_event(jobs, 0, e) for e in entries]
        analytic = estimate_stream_latency(small_model, trace, cfg, mode)
        assert np.array_equal(analytic.per_event_cycles,
                              des.per_event_cycles)
        # scan + BAQ per conv pass + writeback, FC and readout
        passes = 1 if mode == "parallel" else len(small_model.layers)
        fixed = (passes * cfg.baq_cycles + math.ceil(
            sum(l.c_out for l in small_model.layers) * 8
            / cfg.bits_per_cycle) + small_model.fc.in_dim
            + small_model.c_last)
        assert des.per_event_cycles.tolist() == [e + fixed for e in entries]

    @pytest.mark.parametrize("ps", [(50, 90, 99), (99.9, 0, 50, 12.5, 100),
                                    (75,)])
    def test_percentiles_match_one_call_per_p(self, small_model, rng, ps):
        trace = _rand_trace(rng, small_model, n=997)
        report = estimate_stream_latency(small_model, trace, HwConfig())
        got = report.percentiles(ps)
        assert list(got) == list(ps)
        for p, value in got.items():
            expect = float(np.percentile(report.per_event_cycles, p))
            assert type(value) is float
            assert value.hex() == expect.hex()

    @pytest.mark.parametrize("n", [0, 3])
    def test_unknown_mode(self, small_model, rng, n):
        trace = _rand_trace(rng, small_model, n=n)
        with pytest.raises(ValueError):
            estimate_stream_latency(small_model, trace, HwConfig(), "pipelined")
        with pytest.raises(ValueError):
            simulate_cycles(trace, small_model, HwConfig(), "pipelined")

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_stage_totals_are_event_sums(self, seed):
        """The DES reports no stage totals, so they are checked here."""
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(2, 24, size=4))
        model = random_model(seed, layer_dims=dims)
        n = 40
        trace = EventTrace(deg=rng.integers(0, 17, size=n),
                           entries_scanned=rng.integers(0, 300, size=n))
        columns = list(zip(trace.deg.tolist(), trace.entries_scanned.tolist()))
        fetch = sum(l.c_in for l in model.layers)
        written = sum(l.c_out for l in model.layers)
        for mode in ("parallel", "sequential"):
            for overlap in (True, False):
                cfg = HwConfig(
                    clock_hz=float(rng.uniform(5e7, 5e8)),
                    dram_bw_bits_per_s=float(rng.uniform(5e8, 8e9)),
                    cycles_per_queue_entry_scan=int(rng.integers(1, 4)),
                    baq_cycles=int(rng.integers(1, 4)),
                    overlap_fetch_compute=overlap)
                report = estimate_stream_latency(model, trace, cfg, mode)
                events = [_one_event(model, *c, cfg, mode) for c in columns]
                assert report.stage_cycles == {
                    s: sum(bd.stage_cycles[s] for bd in events)
                    for s in pm.STAGES}
                assert report.per_event_cycles.tolist() == \
                    [bd.total_cycles for bd in events]
                assert report.stage_cycles["feature_fetch"] == sum(
                    math.ceil(deg * fetch * 8 / cfg.bits_per_cycle)
                    for deg, _ in columns)
                assert report.stage_cycles["writeback"] == n * math.ceil(
                    written * 8 / cfg.bits_per_cycle)


class TestEnergy:
    def test_missing_constants(self, small_model, rng):
        cfg = HwConfig()
        trace = _rand_trace(rng, small_model)
        report = estimate_stream_latency(small_model, trace, cfg)
        with pytest.raises(MissingConstants):
            estimate_energy(report, trace, small_model, cfg)

    def test_zero_constants_zero_energy(self, small_model, rng):
        cfg = HwConfig(e_mac=0.0, e_sram_byte=0.0, e_dram_byte=0.0)
        trace = _rand_trace(rng, small_model)
        report = estimate_stream_latency(small_model, trace, cfg)
        estimate_energy(report, trace, small_model, cfg)
        assert report.total_energy == 0.0

    def test_linear_in_e_mac(self, small_model, rng):
        trace = _rand_trace(rng, small_model)
        energies = []
        for e_mac in (1e-12, 2e-12):
            cfg = HwConfig(e_mac=e_mac, e_sram_byte=0.0, e_dram_byte=0.0)
            report = estimate_stream_latency(small_model, trace, cfg)
            estimate_energy(report, trace, small_model, cfg)
            energies.append(report.total_energy)
        assert energies[1] == pytest.approx(2 * energies[0])

    def test_dram_bytes_per_event(self, small_model, rng):
        """One joule per DRAM byte: deg * sum C_in fetched, sum C_out
        written back."""
        cfg = HwConfig(e_mac=0.0, e_sram_byte=0.0, e_dram_byte=1.0)
        trace = _rand_trace(rng, small_model)
        report = estimate_stream_latency(small_model, trace, cfg)
        estimate_energy(report, trace, small_model, cfg)
        fetch = sum(l.c_in for l in small_model.layers)
        written = sum(l.c_out for l in small_model.layers)
        assert report.per_event_energy.tolist() == \
            (trace.deg * fetch + written).tolist()
        assert report.stage_energy["feature_fetch"] == trace.deg.sum() * fetch
        assert report.stage_energy["writeback"] == len(trace) * written

    def test_equals_per_event_pricing(self, small_model, rng):
        """Pricing each distinct row once gives every figure of pricing
        each event, to the last bit."""
        cfg = HwConfig(e_mac=3.7e-13, e_sram_byte=1.3e-12,
                       e_dram_byte=9.1e-11, queue_entry_bytes=7)
        fetch = sum(l.c_in for l in small_model.layers)
        written = sum(l.c_out for l in small_model.layers)
        conv_bytes = sum((l.c_in + 2) * l.c_out for l in small_model.layers)
        fc = small_model.fc.in_dim * small_model.fc.out_dim
        for trace in (_repeated_rows_trace(rng),
                      _rand_trace(rng, small_model, n=20_000)):
            conv = trace.deg * conv_bytes
            scanned = trace.entries_scanned * 7
            fetched = trace.deg * fetch
            energy = ((conv + fc) * cfg.e_mac
                      + (scanned + conv + fc) * cfg.e_sram_byte
                      + (fetched + written) * cfg.e_dram_byte)
            n = len(trace)
            stages = {
                "graph_build": float(scanned.sum() * cfg.e_sram_byte),
                "feature_fetch": float(fetched.sum() * cfg.e_dram_byte),
                "conv": float((conv * cfg.e_mac
                               + conv * cfg.e_sram_byte).sum()),
                "writeback": float(n * written * cfg.e_dram_byte),
                "readout_fc": float(n * fc * (cfg.e_mac + cfg.e_sram_byte)),
            }
            report = estimate_stream_latency(small_model, trace, cfg)
            estimate_energy(report, trace, small_model, cfg)
            assert np.array_equal(report.per_event_energy, energy)
            assert report.total_energy.hex() == float(energy.sum()).hex()
            assert {s: e.hex() for s, e in report.stage_energy.items()} \
                == {s: e.hex() for s, e in stages.items()}

    def test_rows_grouped_once_per_trace(self, small_model, rng,
                                         monkeypatch):
        """A sweep of four hardware points, as perfbench's hw_sweep runs
        it, groups the trace's rows once; the closed form never does."""
        grouped = []
        real = pm._trace_rows

        def counted(deg, entries_scanned):
            grouped.append(len(deg))
            return real(deg, entries_scanned)

        monkeypatch.setattr(pm, "_trace_rows", counted)
        trace = _rand_trace(rng, small_model, n=500)
        base = HwConfig(e_mac=1e-12, e_sram_byte=1e-12, e_dram_byte=1e-10)
        points = [(base, "parallel"),
                  (dataclasses.replace(base, overlap_fetch_compute=False),
                   "parallel"),
                  (base, "sequential"),
                  (dataclasses.replace(base, dram_bw_bits_per_s=1.6e9),
                   "parallel")]
        for cfg, mode in points:
            estimate_stream_latency(small_model, trace, cfg, mode)
        assert grouped == []
        for cfg, mode in points:
            report = estimate_stream_latency(small_model, trace, cfg, mode)
            des = simulate_cycles(trace, small_model, cfg, mode)
            estimate_energy(report, trace, small_model, cfg)
            assert np.array_equal(des.per_event_cycles,
                                  report.per_event_cycles)
        assert grouped == [500]

    def test_report_json_shape(self, small_model, rng):
        cfg = HwConfig(e_mac=1e-12, e_sram_byte=1e-12, e_dram_byte=1e-10)
        trace = _rand_trace(rng, small_model)
        report = estimate_stream_latency(small_model, trace, cfg)
        estimate_energy(report, trace, small_model, cfg)
        doc = report.to_json()
        assert set(doc["per_stage"]) == set(pm.STAGES)
        assert doc["totals"]["joules"] == report.total_energy
        assert "50" in doc["percentiles"]


class TestCalibratedProfile:
    def test_shipped_profile_targets(self):
        model = calibration_model()
        cfg = pm.load_hw_config(str(
            Path(__file__).parent.parent / "configs" / "calibrated_hw.json"))
        trace = calibration_trace(model)
        report = estimate_stream_latency(model, trace, cfg)
        estimate_energy(report, trace, model, cfg)
        assert report.mean_us == pytest.approx(10.7, rel=0.15)
        assert report.mean_energy_nj == pytest.approx(305.0, rel=0.10)

    def test_calibration_trace_deterministic(self):
        model = calibration_model()
        a = calibration_trace(model)
        b = calibration_trace(model)
        assert np.array_equal(a.deg, b.deg)
        assert float(a.deg.mean()) == pytest.approx(12.2, abs=0.3)
