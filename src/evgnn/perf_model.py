"""Cycle-accurate latency and energy model of the accelerator datapath.

Two evaluations of the same pipeline are provided and must agree exactly:
a closed form evaluated over a whole trace's int64 arrays at once
(estimate_stream_latency; estimate_event_latency is the same formula on one
event) and a discrete-event simulation that walks an event through
explicit stage resources (simulate_cycles). The walk runs once per distinct
row of the trace's four columns, since its result depends on nothing else.

Stage composition per event (cycles):
    graph_build  = queue entries scanned * cycles_per_queue_entry_scan
    feature_fetch= ceil(bytes_fetched * 8 / bits_per_cycle)
    conv         = conv_latency(model, deg, parallel|sequential)
    writeback    = ceil(bytes_written * 8 / bits_per_cycle)
    readout_fc   = Gx*Gy*C_last (FC matvec reuse) + C_last (readout compares)

With overlap_fetch_compute on, the per-neighbor feature fetch and matvec
are pipelined: the fetch/conv pair contributes deg * max(fetch_per_nbr,
compute_per_nbr) + baq cycles instead of the two stage sums (the first
fetch is prefetched while the neighbor scan completes).

Energy is a linear model E = macs*e_mac + sram_bytes*e_sram_byte +
dram_bytes*e_dram_byte; the constants are configuration inputs, and the
shipped calibrated profile is a fit, not a blind prediction.

Weight transfers are excluded from steady-state per-event cost (weights
are resident on chip); a one-time load cost is reported separately.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .model import QuantizedModel


class MissingConstants(ValueError):
    pass


@dataclass
class HwConfig:
    clock_hz: float = 200e6
    dram_bw_bits_per_s: float = 3.2e9
    cycles_per_queue_entry_scan: int = 1
    baq_cycles: int = 1
    e_mac: float | None = None        # J per 8-bit MAC
    e_sram_byte: float | None = None  # J per on-chip byte
    e_dram_byte: float | None = None  # J per off-chip byte
    overlap_fetch_compute: bool = True
    queue_entry_bytes: int = 9        # t:u32, n:u32, p:u8

    def __post_init__(self):
        if (self.clock_hz <= 0 or self.dram_bw_bits_per_s <= 0
                or self.cycles_per_queue_entry_scan <= 0
                or self.baq_cycles <= 0 or self.queue_entry_bytes <= 0):
            raise ValueError("HwConfig values must be positive")

    @property
    def bits_per_cycle(self) -> float:
        return self.dram_bw_bits_per_s / self.clock_hz

    @staticmethod
    def from_json(doc: dict) -> "HwConfig":
        return HwConfig(**{k: doc[k] for k in doc
                           if k in HwConfig.__dataclass_fields__})

    def to_json(self) -> dict:
        return asdict(self)


def load_hw_config(path: str) -> HwConfig:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        doc = doc.get("hw", doc)
    if not isinstance(doc, dict):
        raise ValueError("hw config must be a JSON object")
    return HwConfig.from_json(doc)


@dataclass
class EventTrace:
    """Per-event instrumentation of an inference run."""

    deg: np.ndarray
    entries_scanned: np.ndarray
    bytes_fetched: np.ndarray
    bytes_written: np.ndarray

    def __post_init__(self):
        self.deg = np.asarray(self.deg, dtype=np.int64)
        self.entries_scanned = np.asarray(self.entries_scanned, dtype=np.int64)
        self.bytes_fetched = np.asarray(self.bytes_fetched, dtype=np.int64)
        self.bytes_written = np.asarray(self.bytes_written, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.deg)


STAGES = ("graph_build", "feature_fetch", "conv", "writeback", "readout_fc")


@dataclass
class LatencyBreakdown:
    """Cycles per pipeline stage for one event."""

    graph_build: int
    feature_fetch: int
    conv: int
    writeback: int
    readout_fc: int
    total: int

    def stage_cycles(self) -> dict[str, int]:
        return {s: getattr(self, s) for s in STAGES}


def fetch_bytes_per_neighbor(model: QuantizedModel) -> int:
    """All L per-layer input feature vectors of one neighbor (INT8 bytes)."""
    return sum(l.c_in for l in model.layers)


def writeback_bytes(model: QuantizedModel) -> int:
    return sum(l.c_out for l in model.layers)


def conv_weight_bytes(model: QuantizedModel) -> int:
    return sum((l.c_in + 2) * l.c_out for l in model.layers)


def conv_macs(model: QuantizedModel, deg: int | np.ndarray
              ) -> int | np.ndarray:
    return deg * conv_weight_bytes(model)


def fc_macs(model: QuantizedModel) -> int:
    return model.fc.in_dim * model.fc.out_dim


def weight_load_cycles(model: QuantizedModel, cfg: HwConfig) -> int:
    """One-time cost of loading all weights over the DRAM bus."""
    nbytes = conv_weight_bytes(model) + fc_macs(model) + model.fc.out_dim * 4
    return math.ceil(nbytes * 8 / cfg.bits_per_cycle)


def conv_latency(model: QuantizedModel, deg: int, mode: str = "parallel",
                 cfg: HwConfig | None = None) -> int:
    """Conv-stage cycles: per-neighbor layer-l cost is C_in^l + 2 cycles.

    parallel runs all layers concurrently (bounded by the largest layer);
    sequential runs them back to back.
    """
    baq = cfg.baq_cycles if cfg is not None else 1
    depths = [l.c_in + 2 for l in model.layers]
    if mode == "parallel":
        return deg * max(depths) + baq
    if mode == "sequential":
        return deg * sum(depths) + len(depths) * baq
    raise ValueError(f"unknown mode {mode!r}")


def _ceil_div_bits(nbytes: int, cfg: HwConfig) -> int:
    return math.ceil(nbytes * 8 / cfg.bits_per_cycle)


def _stage_cycles(model: QuantizedModel, deg, entries_scanned,
                  bytes_fetched, bytes_written, cfg: HwConfig,
                  mode: str) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Closed-form stage cycles and total cycles of every event.

    The inputs are int64 arrays of one shape; so are the outputs. The
    per-stage figures are the un-overlapped costs; with overlap on in
    parallel mode the total counts the fetch/conv pair as
    deg * max(fetch_per_nbr, compute_per_nbr) + baq instead.
    """
    def ceil_bits(nbytes):
        return np.ceil(nbytes * 8 / cfg.bits_per_cycle).astype(np.int64)

    stages = {
        "graph_build": entries_scanned * cfg.cycles_per_queue_entry_scan,
        "feature_fetch": ceil_bits(bytes_fetched),
        "conv": conv_latency(model, deg, mode, cfg),
        "writeback": ceil_bits(bytes_written),
        "readout_fc": np.full_like(deg, model.n_cells_x * model.n_cells_y
                                   * model.c_last + model.c_last),
    }
    if cfg.overlap_fetch_compute and mode == "parallel":
        per_nbr = max(_ceil_div_bits(fetch_bytes_per_neighbor(model), cfg),
                      max(l.c_in + 2 for l in model.layers))
        total = (stages["graph_build"] + deg * per_nbr + cfg.baq_cycles
                 + stages["writeback"] + stages["readout_fc"])
    else:
        total = sum(stages.values())
    return stages, total


def estimate_event_latency(model: QuantizedModel, deg: int,
                           entries_scanned: int, bytes_fetched: int,
                           bytes_written: int, cfg: HwConfig,
                           mode: str = "parallel") -> LatencyBreakdown:
    """Closed-form stage cycles for one event."""
    stages, total = _stage_cycles(
        model, *(np.int64(v) for v in (deg, entries_scanned, bytes_fetched,
                                       bytes_written)), cfg, mode)
    return LatencyBreakdown(**{s: int(stages[s]) for s in STAGES},
                            total=int(total))


@dataclass
class PerfReport:
    per_event_cycles: np.ndarray
    stage_cycles: dict[str, int]
    total_cycles: int
    clock_hz: float
    per_event_energy: np.ndarray | None = None
    stage_energy: dict[str, float] | None = None
    total_energy: float | None = None
    weight_load_cycles: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def mean_cycles(self) -> float:
        return float(self.per_event_cycles.mean())

    @property
    def mean_us(self) -> float:
        return self.mean_cycles / self.clock_hz * 1e6

    @property
    def mean_energy_nj(self) -> float | None:
        if self.per_event_energy is None:
            return None
        return float(self.per_event_energy.mean()) * 1e9

    def percentiles(self, ps=(50, 90, 99)) -> dict[int, float]:
        return {p: float(np.percentile(self.per_event_cycles, p))
                for p in ps}

    def to_json(self) -> dict:
        cyc_to_ns = 1e9 / self.clock_hz
        doc = {
            "per_stage": {
                s: {"cycles": int(c), "ns": c * cyc_to_ns,
                    **({"joules": self.stage_energy[s]}
                       if self.stage_energy else {})}
                for s, c in self.stage_cycles.items()},
            "totals": {
                "events": int(len(self.per_event_cycles)),
                "cycles": int(self.total_cycles),
                "ns": self.total_cycles * cyc_to_ns,
                "mean_cycles_per_event": self.mean_cycles,
                "mean_us_per_event": self.mean_us,
                "weight_load_cycles": int(self.weight_load_cycles),
                **({"joules": self.total_energy,
                    "mean_nj_per_event": self.mean_energy_nj}
                   if self.total_energy is not None else {}),
            },
            "percentiles": {str(k): v for k, v in self.percentiles().items()},
        }
        doc.update(self.extra)
        return doc


def estimate_stream_latency(model: QuantizedModel, trace: EventTrace,
                            cfg: HwConfig, mode: str = "parallel"
                            ) -> PerfReport:
    """Closed-form cycles of every event of a trace, with stage totals."""
    stages, per_event = _stage_cycles(
        model, trace.deg, trace.entries_scanned, trace.bytes_fetched,
        trace.bytes_written, cfg, mode)
    return PerfReport(per_event.astype(np.int64),
                      {s: int(c.sum()) for s, c in stages.items()},
                      int(per_event.sum()), cfg.clock_hz,
                      weight_load_cycles=weight_load_cycles(model, cfg))


# ---------------------------------------------------------------- DES

def _simulate_one_event(model: QuantizedModel, deg: int, entries: int,
                        bytes_fetched: int, bytes_written: int,
                        cfg: HwConfig, mode: str) -> int:
    """Event-calendar walk of one event through the pipeline stages.

    Stages are scheduled as jobs on a shared timeline; with overlap on, the
    fetch unit and the MatVec array advance in synchronized per-neighbor
    slots (fetch of neighbor k+1 runs while neighbor k is computed; the
    first fetch is prefetched during the tail of the neighbor scan).
    """
    calendar: list[tuple[int, int]] = []  # (completion_time, job id)
    now = 0
    jid = 0

    def run(duration: int) -> None:
        nonlocal now, jid
        heapq.heappush(calendar, (now + duration, jid))
        jid += 1
        now = heapq.heappop(calendar)[0]

    run(entries * cfg.cycles_per_queue_entry_scan)  # graph build scan

    if cfg.overlap_fetch_compute and mode == "parallel":
        per_nbr_fetch = _ceil_div_bits(fetch_bytes_per_neighbor(model), cfg)
        per_nbr_comp = max(l.c_in + 2 for l in model.layers)
        for _ in range(deg):
            # both units busy for the slot; the slower one gates progress
            slot_end = now + max(per_nbr_fetch, per_nbr_comp)
            heapq.heappush(calendar, (slot_end, jid)); jid += 1
            heapq.heappush(calendar, (slot_end, jid)); jid += 1
            heapq.heappop(calendar)
            now = heapq.heappop(calendar)[0]
        run(cfg.baq_cycles)
    else:
        run(_ceil_div_bits(bytes_fetched, cfg))
        depths = [l.c_in + 2 for l in model.layers]
        if mode == "parallel":
            run(deg * max(depths))
            run(cfg.baq_cycles)
        else:
            for d in depths:
                run(deg * d)
                run(cfg.baq_cycles)

    run(_ceil_div_bits(bytes_written, cfg))
    run(model.n_cells_x * model.n_cells_y * model.c_last)  # FC matvec
    run(model.c_last)                                      # readout compares
    return now


def simulate_cycles(trace: EventTrace, model: QuantizedModel, cfg: HwConfig,
                    mode: str = "parallel") -> PerfReport:
    """Discrete-event re-derivation of the analytic model.

    An event's walk depends only on its four trace columns, and these
    repeat (deg <= d_max, fetch bytes are deg times a constant), so the
    walk runs once per distinct (deg, entries_scanned, bytes_fetched,
    bytes_written) row of this trace and its result goes to every event
    with that row. Nothing is kept between calls.
    """
    if mode not in ("parallel", "sequential"):
        raise ValueError(f"unknown mode {mode!r}")
    rows = np.stack([trace.deg, trace.entries_scanned, trace.bytes_fetched,
                     trace.bytes_written])
    order = np.lexsort(rows)
    rows = rows[:, order]
    first = np.ones(len(trace), dtype=bool)
    first[1:] = (rows[:, 1:] != rows[:, :-1]).any(axis=0)
    walked = np.array([_simulate_one_event(model, *row, cfg, mode)
                       for row in rows[:, first].T.tolist()], dtype=np.int64)
    per_event = np.empty(len(trace), dtype=np.int64)
    per_event[order] = walked[np.cumsum(first) - 1]
    # stage totals are an analytic notion; the DES only produces totals
    stage_totals = {s: 0 for s in STAGES}
    return PerfReport(per_event, stage_totals, int(per_event.sum()),
                      cfg.clock_hz,
                      weight_load_cycles=weight_load_cycles(model, cfg))


# --------------------------------------------------------------- energy

def estimate_energy(report: PerfReport, trace: EventTrace,
                    model: QuantizedModel, cfg: HwConfig) -> PerfReport:
    """Fill the energy fields of a report (linear in the e_* constants).

    Per event:
        macs       = conv MACs (deg * sum (C_in+2) C_out) + FC MACs
        dram_bytes = feature fetch + writeback
        sram_bytes = queue entries scanned * entry size
                     + conv weight reads per neighbor + FC weight reads
    """
    if cfg.e_mac is None or cfg.e_sram_byte is None or cfg.e_dram_byte is None:
        raise MissingConstants("e_mac / e_sram_byte / e_dram_byte required")
    per_nbr_w = conv_weight_bytes(model)
    n = len(trace)
    conv = conv_macs(model, trace.deg)
    macs = conv + fc_macs(model)
    dram = trace.bytes_fetched + trace.bytes_written
    sram = (trace.entries_scanned * cfg.queue_entry_bytes
            + trace.deg * per_nbr_w + fc_macs(model))
    energy = (macs * cfg.e_mac + sram * cfg.e_sram_byte
              + dram * cfg.e_dram_byte)
    report.per_event_energy = energy
    report.total_energy = float(energy.sum())
    report.stage_energy = {
        "graph_build": float((trace.entries_scanned
                              * cfg.queue_entry_bytes).sum()
                             * cfg.e_sram_byte),
        "feature_fetch": float(trace.bytes_fetched.sum() * cfg.e_dram_byte),
        "conv": float((conv * cfg.e_mac
                       + trace.deg * per_nbr_w * cfg.e_sram_byte).sum()),
        "writeback": float(trace.bytes_written.sum() * cfg.e_dram_byte),
        "readout_fc": float(n * fc_macs(model)
                            * (cfg.e_mac + cfg.e_sram_byte)),
    }
    return report


def trace_from_run(model: QuantizedModel, deg: np.ndarray,
                   entries_scanned: np.ndarray) -> EventTrace:
    """Build a trace from engine instrumentation and the model's dims."""
    deg = np.asarray(deg, dtype=np.int64)
    return EventTrace(
        deg=deg,
        entries_scanned=np.asarray(entries_scanned, dtype=np.int64),
        bytes_fetched=deg * fetch_bytes_per_neighbor(model),
        bytes_written=np.full(len(deg), writeback_bytes(model),
                              dtype=np.int64))


def calibration_trace(model: QuantizedModel, n_events: int = 2000,
                      seed: int = 7, mean_deg: float = 12.2,
                      mean_entries: float = 150.0) -> EventTrace:
    """Deterministic synthetic trace used for the calibrated-profile checks.

    Degrees are drawn around the documented calibration mean degree (12.2,
    capped at D_max) and entries scanned around the documented mean queue
    occupancy of the candidate window.
    """
    rng = np.random.default_rng(seed)
    deg = np.clip(np.round(rng.normal(mean_deg, 1.5, n_events)),
                  0, model.search.d_max).astype(np.int64)
    entries = np.clip(np.round(rng.normal(mean_entries, 25.0, n_events)),
                      deg, None).astype(np.int64)
    return trace_from_run(model, deg, entries)
