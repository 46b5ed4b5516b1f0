"""Cycle-accurate latency and energy model of the accelerator datapath.

Two evaluations of the same pipeline are provided and must agree exactly:
a closed form evaluated per event over a whole trace's int64 arrays at
once (estimate_stream_latency) and a discrete-event simulation that walks
an event through explicit stage resources (simulate_cycles). Every
per-event figure depends only on the event's (deg, entries_scanned) row,
so a trace groups its distinct rows once, on first use, and keeps them
(EventTrace.rows). The DES walks each distinct row once and pushes and
pops every stage job of that event, scan job included, on its heap
calendar; the energy model prices each distinct row once. Both copy a
row's figures back to its events. The closed form stays per event and
never reads the rows, so that comparing it with the DES also checks the
grouping. What the jobs cost apart from deg and entries (scan cycles per
entry, the overlap slot, fetch bytes per neighbor, conv depths, BAQ, the
writeback/FC/readout tail) is fixed by (model, cfg, mode) and built once
per call.

Per event, only the degree and the queue entries scanned vary; the
model's layer widths fix the rest. Stage composition (cycles), with
fetch_bytes = deg * sum C_in and writeback_bytes = sum C_out (INT8):
    graph_build  = queue entries scanned * cycles_per_queue_entry_scan
    feature_fetch= ceil(fetch_bytes * 8 / bits_per_cycle)
    conv         = conv_latency(model, deg, parallel|sequential)
    writeback    = ceil(writeback_bytes * 8 / bits_per_cycle)
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

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush

import numpy as np

from .model import QuantizedModel


class MissingConstants(ValueError):
    pass


_INT_FIELDS = ("cycles_per_queue_entry_scan", "baq_cycles",
               "queue_entry_bytes")
_RATE_FIELDS = ("clock_hz", "dram_bw_bits_per_s")
_ENERGY_FIELDS = ("e_mac", "e_sram_byte", "e_dram_byte")
_INT64_MAX = int(np.iinfo(np.int64).max)


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
        for name in _INT_FIELDS + _RATE_FIELDS + _ENERGY_FIELDS:
            value = getattr(self, name)
            if value is None and name in _ENERGY_FIELDS:
                continue
            integral = name in _INT_FIELDS
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Integral if integral else numbers.Real):
                raise ValueError(f"HwConfig {name} must be "
                                 f"{'an integer' if integral else 'a number'}"
                                 f", got {value!r}")
            energy = name in _ENERGY_FIELDS
            if not ((value >= 0 if energy else value > 0)
                    and value < math.inf):  # NaN fails too
                raise ValueError(f"HwConfig {name} must be "
                                 f"{'non-negative' if energy else 'positive'}"
                                 f" and finite, got {value!r}")
        if not isinstance(self.overlap_fetch_compute, bool):
            raise ValueError(f"HwConfig overlap_fetch_compute must be true or "
                             f"false, got {self.overlap_fetch_compute!r}")
        given = [e is not None
                 for e in (self.e_mac, self.e_sram_byte, self.e_dram_byte)]
        if any(given) and not all(given):
            raise ValueError("e_mac, e_sram_byte and e_dram_byte go "
                             "together: give all three or none")

    @property
    def bits_per_cycle(self) -> float:
        return self.dram_bw_bits_per_s / self.clock_hz


def load_hw_config(path: str) -> HwConfig:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        doc = doc.get("hw", doc)
    if not isinstance(doc, dict):
        raise ValueError("hw config must be a JSON object")
    return HwConfig(**doc)  # an unknown key raises TypeError


@dataclass(frozen=True, eq=False)
class TraceRows:
    """The distinct (deg, entries_scanned) rows of a trace, in ascending
    order of the row key entries_scanned * (max deg + 1) + deg.

    deg, entries and count are int64[R]: each row's columns and its event
    count. index is intp[N], each event's row, so deg[index] is the
    trace's deg. The arrays are read-only.
    """

    deg: np.ndarray
    entries: np.ndarray
    count: np.ndarray
    index: np.ndarray


def _trace_rows(deg: np.ndarray, entries_scanned: np.ndarray) -> TraceRows:
    """Group a trace's events by row with one stable argsort of the row
    key, cast to its narrowest unsigned type (numpy radix-sorts keys of
    16 bits or fewer)."""
    span = int(deg.max(initial=0)) + 1
    key = entries_scanned * span + deg
    key = key.astype(np.min_scalar_type(int(key.max(initial=0))),
                     copy=False)
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    index = np.empty(len(key), dtype=np.intp)
    index[order] = np.cumsum(new) - 1
    entries, row_deg = np.divmod(ordered[starts].astype(np.int64), span)
    count = np.diff(starts, append=len(key))
    for a in (row_deg, entries, count, index):
        a.flags.writeable = False
    return TraceRows(row_deg, entries, count, index)


@dataclass
class EventTrace:
    """Per-event instrumentation of an inference run: each event's degree
    and the queue entries its neighbor search scanned.

    The columns are 1-D, of one length, non-negative integers, and small
    enough that the row key entries_scanned * (max deg + 1) + deg stays
    within int64. A built trace is not changed: rows is grouped from it
    once, on first use, and kept.
    """

    deg: np.ndarray
    entries_scanned: np.ndarray

    def __post_init__(self):
        for name in ("deg", "entries_scanned"):
            col = np.asarray(getattr(self, name))
            if col.ndim != 1:
                raise ValueError(f"EventTrace {name} must be 1-D, "
                                 f"got shape {col.shape}")
            if col.size and col.dtype.kind not in "iu":
                raise ValueError(f"EventTrace {name} must hold integers, "
                                 f"got {col.dtype}")
            if col.min(initial=0) < 0:
                raise ValueError(f"EventTrace {name} must be non-negative")
            setattr(self, name, col)
        if len(self.deg) != len(self.entries_scanned):
            raise ValueError(f"EventTrace deg has {len(self.deg)} events, "
                             f"entries_scanned {len(self.entries_scanned)}")
        span = int(self.deg.max(initial=0)) + 1
        if int(self.entries_scanned.max(initial=0)) * span + span - 1 \
                > _INT64_MAX:
            raise ValueError("EventTrace columns too large: the row key "
                             "entries_scanned * (max deg + 1) + deg "
                             "leaves int64")
        self.deg = self.deg.astype(np.int64, copy=False)
        self.entries_scanned = self.entries_scanned.astype(np.int64,
                                                           copy=False)

    def __len__(self) -> int:
        return len(self.deg)

    @cached_property
    def rows(self) -> TraceRows:
        """The trace's distinct (deg, entries_scanned) rows."""
        return _trace_rows(self.deg, self.entries_scanned)


STAGES = ("graph_build", "feature_fetch", "conv", "writeback", "readout_fc")


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


def bus_cycles(nbytes, cfg: HwConfig):
    """Cycles to move nbytes over the DRAM bus: int64 per array element."""
    if isinstance(nbytes, np.ndarray):
        return np.ceil(nbytes * 8 / cfg.bits_per_cycle).astype(np.int64)
    return math.ceil(nbytes * 8 / cfg.bits_per_cycle)  # a Python int


def weight_load_cycles(model: QuantizedModel, cfg: HwConfig) -> int:
    """One-time cost of loading all weights over the DRAM bus."""
    return bus_cycles(conv_weight_bytes(model) + fc_macs(model)
                      + model.fc.out_dim * 4, cfg)


def conv_latency(model: QuantizedModel, deg: int, mode: str,
                 cfg: HwConfig) -> int:
    """Conv-stage cycles: per-neighbor layer-l cost is C_in^l + 2 cycles.

    parallel runs all layers concurrently (bounded by the largest layer);
    sequential runs them back to back.
    """
    depths = [l.c_in + 2 for l in model.layers]
    if mode == "parallel":
        return deg * max(depths) + cfg.baq_cycles
    if mode == "sequential":
        return deg * sum(depths) + len(depths) * cfg.baq_cycles
    raise ValueError(f"unknown mode {mode!r}")


def _stage_cycles(model: QuantizedModel, deg, entries_scanned, cfg: HwConfig,
                  mode: str) -> tuple[dict[str, np.ndarray | int],
                                      np.ndarray]:
    """Closed-form stage cycles and total cycles of every event.

    The inputs are int64 arrays of one shape; so is the total. A stage
    is an array of that shape, or a Python int for the stages that cost
    every event the same (writeback, readout_fc). The per-stage figures
    are the un-overlapped costs; with overlap on in parallel mode the
    total counts the fetch/conv pair as
    deg * max(fetch_per_nbr, compute_per_nbr) + baq instead.
    """
    fetch_bytes = deg * fetch_bytes_per_neighbor(model)
    stages = {
        "graph_build": entries_scanned * cfg.cycles_per_queue_entry_scan,
        "feature_fetch": bus_cycles(fetch_bytes, cfg),
        "conv": conv_latency(model, deg, mode, cfg),
        "writeback": bus_cycles(writeback_bytes(model), cfg),
        "readout_fc": model.fc.in_dim + model.c_last,
    }
    if cfg.overlap_fetch_compute and mode == "parallel":
        per_nbr = max(bus_cycles(fetch_bytes_per_neighbor(model), cfg),
                      max(l.c_in + 2 for l in model.layers))
        total = (stages["graph_build"] + deg * per_nbr + cfg.baq_cycles
                 + stages["writeback"] + stages["readout_fc"])
    else:
        total = sum(stages.values())
    return stages, total


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
        """Mean cycles per event; 0.0 for a trace without events."""
        if not len(self.per_event_cycles):
            return 0.0
        return float(self.per_event_cycles.mean())

    @property
    def mean_us(self) -> float:
        return self.mean_cycles / self.clock_hz * 1e6

    @property
    def mean_energy_nj(self) -> float | None:
        if self.per_event_energy is None:
            return None
        if not len(self.per_event_energy):
            return 0.0
        return float(self.per_event_energy.mean()) * 1e9

    def percentiles(self, ps=(50, 90, 99)) -> dict[int, float]:
        """Cycle percentiles of the events; 0.0 each without events."""
        ps = list(ps)
        if not len(self.per_event_cycles):
            return dict.fromkeys(ps, 0.0)
        return dict(zip(ps, np.percentile(self.per_event_cycles,
                                          ps).tolist()))

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
        model, trace.deg, trace.entries_scanned, cfg, mode)
    n = len(trace)
    return PerfReport(per_event,
                      {s: int(c.sum()) if isinstance(c, np.ndarray)
                       else n * c for s, c in stages.items()},
                      int(per_event.sum()), cfg.clock_hz,
                      weight_load_cycles=weight_load_cycles(model, cfg))


# ---------------------------------------------------------------- DES

@dataclass(frozen=True)
class _StageJobs:
    """What an event's stage jobs cost apart from its deg and entries:
    fixed by (model, cfg, mode), so built once per simulate_cycles call."""

    scan: int                  # cycles per queue entry scanned
    slot: int | None           # overlap on: cycles of one per-neighbor slot
    fetch_bytes: int           # overlap off: bytes fetched per neighbor
    bits_per_cycle: float
    depths: tuple[int, ...]    # overlap off: conv cycles per neighbor, per pass
    baq: int
    tail: tuple[int, ...]      # writeback, FC matvec, readout compares


def _stage_jobs(model: QuantizedModel, cfg: HwConfig, mode: str
                ) -> _StageJobs:
    if mode not in ("parallel", "sequential"):
        raise ValueError(f"unknown mode {mode!r}")
    depths = tuple(l.c_in + 2 for l in model.layers)
    fetch = fetch_bytes_per_neighbor(model)
    overlap = cfg.overlap_fetch_compute and mode == "parallel"
    return _StageJobs(
        scan=cfg.cycles_per_queue_entry_scan,
        slot=max(bus_cycles(fetch, cfg), max(depths)) if overlap else None,
        fetch_bytes=fetch,
        bits_per_cycle=cfg.bits_per_cycle,
        depths=(max(depths),) if mode == "parallel" else depths,
        baq=cfg.baq_cycles,
        tail=(bus_cycles(writeback_bytes(model), cfg), model.fc.in_dim,
              model.c_last))


def _simulate_one_event(jobs: _StageJobs, deg: int, entries: int) -> int:
    """Event-calendar walk of one event through the pipeline stages.

    Stages are scheduled as jobs on a shared timeline; with overlap on, the
    fetch unit and the MatVec array advance in synchronized per-neighbor
    slots (fetch of neighbor k+1 runs while neighbor k is computed; the
    first fetch is prefetched during the tail of the neighbor scan).
    """
    if jobs.slot is None:
        slots = 0
        # the feature fetch is bus_cycles(deg * fetch_bytes, cfg)
        after = (math.ceil(deg * jobs.fetch_bytes * 8 / jobs.bits_per_cycle),
                 *(c for depth in jobs.depths for c in (deg * depth, jobs.baq)),
                 *jobs.tail)
    else:
        slots = deg
        after = (jobs.baq, *jobs.tail)
    calendar: list[tuple[int, int]] = []  # (completion_time, job id)
    heappush(calendar, (entries * jobs.scan, 0))  # graph build scan
    now = heappop(calendar)[0]
    jid = 1
    for _ in range(slots):
        # both units busy for the slot; the slower one gates progress
        end = now + jobs.slot
        heappush(calendar, (end, jid))      # fetch unit
        heappush(calendar, (end, jid + 1))  # MatVec array
        jid += 2
        heappop(calendar)
        now = heappop(calendar)[0]
    for duration in after:  # the remaining stage jobs, one at a time
        heappush(calendar, (now + duration, jid))
        jid += 1
        now = heappop(calendar)[0]
    return now


def simulate_cycles(trace: EventTrace, model: QuantizedModel, cfg: HwConfig,
                    mode: str = "parallel") -> PerfReport:
    """Discrete-event re-derivation of the analytic model.

    An event's walk depends only on its two trace columns, and these
    repeat (deg <= d_max), so the walk runs once per distinct row of the
    trace (trace.rows, grouped once per trace), and its result goes to
    every event of that row. The stage jobs' fixed costs are built once
    per call.
    """
    jobs = _stage_jobs(model, cfg, mode)
    rows = trace.rows
    walked = np.array([_simulate_one_event(jobs, d, e)
                       for d, e in zip(rows.deg.tolist(),
                                       rows.entries.tolist())],
                      dtype=np.int64)
    # stage totals are an analytic notion; the DES only produces totals
    stage_totals = {s: 0 for s in STAGES}
    return PerfReport(walked[rows.index], stage_totals,
                      int(walked @ rows.count), cfg.clock_hz,
                      weight_load_cycles=weight_load_cycles(model, cfg))


# --------------------------------------------------------------- energy

def estimate_energy(report: PerfReport, trace: EventTrace,
                    model: QuantizedModel, cfg: HwConfig) -> PerfReport:
    """Fill the energy fields of a report (linear in the e_* constants).

    Per event:
        macs       = conv MACs (deg * sum (C_in+2) C_out) + FC MACs
        dram_bytes = feature fetch (deg * sum C_in) + writeback (sum C_out)
        sram_bytes = queue entries scanned * entry size
                     + conv weight reads per neighbor + FC weight reads

    Each distinct row of the trace (trace.rows) is priced once and its
    energy copied to its events. Integer stage totals are row-by-count
    dot products; the total and the conv stage sum the per-event floats,
    as a per-event pricing would.
    """
    if cfg.e_mac is None or cfg.e_sram_byte is None or cfg.e_dram_byte is None:
        raise MissingConstants("e_mac / e_sram_byte / e_dram_byte required")
    n = len(trace)
    rows = trace.rows
    # conv MACs per row, and as many conv weight bytes read from SRAM
    conv = conv_macs(model, rows.deg)
    scanned = rows.entries * cfg.queue_entry_bytes
    macs = conv + fc_macs(model)
    fetched = rows.deg * fetch_bytes_per_neighbor(model)
    dram = fetched + writeback_bytes(model)
    sram = scanned + conv + fc_macs(model)
    energy = (macs * cfg.e_mac + sram * cfg.e_sram_byte
              + dram * cfg.e_dram_byte)
    report.per_event_energy = energy[rows.index]
    report.total_energy = float(report.per_event_energy.sum())
    report.stage_energy = {
        "graph_build": float((scanned @ rows.count) * cfg.e_sram_byte),
        "feature_fetch": float((fetched @ rows.count) * cfg.e_dram_byte),
        "conv": float((conv * cfg.e_mac
                       + conv * cfg.e_sram_byte)[rows.index].sum()),
        "writeback": float(n * writeback_bytes(model) * cfg.e_dram_byte),
        "readout_fc": float(n * fc_macs(model)
                            * (cfg.e_mac + cfg.e_sram_byte)),
    }
    return report


def trace_from_run(model: QuantizedModel, deg: np.ndarray,
                   entries_scanned: np.ndarray) -> EventTrace:
    """EventTrace(deg, entries_scanned); model is unused.

    Kept only because the benchmark calls it by name, until ROADMAP item
    1's benchmark change; the program builds EventTrace directly."""
    return EventTrace(deg, entries_scanned)

