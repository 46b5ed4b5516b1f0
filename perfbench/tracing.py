"""Spans recorded around calls into evgnn's layers, and their arithmetic.

The tracer never edits evgnn: for the duration of a traced round it
rebinds each traced public function, in every evgnn module that holds it,
to a wrapper that records a span (name, start, end, parent, job, counts).
Spans stay in memory; per-layer numbers are derived from them afterwards.
"""

from __future__ import annotations

import functools
import math
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Percentiles considered for a tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _events(_args, _kwargs, result) -> dict:
    return {"events": len(result)}


def _events_of(pos: int, key: str):
    def count(args, kwargs, _result) -> dict:
        return {"events": len(args[pos] if len(args) > pos else kwargs[key])}
    return count


def _one(_args, _kwargs, _result) -> dict:
    return {"calls": 1}


def _adjacency(_args, _kwargs, result) -> dict:
    return {"events": len(result.deg)}


def _run_stream(args, kwargs, result) -> dict:
    sequential = args[2] if len(args) > 2 else kwargs.get("sequential", False)
    return {"events": len(result.cls), "conv_macs": int(result.macs.sum()),
            "sequential": bool(sequential)}


# (module, public function, span name, counts extractor). kernels has no
# public entry of its own: its time shows inside the engine spans.
TRACE_POINTS = (
    ("evgnn.event_io", "parse_text_stream", "event_io.parse", _events),
    ("evgnn.event_io", "parse_binary_stream", "event_io.parse", _events),
    ("evgnn.model", "load_model", "model.load", _one),
    ("evgnn.engine", "build_adjacency", "graph_builder.build", _adjacency),
    ("evgnn.engine", "run_stream", "engine.run_stream", _run_stream),
    ("evgnn.engine", "prediction_trace_lines", "engine.trace_lines",
     _events),
    ("evgnn.static_oracle", "forward_eq7_int8", "static_oracle.forward",
     _events_of(0, "graph")),
    ("evgnn.perf_model", "load_hw_config", "perf_model.load_hw", _one),
    ("evgnn.perf_model", "trace_from_run", "perf_model.trace", _events),
    ("evgnn.perf_model", "estimate_stream_latency", "perf_model.analytic",
     _events_of(1, "trace")),
    ("evgnn.perf_model", "simulate_cycles", "perf_model.des",
     _events_of(0, "trace")),
    ("evgnn.perf_model", "estimate_energy", "perf_model.energy",
     _events_of(1, "trace")),
)


class Tracer:
    """In-memory span recorder; `installed()` wraps the trace points."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self.job: int | None = None

    @contextmanager
    def span(self, name: str):
        sp = Span(name, 0.0, parent=self._stack[-1] if self._stack else None,
                  job=self.job)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            sp.counts.update(count(args, kwargs, result))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Rebind every trace point in all loaded evgnn modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "evgnn" or n.startswith("evgnn."))]
        saved = []
        self.missing = []
        for mod_name, attr, name, count in TRACE_POINTS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(fn, name, count)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        saved.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for mod, key, fn in reversed(saved):
                setattr(mod, key, fn)


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        kids = [(max(s, sp.start), min(e, sp.end))
                for s, e in children.get(i, []) if e > sp.start and s < sp.end]
        out.append(sp.duration - covered_length(kids))
    return out


def rate(spans: list[Span], selfs: list[float], name: str,
         key: str = "events", where=None) -> float:
    """Sum of a count over the sum of self time, for spans of one name.

    Returns 0.0 when no such span was recorded (the layer did no work).
    """
    num = den = 0.0
    for sp, st in zip(spans, selfs):
        if sp.name == name and (where is None or where(sp)):
            num += sp.counts.get(key, 0)
            den += st
    return num / den if den > 0 else 0.0


def tail_percentile(n: int) -> float | None:
    """Highest percentile with at least MIN_BEYOND of n samples beyond it."""
    for p in TAIL_PERCENTILES:
        if math.floor(n * (100.0 - p) / 100.0 + 1e-9) >= MIN_BEYOND:
            return p
    return None


# Nominal duration of probe(); timings are rescaled to it.
PROBE_NOMINAL_S = 0.01
PROBES_BETWEEN_STEPS = 10
PROBE_EVERY_S = 0.25  # inside a step


def probe() -> float:
    """Wall time of a short fixed interpreter-bound loop: the speed now.

    The loop does int64 numpy-scalar multiply-adds, as evgnn's uncompiled
    kernels do. On a shared host, co-tenants can slow this process by up to
    about 1.5x, in phases of seconds to minutes; Stopwatch uses this probe
    to cancel that.
    """
    w = np.arange(48, dtype=np.int64).reshape(4, 12)
    x = np.arange(12, dtype=np.int64)
    t0 = time.perf_counter()
    acc = 0
    for _ in range(600):
        for c in range(4):
            for m in range(12):
                acc += w[c, m] * x[m]
    return time.perf_counter() - t0


@dataclass
class Lap:
    wall: float = 0.0      # seconds as measured, probes inside taken out
    nominal: float = 0.0   # the same, rescaled to the nominal machine speed


class Stopwatch:
    """Times steps at a nominal machine speed.

    Between steps it runs PROBES_BETWEEN_STEPS probes. Inside a step, a
    SIGALRM handler runs one probe every PROBE_EVERY_S, and their time is
    taken out of the step's wall time. A lap's nominal time is its wall time
    * PROBE_NOMINAL_S / the mean probe time over the probes before, inside
    and after it. The program's code is not changed.
    """

    def __init__(self):
        self.probes = [probe() for _ in range(PROBES_BETWEEN_STEPS)]

    @contextmanager
    def step(self):
        lap = Lap()
        inside: list[float] = []
        previous = signal.signal(signal.SIGALRM,
                                 lambda *_: inside.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        t0 = time.perf_counter()
        try:
            yield lap
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
            after = [probe() for _ in range(PROBES_BETWEEN_STEPS)]
            samples = self.probes[-PROBES_BETWEEN_STEPS:] + inside + after
            self.probes += after
            lap.wall = elapsed - sum(inside)
            lap.nominal = (lap.wall * PROBE_NOMINAL_S
                           / statistics.mean(samples))


def median(values) -> float:
    return statistics.median(values) if values else 0.0
