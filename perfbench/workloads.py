"""The benchmark's three workloads: inputs from a seed, rounds of jobs, checks.

A workload instance is a set of input files made from the seed with
evgnn's own generators. A round runs every job of the instance once, back
to back, in this process (closed loop, one caller, no pools); a job is the
command sequence for one stream, and it fails on a non-zero exit or a
failed output check.

evgnn functions are called through their module attributes so that the
tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import operator
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import evgnn.model as model_io
from evgnn import cli, engine, event_io, perf_model
from evgnn.graph_builder import SearchParams

from perfbench.tracing import Lap, Stopwatch, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
SENSOR = (120, 100)  # calibration sensor, width x height
HW_CONFIG = ROOT / "configs" / "calibrated_hw.json"


@dataclass
class Case:
    """One stream and its model: the files, the generated stream, and the
    model as loaded back from its file."""

    stream_path: Path
    model_path: Path
    stream: event_io.EventStream
    model: model_io.QuantizedModel
    trace_path: Path | None = None
    expected: list[str] | None = None  # oracle trace, computed once


@dataclass
class Instance:
    workdir: Path
    cases: list[Case]
    stats: dict | None = None    # graph_stats of the inputs
    sim: dict | None = None      # hw_sweep: modelled figures, first round


@dataclass
class RoundResult:
    wall: float = 0.0            # timed wall time of the round
    nominal: float = 0.0         # the same at the nominal machine speed
    events: int = 0              # events counted toward job_ev_s
    jobs: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    command_wall: dict = field(default_factory=dict)
    command_events: dict = field(default_factory=dict)

    def add(self, command: str, lap: Lap, events: int = 0) -> None:
        self.wall += lap.wall
        self.nominal += lap.nominal
        self.command_wall[command] = (self.command_wall.get(command, 0.0)
                                      + lap.wall)
        self.command_events[command] = (self.command_events.get(command, 0)
                                        + events)


def fingerprint(inst: Instance) -> str:
    """Digest of every input file, to prove set-up is deterministic."""
    h = hashlib.sha256()
    for case in inst.cases:
        for path in (case.stream_path, case.model_path):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def oracle_lines(model, stream) -> list[str]:
    """Per-event trace from the scalar engine.process_event path."""
    state = engine.EngineState.new(model, len(stream))
    lines = []
    for ev in stream.events:
        pred = engine.process_event(state, model, ev)
        vals = " ".join(str(int(v)) for v in pred.logits)
        lines.append(f"{ev.n} {pred.cls} {vals}")
    return lines


def dep_levels(deg: np.ndarray, nbr_n: np.ndarray) -> np.ndarray:
    """level(i) = 1 + max level(neighbors of i); 1 for an isolated event."""
    level = [0] * len(deg)
    for i, (d, row) in enumerate(zip(deg.tolist(), nbr_n.tolist())):
        level[i] = 1 + max((level[j] for j in row[:d]), default=0)
    return np.asarray(level, dtype=np.int64)


def graph_stats(graphs) -> dict:
    """Exact input properties over (adjacency, model) pairs, pooled."""
    n = deg_sum = scanned = saturated = levels = conv = fc = 0
    for adj, model in graphs:
        n += len(adj.deg)
        deg_sum += int(adj.deg.sum())
        scanned += int(adj.entries_scanned.sum())
        saturated += int((adj.deg == model.search.d_max).sum())
        if len(adj.deg):
            levels += int(dep_levels(adj.deg, adj.nbr_n).max())
        conv += int(adj.deg.sum()) * sum((l.c_in + 2) * l.c_out
                                         for l in model.layers)
        fc += len(adj.deg) * model.fc.in_dim * model.fc.out_dim
    return {
        "mean_degree": deg_sum / n,
        "scanned_per_event": scanned / n,
        "hit_ratio": deg_sum / scanned if scanned else 0.0,
        "dmax_saturated_frac": saturated / n,
        "dep_levels": levels / len(graphs),
        "events_per_level": n / levels if levels else 0.0,
        "conv_macs_per_event": conv / n,
        "fc_macs_per_event": fc / n,
    }


def _write_stream(path: Path, stream) -> None:
    if path.suffix == ".bin":
        path.write_bytes(event_io.write_binary_stream(stream))
    else:
        path.write_text(event_io.write_text_stream(stream), encoding="utf-8")


def _make_case(workdir: Path, tag: str, stream, model, fmt: str) -> Case:
    case = Case(workdir / f"{tag}.{fmt}", workdir / f"{tag}.model.json",
                stream, model, trace_path=workdir / f"{tag}.trace.txt")
    _write_stream(case.stream_path, stream)
    model_io.save_model(model, str(case.model_path))
    case.model = model_io.load_model(str(case.model_path))
    return case


def run_cli(argv: list[str], watch: Stopwatch, tracer,
            span: str) -> tuple[int, str, Lap]:
    """One in-process `evgnn` command; returns (exit code, output, lap)."""
    out = io.StringIO()
    ctx = tracer.span(span) if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        with watch.step() as lap, ctx:
            code = cli.main(argv)
    return code, out.getvalue(), lap


class CliWorkload:
    """Streams run through `evgnn infer` (and `verify`) as a user would."""

    name = ""
    verify = False
    regime: tuple = ()  # (stats key, comparison, limit) the inputs must meet

    def cases(self, seed: int, workdir: Path) -> list[Case]:
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path) -> Instance:
        workdir.mkdir(parents=True, exist_ok=True)
        return Instance(workdir, self.cases(seed, workdir))

    def stats(self, inst: Instance) -> dict:
        if inst.stats is None:
            inst.stats = graph_stats(
                [(engine.build_adjacency(c.stream, c.model), c.model)
                 for c in inst.cases])
        return inst.stats

    def run_round(self, inst: Instance, tracer=None) -> RoundResult:
        res = RoundResult()
        watch = Stopwatch()
        for k, case in enumerate(inst.cases):
            if tracer is not None:
                tracer.job = k
            res.jobs += 1
            n = len(case.stream)
            try:
                errors = self._job(case, watch, tracer, res, n)
            except Exception:  # a crashing job is a failed job
                errors = [traceback.format_exc(limit=3)]
            if errors:
                res.failed += 1
                res.errors.extend(f"{case.stream_path.name}: {e}"
                                  for e in errors)
            res.events += n
        res.probes = watch.probes
        return res

    def _job(self, case: Case, watch: Stopwatch, tracer, res: RoundResult,
             n: int) -> list[str]:
        errors = []
        case.trace_path.unlink(missing_ok=True)
        code, out, lap = run_cli(
            ["infer", str(case.model_path), str(case.stream_path),
             "--trace-out", str(case.trace_path), "--jobs", "1"],
            watch, tracer, "cli.infer")
        res.add("infer", lap, n)
        if code != 0:
            return [f"infer exited {code}: {out.strip()}"]
        if case.expected is None:
            case.expected = oracle_lines(case.model, case.stream)
        got = case.trace_path.read_text(encoding="utf-8").splitlines()
        if got != case.expected:
            bad = next((i for i, (a, b) in enumerate(zip(got, case.expected))
                        if a != b), min(len(got), len(case.expected)))
            errors.append(f"infer trace differs from the per-event oracle "
                          f"at event {bad} ({len(got)} lines)")
        if self.verify:
            code, out, lap = run_cli(
                ["verify", str(case.model_path), str(case.stream_path)],
                watch, tracer, "cli.verify")
            res.add("verify", lap, n)
            if code != 0 or not out.startswith("OK:"):
                errors.append(f"verify exited {code}: {out.strip()}")
        return errors


@dataclass
class DenseDot(CliWorkload):
    """Calibration model on a moving dot: the conv forward dominates.

    Events 0..d_max-1 cannot have d_max neighbors, so d_max saturation is
    at most 1 - 16/events; 500 events on a 1.5 px dot keeps it >= 0.95.
    """

    events: int = 500
    name = "dense_dot"
    regime = ("dmax_saturated_frac", operator.ge, 0.95)

    def cases(self, seed, workdir):
        w, h = SENSOR
        stream = event_io.gen_synthetic(
            "moving_dot",
            {"width": w, "height": h, "count": self.events,
             "duration_us": self.events * 5,
             "velocity": (1.0, 0.0), "dot_radius": 1.5}, seed)
        return [_make_case(workdir, "dot", stream,
                           model_io.calibration_model(seed), "bin")]


def corpus_shapes(count: int) -> list[dict]:
    """Shapes of the acceptance corpus, drawn in its recipe's order."""
    rng = np.random.default_rng(2024)
    out = []
    for _ in range(count):
        n_layers = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(4, 25, size=n_layers))
        out.append({
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


@dataclass
class SparseCorpus(CliWorkload):
    """Acceptance-corpus streams, each with its own model: infer + verify.

    The shapes are fixed (the first `streams` of the recipe, covering
    d_max 4, 8 and 16) so every seed costs about the same; the seed draws
    the events and weights. Durations scale with the event count to keep
    the recipe's event rate, and so its degree regime.
    """

    streams: int = 8
    events: int = 500
    name = "sparse_corpus"
    verify = True
    regime = ("mean_degree", operator.lt, 4.0)

    def cases(self, seed, workdir):
        out = []
        for k, shape in enumerate(corpus_shapes(self.streams)):
            sub_seed = seed * 1000 + k
            stream = event_io.gen_synthetic(
                "uniform_random",
                {"width": shape["width"], "height": shape["height"],
                 "count": self.events,
                 "duration_us": max(1, shape["duration"] * self.events
                                    // 10_000)}, sub_seed)
            params = SearchParams(shape="prism", r_s=shape["r_s"],
                                  r_t=shape["r_t"], d_max=shape["d_max"],
                                  queue_depth=shape["queue_depth"])
            model = model_io.random_model(
                sub_seed, width=shape["width"], height=shape["height"],
                layer_dims=shape["dims"], search=params)
            out.append(_make_case(workdir, f"s{k:02d}", stream, model, "txt"))
        return out


def hw_points(cfg) -> list[tuple[str, object, str]]:
    """Calibrated, overlap off, sequential mode, half DRAM bandwidth."""
    return [
        ("calibrated", cfg, "parallel"),
        ("overlap_off", dataclasses.replace(cfg, overlap_fetch_compute=False),
         "parallel"),
        ("sequential", cfg, "sequential"),
        ("half_dram_bw", dataclasses.replace(
            cfg, dram_bw_bits_per_s=cfg.dram_bw_bits_per_s / 2), "parallel"),
    ]


def sim_summary(report, n: int) -> dict:
    """Modelled figures of one hardware point; exact for given inputs."""
    if tail_percentile(n) is None or tail_percentile(n) < 99.0:
        raise ValueError(f"{n} events leave fewer than 10 beyond p99")
    out = {
        "sim_mean_us": report.mean_us,
        "sim_p99_cycles": float(np.percentile(report.per_event_cycles, 99)),
        "sim_mean_nj": report.mean_energy_nj,
    }
    for stage, cycles in report.stage_cycles.items():
        out[f"sim_stage_cycles.{stage}"] = cycles / n
    return out


@dataclass
class HwSweep:
    """Graph build plus the perf model at 4 hardware points; no forward.

    Queue occupancy, and so the share of stale entries scanned, grows with
    events per pixel; 100k events over 120x100 pixels puts the hit ratio
    near 0.1.
    """

    events: int = 100_000
    name = "hw_sweep"
    regime = ("hit_ratio", operator.le, 0.15)

    def setup(self, seed: int, workdir: Path) -> Instance:
        workdir.mkdir(parents=True, exist_ok=True)
        w, h = SENSOR
        stream = event_io.gen_synthetic(
            "uniform_random",
            {"width": w, "height": h, "count": self.events,
             "duration_us": self.events * 10}, seed)
        case = _make_case(workdir, "sweep", stream,
                          model_io.calibration_model(seed), "bin")
        return Instance(workdir, [case])

    def stats(self, inst: Instance) -> dict | None:
        """Taken from the first successful round's own adjacency."""
        return inst.stats

    def run_round(self, inst: Instance, tracer=None) -> RoundResult:
        res = RoundResult(jobs=1)
        case = inst.cases[0]
        if tracer is not None:
            tracer.job = 0
        watch = Stopwatch()
        try:
            adj, trace, outputs = self._sweep(case, inst, watch, res)
            errors = self._check(inst, adj, trace, outputs)
        except Exception:  # a crashing job is a failed job
            errors = [traceback.format_exc(limit=3)]
        res.probes = watch.probes
        if errors:
            res.failed = 1
            res.errors.extend(errors)
        else:
            res.events = len(case.stream) * len(outputs)
            res.command_events["sweep"] = res.events
        return res

    def _sweep(self, case: Case, inst: Instance, watch: Stopwatch,
               res: RoundResult):
        """Stream file to every report: the timed job, in six steps."""
        with watch.step() as lap:
            stream = event_io.parse_binary_stream(
                case.stream_path.read_bytes(), *SENSOR)
            model = model_io.load_model(str(case.model_path))
            cfg = perf_model.load_hw_config(str(HW_CONFIG))
        res.add("sweep", lap)
        with watch.step() as lap:
            adj = engine.build_adjacency(stream, model)
            trace = perf_model.trace_from_run(model, adj.deg,
                                              adj.entries_scanned)
        res.add("sweep", lap)
        outputs = []
        for name, point, mode in hw_points(cfg):
            with watch.step() as lap:
                report = perf_model.estimate_stream_latency(model, trace,
                                                            point, mode)
                des = perf_model.simulate_cycles(trace, model, point, mode)
                perf_model.estimate_energy(report, trace, model, point)
                path = inst.workdir / f"report_{name}.json"
                path.write_text(json.dumps(report.to_json()),
                                encoding="utf-8")
            res.add("sweep", lap)
            outputs.append((name, report, des))
        return adj, trace, outputs

    def _check(self, inst: Instance, adj, trace, outputs) -> list[str]:
        errors = []
        n = len(inst.cases[0].stream)
        if len(trace) != n:
            errors.append(f"trace has {len(trace)} events, stream {n}")
        for name, report, des in outputs:
            if (report.total_cycles != des.total_cycles
                    or not np.array_equal(report.per_event_cycles,
                                          des.per_event_cycles)):
                errors.append(f"{name}: analytic total {report.total_cycles}"
                              f" != DES total {des.total_cycles}")
        sim = sim_summary(outputs[0][1], n)
        if inst.sim is None:
            inst.sim = sim
            inst.stats = graph_stats([(adj, inst.cases[0].model)])
        elif sim != inst.sim:
            errors.append("modelled figures differ between rounds")
        return errors


WORKLOADS = {w.name: w for w in (DenseDot, SparseCorpus, HwSweep)}
