"""Run one evgnn benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload dense_dot --seed 1 --seconds 20 --trace 0

The program is imported from ./src. Inputs are made from --seed; rounds of
jobs run back to back in this process until --seconds have passed. Every
job's output is checked. Standard output carries an `env` line, a readable
summary, and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 rounds alternate traced/untraced
and the metrics are the per-layer ones. See perfbench/README.md.

Exit codes: 0 correct, 1 a job or check failed, 2 the program cannot be
imported from ./src, 3 a workload left its regime.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import (PROBE_NOMINAL_S, Stopwatch,  # noqa: E402
                               Tracer, median, rate, self_times,
                               tail_percentile)

WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5

EXIT_INCORRECT = 1
EXIT_NO_PROGRAM = 2
EXIT_REGIME = 3

GRAPH_KEYS = ("mean_degree", "scanned_per_event", "hit_ratio",
              "dmax_saturated_frac", "dep_levels", "events_per_level")
SIM_KEYS = ("sim_mean_us", "sim_p99_cycles", "sim_mean_nj") + tuple(
    f"sim_stage_cycles.{s}" for s in
    ("graph_build", "feature_fetch", "conv", "writeback", "readout_fc"))


class ProgramMissing(ImportError):
    pass


def import_program():
    """Import evgnn from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import evgnn
        import evgnn.cli  # noqa: F401  (loads every layer module)
    except ImportError as exc:
        raise ProgramMissing(f"cannot import evgnn from {src}: {exc}") from exc
    where = Path(evgnn.__file__).resolve().parent.parent
    if where != src.resolve():
        raise ProgramMissing(f"evgnn was imported from {where}, not {src}")
    return evgnn


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, trace: int) -> dict:
    kernels = sys.modules.get("evgnn.kernels")
    return {
        "backend": "numba" if getattr(kernels, "USE_NUMBA", False)
        else "python",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def set_up(wl, seed: int, workdir: Path, fingerprint):
    """Make the inputs SETUP_REPEATS times; return (instance, laps)."""
    laps, prints, inst = [], set(), None
    watch = Stopwatch()
    for k in range(SETUP_REPEATS):
        with watch.step() as lap:
            inst = wl.setup(seed, workdir / f"setup{k}")
        laps.append(lap)
        prints.add(fingerprint(inst))
    if len(prints) != 1:
        raise RuntimeError("set-up is not deterministic for one seed")
    return inst, laps


def measure(wl, inst, seconds: float, traced: bool):
    """Rounds back to back until `seconds`; traced runs alternate."""
    tracer = Tracer() if traced else None
    rounds: list[tuple[object, bool]] = []
    t_start = time.perf_counter()
    while True:
        n_traced = sum(t for _, t in rounds)
        trace_this = traced and n_traced <= len(rounds) - n_traced
        if trace_this:
            with tracer.installed():
                res = wl.run_round(inst, tracer)
        else:
            res = wl.run_round(inst)
        rounds.append((res, trace_this))
        kinds = {t for _, t in rounds}
        if (time.perf_counter() - t_start >= seconds
                and kinds == {traced, False}):
            return rounds, tracer


def command_rate(rounds, command: str) -> float | None:
    rates = [r.command_events[command] / r.command_wall[command]
             for r in rounds if r.command_wall.get(command)]
    return median(rates) if rates else None


def layer_metrics(tracer, rounds, stats: dict, sim: dict | None) -> dict:
    spans = tracer.spans
    selfs = self_times(spans)

    def parallel(sp):
        return not sp.counts.get("sequential", False)

    def sequential(sp):
        return sp.counts.get("sequential", False)

    nominal = {flag: [r.nominal for r, t in rounds if t == flag]
               for flag in (True, False)}
    out = {
        "event_io.parse_ev_s": rate(spans, selfs, "event_io.parse"),
        "model.load_s": median([sp.duration for sp in spans
                                if sp.name == "model.load"]),
        "graph_builder.build_ev_s": rate(spans, selfs,
                                         "graph_builder.build"),
    }
    out.update({f"graph_builder.{k}": stats[k] for k in GRAPH_KEYS})
    out.update({
        "engine.forward_ev_s": rate(spans, selfs, "engine.run_stream",
                                    where=parallel),
        "engine.conv_mac_s": rate(spans, selfs, "engine.run_stream",
                                  "conv_macs", where=parallel),
        "engine.conv_macs_per_event": stats["conv_macs_per_event"],
        "engine.fc_macs_per_event": stats["fc_macs_per_event"],
        "engine.trace_write_ev_s": rate(spans, selfs, "engine.trace_lines"),
        "engine.forward_seq_ev_s": rate(spans, selfs, "engine.run_stream",
                                        where=sequential),
        "static_oracle.forward_ev_s": rate(spans, selfs,
                                           "static_oracle.forward"),
        "perf_model.analytic_ev_s": rate(spans, selfs, "perf_model.analytic"),
        "perf_model.des_ev_s": rate(spans, selfs, "perf_model.des"),
        "perf_model.energy_ev_s": rate(spans, selfs, "perf_model.energy"),
    })
    out.update({f"perf_model.{k}": (sim or {}).get(k, 0.0) for k in SIM_KEYS})
    out["cli.self_s"] = median([st for sp, st in zip(spans, selfs)
                                if sp.name.startswith("cli.")])
    out["trace.overhead_frac"] = (median(nominal[True])
                                  / median(nominal[False]) - 1.0)
    return out


def write_spans(tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sp in tracer.spans:
            fh.write(json.dumps({"name": sp.name, "start": sp.start,
                                 "end": sp.end, "parent": sp.parent,
                                 "job": sp.job, "counts": sp.counts}) + "\n")


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _fmt(value, unit: str) -> str:
    return "n/a" if value is None else f"{value:.6g} {unit}"


def print_summary(wl, env, rounds, setup_laps, rss_mb, stats, sim) -> None:
    plain = [r for r, t in rounds if not t]
    attempted = sum(r.jobs for r, _ in rounds)
    failed = sum(r.failed for r, _ in rounds)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{wl.name}: {len(rounds)} rounds "
          f"({sum(t for _, t in rounds)} traced), {attempted} jobs")
    for name, value, unit in (
            ("infer_ev_s", command_rate(plain, "infer"), "ev/s"),
            ("verify_ev_s", command_rate(plain, "verify"), "ev/s"),
            ("sweep_ev_s", command_rate(plain, "sweep"), "ev/s"),
            ("setup_s", median([lap.wall for lap in setup_laps]), "s"),
            ("peak_rss_mb", rss_mb, "MB")):
        print(f"  {name:<12} {_fmt(value, unit)}")
    print(f"  {'failed_frac':<12} {failed / attempted:.6g} "
          f"({failed} of {attempted} jobs)")
    walls = [r.wall for r in plain]
    tail = tail_percentile(len(walls))
    tail_text = ("" if tail is None or tail <= 50 else
                 f", p{tail:g} {numpy.percentile(walls, tail):.6g} s")
    probes = [t for r, _ in rounds for t in r.probes]
    print(f"  speed probe: median {median(probes):.6g} s over {len(probes)} "
          f"between steps (nominal {PROBE_NOMINAL_S} s); the JSON line's "
          f"job_ev_s and setup_s are rescaled to the nominal")
    print(f"  round wall: median {median(walls):.6g} s{tail_text} "
          f"over {len(walls)} untraced rounds "
          f"({', '.join(f'{w:.4g}' for w in walls)})")
    print("graph " + json.dumps({k: stats[k] for k in GRAPH_KEYS}))
    if sim is not None:
        print("sim " + json.dumps(sim, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("dense_dot", "sparse_corpus", "hw_sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    from perfbench.workloads import WORKLOADS, fingerprint

    wl = WORKLOADS[args.workload]()
    env = environment(args.workload, args.seed, args.trace)
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    inst, setup_laps = set_up(wl, args.seed, workdir, fingerprint)
    rounds, tracer = measure(wl, inst, args.seconds, bool(args.trace))

    attempted = sum(r.jobs for r, _ in rounds)
    failed = sum(r.failed for r, _ in rounds)
    for r, _ in rounds:
        for err in r.errors:
            print(f"job failed: {err}", file=sys.stderr)
    stats = wl.stats(inst)
    if stats is None:
        print("error: no successful round to take graph figures from",
              file=sys.stderr)
        return EXIT_INCORRECT
    key, cmp, limit = wl.regime
    if not cmp(stats[key], limit):
        print(f"error: {wl.name} left its regime: {key} = {stats[key]:.6g}, "
              f"needs {cmp.__name__} {limit}", file=sys.stderr)
        return EXIT_REGIME

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print_summary(wl, env, rounds, setup_laps, rss_mb, stats, inst.sim)
    if tracer is not None:
        if tracer.missing:
            print("untraced (absent): " + ", ".join(tracer.missing),
                  file=sys.stderr)
        write_spans(tracer, workdir / "spans.jsonl")
        metrics = layer_metrics(tracer, rounds, stats, inst.sim)
    else:
        metrics = {
            "job_ev_s": median([r.events / r.nominal for r, _ in rounds
                                if r.nominal > 0]),
            "setup_s": median([lap.nominal for lap in setup_laps]),
            "peak_rss_mb": rss_mb,
        }
    units = declared_units("per_layer" if tracer is not None
                           else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from "
                           f"BENCHMARK.json {sorted(units)}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
