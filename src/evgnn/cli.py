"""Command-line front end.

Subcommands: gen, gen-model, infer, verify, bench, quantize.
Exit codes: 0 ok, 1 semantic divergence (verify), 2 I/O or config error.
`_rejecting` is the one input gate: every file, flag or search override
that a command rejects leaves through it as one exit-2 error line, and
`main` adds running out of memory to exit 2 (`infer` reports it per
stream).
Set EVGNN_LOG to a logging level name (e.g. DEBUG) for diagnostics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import os
import sys
import time

import numpy as np

from . import engine, event_io, perf_model, quant, static_oracle
from .graph_builder import SHAPES, SearchParams
from .model import (load_fp_model, load_model, random_fp_model,
                    save_fp_model, save_model)

log = logging.getLogger("evgnn")

EXIT_OK = 0
EXIT_DIVERGENCE = 1
EXIT_IO = 2


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_IO):
        super().__init__(message)
        self.code = code


def _setup_logging() -> None:
    level = os.environ.get("EVGNN_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


@contextlib.contextmanager
def _rejecting(what: str):
    """The CLI's one input gate: a read error in the block becomes
    `cannot read {what}: ...`, a rejected value `bad {what}: ...`, each a
    CliError that exits 2."""
    try:
        yield
    except (OSError, ValueError, TypeError) as exc:
        log.debug("rejected %s", what, exc_info=True)
        verb = "cannot read" if isinstance(exc, OSError) else "bad"
        raise CliError(f"{verb} {what}: {exc}") from exc


def _load_stream(path: str, width: int, height: int,
                 fmt: str | None) -> event_io.EventStream:
    if fmt is None:
        fmt = "bin" if path.endswith((".bin", ".evb")) else "text"
    parse = (event_io.parse_binary_stream if fmt == "bin"
             else event_io.parse_text_stream)
    with _rejecting(f"stream {path}"), open(path, "rb") as fh:
        return parse(fh.read(), width, height)


def _load_model(load, path: str, what: str = "model"):
    """load(path) behind the input gate."""
    with _rejecting(f"{what} {path}"):
        return load(path)


def _apply_overrides(model, args):
    """The model with each search flag given on the command line set."""
    given = {f.name: getattr(args, f.name)
             for f in dataclasses.fields(SearchParams)
             if getattr(args, f.name) is not None}
    with _rejecting("search parameters"):
        model.search = dataclasses.replace(model.search, **given)
    return model


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n" if lines else "")


def _infer_one(plan: engine.RunPlan, stream_path: str, args) -> str:
    """Run one stream; returns its result line."""
    model = plan.model
    stream = _load_stream(stream_path, model.width, model.height, args.format)
    if len(stream) == 0:
        if args.trace_out:
            _write_lines(args.trace_out, [])
        return f"{stream_path}: no events"
    t0 = time.perf_counter()
    result = engine.run_stream(plan, stream)
    wall = time.perf_counter() - t0
    if args.trace_out:
        _write_lines(args.trace_out, engine.prediction_trace_lines(result))
    final = int(result.cls[-1])
    return (f"{stream_path}: events={len(stream)} "
            f"class={model.classes[final]} ({final}) "
            f"throughput={len(stream) / wall:,.0f} ev/s")


def cmd_infer(args) -> int:
    if args.jobs < 1:
        raise CliError(f"--jobs {args.jobs}: need at least 1 worker")
    if args.trace_out and len(args.stream) > 1:
        raise CliError(f"--trace-out takes one stream, "
                       f"got {len(args.stream)}")
    plan = engine.build_plan(
        _apply_overrides(_load_model(load_model, args.model), args))
    jobs = min(args.jobs, len(args.stream))
    items = [(plan, s, args) for s in args.stream]
    if jobs > 1:
        # imported here: multiprocessing is a tenth of the CLI's start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_infer_worker, items))
    else:
        results = list(map(_infer_worker, items))
    # the workers share this process's stdout: only this process prints,
    # in argument order
    for code, line in results:
        print(line, file=sys.stderr if code else sys.stdout)
    return max(code for code, _ in results)


def _infer_worker(packed) -> tuple[int, str]:
    """(exit code, result or error line) of one stream: a stream that
    runs out of memory fails alone."""
    plan, stream_path, args = packed
    try:
        return EXIT_OK, _infer_one(plan, stream_path, args)
    except CliError as exc:
        return exc.code, f"error: {exc}"
    except MemoryError as exc:
        return EXIT_IO, f"error: {stream_path}: out of memory: {exc}"


def cmd_verify(args) -> int:
    model = _apply_overrides(_load_model(load_model, args.model), args)
    stream = _load_stream(args.stream, model.width, model.height, args.format)
    if len(stream) == 0:
        print(f"{args.stream}: no events")
        return EXIT_OK
    plan = engine.build_plan(model)
    adj = engine.build_adjacency(stream, plan)
    par = engine.run_stream(plan, stream, adjacency=adj, levels=True)
    # the default schedule, the one infer and bench run
    seq = engine.run_stream(plan, stream, sequential=True, adjacency=adj)
    sta = static_oracle.forward_eq7_int8(stream, adj, model)
    for name, run in (("layer-sequential", seq), ("static-oracle", sta)):
        diffs = [(n, l, c) for l, (a, b) in enumerate(zip(par.feats,
                                                          run.feats))
                 if not np.array_equal(a, b)
                 for n, c in np.argwhere(a != b)[:1]]
        if diffs:
            n, l, c = min(diffs)  # lowest event, then layer, then channel
            print(f"DIVERGENCE vs {name}: event n={n} layer={l + 1} "
                  f"channel={c}: {par.feats[l][n, c]} != {run.feats[l][n, c]}")
            return EXIT_DIVERGENCE
        if not np.array_equal(par.logits, run.logits):
            n, c = np.argwhere(par.logits != run.logits)[0]
            print(f"DIVERGENCE vs {name}: logits at event n={n} class={c}: "
                  f"{par.logits[n, c]} != {run.logits[n, c]}")
            return EXIT_DIVERGENCE
        if not np.array_equal(par.readout, run.readout):
            k = np.flatnonzero(par.readout != run.readout)[0]
            cell, c = divmod(int(k), par.feats[-1].shape[1])
            print(f"DIVERGENCE vs {name}: readout cell={cell} channel={c}: "
                  f"{par.readout[k]} != {run.readout[k]}")
            return EXIT_DIVERGENCE
    print(f"OK: layer-parallel == layer-sequential == static oracle "
          f"({len(stream)} events, {len(model.layers)} layers)")
    return EXIT_OK


def cmd_bench(args) -> int:
    model = _apply_overrides(_load_model(load_model, args.model), args)
    stream = _load_stream(args.stream, model.width, model.height, args.format)
    cfg = (_load_model(perf_model.load_hw_config, args.hw, "hw config")
           if args.hw else perf_model.HwConfig())
    t0 = time.perf_counter()
    result = engine.run_stream(model, stream)
    wall = time.perf_counter() - t0
    trace = perf_model.EventTrace(result.adjacency.deg,
                                  result.adjacency.entries_scanned)
    mode = "sequential" if args.sequential else "parallel"
    report = perf_model.estimate_stream_latency(model, trace, cfg, mode)
    des = perf_model.simulate_cycles(trace, model, cfg, mode)
    if not np.array_equal(report.per_event_cycles, des.per_event_cycles):
        n = int(np.flatnonzero(report.per_event_cycles
                               != des.per_event_cycles)[0])
        raise CliError(f"analytic and discrete-event cycles disagree at "
                       f"event n={n}: {report.per_event_cycles[n]} != "
                       f"{des.per_event_cycles[n]}", EXIT_DIVERGENCE)
    mflops = mean_degree = 0.0  # without events, as the report's own means
    if len(stream):
        mflops = float(engine.count_ops(model, trace.deg).mean()) / 1e6
        mean_degree = float(trace.deg.mean())
    report.extra["mflops_per_event"] = mflops
    report.extra["mean_degree"] = mean_degree
    report.extra["software_throughput_ev_s"] = len(stream) / wall
    if cfg.e_mac is not None:
        perf_model.estimate_energy(report, trace, model, cfg)
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2)
            fh.write("\n")
    if len(stream) == 0:
        print(f"{args.stream}: no events")
        return EXIT_OK
    energy = (f" energy={report.mean_energy_nj:.1f} nJ/ev"
              if report.per_event_energy is not None else "")
    print(f"{args.stream}: events={len(stream)} "
          f"model-latency={report.mean_us:.2f} us/ev{energy} "
          f"mflops/ev={mflops:.4f} "
          f"sw-throughput={len(stream) / wall:,.0f} ev/s")
    return EXIT_OK


def cmd_gen(args) -> int:
    params = {"width": args.width, "height": args.height,
              "count": args.count, "duration_us": args.duration_us}
    if args.kind == "moving_dot":
        params["velocity"] = (args.vx, args.vy)
        params["dot_radius"] = args.dot_radius
    with _rejecting("gen flags"):
        stream = event_io.gen_synthetic(args.kind, params, args.seed)
        data = (event_io.write_binary_stream(stream) if args.format == "bin"
                else event_io.write_text_stream(stream).encode())
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"wrote {len(stream)} events to {args.out}")
    return EXIT_OK


def cmd_gen_model(args) -> int:
    with _rejecting("gen-model flags"):
        fp = random_fp_model(args.seed, width=args.width,
                             height=args.height, with_bn=args.with_bn)
    save_fp_model(fp, args.out)
    print(f"wrote FP model to {args.out}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    fp = _load_model(load_fp_model, args.fp_model, "FP model")
    calib = _load_stream(args.calib, fp.width, fp.height, args.format)
    with _rejecting(f"quantization of {args.fp_model}"):
        qm, rep = quant.quantize_model(fp, calib)
    save_model(qm, args.out)
    log.info("activation scales: %s", rep.activation_scales)
    print(f"wrote quantized model to {args.out}")
    return EXIT_OK


def _add_common_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "bin"), default=None)
    p.add_argument("--shape", choices=SHAPES, default=None)
    p.add_argument("--r-s", dest="r_s", type=int, default=None)
    p.add_argument("--r-t", dest="r_t", type=int, default=None)
    p.add_argument("--d-max", dest="d_max", type=int, default=None)
    p.add_argument("--queue-depth", dest="queue_depth", type=int,
                   default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `evgnn` parser, built once per process.

    parse_args returns a fresh namespace on every call, so no call sees
    another call's flags.
    """
    ap = argparse.ArgumentParser(
        prog="evgnn",
        description="Event-driven quantized GNN inference and modeling")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="run inference over event streams")
    p.add_argument("model")
    p.add_argument("stream", nargs="+")
    p.add_argument("--trace-out", default=None)
    p.add_argument("--jobs", type=int, default=1)
    _add_common_search_flags(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("verify",
                       help="diff layer-parallel / sequential / static paths")
    p.add_argument("model")
    p.add_argument("stream")
    _add_common_search_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="instrumented run + performance model")
    p.add_argument("model")
    p.add_argument("stream")
    p.add_argument("--hw", default=None, help="HwConfig JSON path")
    p.add_argument("--sequential", action="store_true",
                   help="model layer-sequential hardware")
    p.add_argument("--report-out", default=None)
    _add_common_search_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate a synthetic event stream")
    p.add_argument("--kind", choices=("uniform_random", "moving_dot"),
                   default="moving_dot")
    p.add_argument("--width", type=int, default=120)
    p.add_argument("--height", type=int, default=100)
    p.add_argument("--count", type=int, default=10_000)
    p.add_argument("--duration-us", type=int, default=100_000)
    p.add_argument("--vx", type=float, default=1.0)
    p.add_argument("--vy", type=float, default=0.0)
    p.add_argument("--dot-radius", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "bin"), default="text")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("gen-model", help="generate a random FP model file")
    p.add_argument("--width", type=int, default=120)
    p.add_argument("--height", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--with-bn", action="store_true")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_gen_model)

    p = sub.add_parser("quantize", help="fold BN and quantize an FP model")
    p.add_argument("fp_model")
    p.add_argument("--calib", required=True, help="calibration stream path")
    p.add_argument("--format", choices=("text", "bin"), default=None)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_quantize)

    return ap


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
