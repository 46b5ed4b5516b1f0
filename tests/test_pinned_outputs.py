"""Pinned CLI outputs: sha256 digests of what infer, verify and bench write
on a small fixed corpus, checked against pinned_outputs.json.

The corpus is built here with gen_synthetic: a moving dot, a uniform
stream and a hot pixel, whose queues overflow and whose events reach
d_max, under the calibration model, a cylinder model with a small d_max
and queue depth, and a one-layer prism model, whose wavefront builds no
dependency levels. The moving dot is also written in the binary format:
its file bytes are pinned, and each of its outputs must equal the text
copy's. A change that alters a pinned output on purpose rewrites the
digests in the same commit, which prints each key it adds, removes or
changes:

    PYTHONPATH=src python tests/test_pinned_outputs.py

quantize is left out: its output depends on float64 BLAS sums, whose
order can change with the BLAS build and its threads.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from evgnn import event_io
from evgnn.cli import EXIT_OK, main
from evgnn.graph_builder import SearchParams
from evgnn.model import calibration_model, random_model, save_model

PINNED = Path(__file__).with_name("pinned_outputs.json")
HW = str(Path(__file__).parents[1] / "configs" / "calibrated_hw.json")
SENSOR = {"width": 120, "height": 100}

MODELS = {
    "calibration": calibration_model,
    "cylinder": lambda: random_model(
        3, **SENSOR, layer_dims=(6, 10), search=SearchParams(
            shape="cylinder", r_s=2, r_t=20_000, d_max=5, queue_depth=3)),
    "prism one-layer": lambda: random_model(
        4, **SENSOR, layer_dims=(12,), search=SearchParams(
            shape="prism", r_s=3, r_t=30_000, d_max=8, queue_depth=6)),
}
STREAMS = {  # name: (kind, params, seed)
    "moving_dot": ("moving_dot", {**SENSOR, "count": 3000,
                                  "duration_us": 60_000,
                                  "velocity": (1.0, 0.5),
                                  "dot_radius": 4.0}, 1),
    "uniform": ("uniform_random", {**SENSOR, "count": 2000,
                                   "duration_us": 100_000}, 2),
    # a dot that stays put: a handful of pixels take every event
    "hot_pixel": ("moving_dot", {**SENSOR, "count": 1000,
                                 "duration_us": 40_000,
                                 "velocity": (0.0, 0.0),
                                 "dot_radius": 1.0}, 3),
}
BINARY_COPY = "moving_dot"  # also written in the binary format
BENCH_FLAGS = {"parallel": [], "parallel hw": ["--hw", HW],
               "sequential": ["--sequential"],
               "sequential hw": ["--sequential", "--hw", HW]}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> tuple[int, str]:
    """main(argv) in this process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _outputs(work: Path, m: str, model: Path, s: str,
             stream: Path) -> dict[str, str]:
    """Digest of each CLI output of model m on stream s."""
    got, files = {}, [str(model), str(stream)]
    trace = work / "trace.txt"
    assert _run(["infer", *files, "--trace-out", str(trace)])[0] == EXIT_OK
    got[f"infer {m} {s}"] = _sha(trace.read_bytes())
    code, out = _run(["verify", *files])
    got[f"verify {m} {s}"] = _sha(f"{code}\n{out}".encode())
    for variant, flags in BENCH_FLAGS.items():
        report = work / "report.json"
        assert _run(["bench", *files, *flags, "--report-out",
                     str(report)])[0] == EXIT_OK
        doc = json.loads(report.read_text())
        del doc["software_throughput_ev_s"]  # a wall-clock rate
        got[f"bench {variant} {m} {s}"] = _sha(
            json.dumps(doc, indent=2).encode())
    return got


def digests(work: Path) -> tuple[dict[str, str], dict[str, str]]:
    """(pinned, binary), the corpus written under work: the digest of
    every pinned output, and of every output of BINARY_COPY's binary
    file, keyed as its text copy's."""
    pinned, binary, models, streams = {}, {}, {}, {}
    for name, make in MODELS.items():
        models[name] = work / f"{name}.json"
        save_model(make(), str(models[name]))
        pinned[f"model {name}"] = _sha(models[name].read_bytes())
    for name, (kind, params, seed) in STREAMS.items():
        stream = event_io.gen_synthetic(kind, params, seed)
        streams[name] = work / f"{name}.txt"
        streams[name].write_text(event_io.write_text_stream(stream))
        pinned[f"stream {name}"] = _sha(streams[name].read_bytes())
    bin_path = work / f"{BINARY_COPY}.bin"
    bin_path.write_bytes(event_io.write_binary_stream(
        event_io.gen_synthetic(*STREAMS[BINARY_COPY])))
    pinned[f"stream {BINARY_COPY}.bin"] = _sha(bin_path.read_bytes())
    for m, model in models.items():
        for s, stream in streams.items():
            pinned.update(_outputs(work, m, model, s, stream))
        binary.update(_outputs(work, m, model, BINARY_COPY, bin_path))
    return pinned, binary


def test_cli_outputs_match_pinned_digests(tmp_path):
    """Every pinned output is byte for byte what pinned_outputs.json holds
    (a bench report less software_throughput_ev_s), and the binary copy
    of a stream gives what its text copy gives under every model."""
    expect = json.loads(PINNED.read_text())
    got, binary = digests(tmp_path)
    assert sorted(got) == sorted(expect)
    changed = [k for k in expect if got[k] != expect[k]]
    assert not changed, f"outputs differ from the pinned ones: {changed}"
    assert len(binary) == len(MODELS) * (2 + len(BENCH_FLAGS))
    differ = [k for k in binary if binary[k] != got[k]]
    assert not differ, f"the binary copy's outputs differ: {differ}"


if __name__ == "__main__":
    old = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        new, _ = digests(Path(work))
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            print(f"removed: {key}")
        elif key not in old:
            print(f"added: {key}")
        elif old[key] != new[key]:
            print(f"changed: {key}")
    PINNED.write_text(json.dumps(new, indent=2) + "\n")
