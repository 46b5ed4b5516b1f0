"""Pinned CLI outputs: sha256 digests of what infer, verify and bench write
on a small fixed corpus, checked against pinned_outputs.json.

The corpus is built here with gen_synthetic: a moving dot, a uniform
stream and a hot pixel, whose queues overflow and whose events reach
d_max, under the calibration model and a cylinder model with a small
d_max and queue depth. A change that alters a pinned output on purpose
rewrites the digests in the same commit:

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


def digests(work: Path) -> dict[str, str]:
    """Digest of every pinned output, the corpus written under work."""
    pinned, models, streams = {}, {}, {}
    for name, make in MODELS.items():
        models[name] = work / f"{name}.json"
        save_model(make(), str(models[name]))
        pinned[f"model {name}"] = _sha(models[name].read_bytes())
    for name, (kind, params, seed) in STREAMS.items():
        streams[name] = work / f"{name}.txt"
        streams[name].write_text(event_io.write_text_stream(
            event_io.gen_synthetic(kind, params, seed)))
        pinned[f"stream {name}"] = _sha(streams[name].read_bytes())
    for m, model in models.items():
        for s, stream in streams.items():
            files = [str(model), str(stream)]
            trace = work / "trace.txt"
            assert _run(["infer", *files, "--trace-out", str(trace)]
                        )[0] == EXIT_OK
            pinned[f"infer {m} {s}"] = _sha(trace.read_bytes())
            code, out = _run(["verify", *files])
            pinned[f"verify {m} {s}"] = _sha(f"{code}\n{out}".encode())
            for variant, flags in BENCH_FLAGS.items():
                report = work / "report.json"
                assert _run(["bench", *files, *flags, "--report-out",
                             str(report)])[0] == EXIT_OK
                doc = json.loads(report.read_text())
                del doc["software_throughput_ev_s"]  # a wall-clock rate
                pinned[f"bench {variant} {m} {s}"] = _sha(
                    json.dumps(doc, indent=2).encode())
    return pinned


def test_cli_outputs_match_pinned_digests(tmp_path):
    """Every pinned output is byte for byte what pinned_outputs.json holds
    (a bench report less software_throughput_ev_s)."""
    expect = json.loads(PINNED.read_text())
    got = digests(tmp_path)
    assert sorted(got) == sorted(expect)
    changed = [k for k in expect if got[k] != expect[k]]
    assert not changed, f"outputs differ from the pinned ones: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        PINNED.write_text(json.dumps(digests(Path(work)), indent=2) + "\n")
