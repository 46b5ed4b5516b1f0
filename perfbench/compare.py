"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py --base a1.txt a2.txt --new b1.txt b2.txt

Each file holds the standard output of one `perfbench/run.py` run: its
`env` line and its final JSON line. For every workload and metric this
prints both sides' medians, their quartile spreads as a share of the
median, and new/base. It refuses (exit 2) to compare runs whose backends
differ, because evgnn picks its kernel backend without saying so.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


class Incomparable(ValueError):
    pass


def load_run(path: str) -> tuple[dict, dict]:
    """(env, result) of one run's captured standard output."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")),
               None)
    if env is None or not lines:
        raise Incomparable(f"{path}: no env line or no result")
    return env, json.loads(lines[-1])


def spread(values: list[float]) -> float:
    """Interquartile distance over the median (0 for fewer than 2 values)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def group(runs) -> dict:
    """(workload, trace) -> metric -> list of values."""
    out: dict = {}
    for env, result in runs:
        metrics = out.setdefault((env["workload"], env["trace"]), {})
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def compare(base, new) -> list[str]:
    backends = {env["backend"] for env, _ in base + new}
    if len(backends) != 1:
        raise Incomparable(f"runs use different backends: {sorted(backends)}")
    rows = []
    b, n = group(base), group(new)
    for key in sorted(set(b) & set(n)):
        rows.append(f"{key[0]} (trace {key[1]})")
        for metric in b[key]:
            if metric not in n[key]:
                continue
            mb = statistics.median(b[key][metric])
            mn = statistics.median(n[key][metric])
            ratio = f"{mn / mb:.4f}" if mb else "n/a"
            rows.append(f"  {metric:<42} base {mb:.6g} (±{spread(b[key][metric]):.3f})"
                        f"  new {mn:.6g} (±{spread(n[key][metric]):.3f})"
                        f"  new/base {ratio}")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    try:
        rows = compare([load_run(p) for p in args.base],
                       [load_run(p) for p in args.new])
    except (Incomparable, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
