"""Time two checkouts against each other in alternating benchmark pairs.

Usage, from the root of the repository:

    python3 scripts/ab_pairs.py PARENT CHANGE --workload two_stage \
        --pairs 10 --seconds 15

Pair i runs ``bench/run.py --workload W --seed i --seconds S --trace 0`` once
in each checkout, PARENT first in even pairs and CHANGE first in odd ones, and
reads each run's last-line JSON.  It prints each side's median and quartiles
for every end-to-end metric of BENCHMARK.json, the failed and attempted
counts, and how many pairs CHANGE won on --metric (ties count for neither
side), with the side whose median is better, by how much, and the distance
between PARENT's quartiles.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench_summary import spread

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON of one bench/run.py --trace 0 run in checkout."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited "
                         f"with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(pairs, end_to_end, metric: str) -> dict:
    """Each side's spread of every end-to-end metric, the failed and
    attempted counts, and the pairs side b won on metric.

    pairs is a list of (a, b) last-line results of bench/run.py; end_to_end
    is BENCHMARK.json's list of {"name", "better", ...}.
    """
    better = {m["name"]: m["better"] for m in end_to_end}
    if metric not in better:
        raise ValueError(f"{metric} is not an end-to-end metric")

    runs = {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]}

    def values(side, name):
        return [run["metrics"][name]["value"] for run in runs[side]]

    out = {"pairs": len(pairs), "metric": metric, "metrics": {}}
    for name in better:
        out["metrics"][name] = {side: spread(values(side, name)) for side in runs}
    for side in runs:
        out[f"failed_{side}"] = sum(run["failed"] for run in runs[side])
        out[f"attempted_{side}"] = sum(run["attempted"] for run in runs[side])
    sign = 1.0 if better[metric] == "lower" else -1.0
    diffs = [sign * (a - b) for a, b in zip(values("a", metric), values("b", metric))]
    out["b_wins"] = sum(d > 0 for d in diffs)
    out["a_wins"] = sum(d < 0 for d in diffs)
    a, b = out["metrics"][metric]["a"], out["metrics"][metric]["b"]
    out["median_gain"] = sign * (a["median"] - b["median"])
    out["a_iqr"] = a["q3"] - a["q1"]
    return out


def report(summary: dict) -> str:
    lines = [f"{'metric':<14} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32}"]
    for name, sides in summary["metrics"].items():
        cells = [f"{s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}]"
                 for s in (sides["a"], sides["b"])]
        lines.append(f"{name:<14} {cells[0]:>32} {cells[1]:>32}")
    lines.append(f"failed: A {summary['failed_a']}/{summary['attempted_a']}, "
                 f"B {summary['failed_b']}/{summary['attempted_b']}")
    gain = summary["median_gain"]
    ahead = ("medians equal" if gain == 0 else
             f"{'B' if gain > 0 else 'A'}'s median better by {abs(gain):.4g}")
    lines.append(f"{summary['metric']}: B better in {summary['b_wins']}/"
                 f"{summary['pairs']} pairs, A in {summary['a_wins']}; {ahead}, "
                 f"A's IQR {summary['a_iqr']:.4g}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", type=Path, help="the PARENT checkout")
    p.add_argument("b", type=Path, help="the CHANGE checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--metric", default="wall_s",
                   help="the end-to-end metric whose wins are counted")
    args = p.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        run = {side: run_once(getattr(args, side), args.workload, i, args.seconds)
               for side in order}
        pairs.append((run["a"], run["b"]))
        print(f"pair {i} ({order[0].upper()} first): {args.metric} "
              f"A {run['a']['metrics'][args.metric]['value']:.4f} "
              f"B {run['b']['metrics'][args.metric]['value']:.4f}", flush=True)
    print(report(summarize(pairs, end_to_end, args.metric)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
