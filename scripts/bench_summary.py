"""Reduce one benchmark pass over several seeds to one BENCH_<label>.json.

Usage, from the root of the repository, after one ``--workload all`` pass per
seed:

    for s in 0 1 2 3; do python3 bench/run.py --workload all --seed $s; done
    python3 scripts/bench_summary.py pr6 .bench_out/result-*-trace0.json

writes BENCH_pr6.json.  Per workload it keeps the seeds, each end-to-end
metric's per-seed values with their median and quartiles, every quality value
per seed, the failed and attempted counts, and the provenance that
bench/run.py recorded (the same for every seed but the seed itself).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def spread(values) -> dict:
    """The values with their median and quartiles (inclusive method)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "q1": q1, "median": median, "q3": q3}


def summarize(records) -> dict:
    """{workload: summary} of bench/run.py result records."""
    by_workload: dict[str, list[dict]] = {}
    for record in records:
        by_workload.setdefault(record["provenance"]["workload"], []).append(record)
    out = {}
    for workload, runs in sorted(by_workload.items()):
        runs.sort(key=lambda r: r["provenance"]["seed"])
        seeds = [r["provenance"]["seed"] for r in runs]
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"{workload}: more than one result for a seed")
        provenance = {k: v for k, v in runs[0]["provenance"].items() if k != "seed"}
        for r in runs[1:]:
            if {k: v for k, v in r["provenance"].items() if k != "seed"} != provenance:
                raise ValueError(f"{workload}: runs differ in provenance")
        out[workload] = {
            "seeds": seeds,
            "end_to_end": {name: spread([r["end_to_end"][name] for r in runs])
                           for name in runs[0]["end_to_end"]},
            "quality": {
                f"quality.{name}": [r["quality"].get(name) for r in runs]
                for name in runs[0]["quality"]
            },
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "provenance": provenance,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("label", help="names the output file BENCH_<label>.json")
    p.add_argument("results", nargs="+", type=Path,
                   help="result-*.json files written by bench/run.py")
    args = p.parse_args(argv)
    records = [json.loads(path.read_text(encoding="utf-8")) for path in args.results]
    doc = {"label": args.label, "workloads": summarize(records)}
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(records)} results -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
