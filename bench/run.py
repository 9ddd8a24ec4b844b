"""simreg's benchmark: four workloads timed end to end and traced layer by layer.

Usage, from the root of the repository:

    python3 bench/run.py --workload two_stage --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 0      # every workload, one table
    python3 bench/run.py --smoke                      # tiny sizes, checks every metric

Workloads are two_stage, large_vocab, score and gradcheck (see bench/design.json
for why each exists).  A run makes its inputs from --seed, sets them up
SETUP_REPEATS times, runs the workload's command once untimed to warm up and
check it deeply, then repeats the command for --seconds, checking every output.
One client in one process runs one command after another (a closed loop).

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
nothing wrapped.  --trace 1 alternates traced and untraced commands and reports
the per-layer metrics from the traced ones, plus the tracing overhead (traced
minus untraced median wall time).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Spans, samples and
provenance are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("two_stage", "large_vocab", "score", "gradcheck")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_TIMED = 3  # timed commands per run even when --seconds is shorter
SUBPROCESS_TIMEOUT_S = 600

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# The issue's end-to-end names, per workload, as this benchmark measures them.
ALIASES = {
    "two_stage": {"train_s": "wall_s", "train_pairs_per_s": "items_per_s"},
    "large_vocab": {"train_s": "wall_s", "train_pairs_per_s": "items_per_s"},
    "score": {"eval_s": "wall_s", "eval_pairs_per_s": "items_per_s"},
    "gradcheck": {"gradcheck_s": "wall_s", "gradcheck_configs_per_s": "items_per_s"},
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in BENCHMARK.json order."""
    from tracing import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.failed"] = "count"
    for name in SELF_TIMES:
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


# Spans whose self time per command is reported on its own.
SELF_TIMES = (
    "synth.make_ordinal_corpus",
    "data.load_tsv",
    "encoder.build_vocab",
    "encoder.forward_backward",
    "encoder.save_checkpoint",
    "encoder.load_checkpoint",
    "evaluation.predictions_for",
    "evaluation.accuracy",
    "evaluation.spearman",
    "gradcheck.check_configuration",
    "gradcheck.finite_difference_grads",
)
DERIVED_UNITS = {
    "encoder.tokenize.calls_per_pair": "calls/pair",
    "encoder.predict.calls_per_pair": "calls/pair",
    "losses.calls_per_step": "calls/step",
    "training.optimizer_step.ms_per_step": "ms",
    "training.dev_eval.total_s": "s",
    "labelmap.classify.calls": "count",
    "encoder.checkpoint_bytes": "bytes",
    "gradcheck.forward_evals": "count",
    "quality.dev_spearman": "rho",
    "quality.dev_accuracy": "fraction",
    "quality.gradcheck_max_rel_err": "1",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


# ----------------------------------------------------------------- helpers

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail_percentile(samples):
    """(p, value) for the highest of p99/p95/p90/p75/p50 with >= 10 samples
    beyond it, or None when there are too few samples."""
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


# ------------------------------------------------------------------ one run

def run_workload(args) -> dict:
    from reference import Clock
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.size == "tiny")
    tracer = Tracer() if args.trace else None
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    setups = []  # {"raw_s", "s", "factor"} of each set-up
    samples = []  # {"raw_s", "s", "factor", "items", "traced"} of each timed command
    outcomes = []  # (outcome, traced) of the warm-up and each timed command
    try:
        clock = Clock()
        for k in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            if tracer is not None:
                tracer.install(-1 - k)
            t0 = time.perf_counter()
            try:
                import_in_fresh_process()
                wl.setup(work)
            finally:
                raw = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
            factor = clock.scale()
            setups.append({"raw_s": raw, "s": raw * factor, "factor": factor})

        outcomes.append((check(wl, *call(wl.first_command), first=True), False))
        clock.scale()
        deadline = time.perf_counter() + args.seconds
        i = 1
        while time.perf_counter() < deadline or i <= MIN_TIMED:
            traced = tracer is not None and i % 2 == 1
            if traced:
                tracer.install(i)
            t0 = time.perf_counter()
            if traced:
                result, error = call(lambda: tracer.call("bench.command", wl.command))
            else:
                result, error = call(wl.command)
            raw = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            factor = clock.scale()
            outcome = check(wl, result, error, first=False)
            samples.append({"raw_s": raw, "s": raw * factor, "factor": factor,
                            "items": outcome.items, "traced": traced})
            outcomes.append((outcome, traced))
            i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "workload": wl,
        "tracer": tracer,
        "setups": setups,
        "samples": samples,
        "outcomes": outcomes,
        "peak_rss_mb": peak_rss_mb,
    }


def import_in_fresh_process() -> None:
    """What every command-line invocation pays before it does any work."""
    subprocess.run([sys.executable, "-c", "import simreg.cli"], cwd=ROOT / "src",
                   check=True, timeout=SUBPROCESS_TIMEOUT_S)


def call(command):
    """(result, None), or (None, traceback) when the command raised."""
    try:
        return command(), None
    except Exception:
        return None, traceback.format_exc(limit=3)


def check(wl, result, error, first: bool):
    """The workload's checks of one command's result; a raise counts as failed."""
    from workloads import Outcome

    if error is None:
        try:
            return wl.check(result, first)
        except Exception:
            error = traceback.format_exc(limit=3)
    out = Outcome(attempted=1)
    out.fail("raised: " + error.strip())
    return out


def untraced(run, key="s") -> list[float]:
    return [s[key] for s in run["samples"] if not s["traced"]]


def end_to_end_metrics(run) -> dict:
    """Times are scaled to the reference host's speed (see reference.py)."""
    return {
        "setup_s": median([s["s"] for s in run["setups"]]),
        "wall_s": median(untraced(run)),
        "items_per_s": median([s["items"] / s["s"] for s in run["samples"]
                               if not s["traced"]]),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer_metrics(run) -> dict:
    from tracing import LAYERS

    tracer = run["tracer"]
    by_iter = tracer.per_iteration()
    traced = [(i, out) for i, (out, t) in enumerate(run["outcomes"]) if t]
    # iteration id -> factor that scales its seconds to the reference host
    factors = {i: s["factor"] for i, s in enumerate(run["samples"], start=1)}
    factors.update({-1 - k: s["factor"] for k, s in enumerate(run["setups"])})

    def layer_values(iteration, out):
        f = factors[iteration]
        spans = {name: (calls, f * self_s, f * total)
                 for name, (calls, self_s, total) in by_iter.get(iteration, {}).items()}
        v = {}
        for layer in LAYERS:
            mine = [s for name, s in spans.items() if name.split(".")[0] == layer]
            v[f"{layer}.calls"] = sum(s[0] for s in mine)
            v[f"{layer}.self_s"] = sum(s[1] for s in mine)
        for name in SELF_TIMES:
            v[f"{name}.self_s"] = spans.get(name, (0, 0.0, 0.0))[1]
        calls = {name: s[0] for name, s in spans.items()}
        steps = calls.get("training.optimizer_step", 0)
        pairs = out.pairs if out else 0
        v["encoder.tokenize.calls_per_pair"] = (
            calls.get("encoder.tokenize", 0) / pairs if pairs else 0.0)
        v["encoder.predict.calls_per_pair"] = (
            calls.get("encoder.predict", 0) / pairs if pairs else 0.0)
        v["losses.calls_per_step"] = v["losses.calls"] / steps if steps else 0.0
        v["training.optimizer_step.ms_per_step"] = (
            1000.0 * spans["training.optimizer_step"][1] / steps if steps else 0.0)
        v["training.dev_eval.total_s"] = spans.get("training.dev_eval", (0, 0, 0.0))[2]
        v["labelmap.classify.calls"] = calls.get("labelmap.classify", 0)
        v["trace.spans"] = sum(calls.values())
        return v

    per_command = [layer_values(i, out) for i, out in traced]
    per_setup = [layer_values(-1 - k, None) for k in range(len(run["setups"]))]
    metrics = {}
    for name in per_command[0]:
        source = per_setup if name.startswith("synth.") else per_command
        metrics[name] = median([v[name] for v in source])
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = sum(
            n for name, n in tracer.failed.items() if name.split(".")[0] == layer)

    counts = [out.counts for out, _ in run["outcomes"]]
    metrics["encoder.checkpoint_bytes"] = median(
        [c["checkpoint_bytes"] for c in counts if "checkpoint_bytes" in c])
    metrics["gradcheck.forward_evals"] = median(
        [c["forward_evals"] for c in counts if "forward_evals" in c])
    quality = run["workload"].quality
    metrics["quality.dev_spearman"] = quality.get("dev_spearman", 0.0)
    metrics["quality.dev_accuracy"] = quality.get("dev_accuracy", 0.0)
    metrics["quality.gradcheck_max_rel_err"] = quality.get("max_rel_err", 0.0)
    metrics["trace.overhead_s"] = (
        median([s["s"] for s in run["samples"] if s["traced"]]) - median(untraced(run)))
    return metrics


def report(args, run) -> int:
    wl = run["workload"]
    outcomes = [out for out, _ in run["outcomes"]]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    e2e = end_to_end_metrics(run)
    prov = provenance(args)

    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    walls = untraced(run)
    print(f"{args.workload}: {len(walls)} untraced timed commands, "
          f"{len(run['samples']) - len(walls)} traced, {SETUP_REPEATS} set-ups; "
          f"seconds scaled to the reference host by a median factor of "
          f"{median([s['factor'] for s in run['samples']]):.3f}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<24} {e2e[name]:>14.6g} {unit}")
    print(f"  {'raw wall_s':<24} {median(untraced(run, 'raw_s')):>14.6g} s   (unscaled)")
    tail = tail_percentile(walls)
    if tail:
        print(f"  {'wall_s p' + str(tail[0]):<24} {tail[1]:>14.6g} s   (n={len(walls)})")
    else:
        print(f"  wall_s tail percentile   n/a: n={len(walls)} leaves no percentile "
              "with 10 samples beyond it")
    for alias, name in ALIASES[args.workload].items():
        print(f"  {alias:<24} {e2e[name]:>14.6g} {END_TO_END[name]}  (= {name})")
    for name, value in wl.quality.items():
        print(f"  {name:<24} {value:>14.6g}")
    print(f"  {'failed_frac':<24} {failed / max(attempted, 1):>14.6g}   "
          f"({failed} of {attempted})")
    for p in problems[:20]:
        print(f"  FAILED: {p}")

    if args.trace:
        metrics = per_layer_metrics(run)
        units = per_layer_units()
        if run["tracer"].missing:
            print(f"  boundaries not found: {', '.join(run['tracer'].missing)}")
        overhead = metrics["trace.overhead_s"] / e2e["wall_s"] if e2e["wall_s"] else 0
        print(f"  tracing overhead: {metrics['trace.overhead_s']:.6g} s per command "
              f"({100 * overhead:.2f}% of untraced wall time)")
        for name in units:
            print(f"  {name:<40} {metrics[name]:>14.6g} {units[name]}")
    else:
        metrics = e2e
        units = END_TO_END

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    if run["tracer"] is not None:
        run["tracer"].write(OUT_DIR / f"spans-{stem}.npz")
    record = {
        "provenance": prov,
        "end_to_end": e2e,
        "metrics": metrics,
        "quality": wl.quality,
        "setups": run["setups"],
        "samples": run["samples"],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


# ----------------------------------------------------- all workloads, smoke

def child(args, workload, trace, seconds, size) -> dict | None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        result = child(args, workload, args.trace, args.seconds, args.size)
        if result is None:
            print(f"error: workload {workload} did not finish", file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def smoke(args) -> int:
    """Tiny sizes: every workload emits every metric of BENCHMARK.json, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    if expected[0] != END_TO_END or expected[1] != per_layer_units():
        problems.append("BENCHMARK.json metrics differ from what run.py emits")
    design = json.loads((BENCH_DIR / "design.json").read_text(encoding="utf-8"))
    for row in design["layer_metric_map"]:
        if row["layer_metric"] not in expected[1]:
            problems.append(f"design.json names unknown metric {row['layer_metric']}")
        if row["end_to_end"] not in expected[0]:
            problems.append(f"design.json names unknown metric {row['end_to_end']}")
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            result = child(args, workload, trace, 1, "tiny")
            label = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{label}: exited with an error")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: wrong keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: outputs failed their checks")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics {got} != {expected[trace]}")
            for name, m in result["metrics"].items():
                value = m["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: {name} is {value!r}")
                elif trace == 0 and value <= 0:
                    problems.append(f"{label}: {name} is {value}, not positive")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


# -------------------------------------------------------------------- main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs for the smoke check")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at tiny size and check every metric")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "simreg" / "__init__.py").is_file():
        print(f"error: no simreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args)
    if args.workload == "all":
        return run_all(args)
    # One BLAS thread keeps the process within the machine's cores and steadier.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    return report(args, run_workload(args))


if __name__ == "__main__":
    sys.exit(main())
