"""Time two checkouts' commands against each other, alternating in one process.

Usage, from the root of the repository:

    python3 scripts/ab_inprocess.py PARENT CHANGE --workload two_stage \
        --rounds 30 [--seed 0] [--tiny]

Copies each checkout's src/simreg into a temporary directory as two
packages, simreg_a (PARENT) and simreg_b (CHANGE); every import inside simreg
is relative, so both load in one process.  The workload's inputs are built
once by this checkout's bench/workloads.py, on PARENT's simreg, and only read
afterwards.  Each round runs the workload's command once on each side, PARENT
first in even rounds and CHANGE first in odd ones: simreg's cli.main for
two_stage, large_vocab and score, and run_gradient_checks for gradcheck.  An
untimed round comes first.  After every command the files under the
workload's directory are hashed (gradcheck: its results are listed), and
both sides must give the same ones in every round.  Prints each side's median seconds with quartiles, the
median of the per-round ratios CHANGE / PARENT with their quartiles, and the
rounds CHANGE won.  Exits 0, or 1 when the sides' outputs differ, or 2 when
a command fails.

ab_pairs.py runs bench/run.py in a new process per side and pair, and so
measures the benchmark's own metrics; but on a shared machine separate
processes running the same code differ by far more than a few percent.  Here
both sides share one process and alternate round by round, so that noise
falls on both: use this to resolve a per-command gain of a few percent.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

from bench_summary import spread

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("simreg_a", "simreg_b")


def load_sides(parent: Path, change: Path, where: Path) -> dict:
    """{package name: its (cli, gradcheck) modules} of the two checkouts'
    src/simreg, copied under where."""
    sides = {}
    for name, checkout in zip(SIDES, (parent, change)):
        shutil.copytree(checkout / "src" / "simreg", where / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(where))
    for name in SIDES:
        for loaded in [m for m in sys.modules if m.split(".")[0] == name]:
            del sys.modules[loaded]  # an earlier call's copy
        sides[name] = (importlib.import_module(f"{name}.cli"),
                       importlib.import_module(f"{name}.gradcheck"))
    return sides


def outputs(work: Path, result):
    """What one command gave: its result, gradcheck's as (label, error,
    n_params) rows, and the sha256 of every file under work by its path."""
    if isinstance(result, list):
        result = [(r.label, r.max_rel_error, r.n_params) for r in result]
    return result, {path.relative_to(work).as_posix():
                    hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in sorted(work.rglob("*")) if path.is_file()}


def timed(workloads, workload, modules, work: Path):
    """(seconds, outputs) of the workload's command run on one side's modules."""
    workloads.cli, workloads.gradcheck = modules
    gc.collect()
    start = time.perf_counter()
    result = workload.command()
    seconds = time.perf_counter() - start
    return seconds, outputs(work, result)


def summarize(a, b) -> dict:
    """Each side's spread of seconds, the spread of the per-round ratios
    b / a, and the rounds each side was faster in (ties count for neither)."""
    ratios = [y / x for x, y in zip(a, b)]
    return {"rounds": len(a), "a": spread(a), "b": spread(b), "ratio": spread(ratios),
            "b_wins": sum(y < x for x, y in zip(a, b)),
            "a_wins": sum(x < y for x, y in zip(a, b))}


def report(summary: dict) -> str:
    lines = [f"{side.upper()}: median {summary[side]['median']:.4f} s "
             f"[{summary[side]['q1']:.4f}, {summary[side]['q3']:.4f}]" for side in "ab"]
    r = summary["ratio"]
    lines.append(f"B / A: median ratio {r['median']:.3f} [{r['q1']:.3f}, {r['q3']:.3f}]; "
                 f"B faster in {summary['b_wins']}/{summary['rounds']} rounds, "
                 f"A in {summary['a_wins']}")
    return "\n".join(lines)


def compare(parent: Path, change: Path, name: str, rounds: int, seed: int,
            tiny: bool, tmp: Path):
    """Each side's seconds per round, or the exit code when a command failed
    (2) or the sides' outputs differed (1)."""
    sides = load_sides(parent, change, tmp / "packages")
    # the workloads import simreg: PARENT's builds the inputs
    sys.path[:0] = [str(parent / "src"), str(ROOT / "bench")]
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name](seed, tiny)
    work = tmp / "work"
    workload.setup(work)
    own = workloads.cli, workloads.gradcheck
    seconds = {side: [] for side in SIDES}
    try:
        for round_ in range(-1, rounds):  # round -1 is the untimed warm-up
            order = SIDES if round_ % 2 == 0 else SIDES[::-1]
            got = {side: timed(workloads, workload, sides[side], work) for side in order}
            # cli.main's exit codes (score runs it twice), or gradcheck's results
            codes = [out[0] for _, out in got.values() if not isinstance(out[0], list)]
            if any(code not in (0, (0, 0)) for code in codes):
                print(f"error: a command exited with {codes} in round {round_}")
                return 2
            if got[SIDES[0]][1] != got[SIDES[1]][1]:
                print(f"outputs differ in round {round_}")
                return 1
            if round_ >= 0:
                for side in SIDES:
                    seconds[side].append(got[side][0])
    finally:
        workloads.cli, workloads.gradcheck = own
    return seconds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", type=Path, help="the PARENT checkout")
    p.add_argument("b", type=Path, help="the CHANGE checkout")
    p.add_argument("--workload", required=True,
                   choices=("two_stage", "large_vocab", "score", "gradcheck"))
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tiny", action="store_true", help="the benchmark's tiny inputs")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    path = list(sys.path)
    try:
        with tempfile.TemporaryDirectory(prefix="ab_inprocess-") as tmp:
            seconds = compare(args.a.resolve(), args.b.resolve(), args.workload,
                              args.rounds, args.seed, args.tiny, Path(tmp))
    finally:
        sys.path[:] = path
    if isinstance(seconds, int):
        return seconds
    print(f"{args.workload}: {args.rounds} rounds, outputs identical in every round")
    print(report(summarize(*seconds.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
