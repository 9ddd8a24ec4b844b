"""Check that two checkouts of simreg write byte-identical outputs.

Usage, from the root of the repository:

    python3 scripts/same_outputs.py PARENT CHANGE [--train-pairs 2000] \
        [--dev-pairs 400] [--work DIR]

Writes the quick start's synthetic corpus (make_ordinal_corpus(N, seed=11) as
data/train.tsv and (M, seed=12) as data/dev.tsv, made by PARENT's code) into
a work directory.  Then, for each checkout in turn, it runs in one Python
process on that checkout's src/:

    simreg train --config CHECKOUT/configs/two_stage.json --out out/two_stage
    simreg eval --checkpoint out/two_stage/checkpoint.json data/dev.tsv \
        --out out/two_stage/eval

and the same for configs/demo.json under out/demo, records the sha256 of
every file under out/ and removes out/.  Both sides write to the same
relative paths, one after the other, because manifest.json records out_dir.
Each file is printed as "same", "DIFFERS" or "only in PARENT/CHANGE", with
its sha256.  Exits 0 when every file is the same, 1 when any is not, and 2
when a command fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = ("two_stage", "demo")

MAKE_DATA = """
import sys
from pathlib import Path
from simreg.data import save_tsv
from simreg.synth import make_ordinal_corpus
Path("data").mkdir(exist_ok=True)
save_tsv(make_ordinal_corpus(int(sys.argv[1]), seed=11), "data/train.tsv")
save_tsv(make_ordinal_corpus(int(sys.argv[2]), seed=12), "data/dev.tsv")
"""

RUN_COMMANDS = """
import json, sys
from simreg.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(f"simreg {' '.join(argv)} exited with {code}")
"""


def commands(checkout: Path) -> list[list[str]]:
    """The simreg argument lists one side runs, in order."""
    argvs = []
    for name in CONFIGS:
        out = f"out/{name}"
        argvs.append(["train", "--config", str(checkout / "configs" / f"{name}.json"),
                      "--out", out])
        argvs.append(["eval", "--checkpoint", f"{out}/checkpoint.json", "data/dev.tsv",
                      "--out", f"{out}/eval"])
    return argvs


def python_in(checkout: Path, work: Path, code: str, *args: str) -> None:
    """Run code on checkout's src/ alone, in work; exit 2 if it fails."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.pop("SIMREG_OUT", None)
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=work, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(2)


def side_hashes(checkout: Path, work: Path) -> dict[str, str]:
    """sha256 of every file the checkout's commands write, by its path under
    out/, which is removed afterwards."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    python_in(checkout, work, RUN_COMMANDS, json.dumps(commands(checkout)))
    hashes = {path.relative_to(out).as_posix():
              hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(out.rglob("*")) if path.is_file()}
    shutil.rmtree(out)
    return hashes


def compare(parent: dict[str, str], change: dict[str, str]) -> list[tuple]:
    """(status, path, sha256) of every file either side wrote, sorted by
    path; a differing file's sha256 is PARENT's and CHANGE's, joined by " ->
    "."""
    rows = []
    for path in sorted({*parent, *change}):
        if path not in change:
            rows.append(("only in PARENT", path, parent[path]))
        elif path not in parent:
            rows.append(("only in CHANGE", path, change[path]))
        elif parent[path] == change[path]:
            rows.append(("same", path, parent[path]))
        else:
            rows.append(("DIFFERS", path, f"{parent[path]} -> {change[path]}"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--train-pairs", type=int, default=2000)
    parser.add_argument("--dev-pairs", type=int, default=400)
    parser.add_argument("--work", type=Path, default=None,
                        help="work directory (default: a new temporary one)")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    work = args.work or Path(tempfile.mkdtemp(prefix="same_outputs-"))
    work.mkdir(parents=True, exist_ok=True)
    try:
        python_in(parent, work, MAKE_DATA, str(args.train_pairs), str(args.dev_pairs))
        rows = compare(side_hashes(parent, work), side_hashes(change, work))
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    for status, path, digest in rows:
        print(f"{status:<15} {path:<30} {digest}")
    differing = sum(status != "same" for status, _, _ in rows)
    print(f"{len(rows) - differing} of {len(rows)} files identical")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
