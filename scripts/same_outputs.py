"""Check that two checkouts of simreg write byte-identical outputs.

Usage, from the root of the repository:

    python3 scripts/same_outputs.py PARENT CHANGE [--train-pairs 2000] \
        [--dev-pairs 400] [--work DIR]

Writes the quick start's synthetic corpus (make_ordinal_corpus(N, seed=11) as
data/train.tsv and (M, seed=12) as data/dev.tsv, made by PARENT's code, so
both sides read the same inputs) into a work directory, with scored copies
for the commands that read scores: data/dev_scores.tsv (class c scored c),
data/sts.tsv (the train pairs, class c scored 5c/3), data/sick.tsv
(make_ordinal_corpus(M, seed=13), class c scored 1 + 4c/3, on SICK's [1, 5]
scale) and data/test.tsv (the dev pairs scored, plus every third pair of
data/sts.tsv as it is and every third pair of data/sick.tsv swapped, so the
filter has pairs to remove), and
data/info_nce.json, a contrastive run config: InfoNCE with Adam, trained on
data/sts.tsv's positives and selected on data/dev_scores.tsv.  Three more
one-stage run configs train on data/train.tsv and select on data/dev.tsv,
so that every loss branch of the training step is compared:
data/translated_relu.json (SGD, evaluated every 25 steps: the benchmark's
large_vocab run, small), data/mse.json (Adam, absdiff features) and
data/cross_entropy.json (SGD, uv features).  data/large_vocab.json trains
the same way as data/translated_relu.json, at dim 8 in batches of 8 pairs,
on data/large_train.tsv (make_ordinal_corpus(300, seed=14,
vocab_size=5000), whatever N is) and selects on data/large_dev.tsv
(make_ordinal_corpus(60, seed=15, vocab_size=5000)): its vocabulary of about
3,000 words puts every window of its pooling plan past the presence mask's
key space, on np.unique's side, where the other runs' 120-word corpus puts
every window on the mask's.  data/odd_texts.json is a two-stage run
config, both stages on data/odd_train.tsv, selected on data/odd_dev.tsv:
data/train.tsv's and data/dev.tsv's pairs with a text of every third pair
replaced by an empty, punctuation-only or non-ASCII one, and a non-ASCII
word added to every third other pair, so that Corpus splits them by its
regular expression and texts without words become the OOV token.  Then, for
each checkout in turn, it runs in one Python process on that checkout's
src/.  First it writes that checkout's own make_ordinal_corpus output for the
quick start's pair, (N, seed=11) and (M, seed=12), and for the 5,000-word
pair, (300, seed=14) and (60, seed=15), as out/corpora/train.tsv, dev.tsv,
large_train.tsv and large_dev.tsv, so a change to the generator shows there.
Then it runs

    simreg train --config CHECKOUT/configs/two_stage.json --out out/two_stage
    simreg eval --checkpoint out/two_stage/checkpoint.json data/dev.tsv \
        --out out/two_stage/eval

and the same for configs/demo.json under out/demo, then

    simreg sweep --config CHECKOUT/configs/demo.json --k 1,2 --x0 0.1,0.25 \
        --out out/sweep
    simreg ablate --config CHECKOUT/configs/demo.json --out out/ablate
    simreg eval --checkpoint out/two_stage/checkpoint.json \
        data/dev_scores.tsv --cosine --out out/cosine
    simreg filter-data --train data/sts.tsv --sick-train data/sick.tsv \
        --test data/test.tsv --out out/filter
    simreg train --config data/info_nce.json --out out/info_nce
    simreg eval --checkpoint out/info_nce/checkpoint.json \
        data/dev_scores.tsv --cosine --out out/info_nce/eval

and, for NAME each of translated_relu, mse, cross_entropy, large_vocab and
odd_texts,

    simreg train --config data/NAME.json --out out/NAME
    simreg eval --checkpoint out/NAME/checkpoint.json data/DEV.tsv \
        --out out/NAME/eval

where DEV is large_dev for large_vocab, odd_dev for odd_texts and dev for
the others,

and last writes out/gradcheck.txt: the repr of each (label, max_rel_error,
n_params) of run_gradient_checks(seeds=range(20)), the seeds simreg
gradcheck checks by default, one a line, so the gradient check is compared
bit for bit too.  It records the sha256 of every file under out/ and removes
out/.  Both sides write to the same relative paths, one after the other,
because manifest.json records out_dir.
It first prints one line naming the environment both sides ran under, as
they run under this script's interpreter: the Python, numpy and BLAS
versions and OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS, as
set or "unset", since BLAS thread counts can change checkpoint bytes.  Then
each file is printed as "same", "DIFFERS" or "only in PARENT/CHANGE", with
its sha256.  Exits 0 when every file is the same, 1 when any is not, and 2
when a command fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CONFIGS = ("two_stage", "demo")
# run configs MAKE_DATA writes as data/NAME.json, each trained and then
# evaluated on its dev file
DATA_CONFIGS = {"translated_relu": "data/dev.tsv", "mse": "data/dev.tsv",
                "cross_entropy": "data/dev.tsv", "large_vocab": "data/large_dev.tsv",
                "odd_texts": "data/odd_dev.tsv"}

MAKE_DATA = """
import json
import sys
from pathlib import Path
from simreg.data import Dataset, merge, save_tsv
from simreg.synth import make_ordinal_corpus

def scored(ds, name, low, step, swap=False):
    s1, s2 = (ds.s2, ds.s1) if swap else (ds.s1, ds.s2)
    return Dataset.from_columns(name, low + step * ds.values, s1, s2,
                                score_range=(low, 5.0))

def every_third(ds):
    return Dataset.from_columns(ds.name, ds.values[::3], ds.s1[::3], ds.s2[::3],
                                score_range=ds.score_range)

Path("data").mkdir(exist_ok=True)
train = make_ordinal_corpus(int(sys.argv[1]), seed=11)
dev = make_ordinal_corpus(int(sys.argv[2]), seed=12)
sick = make_ordinal_corpus(int(sys.argv[2]), seed=13)
save_tsv(train, "data/train.tsv")
save_tsv(dev, "data/dev.tsv")
save_tsv(scored(dev, "dev_scores", 0.0, 1.0), "data/dev_scores.tsv")
sts = scored(train, "sts", 0.0, 5.0 / 3.0)
save_tsv(sts, "data/sts.tsv")
save_tsv(scored(sick, "sick", 1.0, 4.0 / 3.0), "data/sick.tsv")
test = merge([scored(dev, "test", 0.0, 1.0), every_third(sts),
              every_third(scored(sick, "test", 0.0, 1.0, swap=True))])
save_tsv(test, "data/test.tsv")
Path("data/info_nce.json").write_text(json.dumps({
    "seed": 0,
    "encoder": {"dim": 32},
    "loss": {"kind": "info_nce", "tau": 0.05},
    "data": {"train": "data/sts.tsv", "dev": "data/dev_scores.tsv"},
    "training": {"batch_size": 64, "epochs": 2, "learning_rate": 0.01,
                 "optimizer": "adam", "eval_every": 4},
}))

def run_config(name, loss, encoder, training, prefix=""):
    Path(f"data/{name}.json").write_text(json.dumps({
        "seed": 0, "encoder": encoder, "loss": loss,
        "data": {"train": f"data/{prefix}train.tsv", "dev": f"data/{prefix}dev.tsv",
                 "categories": list(train.categories)},
        "training": training,
    }))

# the benchmark's large_vocab run at the quick start's size
run_config("translated_relu", {"kind": "translated_relu", "k": 1.0, "x0": 0.25, "d": 1.0},
           {"dim": 16, "feature_mode": "uv_absdiff"},
           {"batch_size": 16, "epochs": 1, "learning_rate": 2.0, "optimizer": "sgd",
            "eval_every": 25})
run_config("mse", {"kind": "mse"}, {"dim": 16, "feature_mode": "absdiff"},
           {"batch_size": 16, "epochs": 2, "learning_rate": 0.05, "optimizer": "adam",
            "eval_every": 20})
run_config("cross_entropy", {"kind": "cross_entropy"}, {"dim": 16, "feature_mode": "uv"},
           {"batch_size": 16, "epochs": 2, "learning_rate": 0.05, "optimizer": "sgd",
            "eval_every": 20})
save_tsv(make_ordinal_corpus(300, seed=14, vocab_size=5000), "data/large_train.tsv")
save_tsv(make_ordinal_corpus(60, seed=15, vocab_size=5000), "data/large_dev.tsv")
run_config("large_vocab", {"kind": "translated_relu", "k": 1.0, "x0": 0.25, "d": 1.0},
           {"dim": 8, "feature_mode": "uv_absdiff"},
           {"batch_size": 8, "epochs": 1, "learning_rate": 2.0, "optimizer": "sgd",
            "eval_every": 25}, prefix="large_")

# texts without words, and non-ASCII ones
ODD = ["", "?!", "...", "¿¡ -- ¡!", "naïve café", "ΣΟΦΙΑ σοφίας", "日本語 テキスト",
       "über-größe"]

def odd(ds, name):
    s1, s2 = list(ds.s1), list(ds.s2)
    for i in range(len(ds)):
        if i % 3 == 0:
            s1[i] = ODD[i // 3 % len(ODD)]
        elif i % 3 == 1:
            s2[i] = f"{s2[i]} {ODD[4 + i // 3 % 4]}"
    return Dataset.from_columns(name, ds.values, s1, s2, categories=ds.categories)

save_tsv(odd(train, "odd_train"), "data/odd_train.tsv")
save_tsv(odd(dev, "odd_dev"), "data/odd_dev.tsv")
categories = list(train.categories)
Path("data/odd_texts.json").write_text(json.dumps({
    "seed": 0, "encoder": {"dim": 16, "feature_mode": "uv_absdiff"},
    "loss": {"kind": "smooth_k2", "k": 2.0, "x0": 0.25, "d": 1.0},
    "stages": "two_stage",
    "data": {"train": "data/odd_train.tsv", "dev": "data/odd_dev.tsv",
             "categories": categories, "nli_train": "data/odd_train.tsv",
             "nli_categories": categories},
    "training": {"batch_size": 16, "epochs": 1, "learning_rate": 0.2,
                 "optimizer": "adam", "eval_every": 20},
    "joint": {"learning_rate": 0.01, "optimizer": "sgd"},
}))
"""

RUN_COMMANDS = """
import json, sys
from pathlib import Path
from simreg.cli import main
from simreg.data import save_tsv
from simreg.gradcheck import run_gradient_checks
from simreg.synth import make_ordinal_corpus
Path("out/corpora").mkdir(parents=True)
for name, (n_pairs, seed, vocab_size) in json.loads(sys.argv[2]).items():
    save_tsv(make_ordinal_corpus(n_pairs, seed=seed, vocab_size=vocab_size),
             f"out/corpora/{name}.tsv")
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(f"simreg {' '.join(argv)} exited with {code}")
rows = [(r.label, r.max_rel_error, r.n_params) for r in run_gradient_checks(range(20))]
Path("out/gradcheck.txt").write_text("".join(f"{row!r}\\n" for row in rows))
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
    demo = str(checkout / "configs" / "demo.json")
    return argvs + [
        ["sweep", "--config", demo, "--k", "1,2", "--x0", "0.1,0.25", "--out", "out/sweep"],
        ["ablate", "--config", demo, "--out", "out/ablate"],
        ["eval", "--checkpoint", "out/two_stage/checkpoint.json", "data/dev_scores.tsv",
         "--cosine", "--out", "out/cosine"],
        ["filter-data", "--train", "data/sts.tsv", "--sick-train", "data/sick.tsv",
         "--test", "data/test.tsv", "--out", "out/filter"],
        ["train", "--config", "data/info_nce.json", "--out", "out/info_nce"],
        ["eval", "--checkpoint", "out/info_nce/checkpoint.json", "data/dev_scores.tsv",
         "--cosine", "--out", "out/info_nce/eval"],
    ] + [argv for name, dev in DATA_CONFIGS.items() for argv in (
        ["train", "--config", f"data/{name}.json", "--out", f"out/{name}"],
        ["eval", "--checkpoint", f"out/{name}/checkpoint.json", dev,
         "--out", f"out/{name}/eval"],
    )]


def python_in(checkout: Path, work: Path, code: str, *args: str) -> None:
    """Run code on checkout's src/ alone, in work; exit 2 if it fails."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.pop("SIMREG_OUT", None)
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=work, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(2)


def side_hashes(checkout: Path, work: Path, corpus_args: dict) -> dict[str, str]:
    """sha256 of every file the checkout writes, the corpora of corpus_args
    ({name: (n_pairs, seed, vocab_size)}) and its commands' outputs, by its
    path under out/, which is removed afterwards."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    python_in(checkout, work, RUN_COMMANDS, json.dumps(commands(checkout)),
              json.dumps(corpus_args))
    hashes = {path.relative_to(out).as_posix():
              hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(out.rglob("*")) if path.is_file()}
    shutil.rmtree(out)
    return hashes


def environment() -> str:
    """One line: the Python, numpy and BLAS versions and the BLAS thread
    settings, each variable's value or "unset"."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}" for name in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return (f"environment: Python {platform.python_version()}, numpy {np.__version__}, "
            f"BLAS {blas['name']} {blas['version']}, {threads}")


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
        # (n_pairs, seed, vocab_size) of each side's out/corpora/NAME.tsv
        corpus_args = {"train": (args.train_pairs, 11, 120),
                       "dev": (args.dev_pairs, 12, 120),
                       "large_train": (300, 14, 5000), "large_dev": (60, 15, 5000)}
        rows = compare(side_hashes(parent, work, corpus_args),
                       side_hashes(change, work, corpus_args))
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    print(environment())
    for status, path, digest in rows:
        print(f"{status:<15} {path:<30} {digest}")
    differing = sum(status != "same" for status, _, _ in rows)
    print(f"{len(rows) - differing} of {len(rows)} files identical")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
