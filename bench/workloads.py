"""The benchmark's four workloads.

Each workload makes its inputs from the workload seed in ``setup`` (the TSV and
JSON config files the program reads), then ``command`` runs one user-visible
operation through a public entry point, and ``check`` verifies what that
operation produced.  Only ``command`` is timed.  Why each workload exists is
recorded in ``bench/design.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from simreg import cli, data, encoder, gradcheck, synth
from tracing import Patches

GRADCHECK_TOLERANCE = 1e-4
SPEARMAN_AGREEMENT = 1e-9  # eval of the saved checkpoint vs training's best dev rho

# Hyperparameters of the paper's headline run (configs/two_stage.json).
TWO_STAGE_TRAINING = {
    "batch_size": 16, "epochs": 2, "learning_rate": 0.2, "optimizer": "adam",
    "eval_every": 1000000000,
}
TWO_STAGE_JOINT = {"learning_rate": 0.01, "optimizer": "sgd", "epochs": 2}


@dataclass
class Outcome:
    """What one command did and how many of its operations failed a check."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    items: int = 0  # pair-updates, scored pairs or gradcheck configurations
    pairs: int = 0  # sentence pairs the command processed, 0 if none
    counts: dict = field(default_factory=dict)

    def fail(self, problem: str, n: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + n)
        self.problems.append(problem)


def run_cli(argv) -> int:
    """simreg's command line in-process, its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")


def _continuous_copy(ds, name: str):
    """The same pairs with class c scored 5*c/(K-1), a [0, 5] similarity."""
    top = len(ds.categories) - 1
    pairs = tuple(
        data.SentencePair(p.s1, p.s2, score=5.0 * ds.categories.index(p.label) / top)
        for p in ds.pairs
    )
    return data.Dataset(name, pairs, score_range=(0.0, 5.0))


def _read_report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# ------------------------------------------------------------------ training

@dataclass(frozen=True)
class TrainSizes:
    n_train: int
    n_dev: int
    vocab_size: int
    corpus_seed: int  # corpora use corpus_seed + 2*seed and corpus_seed + 2*seed + 1


class TrainWorkload:
    """One ``simreg train`` per command, on a generated ordinal corpus."""

    def __init__(self, name, sizes: TrainSizes, seed: int, config: dict):
        self.name = name
        self.sizes = sizes
        self.seed = seed
        self.config = config
        self.quality: dict[str, float] = {}
        self._digest = None

    def setup(self, work: Path) -> None:
        s = self.sizes
        work.mkdir(parents=True, exist_ok=True)
        self.train_tsv = work / "train.tsv"
        self.dev_tsv = work / "dev.tsv"
        self.out = work / "run"
        self.config_path = work / "config.json"
        train_seed = s.corpus_seed + 2 * self.seed
        data.save_tsv(synth.make_ordinal_corpus(s.n_train, seed=train_seed,
                                                vocab_size=s.vocab_size), self.train_tsv)
        data.save_tsv(synth.make_ordinal_corpus(s.n_dev, seed=train_seed + 1,
                                                vocab_size=s.vocab_size), self.dev_tsv)
        doc = json.loads(json.dumps(self.config))
        doc["seed"] = self.seed
        doc["out_dir"] = str(self.out)
        doc["data"].update(train=str(self.train_tsv), dev=str(self.dev_tsv),
                           categories=list(synth.ORDINAL_CATEGORIES))
        if doc.get("stages") == "two_stage":
            doc["data"].update(nli_train=str(self.train_tsv),
                               nli_categories=list(synth.ORDINAL_CATEGORIES))
        _write_json(self.config_path, doc)
        self.pair_updates = self._pair_updates(doc)

    def _pair_updates(self, doc) -> int:
        epochs = doc["training"]["epochs"]
        if doc.get("stages") == "two_stage":
            # stage 1 runs on nli_train (the same file), stage 2 on train
            epochs += doc.get("joint", {}).get("epochs", epochs)
        return self.sizes.n_train * epochs

    def command(self):
        return run_cli(["train", "--config", self.config_path])

    def first_command(self):
        """The untimed warm-up: also keeps the model that training saved."""
        saved = []
        patches = Patches()

        def capture(save):
            def save_and_keep(model, path):
                saved.append(model)
                return save(model, path)
            return save_and_keep

        patches.replace("simreg.encoder", "save_checkpoint", capture)
        try:
            code = self.command()
        finally:
            patches.restore()
        self._saved_model = saved[-1] if saved else None
        return code

    def check(self, code, first: bool) -> Outcome:
        out = Outcome(attempted=1, items=self.pair_updates, pairs=self.pair_updates)
        ckpt = self.out / "checkpoint.json"
        if code != 0:
            out.fail(f"simreg train exited with {code}")
            return out
        if not ckpt.is_file():
            out.fail("simreg train wrote no checkpoint")
            return out
        out.counts["checkpoint_bytes"] = ckpt.stat().st_size
        digest = _digest(ckpt)
        if first:
            self._digest = digest
            for problem in self._check_first(ckpt):
                out.fail(problem)
        elif digest != self._digest:
            out.fail("checkpoint bytes differ from the first run of this seed")
        return out

    def _check_first(self, ckpt: Path):
        model = self._saved_model
        if model is None:
            yield "could not see the model handed to save_checkpoint"
        else:
            loaded = encoder.load_checkpoint(ckpt)
            for name in ("embeddings", "head_weights", "head_bias"):
                a, b = getattr(model.params, name), getattr(loaded.params, name)
                if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
                    yield f"checkpoint does not reload bit-identical {name}"
            if loaded.vocab.tokens != model.vocab.tokens:
                yield "checkpoint does not reload the same vocabulary"
        report_dir = self.out.parent / "dev-report"
        code = run_cli(["eval", "--checkpoint", ckpt, self.dev_tsv, "--out", report_dir])
        if code != 0:
            yield f"simreg eval of the trained checkpoint exited with {code}"
            return
        row = _read_report(report_dir / "report.json")["datasets"][0]
        manifest = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))
        best = manifest["best_dev_spearman"]
        self.quality = {"dev_spearman": best, "dev_accuracy": row["accuracy"]}
        if not abs(row["spearman"] - best) <= SPEARMAN_AGREEMENT:
            yield (f"dev spearman of the saved checkpoint {row['spearman']!r} differs "
                   f"from training's best {best!r}")


def two_stage(seed: int, tiny: bool, corpus_seed: int = 11) -> TrainWorkload:
    n_train, n_dev = (200, 80) if tiny else (2000, 400)
    sizes = TrainSizes(n_train, n_dev, 120, corpus_seed)
    config = {
        "encoder": {"dim": 32, "feature_mode": "uv_absdiff"},
        "loss": {"kind": "smooth_k2", "k": 2, "x0": 0.25, "d": 1.0},
        "stages": "two_stage",
        "data": {},
        "training": dict(TWO_STAGE_TRAINING),
        "joint": dict(TWO_STAGE_JOINT),
    }
    return TrainWorkload("two_stage", sizes, seed, config)


def large_vocab(seed: int, tiny: bool) -> TrainWorkload:
    sizes = TrainSizes(200, 50, 400, 21) if tiny else TrainSizes(2400, 200, 5000, 21)
    config = {
        "encoder": {"dim": 16 if tiny else 128, "feature_mode": "uv_absdiff"},
        "loss": {"kind": "translated_relu", "k": 1.0, "x0": 0.25, "d": 1.0},
        "data": {},
        "training": {"batch_size": 16, "epochs": 1, "learning_rate": 2.0,
                     "optimizer": "sgd", "eval_every": 25},
    }
    return TrainWorkload("large_vocab", sizes, seed, config)


# --------------------------------------------------------------------- score

class ScoreWorkload:
    """``simreg eval`` of one checkpoint over held-out files, then ``--cosine``."""

    name = "score"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.n_pairs = 100 if tiny else 1000
        self.n_categorical = 3
        self.trainer = two_stage(seed, tiny, corpus_seed=31)
        self.quality: dict[str, float] = {}
        self._digests = None

    def setup(self, work: Path) -> None:
        self.trainer.setup(work / "model")
        code = self.trainer.command()
        if code != 0:
            raise RuntimeError(f"training the checkpoint to score exited with {code}")
        self.checkpoint = self.trainer.out / "checkpoint.json"
        base = 41 + 10 * self.seed
        self.files = []
        for i in range(self.n_categorical):
            ds = synth.make_ordinal_corpus(self.n_pairs, seed=base + i)
            path = work / f"cat{i}.tsv"
            data.save_tsv(ds, path)
            self.files.append(path)
        ds = synth.make_ordinal_corpus(self.n_pairs, seed=base + self.n_categorical)
        path = work / "continuous.tsv"
        data.save_tsv(_continuous_copy(ds, "continuous"), path)
        self.files.append(path)
        self.reports = (work / "report-head", work / "report-cosine")
        self.pairs_per_command = 2 * self.n_pairs * len(self.files)

    def command(self):
        head = run_cli(["eval", "--checkpoint", self.checkpoint, *self.files,
                        "--out", self.reports[0]])
        cosine = run_cli(["eval", "--checkpoint", self.checkpoint, *self.files,
                          "--cosine", "--out", self.reports[1]])
        return head, cosine

    first_command = command

    def check(self, codes, first: bool) -> Outcome:
        out = Outcome(attempted=1, items=self.pairs_per_command,
                      pairs=self.pairs_per_command)
        out.counts["checkpoint_bytes"] = self.checkpoint.stat().st_size
        if codes != (0, 0):
            out.fail(f"simreg eval exited with {codes}")
            return out
        digests = tuple(_digest(d / "report.json") for d in self.reports)
        if first:
            self._digests = digests
            for problem in self._check_first():
                out.fail(problem)
        elif digests != self._digests:
            out.fail("eval report differs from the first run of this seed")
        return out

    def _check_first(self):
        head = _read_report(self.reports[0] / "report.json")
        for doc in (head, _read_report(self.reports[1] / "report.json")):
            rows = doc["datasets"]
            if [r["name"] for r in rows] != [p.stem for p in self.files]:
                yield "report does not list every input file"
                return
            if any(r["n_pairs"] != self.n_pairs for r in rows):
                yield "report counts the wrong number of pairs"
            rhos = [r["spearman"] for r in rows]
            if not all(math.isfinite(r) and -1.0 <= r <= 1.0 for r in rhos):
                yield f"spearman outside [-1, 1]: {rhos}"
            if not math.isclose(doc["average"], sum(rhos) / len(rhos), rel_tol=1e-12):
                yield "report average is not the mean of its rows"
        rows = head["datasets"]
        accuracies = [r["accuracy"] for r in rows[: self.n_categorical]]
        if rows[-1]["accuracy"] is not None or None in accuracies:
            yield "accuracy reported for the wrong files"
            return
        self.quality = {
            "dev_spearman": head["average"],
            "dev_accuracy": sum(accuracies) / len(accuracies),
        }


# ----------------------------------------------------------------- gradcheck

class GradcheckWorkload:
    """The finite-difference gradient sweep over every loss kind and feature mode.

    Its inputs are gradcheck's own seeded random models; the sweep covers
    gradcheck seeds 0..n-1 whatever the workload seed, so every run times the
    same configurations.
    """

    name = "gradcheck"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.seeds = range(1 if tiny else 4)
        self.quality: dict[str, float] = {}
        self._first = None

    def setup(self, work: Path) -> None:
        pass

    def command(self):
        return gradcheck.run_gradient_checks(seeds=self.seeds)

    first_command = command

    def check(self, results, first: bool) -> Outcome:
        expected = len(self.seeds) * len(gradcheck.ALL_KINDS) * len(gradcheck.ALL_MODES)
        out = Outcome(attempted=expected, items=len(results))
        if len(results) != expected:
            out.fail(f"{len(results)} configurations checked, expected {expected}",
                     expected)
        over = [r.label for r in results if not r.max_rel_error <= GRADCHECK_TOLERANCE]
        if over:
            out.fail(f"above tolerance {GRADCHECK_TOLERANCE}: {over}", len(over))
        summary = [(r.label, r.max_rel_error, r.n_params) for r in results]
        if first:
            self._first = summary
            self.quality = {"max_rel_err": max(r.max_rel_error for r in results)}
        elif summary != self._first:
            changed = sum(a != b for a, b in zip(summary, self._first))
            out.fail("gradcheck results differ from the first run", max(changed, 1))
        out.counts["forward_evals"] = sum(2 * r.n_params + 1 for r in results)
        return out


WORKLOADS = {
    "two_stage": two_stage,
    "large_vocab": large_vocab,
    "score": ScoreWorkload,
    "gradcheck": GradcheckWorkload,
}
