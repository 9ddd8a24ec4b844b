import builtins
import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import sys
import tempfile
import types
from collections import Counter, namedtuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simreg import cli, data, encoder, gradcheck, losses, training
from simreg import config as config_mod
from simreg.cli import main
from simreg.config import load_run_config
from simreg.data import Dataset, SentencePair, load_tsv, save_tsv
from simreg.encoder import (
    FeatureMode,
    Model,
    build_vocab,
    load_checkpoint,
    save_checkpoint,
)
from simreg.evaluation import DatasetReport, evaluate
from simreg.gradcheck import GradCheckResult
from simreg.labelmap import LabelMapping
from simreg.losses import LossKind, LossSpec
from simreg.synth import ORDINAL_CATEGORIES, make_ordinal_corpus


def cont(name, rows):
    pairs = tuple(SentencePair(s1, s2, score=r) for r, s1, s2 in rows)
    return Dataset(name, pairs, score_range=(0.0, 5.0))


@pytest.fixture
def corpus_files(tmp_path):
    """Small categorical train/dev TSVs plus a config pointing at them."""
    train = make_ordinal_corpus(160, seed=31, name="train")
    dev = make_ordinal_corpus(64, seed=32, name="dev")
    train_path = tmp_path / "train.tsv"
    dev_path = tmp_path / "dev.tsv"
    save_tsv(train, train_path)
    save_tsv(dev, dev_path)
    config = {
        "out_dir": str(tmp_path / "run"),
        "seed": 5,
        "encoder": {"dim": 8, "feature_mode": "uv_absdiff"},
        "loss": {"kind": "smooth_k2", "k": 2, "x0": 0.25, "d": 1.0},
        "data": {
            "train": str(train_path),
            "dev": str(dev_path),
            "categories": list(ORDINAL_CATEGORIES),
        },
        "training": {
            "batch_size": 8,
            "epochs": 1,
            "learning_rate": 0.05,
            "optimizer": "adam",
            "eval_every": 10,
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, config_path, config


def two_stage(tmp_path, config_path, config):
    """Make corpus_files' config a two-stage run on a new NLI file."""
    nli = make_ordinal_corpus(90, seed=33, categories=("contradiction", "neutral",
                                                       "entailment"),
                              shared_counts=(0, 5, 9), name="nli")
    nli_path = tmp_path / "nli.tsv"
    save_tsv(nli, nli_path)
    config["stages"] = "two_stage"
    config["data"]["nli_train"] = str(nli_path)
    config["joint"] = {"learning_rate": 0.01, "optimizer": "sgd"}
    config_path.write_text(json.dumps(config))


def contrastive_config(tmp_path) -> Path:
    """An InfoNCE run config on new scored train and dev files, training into
    tmp_path/nce."""
    for name, n, seed in (("train", 120, 51), ("dev", 48, 52)):
        # category i of the ordinal corpus scores i on [0, 3]
        scored = tuple(
            SentencePair(p.s1, p.s2, score=float(ORDINAL_CATEGORIES.index(p.label)))
            for p in make_ordinal_corpus(n, seed=seed).pairs
        )
        save_tsv(Dataset(name, scored, score_range=(0.0, 3.0)),
                 tmp_path / f"{name}_scores.tsv")
    config = {
        "out_dir": str(tmp_path / "nce"),
        "seed": 2,
        "encoder": {"dim": 8},
        "loss": {"kind": "info_nce", "tau": 0.1},
        "data": {
            "train": str(tmp_path / "train_scores.tsv"),
            "dev": str(tmp_path / "dev_scores.tsv"),
            "score_range": [0.0, 3.0],
            "positive_threshold": 2.5,
        },
        "training": {"batch_size": 8, "epochs": 1, "learning_rate": 0.05,
                     "eval_every": 5},
    }
    config_path = tmp_path / "nce.json"
    config_path.write_text(json.dumps(config))
    return config_path


def names_in(directory) -> set:
    return {path.name for path in directory.iterdir()}


class TestFilterData:
    def overlap_fixture(self, tmp_path):
        train = cont(
            "train",
            [
                (4.1, "a kite drifts over the beach", "a kite floats above the sand"),
                (4.3, "two dogs chase a ball", "a ball is chased by two dogs"),
                (2.0, "a train leaves the station", "people wait on the platform"),
            ],
        )
        tests = cont(
            "tests",
            [
                (3.7, "a kite floats above the sand", "a kite drifts over the beach"),
                (3.6, "two dogs chase a ball", "a ball is chased by two dogs"),
                (1.0, "snow falls on the hill", "a sled glides down"),
            ],
        )
        train_path = tmp_path / "train.tsv"
        test_path = tmp_path / "test.tsv"
        save_tsv(train, train_path)
        save_tsv(tests, test_path)
        return train_path, test_path

    def test_removes_known_overlaps(self, tmp_path, capsys):
        train_path, test_path = self.overlap_fixture(tmp_path)
        out = tmp_path / "out"
        code = main(["filter-data", "--train", str(train_path), "--test",
                     str(test_path), "--out", str(out)])
        assert code == 0
        audit = [json.loads(l) for l in (out / "removed.jsonl").read_text().splitlines()]
        assert len(audit) == 2
        assert {a["s1"] for a in audit} == {
            "a kite drifts over the beach", "two dogs chase a ball"
        }
        assert "removed:       2" in capsys.readouterr().out
        kept = load_tsv(out / "filtered.tsv")
        assert len(kept) == 1

    def test_no_overlap_leaves_bytes_identical(self, tmp_path, capsys):
        train = cont("t", [(1.5, "unique one", "unique two"),
                           (2.5, "unique three", "unique four")])
        train_path = tmp_path / "train.tsv"
        save_tsv(train, train_path)
        test_path = tmp_path / "test.tsv"
        save_tsv(cont("q", [(1.0, "other", "thing")]), test_path)
        out = tmp_path / "out"
        code = main(["filter-data", "--train", str(train_path), "--test",
                     str(test_path), "--out", str(out)])
        assert code == 0
        assert "removed:       0" in capsys.readouterr().out
        assert (out / "filtered.tsv").read_bytes() == train_path.read_bytes()

    def test_failed_write_keeps_the_old_outputs(self, tmp_path, failing_writes):
        train_path, test_path = self.overlap_fixture(tmp_path)
        out = tmp_path / "out"
        argv = ["filter-data", "--train", str(train_path), "--test", str(test_path),
                "--out", str(out)]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with failing_writes():
            assert main(argv) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_missing_input_no_partial_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["filter-data", "--train", str(tmp_path / "absent.tsv"),
                     "--test", str(tmp_path / "also-absent.tsv"), "--out", str(out)])
        assert code != 0
        assert not out.exists()

    def test_sick_rescale_path(self, tmp_path):
        sick = Dataset(
            "sick",
            (SentencePair("a b", "c d", score=1.0), SentencePair("e f", "g h", score=5.0)),
            score_range=(1.0, 5.0),
        )
        sick_path = tmp_path / "sick.tsv"
        save_tsv(sick, sick_path)
        test_path = tmp_path / "test.tsv"
        save_tsv(cont("q", [(1.0, "other", "thing")]), test_path)
        out = tmp_path / "out"
        code = main(["filter-data", "--sick-train", str(sick_path), "--test",
                     str(test_path), "--out", str(out)])
        assert code == 0
        rescaled = load_tsv(out / "filtered.tsv")
        assert [p.score for p in rescaled.pairs] == [0.0, 5.0]


class TestTrain:
    def test_preset_accepted_and_echoed(self, corpus_files, capsys):
        tmp_path, config_path, config = corpus_files
        assert main(["train", "--config", str(config_path)]) == 0
        out = tmp_path / "run"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["loss"] == {"kind": "smooth_k2", "k": 2.0, "x0": 0.25,
                                    "d": 1.0, "tau": None}
        assert (out / "checkpoint.json").exists()
        assert (out / "history.csv").exists()
        assert (out / "mapping.json").exists()
        assert "best dev spearman" in capsys.readouterr().out

    def test_each_writer_takes_its_fields_from_its_record(self, corpus_files,
                                                          monkeypatch):
        """history.csv has a column per HistoryEntry field, so one more field
        writes one more column; manifest.json's loss and report.json's
        datasets hold their dataclasses' fields."""
        tmp_path, config_path, config = corpus_files
        fields = (*training.HistoryEntry._fields, "extra")
        monkeypatch.setattr(training, "HistoryEntry",
                            namedtuple("HistoryEntry", fields, defaults=(0.5,)))
        assert main(["train", "--config", str(config_path)]) == 0
        out = tmp_path / "run"
        header, *rows = (out / "history.csv").read_text().splitlines()
        assert header == ",".join(fields)
        assert rows and all(len(row.split(",")) == len(fields) and row.endswith(",0.5")
                            for row in rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["loss"]) == {f.name for f in dataclasses.fields(LossSpec)}
        assert main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                     config["data"]["dev"], "--out", str(tmp_path / "eval")]) == 0
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert [set(doc) for doc in report["datasets"]] == [
            {f.name for f in dataclasses.fields(DatasetReport)}]

    def test_invalid_x0_rejected_before_training(self, corpus_files, capsys):
        tmp_path, config_path, config = corpus_files
        config["loss"]["x0"] = 0.75  # past d/2
        config_path.write_text(json.dumps(config))
        code = main(["train", "--config", str(config_path)])
        assert code == 1
        assert not (tmp_path / "run").exists()
        assert "x0" in capsys.readouterr().err

    def test_x0_checked_against_node_spacing(self, corpus_files, capsys, monkeypatch):
        tmp_path, config_path, config = corpus_files
        # loss.d spaces the nodes trained on, so x0 = 0.5 covers the whole
        # 0.25-spaced label range: one error line, before any file is read
        config["loss"].update(x0=0.5, d=0.25)
        config_path.write_text(json.dumps(config))
        with monkeypatch.context() as patch:
            patch.setattr(data, "split_tsv", pytest.fail)
            assert main(["train", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid loss: x0 must satisfy")
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()
        # both mappings of a two-stage run are spaced by loss.d, so x0 = 0.75
        # fits d = 2 for the stage-1 mapping too
        config["data"]["nli_train"] = config["data"]["train"]
        config["stages"] = "two_stage"
        config["loss"].update(x0=0.75, d=2.0)
        config_path.write_text(json.dumps(config))
        cfg = load_run_config(config_path)
        assert cfg.mapping.d == cfg.nli_mapping.d == 2.0

    def test_unknown_config_key_rejected(self, corpus_files):
        tmp_path, config_path, config = corpus_files
        config["typo_key"] = 1
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 1

    def test_two_stage_requires_residual_loss(self, corpus_files):
        tmp_path, config_path, config = corpus_files
        config["stages"] = "two_stage"
        config["data"]["nli_train"] = config["data"]["train"]
        config["loss"] = {"kind": "cross_entropy"}
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 1

    def test_mapping_reloads_with_the_trained_nodes(self, corpus_files):
        tmp_path, config_path, config = corpus_files
        config["loss"] = {"kind": "mse", "d": 0.1}
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 0
        doc = json.loads((tmp_path / "run" / "mapping.json").read_text())
        assert doc == {"categories": list(ORDINAL_CATEGORIES), "start": 0.0,
                       "interval": 0.1}
        trained = LabelMapping(ORDINAL_CATEGORIES, 0.0, 0.1)
        # 3 * 0.1 is 0.30000000000000004, not 0.3: nodes are derived, not read
        assert trained.nodes == (0.0, 0.1, 0.2, 3 * 0.1)
        model = load_checkpoint(tmp_path / "run" / "checkpoint.json")
        assert model.mapping == trained and model.mapping.nodes == trained.nodes

    def test_rerun_is_byte_identical(self, corpus_files):
        tmp_path, config_path, _ = corpus_files
        assert main(["train", "--config", str(config_path),
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["train", "--config", str(config_path),
                     "--out", str(tmp_path / "b")]) == 0
        for name in ("checkpoint.json", "history.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    @pytest.mark.parametrize("message", [
        "Unable to allocate 909. GiB for an array with shape (1000000000, 122) and "
        "data type float64", ""], ids=["numpy", "bare"])
    def test_memory_error_is_one_runtime_error_line(self, corpus_files, capsys,
                                                    monkeypatch, message):
        _, config_path, _ = corpus_files

        def refuse(*args, **kwargs):  # as numpy refuses a too large array
            raise MemoryError(message)

        monkeypatch.setattr(encoder, "init_params", refuse)
        assert main(["train", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"

    def test_undefined_dev_score_names_the_dev_file(self, corpus_files, capsys):
        tmp_path, config_path, _ = corpus_files
        # every dev pair under one label: its golds are constant
        (tmp_path / "dev.tsv").write_text("".join(f"irrelevant\tw{i} x\tw{i} y\n"
                                                  for i in range(6)))
        assert main(["train", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == (
            "error: dev: rank correlation undefined for constant input\n")

    def test_out_dir_env_override(self, corpus_files, monkeypatch):
        tmp_path, config_path, _ = corpus_files
        monkeypatch.setenv("SIMREG_OUT", str(tmp_path / "env-run"))
        assert main(["train", "--config", str(config_path)]) == 0
        assert (tmp_path / "env-run" / "checkpoint.json").exists()

    def test_cross_entropy_baseline(self, corpus_files):
        tmp_path, config_path, config = corpus_files
        config["loss"] = {"kind": "cross_entropy"}
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path),
                     "--out", str(tmp_path / "ce")]) == 0
        manifest = json.loads((tmp_path / "ce" / "manifest.json").read_text())
        assert manifest["head_weight_count"] == 3 * 8 * 4  # dim 8, four classes

    def test_contrastive_baseline(self, tmp_path, capsys):
        config_path = contrastive_config(tmp_path)
        assert main(["train", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "contrastive positives: kept" in out
        code = main(["eval", "--checkpoint", str(tmp_path / "nce" / "checkpoint.json"),
                     str(tmp_path / "dev_scores.tsv"), "--cosine"])
        assert code == 0

    def test_single_stage_ignores_nli_train(self, corpus_files):
        tmp_path, config_path, config = corpus_files
        # words the training corpus lacks, so a vocabulary built from them differs
        unseen = tuple(SentencePair(f"zebra w{i} quartz", f"violin w{i} ember",
                                    label="neutral") for i in range(20))
        nli_path = tmp_path / "nli.tsv"
        save_tsv(Dataset("nli", unseen, categories=("contradiction", "neutral",
                                                    "entailment")), nli_path)
        assert main(["train", "--config", str(config_path),
                     "--out", str(tmp_path / "plain")]) == 0
        config["data"]["nli_train"] = str(nli_path)
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path),
                     "--out", str(tmp_path / "with-nli")]) == 0
        for name in ("checkpoint.json", "history.csv"):
            plain = (tmp_path / "plain" / name).read_bytes()
            assert (tmp_path / "with-nli" / name).read_bytes() == plain, name

    def test_two_stage_config(self, corpus_files):
        tmp_path, config_path, config = corpus_files
        two_stage(tmp_path, config_path, config)
        assert main(["train", "--config", str(config_path)]) == 0
        out = tmp_path / "run"
        assert (out / "history_stage1.csv").exists()
        assert (out / "history_stage2.csv").exists()

    def test_rerun_leaves_no_earlier_output(self, corpus_files):
        """A one-stage run after a two-stage run into one directory keeps no
        stage histories, and an InfoNCE run after it no mapping; a file
        simreg train never writes is left alone."""
        tmp_path, config_path, config = corpus_files
        out = tmp_path / "shared"
        out.mkdir()
        (out / "notes.txt").write_text("mine")
        one_stage = config_path.read_text()
        two_stage(tmp_path, config_path, config)
        train = ["train", "--config", str(config_path), "--out", str(out)]
        assert main(train) == 0
        assert {"history_stage1.csv", "history_stage2.csv"} <= names_in(out)
        config_path.write_text(one_stage)
        assert main(train) == 0
        assert names_in(out) == {"checkpoint.json", "history.csv", "manifest.json",
                                 "mapping.json", "notes.txt"}
        history = (out / "history.csv").read_bytes()
        assert main(["train", "--config", str(contrastive_config(tmp_path)),
                     "--out", str(out)]) == 0
        assert names_in(out) == {"checkpoint.json", "history.csv", "manifest.json",
                                 "notes.txt"}
        assert (out / "history.csv").read_bytes() != history
        assert (out / "notes.txt").read_text() == "mine"

    def test_two_stage_splits_each_distinct_text_once(self, corpus_files,
                                                      monkeypatch):
        # stage 1 reads the train file again as its NLI corpus and the dev set
        # is scored by both stages: still one split per distinct text
        tmp_path, config_path, config = corpus_files
        config["stages"] = "two_stage"
        config["data"].update(nli_train=config["data"]["train"],
                              nli_categories=list(ORDINAL_CATEGORIES))
        config["joint"] = {"learning_rate": 0.01, "optimizer": "sgd"}
        config_path.write_text(json.dumps(config))
        corpora = []
        init = encoder.Corpus.__init__

        def recorded(corpus, texts):
            init(corpus, texts)
            corpora.append(corpus)

        # on the class, so every name the package imports it by is counted
        monkeypatch.setattr(encoder.Corpus, "__init__", recorded)
        assert main(["train", "--config", str(config_path)]) == 0
        texts = list({text for key in ("train", "dev")
                      for pair in load_tsv(config["data"][key],
                                           categories=ORDINAL_CATEGORIES).pairs
                      for text in (pair.s1, pair.s2)})
        # one corpus, holding each distinct text once and nothing else
        assert len(corpora) == 1
        rows = corpora[0].rows_of(texts).tolist()
        assert sorted(rows) == list(range(len(corpora[0].lengths)))

    @pytest.mark.parametrize("stages", ["single", "two_stage"])
    def test_library_run_equals_train(self, corpus_files, stages):
        # the run path without argv trains the model simreg train saves
        tmp_path, config_path, config = corpus_files
        staged(config_path, config, stages)
        cfg = load_run_config(config_path)
        best_model, best_dev, histories = training.run(cfg, training.load_run_data(cfg))
        assert main(["train", "--config", str(config_path)]) == 0
        out = tmp_path / "run"
        manifest = json.loads((out / "manifest.json").read_text())
        assert best_dev == manifest["best_dev_spearman"]
        saved = load_checkpoint(out / "checkpoint.json")
        for name in encoder.PARAM_NAMES:
            assert (getattr(best_model.params, name).tobytes()
                    == getattr(saved.params, name).tobytes()), name
        assert {f"{name}.csv" for name in histories} == {
            path.name for path in out.glob("history*.csv")}

    @pytest.mark.parametrize("stages", ["single", "two_stage"])
    def test_replaced_seed_is_the_seed_flag_run(self, corpus_files, stages):
        # both stages shuffle at the replaced seed, as at --seed
        tmp_path, config_path, config = corpus_files
        staged(config_path, config, stages)
        cfg = dataclasses.replace(load_run_config(config_path), seed=6)
        _, best_dev, histories = training.run(cfg, training.load_run_data(cfg))
        assert main(["train", "--config", str(config_path), "--seed", "6"]) == 0
        out = tmp_path / "run"
        assert best_dev == json.loads((out / "manifest.json").read_text())[
            "best_dev_spearman"]
        for name, history in histories.items():
            training.write_history_csv(history, tmp_path / f"{name}.csv")
            assert ((tmp_path / f"{name}.csv").read_bytes()
                    == (out / f"{name}.csv").read_bytes()), name


def staged(config_path, config, stages):
    """Rewrite config as a two-stage run on its own train file when stages
    says so."""
    if stages == "two_stage":
        config["stages"] = "two_stage"
        config["data"].update(nli_train=config["data"]["train"],
                              nli_categories=list(ORDINAL_CATEGORIES))
        config["joint"] = {"learning_rate": 0.01, "optimizer": "sgd"}
        config_path.write_text(json.dumps(config))


def count_calls(monkeypatch, owner, name, key=lambda *args: None):
    """A Counter of the calls to owner.name, by key of each call's arguments."""
    calls = Counter()
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[key(*args)] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def split_files(monkeypatch):
    """A Counter of the files data.split_tsv splits, by name."""
    return count_calls(monkeypatch, data, "split_tsv", lambda raw, path: Path(path).name)


def corpora_built(monkeypatch):
    """A list of (corpus, number of texts it was given) of every new
    encoder.Corpus."""
    corpora = []
    init = encoder.Corpus.__init__

    def recorded(corpus, texts):
        texts = list(texts)
        init(corpus, texts)
        corpora.append((corpus, len(texts)))

    # on the class, so every name the package imports it by is counted
    monkeypatch.setattr(encoder.Corpus, "__init__", recorded)
    return corpora


class TestLoadOnce:
    def two_stage(self, corpus_files, nli_path):
        tmp_path, config_path, config = corpus_files
        config["stages"] = "two_stage"
        config["data"].update(nli_train=str(nli_path),
                              nli_categories=list(ORDINAL_CATEGORIES))
        config_path.write_text(json.dumps(config))
        return config_path, config

    @pytest.mark.parametrize("shared", [True, False], ids=["nli-is-train", "own-nli"])
    def test_two_stage_splits_each_file_once(self, corpus_files, monkeypatch, shared):
        tmp_path = corpus_files[0]
        nli_path = tmp_path / "train.tsv"
        if not shared:
            nli_path = tmp_path / "nli.tsv"
            save_tsv(make_ordinal_corpus(90, seed=33), nli_path)
        config_path, _ = self.two_stage(corpus_files, nli_path)
        files = split_files(monkeypatch)
        corpora = corpora_built(monkeypatch)
        assert main(["train", "--config", str(config_path)]) == 0
        expect = {"train.tsv": 1, "dev.tsv": 1} | ({} if shared else {"nli.tsv": 1})
        assert files == expect
        # one corpus, given each file's texts once
        pairs = 160 + 64 + (0 if shared else 90)
        assert [n for _, n in corpora] == [2 * pairs]

    def test_a_narrower_stage1_category_set_names_the_line(self, corpus_files, capsys):
        tmp_path = corpus_files[0]
        config_path, config = self.two_stage(corpus_files, tmp_path / "train.tsv")
        config["data"]["nli_categories"] = list(ORDINAL_CATEGORIES[:3])
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 1
        # make_ordinal_corpus labels line i with category (i - 1) % 4
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'train.tsv'}:4: unknown label 'highly relevant'\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [["sweep", "--k", "1,2,4", "--x0", "0.25"],
                                      ["ablate"]], ids=["sweep", "ablate"])
    def test_sweep_and_ablate_load_once(self, corpus_files, monkeypatch, argv):
        tmp_path, config_path, _ = corpus_files
        files = split_files(monkeypatch)
        corpora = corpora_built(monkeypatch)
        runs = count_calls(monkeypatch, training, "train")
        assert main([*argv, "--config", str(config_path),
                     "--out", str(tmp_path / "out")]) == 0
        assert sum(runs.values()) == 3
        assert files == {"train.tsv": 1, "dev.tsv": 1}
        assert [n for _, n in corpora] == [2 * (160 + 64)]

    def test_eval_splits_each_file_once(self, tmp_path, monkeypatch):
        ds = make_ordinal_corpus(40, seed=7)
        vocab = build_vocab(ds.texts)
        model = Model.initialize(vocab, dim=4,
                                 mapping=LabelMapping(ORDINAL_CATEGORIES, 0.0, 1.0))
        save_checkpoint(model, tmp_path / "ck.json")
        save_tsv(ds, tmp_path / "graded.tsv")
        save_tsv(cont("scored", [(float(i % 4), p.s1, p.s2)
                                 for i, p in enumerate(ds.pairs)]), tmp_path / "scored.tsv")
        files = split_files(monkeypatch)
        lines = count_calls(monkeypatch, data, "tsv_lines")
        assert main(["eval", "--checkpoint", str(tmp_path / "ck.json"),
                     str(tmp_path / "graded.tsv"), str(tmp_path / "scored.tsv"),
                     "--out", str(tmp_path / "rep")]) == 0
        assert files == {"graded.tsv": 1, "scored.tsv": 1}
        assert lines[None] == 2
        rows = json.loads((tmp_path / "rep" / "report.json").read_text())["datasets"]
        assert [r["accuracy"] is None for r in rows] == [False, True]


class TestEval:
    def test_matches_in_process_evaluate(self, corpus_files, capsys):
        tmp_path, config_path, config = corpus_files
        assert main(["train", "--config", str(config_path)]) == 0
        checkpoint = tmp_path / "run" / "checkpoint.json"
        dev_path = config["data"]["dev"]
        code = main(["eval", "--checkpoint", str(checkpoint), dev_path,
                     "--out", str(tmp_path / "report")])
        assert code == 0
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        model = load_checkpoint(checkpoint)
        dev = load_tsv(dev_path, categories=ORDINAL_CATEGORIES)
        expect = evaluate(model, [dev])
        assert report["average"] == pytest.approx(expect.average, abs=1e-12)
        assert report["datasets"][0]["accuracy"] == expect.per_dataset[0].accuracy

    def test_numeric_category_names_are_categorical(self, tmp_path):
        labels = ("1", "2", "3", "4")
        ds = make_ordinal_corpus(40, seed=7, categories=labels)
        vocab = build_vocab([s for p in ds.pairs for s in (p.s1, p.s2)])
        model = Model.initialize(vocab, dim=4, mapping=LabelMapping(labels, 0.0, 1.0))
        save_checkpoint(model, tmp_path / "ck.json")
        save_tsv(ds, tmp_path / "graded.tsv")
        assert main(["eval", "--checkpoint", str(tmp_path / "ck.json"),
                     str(tmp_path / "graded.tsv"), "--out", str(tmp_path / "rep")]) == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert report["datasets"][0]["accuracy"] is not None

    def test_files_with_a_byte_order_mark_read_as_without(self, tmp_path):
        ds = make_ordinal_corpus(40, seed=7)
        vocab = build_vocab([s for p in ds.pairs for s in (p.s1, p.s2)])
        model = Model.initialize(vocab, dim=4,
                                 mapping=LabelMapping(ORDINAL_CATEGORIES, 0.0, 1.0))
        save_checkpoint(model, tmp_path / "ck.json")
        save_tsv(ds, tmp_path / "graded.tsv")
        save_tsv(cont("scored", [(float(i % 4), p.s1, p.s2)
                                 for i, p in enumerate(ds.pairs)]), tmp_path / "scored.tsv")
        reports = []
        for mark in (b"", b"\xef\xbb\xbf"):
            out = tmp_path / f"marked{len(mark)}"
            out.mkdir()
            for name in ("graded.tsv", "scored.tsv"):
                (out / name).write_bytes(mark + (tmp_path / name).read_bytes())
            assert main(["eval", "--checkpoint", str(tmp_path / "ck.json"),
                         str(out / "graded.tsv"), str(out / "scored.tsv"),
                         "--out", str(out / "report")]) == 0
            reports.append((out / "report" / "report.json").read_text())
        assert reports[1] == reports[0]
        graded, scored = json.loads(reports[1])["datasets"]
        assert graded["accuracy"] is not None and scored["accuracy"] is None

    def test_each_file_is_read_once(self, tmp_path, monkeypatch):
        ds = make_ordinal_corpus(40, seed=7)
        vocab = build_vocab([s for p in ds.pairs for s in (p.s1, p.s2)])
        model = Model.initialize(vocab, dim=4,
                                 mapping=LabelMapping(ORDINAL_CATEGORIES, 0.0, 1.0))
        save_checkpoint(model, tmp_path / "ck.json")
        save_tsv(ds, tmp_path / "graded.tsv")
        save_tsv(cont("scored", [(float(i % 4), p.s1, p.s2)
                                 for i, p in enumerate(ds.pairs)]), tmp_path / "scored.tsv")
        opened = Counter()
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened[Path(file).name] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        assert main(["eval", "--checkpoint", str(tmp_path / "ck.json"),
                     str(tmp_path / "graded.tsv"), str(tmp_path / "scored.tsv")]) == 0
        assert opened["graded.tsv"] == 1 and opened["scored.tsv"] == 1

    @pytest.mark.parametrize("kept", ["none", "one", "constant"])
    def test_undefined_score_names_its_file(self, tmp_path, capsys, kept):
        ds = make_ordinal_corpus(20, seed=7)
        vocab = build_vocab([s for p in ds.pairs for s in (p.s1, p.s2)])
        model = Model.initialize(vocab, dim=4,
                                 mapping=LabelMapping(ORDINAL_CATEGORIES, 0.0, 1.0))
        save_checkpoint(model, tmp_path / "ck.json")
        save_tsv(ds, tmp_path / "good.tsv")
        lines = (tmp_path / "good.tsv").read_text().splitlines(keepends=True)
        bad = {"none": "", "one": lines[0],
               # one text pair under every label: every prediction is the same
               "constant": "".join(f"{c}\tsame words\tsame words\n"
                                   for c in ORDINAL_CATEGORIES)}[kept]
        (tmp_path / "bad.tsv").write_text(bad)
        assert main(["eval", "--checkpoint", str(tmp_path / "ck.json"),
                     str(tmp_path / "good.tsv"), str(tmp_path / "bad.tsv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad: ") and err.count("\n") == 1

    def test_files_sharing_a_stem_are_named_by_path(self, tmp_path, monkeypatch, capsys):
        ds = make_ordinal_corpus(20, seed=7)
        vocab = build_vocab([s for p in ds.pairs for s in (p.s1, p.s2)])
        model = Model.initialize(vocab, dim=4,
                                 mapping=LabelMapping(ORDINAL_CATEGORIES, 0.0, 1.0))
        save_checkpoint(model, tmp_path / "ck.json")
        for directory in ("a", "b"):
            (tmp_path / directory).mkdir()
            save_tsv(ds, tmp_path / directory / "dev.tsv")
        save_tsv(ds, tmp_path / "test.tsv")
        monkeypatch.chdir(tmp_path)
        assert main(["eval", "--checkpoint", "ck.json", "a/dev.tsv", "b/dev.tsv",
                     "test.tsv", "--out", "rep"]) == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert [d["name"] for d in report["datasets"]] == ["a/dev.tsv", "b/dev.tsv",
                                                           "test"]
        assert "a/dev.tsv" in capsys.readouterr().out

    def test_unreadable_files_keep_their_errors(self, tmp_path, capsys):
        ds = make_ordinal_corpus(20, seed=7)
        vocab = build_vocab([s for p in ds.pairs for s in (p.s1, p.s2)])
        save_checkpoint(Model.initialize(vocab, dim=4), tmp_path / "ck.json")
        checkpoint = str(tmp_path / "ck.json")
        missing = str(tmp_path / "missing.tsv")
        assert main(["eval", "--checkpoint", checkpoint, missing]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {missing!r}\n")
        (tmp_path / "bad.tsv").write_bytes(b"1.0\ta\xffb\tc\n")
        assert main(["eval", "--checkpoint", checkpoint, str(tmp_path / "bad.tsv")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {tmp_path / 'bad.tsv'} is not valid UTF-8: 'utf-8' codec can't decode"
            " byte 0xff in position 5")
        # the categorical sniff still comes first: a mapping-less checkpoint
        (tmp_path / "badcat.tsv").write_bytes(b"neutral\ta\xffb\tc\n")
        assert main(["eval", "--checkpoint", checkpoint,
                     str(tmp_path / "badcat.tsv")]) == 1
        assert "looks categorical but the checkpoint has no mapping" in (
            capsys.readouterr().err)

    def test_blank_lines_are_not_sniffed(self, tmp_path, capsys):
        ds = make_ordinal_corpus(20, seed=7)
        save_checkpoint(Model.initialize(build_vocab(ds.texts), dim=4),
                        tmp_path / "ck.json")
        # the first nonblank line holds a score, so the file is read as scores
        # and its blank line is the error, not the checkpoint's lack of a mapping
        (tmp_path / "blank.tsv").write_bytes(b" \t \n1.0\ta\tb\n")
        assert main(["eval", "--checkpoint", str(tmp_path / "ck.json"),
                     str(tmp_path / "blank.tsv")]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'blank.tsv'}:1: expected at least 3 tab-separated "
            "fields, got 2\n")

    def test_failed_report_write_keeps_the_old_report(self, corpus_files,
                                                      failing_writes):
        tmp_path, config_path, config = corpus_files
        assert main(["train", "--config", str(config_path)]) == 0
        argv = ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                config["data"]["dev"], "--out", str(tmp_path / "report")]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in (tmp_path / "report").iterdir()}
        with failing_writes():
            assert main(argv) == 2
        after = {p.name: p.read_bytes() for p in (tmp_path / "report").iterdir()}
        assert after == before

    def test_corrupt_checkpoint_clean_error(self, corpus_files, tmp_path, capsys):
        _, config_path, config = corpus_files
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(["eval", "--checkpoint", str(bad), config["data"]["dev"]])
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_corrupt_array_payload_clean_error(self, corpus_files, capsys):
        tmp_path, config_path, config = corpus_files
        assert main(["train", "--config", str(config_path)]) == 0
        checkpoint = tmp_path / "run" / "checkpoint.json"
        doc = json.loads(checkpoint.read_text())
        doc["embeddings"]["data"] = doc["embeddings"]["data"][:-8]
        checkpoint.write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", str(checkpoint), config["data"]["dev"]])
        assert code == 1
        assert "corrupt checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("start", float("nan")), ("start", -float("inf")), ("interval", float("inf")),
    ])
    def test_non_finite_mapping_is_a_corrupt_checkpoint(self, corpus_files, capsys,
                                                        key, value):
        tmp_path, config_path, config = corpus_files
        assert main(["train", "--config", str(config_path)]) == 0
        checkpoint = tmp_path / "run" / "checkpoint.json"
        doc = json.loads(checkpoint.read_text())
        doc["mapping"][key] = value  # json writes NaN and Infinity literally
        checkpoint.write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", str(checkpoint), config["data"]["dev"]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt checkpoint") and "finite" in err

    def test_classifier_mapping_mismatch_clean_error(self, tmp_path, capsys):
        ds = make_ordinal_corpus(40, seed=7)
        vocab = build_vocab([s for p in ds.pairs for s in (p.s1, p.s2)])
        model = Model.initialize(vocab, dim=4, n_classes=4,
                                 mapping=LabelMapping(ORDINAL_CATEGORIES, 0.0, 1.0))
        checkpoint = tmp_path / "ck.json"
        save_checkpoint(model, checkpoint)
        doc = json.loads(checkpoint.read_text())
        doc["mapping"]["categories"] = doc["mapping"]["categories"][:3]
        checkpoint.write_text(json.dumps(doc))
        scored = cont("scored", [(float(i % 4), p.s1, p.s2)
                                 for i, p in enumerate(ds.pairs)])
        save_tsv(scored, tmp_path / "scored.tsv")
        code = main(["eval", "--checkpoint", str(checkpoint), str(tmp_path / "scored.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt checkpoint") and "logits" in err

    def test_classifier_without_mapping_is_a_corrupt_checkpoint(self, tmp_path, capsys):
        # a classification head scores through its mapping's nodes, so a
        # checkpoint holding one with a null mapping cannot score anything
        ds = make_ordinal_corpus(40, seed=7)
        model = Model.initialize(build_vocab(ds.texts), dim=4, n_classes=4,
                                 mapping=LabelMapping(ORDINAL_CATEGORIES, 0.0, 1.0))
        checkpoint = tmp_path / "ck.json"
        save_checkpoint(model, checkpoint)
        doc = json.loads(checkpoint.read_text())
        doc["mapping"] = None
        checkpoint.write_text(json.dumps(doc))
        scored = cont("scored", [(float(i % 4), p.s1, p.s2)
                                 for i, p in enumerate(ds.pairs)])
        save_tsv(scored, tmp_path / "scored.tsv")
        code = main(["eval", "--checkpoint", str(checkpoint), str(tmp_path / "scored.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt checkpoint") and err.count("\n") == 1
        assert "needs a label mapping" in err

    def test_empty_dataset_list_is_usage_error(self, corpus_files, capsys):
        tmp_path, config_path, _ = corpus_files
        code = main(["eval", "--checkpoint", "whatever.json"])
        assert code == 1


class TestGradcheck:
    def test_default_pass(self, capsys):
        code = main(["gradcheck", "--seeds", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "worst relative error" in out

    def test_a_wrong_derivative_fails(self, capsys, monkeypatch):
        """MSE's slope off by half again: each MSE configuration prints FAIL,
        the count of them follows, and the exit code is 1."""
        right = losses.mse_loss

        def wrong(x):
            value, slope = right(x)
            return value, 1.5 * slope

        monkeypatch.setattr(losses, "mse_loss", wrong)
        assert main(["gradcheck", "--seeds", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.endswith("FAIL")]
        assert [line.split()[1] for line in failed] == ["loss=mse"] * len(FeatureMode)
        assert lines[-1] == "3 configuration(s) exceeded tolerance 0.0001"

    @pytest.mark.parametrize("flags", [
        ["--seeds", "0"], ["--seeds", "-3"],
        # the tolerance is fixed at gradcheck.DEFAULT_TOLERANCE: no flag sets it
        ["--tolerance", "nan"], ["--tolerance", "1e-4"],
        # past a range's length
        ["--seeds", str(10**20)],
        # the sizes are fixed: there is no size flag, whatever its value
        ["--dim", "1"], ["--vocab", "6"], ["--batch", "1"],
        ["--dim", str(10**20)], ["--vocab", str(10**20)], ["--batch", str(10**20)],
        ["--dim", str(2**63 - 1)], ["--vocab", str(2**63 - 1)],
        ["--batch", str(2**63 - 1)],
    ], ids=lambda flags: " ".join(flags))
    def test_invalid_flag_is_a_clean_error(self, capsys, monkeypatch, flags):
        def no_draw(*args):
            raise AssertionError("an invalid flag's configuration was drawn")

        monkeypatch.setattr(gradcheck, "check_configuration", no_draw)
        assert main(["gradcheck", "--seeds", "1", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:")

    def test_a_batch_never_away_from_kinks_is_one_runtime_error(self, capsys,
                                                                monkeypatch):
        monkeypatch.setattr(gradcheck, "_too_close_to_kink", lambda *args: True)
        assert main(["gradcheck", "--seeds", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: could not sample")
        assert line.endswith("landed near one")

    def test_nan_error_counts_as_failure(self, capsys, monkeypatch):
        results = [GradCheckResult(0, LossKind.MSE, FeatureMode.UV, 0.0, 10),
                   GradCheckResult(0, LossKind.L1, FeatureMode.UV, math.nan, 10)]
        monkeypatch.setattr(cli, "run_gradient_checks", lambda **kw: results)
        assert main(["gradcheck"]) == 1
        out = capsys.readouterr().out
        assert "worst relative error nan" in out
        assert "1 configuration(s) exceeded" in out

    @pytest.mark.parametrize("argv, code", [
        (["gradcheck", "--seeds", "1"], 0),
        (["gradcheck", "--dim", "4"], 1),
        (["gradcheck", "--seeds", "1"], 2),
    ], ids=["pass", "usage-error", "no-draw-away-from-kinks"])
    def test_console_script_exits_with_mains_code(self, capsys, monkeypatch, argv,
                                                  code):
        """cli.entry, the simreg console script, exits with main's code."""
        if code == 2:
            monkeypatch.setattr(gradcheck, "_too_close_to_kink", lambda *args: True)
        monkeypatch.setattr(sys, "argv", ["simreg", *argv])
        with pytest.raises(SystemExit) as exit_:
            cli.entry()
        assert exit_.value.code == code
        assert capsys.readouterr().err.count("error:") == (code != 0)


class TestSweep:
    def test_single_point_equals_train(self, corpus_files):
        """A one-point and a two-point grid: every row equals `simreg train`
        of its point at the config's seed, bit for bit."""
        tmp_path, config_path, config = corpus_files
        point_path = tmp_path / "point.json"
        for ks in ("2", "1,2"):
            out = tmp_path / f"sweep-{ks}"
            assert main(["sweep", "--config", str(config_path), "--k", ks,
                         "--x0", "0.25", "--out", str(out)]) == 0
            rows = (out / "sweep.csv").read_text().splitlines()[1:]
            assert sorted(float(r.split(",")[0]) for r in rows) == [
                float(k) for k in ks.split(",")]
            for row in rows:
                k, x0, dev = row.split(",")
                loss = dict(config["loss"], k=float(k), x0=float(x0))
                point_path.write_text(json.dumps(dict(config, loss=loss)))
                solo = tmp_path / f"train-{ks}-{k}"
                assert main(["train", "--config", str(point_path),
                             "--out", str(solo)]) == 0
                manifest = json.loads((solo / "manifest.json").read_text())
                assert manifest["seed"] == config["seed"]
                assert float(dev) == manifest["best_dev_spearman"]

    def test_grid_size(self, corpus_files):
        tmp_path, config_path, _ = corpus_files
        assert main(["sweep", "--config", str(config_path), "--k", "1,2",
                     "--x0", "0.1,0.25", "--out", str(tmp_path / "sweep4")]) == 0
        rows = (tmp_path / "sweep4" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 4

    def test_invalid_point_skipped_with_warning(self, corpus_files, capsys):
        tmp_path, config_path, _ = corpus_files
        assert main(["sweep", "--config", str(config_path), "--k", "2",
                     "--x0", "0.25,0.75", "--out", str(tmp_path / "sweepbad")]) == 0
        captured = capsys.readouterr()
        assert "skipping" in captured.err
        rows = (tmp_path / "sweepbad" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 1

    def test_every_point_skipped_is_an_error(self, corpus_files, capsys):
        tmp_path, config_path, _ = corpus_files
        out = tmp_path / "sweepnone"
        assert main(["sweep", "--config", str(config_path), "--k", "2",
                     "--x0", "0.75", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("error:")] == [
            "error: every sweep point was skipped; nothing to train"]
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("grid", [["--x0", "0.25"], ["--k", "2"],
                                      ["--k", "", "--x0", "0.25"],
                                      ["--k", "2", "--x0", ","]],
                             ids=["no-k", "no-x0", "empty-k", "empty-x0"])
    def test_a_grid_flag_missing_or_empty_is_a_usage_error(self, corpus_files,
                                                           capsys, grid):
        tmp_path, config_path, _ = corpus_files
        out = tmp_path / "sweepgrid"
        assert main(["sweep", "--config", str(config_path), *grid,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["nan", "inf"])
    def test_non_finite_k_is_skipped_with_warning(self, corpus_files, capsys, k):
        tmp_path, config_path, _ = corpus_files
        assert main(["sweep", "--config", str(config_path), "--k", f"{k},2",
                     "--x0", "0.25", "--out", str(tmp_path / "sweepk")]) == 0
        assert capsys.readouterr().err == (
            f"warning: skipping k={k} x0=0.25: k must be finite, got {k}\n")
        rows = (tmp_path / "sweepk" / "sweep.csv").read_text().splitlines()
        assert [r.split(",")[:2] for r in rows] == [["k", "x0"], ["2.0", "0.25"]]


class TestAblate:
    def test_three_rows_with_head_counts(self, corpus_files, capsys):
        tmp_path, config_path, _ = corpus_files
        assert main(["ablate", "--config", str(config_path),
                     "--out", str(tmp_path / "ablate")]) == 0
        rows = (tmp_path / "ablate" / "ablate.csv").read_text().splitlines()
        assert len(rows) == 1 + 3
        counts = {r.split(",")[0]: int(r.split(",")[1]) for r in rows[1:]}
        assert counts == {"uv": 16, "absdiff": 8, "uv_absdiff": 24}  # dim=8

    def test_each_mode_equals_train_best_first(self, corpus_files):
        tmp_path, config_path, config = corpus_files
        assert main(["ablate", "--config", str(config_path),
                     "--out", str(tmp_path / "ablate")]) == 0
        rows = [r.split(",") for r in
                (tmp_path / "ablate" / "ablate.csv").read_text().splitlines()[1:]]
        devs = [float(dev) for _, _, dev in rows]
        assert devs == sorted(devs, reverse=True)
        for mode, _, dev in rows:
            encoder_section = dict(config["encoder"], feature_mode=mode)
            config_path.write_text(json.dumps(dict(config, encoder=encoder_section)))
            assert main(["train", "--config", str(config_path),
                         "--out", str(tmp_path / mode)]) == 0
            manifest = json.loads((tmp_path / mode / "manifest.json").read_text())
            assert float(dev) == manifest["best_dev_spearman"]

    def test_info_nce_is_a_usage_error(self, corpus_files, monkeypatch, capsys):
        # InfoNCE reads [u | v] and ranks by cosine whatever the feature mode
        tmp_path, config_path, config = corpus_files
        config["loss"] = {"kind": "info_nce", "tau": 0.1}
        config["data"]["categories"] = None
        config_path.write_text(json.dumps(config))
        files = split_files(monkeypatch)
        assert main(["ablate", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "info_nce" in err
        assert not files
        assert not (tmp_path / "run" / "ablate.csv").exists()


def test_compare_rows_best_first_ties_in_point_order(tmp_path, monkeypatch, capsys):
    devs = {"c": 0.5, "b": 0.9, "a": 0.5, "d": 0.9, "e": 0.1 + 0.2}
    monkeypatch.setattr(training, "load_run_data", lambda cfg: "data")
    monkeypatch.setattr(training, "run", lambda point, data: (None, devs[point], {}))
    cfg = types.SimpleNamespace(out_dir=tmp_path / "out")
    cli._compare(cfg, "table", ("name", "n"), [((p, i), p) for i, p in enumerate(devs)])
    assert (tmp_path / "out" / "table.csv").read_text() == (
        "name,n,dev_spearman\n"
        "b,1,0.9\nd,3,0.9\nc,0,0.5\na,2,0.5\ne,4,0.30000000000000004\n")
    assert capsys.readouterr().out.splitlines()[:2] == [
        "        name             n  dev_spearman",
        "           b             1        0.9000"]


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_parser_is_built_once_and_keeps_no_parse(self):
        assert cli.build_parser() is cli.build_parser()
        rest = ["--test", "t.tsv", "--out", "out"]
        first = cli.build_parser().parse_args(["filter-data", "--train", "a.tsv", *rest])
        second = cli.build_parser().parse_args(["filter-data", "--sick-train", "b.tsv",
                                                *rest])
        assert first.train == ["a.tsv"] and second.train == []
        assert second.sick_train == ["b.tsv"] and first.sick_train == []

    @pytest.mark.parametrize("command", ["filter-data", "eval"])
    @pytest.mark.parametrize("unreadable", ["missing", "directory"])
    def test_unreadable_data_file_exits_2_with_the_os_error(self, tmp_path, capsys,
                                                            command, unreadable):
        path = tmp_path / "corpus.tsv"
        if unreadable == "directory":
            path.mkdir()
        if command == "eval":
            ds = make_ordinal_corpus(20, seed=7)
            save_checkpoint(Model.initialize(build_vocab(ds.texts), dim=4),
                            tmp_path / "ck.json")
            argv = ["eval", "--checkpoint", str(tmp_path / "ck.json"), str(path)]
        else:
            save_tsv(cont("q", [(1.0, "other", "thing")]), tmp_path / "test.tsv")
            argv = ["filter-data", "--train", str(path), "--test",
                    str(tmp_path / "test.tsv"), "--out", str(tmp_path / "out")]
        code = errno.ENOENT if unreadable == "missing" else errno.EISDIR
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno {code}] {os.strerror(code)}: {str(path)!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["config-not-utf8", "checkpoint-not-utf8",
                                      "config-is-directory", "data-is-directory"])
    def test_unreadable_config_or_checkpoint_exits_1(self, corpus_files, capsys, case):
        tmp_path, config_path, config = corpus_files
        not_utf8 = tmp_path / "bad.json"
        not_utf8.write_bytes(b"\xff\xfe{}")
        dev = config["data"]["dev"]
        config["data"]["train"] = str(tmp_path)
        config_path.write_text(json.dumps(config))
        argv = {
            "config-not-utf8": ["train", "--config", str(not_utf8)],
            "checkpoint-not-utf8": ["eval", "--checkpoint", str(not_utf8), dev],
            "config-is-directory": ["train", "--config", str(tmp_path)],
            "data-is-directory": ["train", "--config", str(config_path)],
        }[case]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_missing_required_flag(self, capsys):
        assert main(["train"]) == 1


# ------------------------------------------------ the error contract, fuzzed

@st.composite
def gradcheck_argv(draw):
    """gradcheck's one flag: --seeds most often 1, so a run stays short, else
    below 1 or past a range's length."""
    seeds = draw(st.sampled_from([st.just(1)] * 3 + [st.integers(-3, 0),
                                                     st.integers(2**63, 2**70)]))
    return ["gradcheck", "--seeds", str(draw(seeds))]


# every (section, key) of config.SCHEMA; "joint" takes the training keys
CONFIG_KEYS = [(section, key) for section, keys in config_mod.SCHEMA.items()
               for key in keys] + [("joint", key) for key in config_mod.SCHEMA["training"]]
# wrong JSON types, NaN and Infinity literals, zero and negative sizes, and
# values some keys take: every valid draw keeps dim <= 4 and epochs <= 2
CONFIG_VALUES = st.sampled_from([
    None, True, "x", [], {}, 0, -1, 1, 2, 0.5, math.nan, math.inf, -math.inf,
    "two_stage", "info_nce", "cross_entropy", "adam", "uv", [0, 5], [5, 0], ["a", "b"],
])
# a score field's replacements: not numbers, NaN, out of [0, 5], blank
BAD_SCORES = st.sampled_from([b"nan", b"inf", b"-1", b"6", b"abc", b""])
TSV_EDITS = st.one_of(
    st.tuples(st.just("blank"), st.integers(0, 8)),
    st.tuples(st.just("not_utf8"), st.integers(0, 8)),
    st.tuples(st.just("score"), st.integers(0, 8), BAD_SCORES),
    st.tuples(st.just("constant")),
    st.tuples(st.just("empty")),
)


def _tsv_lines(n, offset):
    """n lines of scored pairs, without their line ends; no score repeats
    in six lines."""
    return [f"{(i * 7 + offset) % 6 * 0.8:.1f}\tw{i} a b\tw{(i + 1) % n} c".encode()
            for i in range(n)]


def _rescored(line, score):
    return score + b"".join(line.partition(b"\t")[1:])


def _edit(lines, edit):
    """lines (a TSV file's) with one of TSV_EDITS made."""
    lines = list(lines)
    at = min(edit[1], len(lines)) if len(edit) > 1 else 0
    if edit[0] == "blank":
        lines.insert(at, b"")
    elif edit[0] == "not_utf8":
        lines.insert(at, b"1.0\t\xff\xfe words\tmore words")
    elif edit[0] == "score" and lines:
        at = min(at, len(lines) - 1)
        lines[at] = _rescored(lines[at], edit[2])
    elif edit[0] == "constant":
        lines = [_rescored(line, b"1.0") for line in lines]
    elif edit[0] == "empty":
        lines = []
    return lines


@st.composite
def train_case(draw):
    """(config overrides, edits of (file, edit)) of a tiny train run, each
    as often none as some."""
    overrides = st.tuples(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES)
    edits = st.tuples(st.sampled_from(["train", "dev"]), TSV_EDITS)
    return tuple(draw(st.one_of(st.just([]), st.lists(each, min_size=1, max_size=2)))
                 for each in (overrides, edits))


def _train_argv(tmp: Path, overrides, edits) -> list:
    files = {"train": _tsv_lines(8, 0), "dev": _tsv_lines(6, 3)}
    for name, edit in edits:
        files[name] = _edit(files[name], edit)
    for name, lines in files.items():
        (tmp / f"{name}.tsv").write_bytes(b"".join(line + b"\n" for line in lines))
    doc = {
        "out_dir": "run", "seed": 0, "encoder": {"dim": 4},
        "loss": {"kind": "smooth_k2", "k": 2, "x0": 0.25, "d": 1.0},
        "data": {"train": "train.tsv", "dev": "dev.tsv"},
        "training": {"batch_size": 4, "epochs": 1, "learning_rate": 0.1,
                     "eval_every": 2},
    }
    for (section, key), value in overrides:
        target = doc if section == "" else doc.setdefault(section, {})
        if isinstance(target, dict):  # an earlier override may have replaced it
            target[key] = value
    (tmp / "config.json").write_text(json.dumps(doc))  # NaN, Infinity literals
    return ["train", "--config", "config.json"]


@settings(max_examples=80, deadline=None)
@given(st.one_of(gradcheck_argv(), train_case()))
def test_every_failure_is_one_error_line(case):
    """cli.main on drawn gradcheck flags, train configs and TSV files exits
    0, 1 or 2, raises nothing, and a failing run's stderr ends in its one
    error: line."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp)
        patch.delenv(config_mod.OUT_DIR_ENV, raising=False)
        argv = case if isinstance(case, list) else _train_argv(Path(tmp), *case)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert not any("Traceback" in line for line in lines)
    if code:
        assert lines and lines[-1].startswith("error: ")
        assert sum(line.startswith("error:") for line in lines) == 1
