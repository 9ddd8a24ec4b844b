"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances and runtime budgets are asserted, not logged."""

import json
import math
import time
from operator import attrgetter

import numpy as np
import pytest

from oracles import classify_bruteforce, dedup_bruteforce, spearman_bruteforce
from simreg.cli import main
from simreg.data import Dataset, SentencePair, dedup_filter, save_tsv
from simreg.encoder import FeatureMode, Model, build_vocab, init_params
from simreg.evaluation import evaluate, spearman
from simreg.gradcheck import run_gradient_checks
from simreg.labelmap import LabelMapping, classify
from simreg.losses import (
    LossKind,
    LossSpec,
    info_nce,
    l1_loss,
    mse_loss,
    smooth_k2,
    translated_relu,
)
from simreg.synth import ORDINAL_CATEGORIES, make_ordinal_corpus
from simreg.training import TrainConfig, two_stage_finetune

FOUR = LabelMapping(
    ["irrelevant", "slightly relevant", "moderately relevant", "highly relevant"],
    0.0,
    1.0,
)


def report(number: int, text: str) -> None:
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_01_loss_correctness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(10_000):
        k = float(rng.uniform(0.01, 5.0))
        x0 = float(rng.uniform(0.0, 0.5))
        x = float(rng.uniform(0.0, 3.0))
        tr = LossSpec(LossKind.TRANSLATED_RELU, k=k, x0=x0, d=1.0)
        k2 = LossSpec(LossKind.SMOOTH_K2, k=k, x0=x0, d=1.0)
        tr_value, tr_grad = translated_relu(x, tr)
        k2_value, k2_grad = smooth_k2(x, k2)
        assert abs(tr_value - max(0.0, k * (x - x0))) <= 1e-12
        quadratic = 0.0 if x < x0 else k * (x * x - 2 * x0 * x + x0 * x0)
        assert abs(k2_value - quadratic) <= 1e-12
        if x < x0:
            assert tr_value == 0.0 and tr_grad == 0.0
            assert k2_value == 0.0 and k2_grad == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"loss sweep took {elapsed:.2f}s"
    report(1, f"10^4 random (x, k, x0) match closed forms ({elapsed:.2f}s)")


def test_criterion_02_continuity_at_knot():
    k, x0, eps = 2.0, 0.25, 1e-9
    k2 = LossSpec(LossKind.SMOOTH_K2, k=k, x0=x0, d=1.0)
    tr = LossSpec(LossKind.TRANSLATED_RELU, k=k, x0=x0, d=1.0)
    v_lo, g_lo = smooth_k2(x0 - eps, k2)
    v_hi, g_hi = smooth_k2(x0 + eps, k2)
    assert abs(v_hi - v_lo) < 1e-8 and abs(g_hi - g_lo) < 1e-8
    v_lo, g_lo = translated_relu(x0 - eps, tr)
    v_hi, g_hi = translated_relu(x0 + eps, tr)
    # C0: the jump at the knot (net of the right branch's own k*eps growth)
    assert abs((v_hi - k * eps) - v_lo) < 1e-9
    assert translated_relu(x0, tr)[0] == 0.0
    assert g_hi - g_lo == k
    report(2, "quadratic loss is C1 at the knot; linear loss gradient jumps by "
              "exactly k with no value jump")


def test_criterion_03_reduction_to_baselines():
    tr = LossSpec(LossKind.TRANSLATED_RELU, k=1.0, x0=0.0, d=1.0)
    k2 = LossSpec(LossKind.SMOOTH_K2, k=1.0, x0=0.0, d=1.0)
    for x in np.linspace(0.0, 6.0, 10_000):
        assert abs(translated_relu(x, tr)[0] - l1_loss(x)[0]) <= 1e-12
        assert abs(smooth_k2(x, k2)[0] - mse_loss(x)[0]) <= 1e-12
    report(3, "x0=0, k=1 reduces the buffered losses to L1/MSE on a 10^4 grid")


def test_criterion_04_whole_model_gradient_check():
    start = time.perf_counter()
    results = run_gradient_checks(seeds=range(20))
    elapsed = time.perf_counter() - start
    worst = max(r.max_rel_error for r in results)
    bad = [r.label for r in results if r.max_rel_error > 1e-4]
    assert not bad, f"gradient mismatches: {bad}"
    assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"
    assert len(results) == 20 * 6 * 3
    report(4, f"{len(results)} loss/mode configs, worst rel err {worst:.2e} "
              f"({elapsed:.1f}s)")


def test_criterion_05_rounding_classifier():
    assert classify(FOUR, 2.875) == "highly relevant"
    assert classify(FOUR, 1.333) == "slightly relevant"
    assert classify(FOUR, 1.5) == "moderately relevant"
    for p in np.linspace(-1.0, 4.0, 100_000):
        assert classify(FOUR, p) == classify_bruteforce(FOUR, p)
    report(5, "nearest-node classifier matches the brute-force oracle on 10^5 points")


def test_criterion_06_dedup_filter():
    train = Dataset(
        "train",
        (
            SentencePair("a kite drifts over the beach",
                         "a kite floats above the sand", score=4.1),
            SentencePair("two dogs chase a ball",
                         "a ball is chased by two dogs", score=4.3),
            SentencePair("a train leaves the station",
                         "people wait on the platform", score=2.0),
        ),
        score_range=(0.0, 5.0),
    )
    tests = [
        Dataset(
            "test",
            (
                SentencePair("a kite floats above the sand",
                             "a kite drifts over the beach", score=3.7),
                SentencePair("two dogs chase a ball",
                             "a ball is chased by two dogs", score=3.6),
            ),
            score_range=(0.0, 5.0),
        )
    ]
    filtered, removed = dedup_filter(train, tests)
    assert len(removed) == 2 and len(filtered) == 1
    assert filtered.pairs[0].s1 == "a train leaves the station"
    kept_idx, removed_idx = dedup_bruteforce(train, tests)
    assert [train.pairs[i] for i in kept_idx] == list(filtered.pairs)
    # the fields a SentencePair and a RemovedPair share
    fields = attrgetter("s1", "s2", "score", "label")
    assert [fields(train.pairs[i]) for i in removed_idx] == [fields(r) for r in removed]
    again, removed_again = dedup_filter(filtered, tests)
    assert again.pairs == filtered.pairs and removed_again == []
    report(6, "swapped-order and same-order overlaps removed despite differing "
              "scores; idempotent")


def test_criterion_07_spearman_oracle_equivalence():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 51))
        preds = rng.normal(size=n)
        golds = rng.normal(size=n)
        if rng.random() < 0.5:
            preds = np.round(preds, 1)
            golds = np.round(golds, 1)
        if np.all(preds == preds[0]) or np.all(golds == golds[0]):
            continue
        expect = spearman_bruteforce(list(preds), list(golds))
        assert abs(spearman(preds, golds) - expect) <= 1e-12
        checked += 1
    values = list(rng.uniform(-3, 3, size=25))
    golds = list(range(25))
    base = spearman(values, golds)
    for transform in (lambda v: math.exp(v), lambda v: 2.5 * v + 1.0,
                      lambda v: v ** 3):
        assert spearman([transform(v) for v in values], golds) == pytest.approx(
            base, abs=1e-12
        )
    report(7, "1000 random vectors (with ties) match the rank-then-Pearson oracle; "
              "monotone-transform invariant")


def test_criterion_08_end_to_end_synthetic_regression():
    start = time.perf_counter()
    train_ds = make_ordinal_corpus(2000, seed=11, name="synth-train")
    dev_ds = make_ordinal_corpus(400, seed=12, name="synth-dev")
    mapping = LabelMapping(ORDINAL_CATEGORIES, 0.0, 1.0)
    vocab = build_vocab([s for p in train_ds.pairs for s in (p.s1, p.s2)])
    model = Model.initialize(vocab, dim=32, seed=0, mapping=mapping)
    loss = LossSpec(LossKind.SMOOTH_K2, k=2.0, x0=0.25, d=1.0)
    head_cfg = TrainConfig(batch_size=16, epochs=2, learning_rate=0.2, seed=0,
                           optimizer="adam", eval_every=10**9)
    joint_cfg = TrainConfig(batch_size=16, epochs=2, learning_rate=0.01, seed=0,
                            optimizer="sgd", eval_every=10**9)
    result = two_stage_finetune(model, train_ds, train_ds, dev_ds, head_cfg,
                                joint_cfg, loss, mapping)
    np.testing.assert_array_equal(
        result.stage1.best_model.params.embeddings, model.params.embeddings
    )
    row = evaluate(result.best_model, [dev_ds], mapping).per_dataset[0]
    elapsed = time.perf_counter() - start
    assert row.spearman >= 0.90, f"dev spearman {row.spearman:.4f}"
    assert row.accuracy >= 0.85, f"rounding accuracy {row.accuracy:.4f}"
    assert elapsed < 60.0, f"end-to-end run took {elapsed:.1f}s"
    report(8, f"two-stage run: dev spearman {row.spearman:.4f}, accuracy "
              f"{row.accuracy:.4f}, encoder frozen in stage 1 ({elapsed:.1f}s)")


def test_criterion_09_contrastive_sanity():
    value, da, dp = info_nce([[0.3, -1.2, 0.7]], [[2.0, 0.1, -0.4]], tau=0.07)
    assert value == 0.0 and not da.any() and not dp.any()
    anchors = [[1.0, 0.0], [0.0, 1.0]]
    positives = [[1.0, 0.0], [0.0, 1.0]]
    value, _, _ = info_nce(anchors, positives, tau=1.0)
    expected = -math.log(math.e / (math.e + 1.0))
    assert abs(value - expected) <= 1e-9
    report(9, "batch-1 loss exactly 0; orthogonal batch-2 matches -log(e/(e+1))")


def test_criterion_10_cli_determinism(tmp_path):
    train_ds = make_ordinal_corpus(160, seed=41, name="train")
    dev_ds = make_ordinal_corpus(64, seed=42, name="dev")
    save_tsv(train_ds, tmp_path / "train.tsv")
    save_tsv(dev_ds, tmp_path / "dev.tsv")
    config = {
        "out_dir": str(tmp_path / "unused"),
        "seed": 3,
        "encoder": {"dim": 8},
        "loss": {"kind": "smooth_k2", "k": 2, "x0": 0.25},
        "data": {
            "train": str(tmp_path / "train.tsv"),
            "dev": str(tmp_path / "dev.tsv"),
            "categories": list(ORDINAL_CATEGORIES),
        },
        "training": {"batch_size": 8, "epochs": 1, "learning_rate": 0.05,
                     "optimizer": "adam", "eval_every": 10},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path),
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["train", "--config", str(config_path),
                 "--out", str(tmp_path / "b")]) == 0
    for name in ("checkpoint.json", "history.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name
    report(10, "identical config and seed give byte-identical checkpoint and history")


def test_criterion_11_parameter_counts():
    for dim in (4, 16, 32):
        regression = init_params(10, dim, FeatureMode.UV_ABS_DIFF, seed=0)
        assert regression.head_weight_count == 3 * dim * 1
        for n_classes in (2, 4, 7):
            classifier = init_params(10, dim, FeatureMode.UV_ABS_DIFF, seed=0,
                                     n_classes=n_classes)
            assert classifier.head_weight_count == 3 * dim * n_classes
    report(11, "regression head has 3*dim*1 weights, classification head 3*dim*K")
