import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import accuracy_per_pair, golds_per_pair, spearman_bruteforce
from simreg.data import Dataset, SentencePair
from simreg import encoder, evaluation
from simreg.encoder import Model, build_vocab
from simreg.errors import DegenerateInputError, InvalidInputError
from simreg.evaluation import accuracy, cosine, evaluate, spearman
from simreg.labelmap import LabelMapping
from simreg.losses import LossKind, LossSpec
from simreg.training import TrainConfig, train


class StubModel:
    """Duck-typed model whose score is any function of the pair's sentences."""

    def __init__(self, fn, mapping=None):
        self.fn = fn
        self.mapping = mapping

    def encode(self, texts):
        """The pairs of texts given alternately left, right, as s1 and s2."""
        return [SimpleNamespace(s1=s1, s2=s2) for s1, s2 in zip(texts[0::2], texts[1::2])]

    def scores(self, pairs):
        return np.array([self.fn(pair) for pair in pairs])

    def embed_pairs(self, pairs):
        def embed(text):
            return [1.0 + sum(map(ord, text)) % 17, 1.0]

        self.embedded = pairs
        return (np.array([embed(p.s1) for p in pairs]),
                np.array([embed(p.s2) for p in pairs]))

    def head_scores(self, u, v):
        """The scores of the pairs last embedded."""
        assert len(u) == len(v) == len(self.embedded)
        return self.scores(self.embedded)


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([10, 20, 30, 40], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_perfect_inversion(self):
        assert spearman([4, 3, 2, 1], [1, 2, 3, 4]) == pytest.approx(-1.0)

    def test_tied_golds_match_oracle(self):
        value = spearman([1, 3, 2, 4], [1, 2, 2, 4])
        assert value == pytest.approx(0.9486832980505138, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            spearman([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            spearman([1], [1])

    def test_constant_input_raises(self):
        with pytest.raises(DegenerateInputError):
            spearman([1, 1, 1], [1, 2, 3])
        with pytest.raises(DegenerateInputError):
            spearman([1, 2, 3], [5, 5, 5])

    def test_non_finite_input_rejected(self):
        with pytest.raises(InvalidInputError):
            spearman([1.0, float("nan"), 3.0], [1, 2, 3])
        with pytest.raises(InvalidInputError):
            spearman([1, 2, 3], [1.0, float("inf"), 3.0])

    def test_result_never_leaves_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            v = rng.normal(size=8)
            assert -1.0 <= spearman(v, 2.0 * v + 1.0) <= 1.0
            assert -1.0 <= spearman(v, -v) <= 1.0

    def test_random_vectors_match_bruteforce(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            preds = rng.normal(size=n)
            golds = rng.normal(size=n)
            if rng.random() < 0.5:  # inject ties
                preds = np.round(preds * 2) / 2
                golds = np.round(golds * 2) / 2
            if np.all(preds == preds[0]) or np.all(golds == golds[0]):
                continue
            expect = spearman_bruteforce(list(preds), list(golds))
            assert spearman(preds, golds) == pytest.approx(expect, abs=1e-12)

    def test_matches_scipy(self):
        from scipy import stats

        rng = np.random.default_rng(23)
        for _ in range(50):
            preds = np.round(rng.normal(size=30), 1)
            golds = np.round(rng.normal(size=30), 1)
            expect = stats.spearmanr(preds, golds).statistic
            assert spearman(preds, golds) == pytest.approx(expect, abs=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=20, unique=True))
    def test_invariant_under_monotone_transforms(self, values):
        golds = list(range(len(values)))
        base = spearman(values, golds)
        affine = [3.0 * v + 7.0 for v in values]
        cubed = [v ** 3 for v in values]
        exped = [math.exp(v / 50.0) for v in values]
        for transformed in (affine, cubed, exped):
            if len(set(transformed)) < len(values):
                continue  # transform collapsed values; ranks would change
            assert spearman(transformed, golds) == pytest.approx(base, abs=1e-9)

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=15),
        st.lists(st.floats(-10, 10), min_size=2, max_size=15),
    )
    def test_symmetry(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        if n < 2 or len(set(a)) == 1 or len(set(b)) == 1:
            return
        assert spearman(a, b) == pytest.approx(spearman(b, a), abs=1e-12)


class TestCosine:
    def test_identical_vectors(self):
        assert cosine([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_forty_five_degrees(self):
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(math.sqrt(2) / 2)

    @given(st.floats(0.01, 100), st.floats(0.01, 100))
    def test_scale_invariance(self, alpha, beta):
        u = np.array([1.0, 2.0, -0.5])
        v = np.array([0.3, -1.0, 2.0])
        assert cosine(alpha * u, beta * v) == pytest.approx(cosine(u, v), abs=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInputError):
            cosine([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(InvalidInputError):
            cosine([[1.0, 2.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]])


def categorical_ds(name, labels, cats=("low", "mid", "high")):
    pairs = tuple(SentencePair(f"s{i}", f"t{i}", label=l) for i, l in enumerate(labels))
    return Dataset(name, pairs, categories=cats)


def by_label(ds, score_of):
    """A StubModel function scoring each pair of ds by its label."""
    label_of = {p.s1: p.label for p in ds.pairs}
    return lambda p: score_of[label_of[p.s1]]


class TestAccuracy:
    MAPPING = LabelMapping(["low", "mid", "high"], 0.0, 1.0)

    def test_exact_node_predictions_score_one(self):
        ds = categorical_ds("d", ["low", "high", "mid"])
        assert accuracy([0.0, 2.0, 1.0], ds, self.MAPPING) == 1.0

    def test_constant_prediction_on_balanced_set(self):
        ds = categorical_ds("d", ["low", "mid", "high"] * 4)
        scores = np.full(len(ds), 1.1)  # always classifies as "mid"
        assert accuracy(scores, ds, self.MAPPING) == pytest.approx(1 / 3)

    def test_empty_dataset_is_an_error(self):
        ds = Dataset("d", (), categories=("low", "mid", "high"))
        with pytest.raises(InvalidInputError):
            accuracy([], ds, self.MAPPING)

    def test_category_mismatch(self):
        ds = categorical_ds("d", ["x"], cats=("x", "y"))
        with pytest.raises(InvalidInputError):
            accuracy([], ds, self.MAPPING)

    def test_continuous_dataset_rejected(self):
        ds = Dataset("d", (SentencePair("a", "b", score=1.0),), score_range=(0, 5))
        with pytest.raises(InvalidInputError):
            accuracy([], ds, self.MAPPING)


def test_evaluate_and_accuracy_match_per_pair_oracle():
    rng = np.random.default_rng(29)
    cats = ("low", "mid", "high", "top")
    mapping = LabelMapping(cats, -1.0, 0.5)
    datasets = [categorical_ds(f"c{i}", [str(c) for c in rng.choice(cats, size=40)],
                               cats) for i in range(3)]
    datasets.append(Dataset("cont", tuple(
        SentencePair(f"s{i}", f"t{i}", score=float(s))
        for i, s in enumerate(rng.uniform(0, 5, size=40))), score_range=(0.0, 5.0)))
    # predictions on nodes, on midpoints and beyond the terminal nodes
    grid = np.concatenate([np.arange(-2.0, 1.75, 0.25), rng.uniform(-3, 2, size=40)])
    table = {f"s{i}": float(v) for i, v in enumerate(rng.choice(grid, size=40))}
    model = StubModel(lambda p: table[p.s1], mapping)
    report = evaluate(model, datasets)
    for ds, row in zip(datasets, report.per_dataset, strict=True):
        scores = [table[p.s1] for p in ds.pairs]
        expect = spearman_bruteforce(scores, golds_per_pair(ds, mapping))
        assert row.spearman == pytest.approx(expect, abs=1e-12)
        if ds.is_categorical:
            assert row.accuracy == accuracy_per_pair(scores, ds, mapping)
            assert accuracy(scores, ds, mapping) == row.accuracy
        else:
            assert row.accuracy is None


class TestGoldClasses:
    """Cross-entropy targets, golds and accuracy turn labels into classes
    alike (evaluation.gold_classes)."""

    # "c" is the first label in pair order that the mapping lacks, "b" the
    # first in category order
    UNKNOWN = categorical_ds("d", ["a", "c", "b", "a"], cats=("a", "b", "c"))
    AZ = LabelMapping(("a", "z"), 0.0, 1.0)

    @staticmethod
    def cross_entropy_targets(ds, mapping):
        model = Model.initialize(build_vocab(ds.texts), dim=4, seed=0, n_classes=2,
                                 mapping=mapping)
        train(model, ds, ds, TrainConfig(batch_size=2, seed=0),
              LossSpec(LossKind.CROSS_ENTROPY))

    @pytest.mark.parametrize("convert", [
        cross_entropy_targets,
        evaluation.golds,
        lambda ds, mapping: accuracy(np.zeros(len(ds)), ds, mapping),
        lambda ds, mapping: evaluate(StubModel(lambda p: 0.0, mapping), [ds]),
    ], ids=["cross-entropy-targets", "golds", "accuracy", "evaluate"])
    def test_unknown_label_is_named_by_its_first_pair(self, convert):
        with pytest.raises(InvalidInputError, match=r"^d: unknown category: 'c'$"):
            convert(self.UNKNOWN, self.AZ)

    def test_no_mapping_is_named(self):
        for convert in (evaluation.golds, evaluation.gold_classes,
                        lambda ds, mapping: accuracy([0.0] * len(ds), ds, mapping)):
            with pytest.raises(InvalidInputError, match=r"^d needs a label mapping$"):
                convert(self.UNKNOWN, None)

    def test_unused_category_needs_no_node(self):
        rng = np.random.default_rng(31)
        mapping = LabelMapping(("low", "mid", "high"), -1.0, 0.5)
        labels = [str(c) for c in rng.choice(mapping.categories, size=40)]
        ds = categorical_ds("d", labels, cats=("low", "unused", "mid", "high"))
        scores = rng.uniform(-2.0, 1.0, size=len(ds))
        assert evaluation.gold_classes(ds, mapping).tolist() == [
            mapping.categories.index(label) for label in labels]
        assert evaluation.golds(ds, mapping).tolist() == golds_per_pair(ds, mapping)
        assert accuracy(scores, ds, mapping) == accuracy_per_pair(scores, ds, mapping)


class TestEvaluate:
    def make_ds(self, name, scores):
        pairs = tuple(
            SentencePair(f"a{i} b{i}", f"c{i}", score=s) for i, s in enumerate(scores)
        )
        return Dataset(name, pairs, score_range=(0.0, 5.0))

    def test_single_dataset_average(self):
        ds = self.make_ds("only", [0.0, 1.0, 2.0, 3.0])
        model = StubModel(lambda p: float(p.s1[1]))  # index digit = rank signal
        report = evaluate(model, [ds])
        assert report.average == report.per_dataset[0].spearman

    def test_seven_dataset_average_is_arithmetic_mean(self):
        rng = np.random.default_rng(3)
        datasets = [
            self.make_ds(f"fixture{i}", list(rng.uniform(0, 5, size=12)))
            for i in range(7)
        ]
        model = StubModel(lambda p: (sum(map(ord, p.s1)) * 2654435761 % 1000) / 1000.0)
        report = evaluate(model, datasets)
        expect = sum(r.spearman for r in report.per_dataset) / 7
        assert report.average == pytest.approx(expect, abs=1e-15)
        per_ds = [
            spearman_bruteforce(
                [model.fn(p) for p in ds.pairs], [p.score for p in ds.pairs]
            )
            for ds in datasets
        ]
        assert report.average == pytest.approx(sum(per_ds) / 7, abs=1e-12)

    def test_categorical_dataset_gets_accuracy(self):
        ds = categorical_ds("c", ["low", "mid", "high"] * 3)
        mapping = LabelMapping(["low", "mid", "high"], 0.0, 1.0)
        model = StubModel(by_label(ds, {"low": 0.1, "mid": 0.9, "high": 2.2}), mapping)
        report = evaluate(model, [ds])
        assert report.per_dataset[0].accuracy == 1.0
        assert report.per_dataset[0].spearman > 0.8
        # ranking by cosine still takes the accuracy from the head scores
        assert evaluate(model, [ds], use_cosine=True).per_dataset[0].accuracy == 1.0

    def test_gold_values_computed_once_per_dataset(self, monkeypatch):
        ds = categorical_ds("c", ["low", "mid", "high"] * 3)
        mapping = LabelMapping(["low", "mid", "high"], 0.0, 1.0)
        model = StubModel(by_label(ds, {"low": 0.1, "mid": 0.9, "high": 2.2}), mapping)
        calls = []
        real = evaluation.gold_classes
        monkeypatch.setattr(evaluation, "gold_classes",
                            lambda *args: calls.append(args) or real(*args))
        evaluate(model, [ds, ds])
        assert len(calls) == 2

    def test_json_round_trip(self):
        ds = self.make_ds("only", [0.0, 1.0, 2.0, 3.0])
        model = StubModel(lambda p: float(p.s1[1]))
        report = evaluate(model, [ds])
        doc = json.loads(report.to_json())
        assert [r["name"] for r in doc["datasets"]] == ["only"]
        row, = report.per_dataset
        assert doc["datasets"][0] == {"name": row.name, "spearman": row.spearman,
                                      "accuracy": row.accuracy, "n_pairs": row.n_pairs}
        assert doc["average"] == report.average

    def test_table_mirrors_benchmark_layout(self):
        ds = self.make_ds("only", [0.0, 1.0, 2.0, 3.0])
        model = StubModel(lambda p: float(p.s1[1]))
        table = evaluate(model, [ds]).format_table()
        lines = table.splitlines()
        assert len(lines) == 2  # datasets across the header, one spearman row
        assert "only" in lines[0] and lines[0].rstrip().endswith("Avg.")
        assert lines[1].startswith("spearman")

    def test_table_adds_accuracy_row_for_categorical(self):
        ds = categorical_ds("c", ["low", "mid", "high"] * 3)
        mapping = LabelMapping(["low", "mid", "high"], 0.0, 1.0)
        model = StubModel(by_label(ds, {"low": 0.1, "mid": 0.9, "high": 2.2}), mapping)
        lines = evaluate(model, [ds]).format_table().splitlines()
        assert len(lines) == 3
        assert lines[2].startswith("accuracy")

    def test_cosine_mode_uses_embeddings(self):
        ds = self.make_ds("only", [0.0, 1.0, 2.0, 3.0])
        model = StubModel(lambda p: 0.0)  # constant head would raise
        report = evaluate(model, [ds], use_cosine=True)
        assert -1.0 <= report.average <= 1.0

    def test_cosine_eval_pools_each_dataset_once(self, monkeypatch):
        cats = LabelMapping(["low", "mid", "high"], 0.0, 1.0)
        categorical = categorical_ds("c", ["low", "mid", "high", "mid"])
        continuous = self.make_ds("s", [0.0, 1.0, 2.0, 3.0])
        texts = [t for ds in (categorical, continuous) for p in ds.pairs
                 for t in (p.s1, p.s2)]
        model = Model.initialize(build_vocab(texts), dim=4, seed=2, mapping=cats)
        expected = [
            (spearman(cosine(*model.embed_pairs(model.encode(ds.texts))),
                      evaluation.golds(ds, cats)),
             accuracy(model.head_scores(*model.embed_pairs(model.encode(ds.texts))),
                      ds, cats)
             if ds.is_categorical else None)
            for ds in (categorical, continuous)]
        calls = []
        real = encoder.pool
        monkeypatch.setattr(encoder, "pool",
                            lambda *args: calls.append(args) or real(*args))
        report = evaluate(model, [categorical, continuous], use_cosine=True)
        assert len(calls) == 2
        assert [(r.spearman, r.accuracy) for r in report.per_dataset] == expected

    def test_no_datasets_rejected(self):
        with pytest.raises(InvalidInputError):
            evaluate(StubModel(lambda p: 0.0), [])
