import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    DenseAdam,
    classes_per_pair,
    copy_params,
    head_forward_backward,
    join_head,
    pooling_matrix,
    sgd_step_dense,
    take,
    zero_gradients,
)
from simreg import encoder, evaluation, training
from simreg.data import Dataset, SentencePair
from simreg.encoder import (
    Corpus,
    FeatureMode,
    Gradients,
    Model,
    build_vocab,
    head_parts,
    init_params,
    prepare_forward_backward,
    tokenize_pairs,
)
from simreg.errors import DegenerateInputError, InvalidInputError, TrainingError
from simreg.evaluation import evaluate, golds
from simreg.gradcheck import ALL_KINDS, ALL_MODES, draw_configuration
from simreg.labelmap import LabelMapping
from simreg.losses import LossKind, LossSpec
from simreg.synth import ORDINAL_CATEGORIES, make_ordinal_corpus
from simreg.training import (
    AdamOptimizer,
    SgdOptimizer,
    Stage,
    TrainConfig,
    train,
    two_stage_finetune,
    write_history_csv,
)

K2 = LossSpec(LossKind.SMOOTH_K2, k=2.0, x0=0.25, d=1.0)
NLI = LabelMapping(("c", "n", "e"), 0.0, 1.0)  # stage 1's mapping in TestTwoStage


def tiny_corpus():
    rows = [
        (0.0, "red apple on table", "orange bird in sky"),
        (1.0, "red apple on table", "red pear on shelf"),
        (2.0, "red apple on table", "red apple on shelf"),
        (3.0, "red apple on table", "table on apple red"),
        (0.0, "blue fish swims deep", "dry sand in desert"),
        (2.0, "blue fish swims deep", "blue fish swims fast"),
        (3.0, "blue fish swims deep", "deep swims fish blue"),
        (1.0, "blue fish swims deep", "blue boat floats away"),
    ]
    pairs = tuple(SentencePair(s1, s2, score=r) for r, s1, s2 in rows)
    return Dataset("tiny", pairs, score_range=(0.0, 3.0))


@pytest.fixture
def corpus():
    return tiny_corpus()


@pytest.fixture
def model(corpus):
    vocab = build_vocab([s for p in corpus.pairs for s in (p.s1, p.s2)])
    return Model.initialize(vocab, dim=8, seed=13, label_range=(0.0, 3.0))


def take_step(optimizer, params, grads):
    """One update of the arrays of TRAINED that grads holds a gradient of,
    by an updater the optimizer prepares for them."""
    names = [name for name in training.TRAINED if getattr(grads, name) is not None]
    optimizer.updater(params, names)(grads)


class TestSgdStep:
    def test_zero_gradient_is_identity(self, model):
        params = copy_params(model.params)
        take_step(SgdOptimizer(0.5), params, zero_gradients(params))
        np.testing.assert_array_equal(params.embeddings, model.params.embeddings)
        np.testing.assert_array_equal(params.head_weights, model.params.head_weights)

    def test_scalar_update(self, model):
        params = copy_params(model.params)
        params.head_bias[...] = 1.0
        grads = zero_gradients(params)
        head_parts(grads.head, params.weights_shape)[1][...] = 2.0
        take_step(SgdOptimizer(0.1), params, grads)
        assert float(params.head_bias) == pytest.approx(0.8)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_no_embedding_gradient_leaves_the_table_bit_identical(self, model,
                                                                  optimizer):
        params = copy_params(model.params)
        opt = SgdOptimizer(0.1) if optimizer == "sgd" else AdamOptimizer(0.1)
        grads = zero_gradients(params)
        grads.embeddings[:] = 1.0
        head_parts(grads.head, params.weights_shape)[0][:] = 1.0
        take_step(opt, params, grads)  # Adam's table moments are nonzero from here on
        table, head = params.embeddings.copy(), params.head_weights.copy()
        grads = dataclasses.replace(grads, embeddings=None, rows=None)
        take_step(opt, params, grads)
        assert params.embeddings.tobytes() == table.tobytes()
        assert not np.array_equal(params.head_weights, head)


class TestAdam:
    def test_head_only_freezes_embeddings_and_moments(self, model):
        params = copy_params(model.params)
        opt = AdamOptimizer(0.01)
        grads = dataclasses.replace(zero_gradients(params), embeddings=None, rows=None)
        head_parts(grads.head, params.weights_shape)[0][:] = 1.0
        take_step(opt, params, grads)
        np.testing.assert_array_equal(params.embeddings, model.params.embeddings)
        assert not np.array_equal(params.head_weights, model.params.head_weights)
        # no moments or buffers exist for the table
        assert "embeddings" not in opt.state
        assert model.params.embeddings.shape not in [a.shape for a in arrays_in(opt)]

    def test_step_direction(self, model):
        params = copy_params(model.params)
        before = params.head_weights.copy()
        opt = AdamOptimizer(0.01)
        grads = zero_gradients(params)
        head_parts(grads.head, params.weights_shape)[0][:] = 1.0
        take_step(opt, params, grads)
        assert np.all(params.head_weights < before)

    def test_joint_step_holds_only_the_moments_and_scratch_of_the_table(self,
                                                                        model):
        params = copy_params(model.params)
        opt = AdamOptimizer(0.01)
        take_step(opt, params, zero_gradients(params))
        shapes = [a.shape for a in arrays_in(opt)]
        # m, v and two scratch buffers: no table-sized gradient
        assert shapes.count(params.embeddings.shape) == 4


def assert_same_params(a, b):
    for name in encoder.PARAM_NAMES:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def arrays_in(obj) -> list:
    """Every numpy array reachable from obj through attributes and containers."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif hasattr(obj, "__dict__"):
        obj = list(vars(obj).values())
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in arrays_in(item)]
    return []


WORDS = [f"w{i}" for i in range(12)]


def random_batch_grads(rng, params, vocab):
    """Row-sparse gradients of a random MSE batch drawn from rng."""
    batch = int(rng.integers(1, 5))
    texts = [" ".join(rng.choice(WORDS, size=int(rng.integers(1, 5))))
             for _ in range(2 * batch)]
    step = prepare_forward_backward(params, FeatureMode.UV_ABS_DIFF, LossSpec(LossKind.MSE))
    _, grads = step(tokenize_pairs(texts, vocab).pooling, rng.uniform(0.0, 3.0, size=batch))
    return grads


def densified(grads, vocab_size, weights_shape):
    embeddings = np.zeros((vocab_size, grads.embeddings.shape[1]))
    embeddings[grads.rows] = grads.embeddings
    weights, bias = head_parts(grads.head, weights_shape)
    return {"embeddings": embeddings, "head_weights": weights, "head_bias": bias}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["sgd", "adam"]),
       st.sampled_from(list(Stage)), st.floats(1e-4, 2.0))
def test_row_sparse_steps_match_dense_oracle(seed, optimizer, stage, lr):
    rng = np.random.default_rng(seed)
    vocab = build_vocab([" ".join(WORDS)])
    params = init_params(len(vocab), int(rng.integers(2, 6)),
                         FeatureMode.UV_ABS_DIFF, seed, label_range=(0.0, 3.0))
    expect, start = copy_params(params), copy_params(params)
    names = [n for n in ("embeddings", "head_weights", "head_bias")
             if stage is Stage.JOINT or n != "embeddings"]
    if optimizer == "sgd":
        opt = SgdOptimizer(lr)
    else:
        opt, oracle = AdamOptimizer(lr), DenseAdam(expect, lr)
    # long runs leave rows untouched for many steps before they come back;
    # every gradient is taken at the start, so a large lr cannot diverge
    for _ in range(int(rng.integers(1, 41))):
        grads = random_batch_grads(rng, start, vocab)
        dense = densified(grads, len(vocab), params.weights_shape)
        if stage is Stage.HEAD_ONLY:  # the frozen stage computes no table gradient
            grads = dataclasses.replace(grads, embeddings=None, rows=None)
        take_step(opt, params, grads)
        if optimizer == "sgd":
            sgd_step_dense(expect, dense, lr, names)
        else:
            oracle.step(expect, dense, names)
    for name in ("embeddings", "head_weights", "head_bias"):
        assert getattr(params, name).tobytes() == getattr(expect, name).tobytes()


def test_adam_on_a_row_untouched_for_long_runs_matches_dense_oracle():
    vocab = build_vocab([" ".join(WORDS)])
    params = init_params(len(vocab), 4, FeatureMode.UV_ABS_DIFF, 3,
                         label_range=(0.0, 3.0))
    expect = copy_params(params)
    opt, oracle = AdamOptimizer(0.05), DenseAdam(expect, 0.05)
    rng = np.random.default_rng(7)
    rare, edge = 5, np.array([-0.0, 5e-324, -5e-324, 1e-300])
    for step in range(1, 61):
        rows = np.array([0, 2, rare] if step in (1, 30) else [0, 2])
        embeddings = rng.normal(size=(len(rows), 4))
        if step in (1, 30):
            embeddings[-1] = edge if step == 1 else -edge
        grads = Gradients(embeddings, rows, join_head(
            rng.normal(size=params.head_weights.shape), edge[step % 4])[0])
        oracle.step(expect, densified(grads, len(vocab), params.weights_shape),
                    encoder.PARAM_NAMES)
        take_step(opt, params, grads)
    assert_same_params(params, expect)
    moments = [a for m, v, _, _ in opt.state.values() for a in (m, v)]
    assert not any(np.any((a == 0) & np.signbit(a)) for a in moments)


# the most any table entry moves in the descent test's one step
DESCENT_STEP = 1e-7


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("seed", range(4))
def test_one_table_step_goes_downhill(seed, optimizer):
    """One optimizer step of the embedding table alone, so small that no
    entry moves by more than DESCENT_STEP, lowers the batch loss of every
    drawn gradient-check configuration with a nonzero table gradient: a
    step in the gradient's direction instead of against it fails here."""
    stepped, uphill = 0, []
    for kind in ALL_KINDS:
        for mode in ALL_MODES:
            params, tokens, targets, spec = draw_configuration(seed, kind, mode)
            step = prepare_forward_backward(params, mode, spec)
            before, grads = step(tokens.pooling, targets)
            largest = np.abs(grads.embeddings).max()
            if largest == 0.0:  # every residual in the buffer: nothing to step
                continue
            # SGD's largest move is lr * largest; Adam's first moves are
            # lr * g / (|g| + eps), each under lr
            opt = (SgdOptimizer(DESCENT_STEP / largest) if optimizer == "sgd"
                   else AdamOptimizer(DESCENT_STEP))
            table = params.embeddings.copy()
            opt.updater(params, ("embeddings",))(grads)
            assert np.abs(params.embeddings - table).max() <= DESCENT_STEP * (1 + 1e-9)
            after, _ = step(tokens.pooling, targets)
            stepped += 1
            if not after < before:
                uphill.append(f"{kind.value}/{mode.value}: {before!r} -> {after!r}")
    assert not uphill
    assert stepped >= len(ALL_KINDS) * len(ALL_MODES) // 2


class TestTrain:
    @pytest.mark.parametrize("stage", list(Stage))
    def test_embedding_gradient_only_when_the_encoder_trains(self, model, corpus,
                                                             stage, monkeypatch):
        rows = []
        prepare = SgdOptimizer.updater

        def recorded(self, params, names):
            """The stage's updater, recording the gradients of each step."""
            update = prepare(self, params, names)

            def call(grads):
                rows.append(grads.rows)
                assert (grads.rows is None) == (grads.embeddings is None)
                return update(grads)
            return call

        monkeypatch.setattr(SgdOptimizer, "updater", recorded)
        cfg = TrainConfig(batch_size=4, epochs=1, learning_rate=0.1, seed=1)
        train(model, corpus, corpus, cfg, K2, stage)
        assert len(rows) == 2
        if stage is Stage.JOINT:
            assert all(r is not None and len(r) for r in rows)
        else:
            assert all(r is None for r in rows)

    def test_head_only_computes_no_encoder_gradient(self, model, corpus,
                                                    monkeypatch):
        calls = []
        for mode, (combine, split) in list(encoder._FEATURE_MAPS.items()):
            counted = lambda *args, split=split: calls.append(args) or split(*args)
            monkeypatch.setitem(encoder._FEATURE_MAPS, mode, (combine, counted))
        cfg = TrainConfig(batch_size=4, epochs=2, learning_rate=0.1, seed=1)
        train(model, corpus, corpus, cfg, K2, Stage.HEAD_ONLY)
        assert calls == []
        train(model, corpus, corpus, cfg, K2, Stage.JOINT)
        assert len(calls) == 4  # the spy sees every joint step

    def test_head_only_adam_holds_no_array_of_the_table(self, model, corpus,
                                                         monkeypatch):
        made = []

        class Recorded(AdamOptimizer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(training, "AdamOptimizer", Recorded)
        cfg = TrainConfig(batch_size=4, epochs=1, learning_rate=0.1, seed=1,
                          optimizer="adam")
        table = model.params.embeddings.shape
        for stage in (Stage.HEAD_ONLY, Stage.JOINT):
            train(model, corpus, corpus, cfg, K2, stage)
        frozen, joint = ([a.shape for a in arrays_in(opt)] for opt in made)
        assert frozen and table not in frozen
        assert table in joint  # the joint stage's moments cover the table
        # one set of moments for the flat head, one for the table
        assert [list(opt.state) for opt in made] == [["head"], ["embeddings", "head"]]

    @pytest.mark.parametrize("stage", list(Stage), ids=lambda s: s.value)
    def test_corpus_with_other_texts_changes_nothing(self, model, corpus, stage):
        other = make_ordinal_corpus(30, seed=5)
        model = dataclasses.replace(model, max_tokens=3)
        cfg = TrainConfig(batch_size=3, epochs=2, learning_rate=0.1, seed=4,
                          eval_every=2, optimizer="adam")
        # another dataset's texts come first, so every word id differs
        shared = Corpus(other.texts + corpus.texts)
        alone = train(model, corpus, corpus, cfg, K2, stage)
        given = train(model, corpus, corpus, cfg, K2, stage, corpus=shared)
        assert given.history == alone.history
        assert_same_params(given.best_model.params, alone.best_model.params)

    def test_corpus_lacking_a_dev_text_rejected(self, model, corpus):
        dev = Dataset("dev", (SentencePair("red apple on table", "green frog leaps",
                                           score=1.0),), score_range=(0.0, 3.0))
        cfg = TrainConfig(batch_size=4, epochs=1, learning_rate=0.1, seed=1)
        with pytest.raises(InvalidInputError,
                           match="text not in the corpus: 'green frog leaps'"):
            train(model, corpus, dev, cfg, K2,
                  corpus=Corpus(corpus.texts))

    def test_head_only_shares_the_input_table_read_only(self, model, corpus):
        cfg = TrainConfig(batch_size=4, epochs=2, learning_rate=0.1, seed=1)
        frozen = train(model, corpus, corpus, cfg, K2, Stage.HEAD_ONLY).best_model
        table = frozen.params.embeddings
        assert np.shares_memory(table, model.params.embeddings)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0
        assert model.params.embeddings.flags.writeable
        assert not np.shares_memory(frozen.params.head_weights,
                                    model.params.head_weights)
        joint = train(model, corpus, corpus, cfg, K2, Stage.JOINT).best_model
        assert not np.shares_memory(joint.params.embeddings, model.params.embeddings)

    def test_info_nce_shares_the_input_head_read_only(self, model, corpus):
        cfg = TrainConfig(batch_size=4, epochs=2, learning_rate=0.1, seed=1)
        result = train(model, corpus, corpus, cfg, LossSpec(LossKind.INFO_NCE, tau=0.5))
        assert result.best_dev > result.history[0].dev_spearman  # the table moved
        best = result.best_model.params
        assert np.shares_memory(best.head, model.params.head)
        with pytest.raises(ValueError, match="read-only"):
            best.head[0] = 1.0
        assert model.params.head.flags.writeable
        assert not np.shares_memory(best.embeddings, model.params.embeddings)

    def test_head_only_leaves_embeddings_bit_identical(self, model, corpus):
        cfg = TrainConfig(batch_size=4, epochs=2, learning_rate=0.1, seed=1)
        result = train(model, corpus, corpus, cfg, K2, Stage.HEAD_ONLY)
        np.testing.assert_array_equal(
            result.best_model.params.embeddings, model.params.embeddings
        )
        assert not np.array_equal(
            result.best_model.params.head_weights, model.params.head_weights
        ) or result.best_dev == result.history[0].dev_spearman

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("spec", [K2, LossSpec(LossKind.L1)], ids=["k2", "l1"])
    def test_head_only_matches_per_batch_forward_backward(self, model, corpus,
                                                          optimizer, spec,
                                                          monkeypatch):
        # every evaluation is a new best, so the best checkpoint is the last step
        rising = iter(range(1000))
        monkeypatch.setattr(training, "_dev_score", lambda *args: float(next(rising)))
        cfg = TrainConfig(batch_size=3, epochs=3, learning_rate=0.1, seed=4,
                          eval_every=2, optimizer=optimizer)
        result = train(model, corpus, corpus, cfg, spec, Stage.HEAD_ONLY)

        # oracle: pool every batch again through a prepared joint step
        params = copy_params(model.params)
        opt = (AdamOptimizer(cfg.learning_rate) if optimizer == "adam"
               else SgdOptimizer(cfg.learning_rate))
        tokens = tokenize_pairs(corpus.texts, model.vocab)
        targets = np.array([pair.score for pair in corpus.pairs])
        rng = np.random.default_rng(cfg.seed)
        losses = []
        for _ in range(cfg.epochs):
            perm = rng.permutation(len(corpus))
            for start in range(0, len(corpus), cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                value, grads = prepare_forward_backward(
                    params, model.feature_mode, spec, corpus.score_range)(
                    pooling_matrix(take(tokens, idx)), targets[idx])
                # the encoder is frozen
                grads = dataclasses.replace(grads, embeddings=None, rows=None)
                take_step(opt, params, grads)
                losses.append(value)
        best = result.best_model.params
        assert best.embeddings.tobytes() == model.params.embeddings.tobytes()
        assert not np.array_equal(best.head_weights, model.params.head_weights)
        for name in ("head_weights", "head_bias"):
            np.testing.assert_allclose(getattr(best, name), getattr(params, name),
                                       rtol=0, atol=1e-12)
        np.testing.assert_allclose([e.train_loss for e in result.history[1:]], losses,
                                   rtol=0, atol=1e-12)

    def test_zero_learning_rate_returns_initial_params(self, model, corpus):
        cfg = TrainConfig(batch_size=4, epochs=2, learning_rate=0.0, seed=1)
        result = train(model, corpus, corpus, cfg, K2, Stage.JOINT)
        np.testing.assert_array_equal(
            result.best_model.params.embeddings, model.params.embeddings
        )
        np.testing.assert_array_equal(
            result.best_model.params.head_weights, model.params.head_weights
        )
        devs = [e.dev_spearman for e in result.history if e.dev_spearman is not None]
        assert len(set(devs)) == 1  # flat history

    def test_input_model_never_mutated(self, model, corpus):
        snapshot = copy_params(model.params)
        cfg = TrainConfig(batch_size=4, epochs=1, learning_rate=0.3, seed=1)
        train(model, corpus, corpus, cfg, K2, Stage.JOINT)
        np.testing.assert_array_equal(model.params.embeddings, snapshot.embeddings)
        np.testing.assert_array_equal(model.params.head_weights, snapshot.head_weights)

    def test_overfits_single_pair_to_exact_zero_loss(self, model, corpus):
        single = Dataset("one", (corpus.pairs[2],), score_range=(0.0, 3.0))
        cfg = TrainConfig(batch_size=1, epochs=300, learning_rate=0.2, seed=3,
                          eval_every=1000)
        result = train(model, single, corpus, cfg, K2, Stage.JOINT)
        losses = [e.train_loss for e in result.history if e.train_loss is not None]
        assert losses[-1] == 0.0  # buffer zone absorbs the residual exactly

    def test_determinism(self, model, corpus):
        cfg = TrainConfig(batch_size=4, epochs=2, learning_rate=0.1, seed=9)
        a = train(model, corpus, corpus, cfg, K2, Stage.JOINT)
        b = train(model, corpus, corpus, cfg, K2, Stage.JOINT)
        np.testing.assert_array_equal(
            a.best_model.params.embeddings, b.best_model.params.embeddings
        )
        assert a.history == b.history

    def test_best_is_argmax_of_history(self, model, corpus):
        cfg = TrainConfig(batch_size=2, epochs=3, learning_rate=0.2, seed=5,
                          eval_every=2)
        result = train(model, corpus, corpus, cfg, K2, Stage.JOINT)
        devs = [e.dev_spearman for e in result.history if e.dev_spearman is not None]
        assert result.best_dev == max(devs)

    def test_divergence_aborts_with_training_error(self, model, corpus):
        cfg = TrainConfig(batch_size=4, epochs=50, learning_rate=1e12, seed=1,
                          eval_every=10**9, clamp_predictions=False)
        # the overflow on the way is silent: the error says what went wrong
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrainingError):
                train(model, corpus, corpus, cfg, LossSpec(LossKind.MSE), Stage.JOINT)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_empty_dataset_rejected(self, model, corpus):
        empty = Dataset("none", (), score_range=(0.0, 3.0))
        cfg = TrainConfig()
        with pytest.raises(InvalidInputError):
            train(model, empty, corpus, cfg, K2)
        with pytest.raises(InvalidInputError):
            train(model, corpus, empty, cfg, K2)

    def test_categorical_corpus_with_mapping(self):
        train_ds = make_ordinal_corpus(80, seed=4)
        mapping = LabelMapping(ORDINAL_CATEGORIES, 0.0, 1.0)
        vocab = build_vocab([s for p in train_ds.pairs for s in (p.s1, p.s2)])
        model = Model.initialize(vocab, dim=8, seed=0, mapping=mapping)
        cfg = TrainConfig(batch_size=8, epochs=1, learning_rate=0.05, seed=0)
        result = train(model, train_ds, train_ds, cfg, K2, Stage.JOINT, mapping)
        assert len(result.history) >= 2

    @pytest.mark.parametrize("stage", list(Stage), ids=lambda s: s.value)
    def test_a_head_the_loss_cannot_use_is_rejected_before_any_step(self, stage,
                                                                     monkeypatch):
        # a regression head for cross-entropy: an input error, not a divergence
        train_ds = make_ordinal_corpus(40, seed=4)
        mapping = LabelMapping(ORDINAL_CATEGORIES, 0.0, 1.0)
        model = Model.initialize(build_vocab(train_ds.texts), dim=4, seed=0,
                                 mapping=mapping)
        monkeypatch.setattr(training, "_dev_score", pytest.fail)
        cfg = TrainConfig(batch_size=8, epochs=1, learning_rate=0.05, seed=0)
        with pytest.raises(InvalidInputError, match="needs a classification head"):
            train(model, train_ds, train_ds, cfg, LossSpec(LossKind.CROSS_ENTROPY),
                  stage, mapping)

    def test_categorical_corpus_without_a_mapping_rejected(self, monkeypatch):
        # no mapping given and none carried by the model: no spacing is assumed
        train_ds = make_ordinal_corpus(40, seed=4)
        model = Model.initialize(build_vocab(train_ds.texts), dim=4, seed=0)
        monkeypatch.setattr(training, "_dev_score", pytest.fail)
        cfg = TrainConfig(batch_size=8, epochs=1, learning_rate=0.05, seed=0)
        for stage in Stage:
            with pytest.raises(InvalidInputError, match="needs a label mapping"):
                train(model, train_ds, train_ds, cfg, K2, stage)

    def test_mapping_missing_a_category_rejected(self):
        train_ds = make_ordinal_corpus(40, seed=4)
        partial = LabelMapping(ORDINAL_CATEGORIES[:3], 0.0, 1.0)
        vocab = build_vocab([s for p in train_ds.pairs for s in (p.s1, p.s2)])
        model = Model.initialize(vocab, dim=8, seed=0)
        cfg = TrainConfig(batch_size=8, epochs=1, learning_rate=0.05, seed=0)
        with pytest.raises(InvalidInputError, match="highly relevant"):
            train(model, train_ds, train_ds, cfg, K2, Stage.JOINT, partial)
        model.mapping = partial
        with pytest.raises(InvalidInputError, match="highly relevant"):
            train(model, train_ds, train_ds, cfg, K2, Stage.JOINT)

    @pytest.mark.parametrize("mapping", [
        None, LabelMapping(("a", "b", "c", "d"), 0.0, 1.0),  # a node for every score
    ], ids=["no-mapping", "scores-on-nodes"])
    def test_cross_entropy_needs_categorical_targets(self, corpus, mapping):
        vocab = build_vocab([s for p in corpus.pairs for s in (p.s1, p.s2)])
        # a classification head needs a mapping; without one the model regresses
        model = Model.initialize(vocab, dim=8, seed=2, mapping=mapping,
                                 n_classes=None if mapping is None else 4)
        cfg = TrainConfig(batch_size=4, epochs=1, learning_rate=0.05, seed=2)
        with pytest.raises(InvalidInputError, match="categorical targets"):
            train(model, corpus, corpus, cfg, LossSpec(LossKind.CROSS_ENTROPY))

    def test_cross_entropy_names_the_first_pair_of_an_unknown_class(self):
        # "c" is the first label in pair order that the mapping lacks, "b"
        # the first in category order
        pairs = [SentencePair(f"w{i}", f"v{i}", label=label)
                 for i, label in enumerate(["a", "c", "b", "a"])]
        ds = Dataset("d", pairs, categories=("a", "b", "c"))
        mapping = LabelMapping(("a", "z"), 0.0, 1.0)
        model = Model.initialize(build_vocab(ds.texts), dim=4, seed=0, n_classes=2,
                                 mapping=mapping)
        cfg = TrainConfig(batch_size=2, epochs=1, learning_rate=0.05, seed=0)
        with pytest.raises(InvalidInputError, match="unknown category: 'c'"):
            train(model, ds, ds, cfg, LossSpec(LossKind.CROSS_ENTROPY))

    @pytest.mark.parametrize("stage", list(Stage))
    def test_dev_errors_name_the_dev_set(self, model, corpus, monkeypatch, stage):
        """As evaluate names a dataset whose score is undefined, at step 0
        and inside the loop.  Inside the loop, a score that training made
        undefined, non-finite or constant predictions alike, is divergence."""
        cfg = TrainConfig(batch_size=4, epochs=1, learning_rate=0.1, seed=1)
        flat = Dataset.from_columns("flat", np.ones(len(corpus)), corpus.s1, corpus.s2,
                                    score_range=corpus.score_range)
        with pytest.raises(DegenerateInputError,
                           match="^flat: rank correlation undefined"):
            train(model, corpus, flat, cfg, K2, stage)
        score = evaluation.spearman
        for error in (InvalidInputError("non-finite prediction"),
                      DegenerateInputError("rank correlation undefined")):
            calls = []

            def failing_after_step_0(*args, calls=calls, error=error):
                calls.append(args)
                if len(calls) > 1:
                    raise error
                return score(*args)

            monkeypatch.setattr(evaluation, "spearman", failing_after_step_0)
            with pytest.raises(TrainingError, match=f"^dev evaluation failed at step 2: "
                                                    f"tiny: {error}$"):
                train(model, corpus, corpus, cfg, K2, stage)

    def test_head_only_info_nce_is_rejected(self, model, corpus, monkeypatch):
        steps = []
        prepare = training.prepare_head_loss
        monkeypatch.setattr(training, "prepare_head_loss",
                            lambda *args: steps.append(args) or prepare(*args))
        cfg = TrainConfig(batch_size=4, epochs=1, learning_rate=0.1, seed=1)
        spec = LossSpec(LossKind.INFO_NCE, tau=0.5)
        for optimizer in ("sgd", "adam"):
            with pytest.raises(InvalidInputError, match="info_nce has no head"):
                train(model, corpus, corpus, dataclasses.replace(cfg, optimizer=optimizer),
                      spec, Stage.HEAD_ONLY)
        assert steps == []

    def test_joint_info_nce_adam_holds_moments_of_the_table_only(self, model, corpus,
                                                                 monkeypatch):
        made = []

        class Recorded(AdamOptimizer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(training, "AdamOptimizer", Recorded)
        cfg = TrainConfig(batch_size=4, epochs=2, learning_rate=0.05, seed=2,
                          optimizer="adam")
        train(model, corpus, corpus, cfg, LossSpec(LossKind.INFO_NCE, tau=0.5))
        (optimizer,) = made
        assert optimizer.t == 4 and list(optimizer.state) == ["embeddings"]

    def test_contrastive_training_runs(self, corpus):
        vocab = build_vocab([s for p in corpus.pairs for s in (p.s1, p.s2)])
        model = Model.initialize(vocab, dim=8, seed=2, label_range=(0.0, 3.0))
        spec = LossSpec(LossKind.INFO_NCE, tau=0.5)
        cfg = TrainConfig(batch_size=4, epochs=2, learning_rate=0.05, seed=2)
        result = train(model, corpus, corpus, cfg, spec, Stage.JOINT)
        assert not np.array_equal(
            result.best_model.params.head_weights, None
        )  # smoke: completes and returns a model
        # the head never participates in the contrastive path
        np.testing.assert_array_equal(
            result.best_model.params.head_weights, model.params.head_weights
        )


SPECS = {
    LossKind.TRANSLATED_RELU: LossSpec(LossKind.TRANSLATED_RELU, k=1.5, x0=0.2, d=1.0),
    LossKind.SMOOTH_K2: K2,
    LossKind.L1: LossSpec(LossKind.L1),
    LossKind.MSE: LossSpec(LossKind.MSE),
    LossKind.CROSS_ENTROPY: LossSpec(LossKind.CROSS_ENTROPY),
    LossKind.INFO_NCE: LossSpec(LossKind.INFO_NCE, tau=0.5),
}


def oracle_train(model, dataset, cfg, spec, stage):
    """The parameters and per-step losses of train on a categorical dataset,
    one batch at a time: the frozen stage pools every sentence once and steps
    on each batch's rows of u and v through the reference head and loss,
    which builds the batch's features itself; the joint stage gathers each
    batch's tokens and builds its pooling matrix on its own."""
    mapping, mode = model.mapping, model.feature_mode
    tokens = tokenize_pairs(dataset.texts, model.vocab, max_tokens=model.max_tokens)
    targets = (classes_per_pair(dataset, mapping)
               if spec.kind is LossKind.CROSS_ENTROPY else golds(dataset, mapping))
    clamp_range = (mapping.low, mapping.high)
    u, v = model.embed_pairs(tokens)
    params = copy_params(model.params)
    opt = (AdamOptimizer(cfg.learning_rate) if cfg.optimizer == "adam"
           else SgdOptimizer(cfg.learning_rate))
    rng = np.random.default_rng(cfg.seed)
    losses = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(dataset))
        for start in range(0, len(dataset), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            if stage is Stage.HEAD_ONLY:
                value, grads, _ = head_forward_backward(
                    params, u[idx], v[idx], targets[idx], mode, spec, clamp_range)
            else:
                value, grads = prepare_forward_backward(params, mode, spec, clamp_range)(
                    pooling_matrix(take(tokens, idx)), targets[idx])
            take_step(opt, params, grads)
            losses.append(value)
    return params, losses


def _oracle_cases():
    """(stage, kind, mode, optimizer) of every case, with ids
    stage-kind[-mode]-optimizer: the default feature mode is left out of its
    ids."""
    for stage in Stage:
        for kind in LossKind:
            if stage is Stage.HEAD_ONLY and kind is LossKind.INFO_NCE:
                continue  # no head to train: TestTrain::test_head_only_info_nce_is_rejected
            for mode in FeatureMode:
                for optimizer in ("adam", "sgd"):
                    parts = (stage.value, kind.value,
                             *([] if mode is FeatureMode.UV_ABS_DIFF else [mode.value]),
                             optimizer)
                    yield pytest.param(stage, kind, mode, optimizer, id="-".join(parts))


@pytest.mark.parametrize("stage, kind, mode, optimizer", _oracle_cases())
def test_train_matches_per_batch_oracle_byte_for_byte(stage, kind, mode, optimizer,
                                                      monkeypatch):
    # every evaluation is a new best, so the best checkpoint is the last step
    rising = iter(range(1000))
    monkeypatch.setattr(training, "_dev_score", lambda *args: float(next(rising)))
    # 35 batches: more than one planning window, the last one short
    dataset = make_ordinal_corpus(69, seed=3)
    mapping = LabelMapping(ORDINAL_CATEGORIES, 0.0, 1.0)
    vocab = build_vocab(dataset.texts)
    n_classes = 4 if kind is LossKind.CROSS_ENTROPY else None
    model = Model.initialize(vocab, dim=6, feature_mode=mode, seed=5, mapping=mapping,
                             n_classes=n_classes)
    model = dataclasses.replace(model, max_tokens=6)
    cfg = TrainConfig(batch_size=2, epochs=2, learning_rate=0.05, seed=7,
                      eval_every=3, optimizer=optimizer)
    assert 69 / cfg.batch_size > encoder._PLAN_WINDOW
    result = train(model, dataset, dataset, cfg, SPECS[kind], stage)
    params, losses = oracle_train(model, dataset, cfg, SPECS[kind], stage)
    assert_same_params(result.best_model.params, params)
    assert [entry.train_loss for entry in result.history[1:]] == losses


@pytest.mark.parametrize("baseline, buffered", [
    (LossSpec(LossKind.L1), LossSpec(LossKind.TRANSLATED_RELU, k=1.0, x0=0.0)),
    (LossSpec(LossKind.MSE), LossSpec(LossKind.SMOOTH_K2, k=1.0, x0=0.0)),
], ids=["l1", "mse"])
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("clamp", [True, False], ids=["clamped", "unclamped"])
def test_baselines_are_the_buffered_losses_at_k1_x0_0(baseline, buffered, optimizer,
                                                      clamp):
    """L1 is translated_relu and MSE smooth_k2 at k = 1, x0 = 0, to the byte:
    the same best model and the same history."""
    train_set = make_ordinal_corpus(40, seed=3)
    dev_set = make_ordinal_corpus(20, seed=4)
    mapping = LabelMapping(ORDINAL_CATEGORIES, 0.0, 1.0)
    model = Model.initialize(build_vocab(train_set.texts + dev_set.texts), dim=6,
                             seed=5, mapping=mapping)
    cfg = TrainConfig(batch_size=4, epochs=2, learning_rate=0.05, seed=7, eval_every=3,
                      clamp_predictions=clamp, optimizer=optimizer)
    expect, got = (train(model, train_set, dev_set, cfg, spec)
                   for spec in (baseline, buffered))
    assert_same_params(got.best_model.params, expect.best_model.params)
    assert got.history == expect.history
    assert got.best_dev == expect.best_dev


@pytest.mark.parametrize("kind, stage", [
    (LossKind.SMOOTH_K2, Stage.JOINT),
    (LossKind.SMOOTH_K2, Stage.HEAD_ONLY),
    (LossKind.CROSS_ENTROPY, Stage.JOINT),
    (LossKind.INFO_NCE, Stage.JOINT),
], ids=["residual-joint", "residual-head-only", "cross-entropy", "info-nce"])
def test_best_dev_is_what_evaluate_reports_for_the_best_model(kind, stage):
    """Checkpoint selection and simreg eval take one measure: the dev
    Spearman coefficient that picks the best model is, bit for bit, the one
    evaluate reports for it (InfoNCE's by cosine), sentences cut alike."""
    train_set, dev = make_ordinal_corpus(128, seed=31), make_ordinal_corpus(40, seed=32)
    mapping = LabelMapping(ORDINAL_CATEGORIES, 0.0, 1.0)
    n_classes = len(ORDINAL_CATEGORIES) if kind is LossKind.CROSS_ENTROPY else None
    model = Model.initialize(build_vocab(train_set.texts), dim=8, seed=31,
                             mapping=mapping, n_classes=n_classes)
    model = dataclasses.replace(model, max_tokens=5)
    cfg = TrainConfig(batch_size=8, epochs=2, learning_rate=0.05, seed=31, eval_every=3,
                      optimizer="adam")
    assert tokenize_pairs(dev.texts, model.vocab).lengths.min() > model.max_tokens
    result = train(model, train_set, dev, cfg, SPECS[kind], stage)
    assert result.best_dev > result.history[0].dev_spearman  # a trained model
    report = evaluate(result.best_model, [dev], use_cosine=kind is LossKind.INFO_NCE)
    assert report.per_dataset[0].spearman == result.best_dev


class TestTwoStage:
    def test_stage1_encoder_equals_initial(self, corpus):
        nli = make_ordinal_corpus(60, seed=6, categories=("c", "n", "e"),
                                  shared_counts=(0, 5, 9))
        vocab = build_vocab(
            [s for p in corpus.pairs for s in (p.s1, p.s2)]
            + [s for p in nli.pairs for s in (p.s1, p.s2)]
        )
        model = Model.initialize(vocab, dim=8, seed=21, label_range=(0.0, 3.0))
        cfg = TrainConfig(batch_size=4, epochs=1, learning_rate=0.1, seed=21)
        result = two_stage_finetune(model, nli, corpus, corpus, cfg, cfg, K2, NLI)
        np.testing.assert_array_equal(
            result.stage1.best_model.params.embeddings, model.params.embeddings
        )

    def test_stage2_dev_at_least_stage1(self, corpus):
        nli = make_ordinal_corpus(60, seed=6, categories=("c", "n", "e"),
                                  shared_counts=(0, 5, 9))
        vocab = build_vocab(
            [s for p in corpus.pairs for s in (p.s1, p.s2)]
            + [s for p in nli.pairs for s in (p.s1, p.s2)]
        )
        model = Model.initialize(vocab, dim=8, seed=21, label_range=(0.0, 3.0))
        cfg = TrainConfig(batch_size=4, epochs=1, learning_rate=0.1, seed=21)
        result = two_stage_finetune(model, nli, corpus, corpus, cfg, cfg, K2, NLI)
        assert result.stage2.best_dev >= result.stage1.best_dev

    def test_categorical_dev_judged_by_the_model_mapping(self):
        # stage 1 trains under the NLI mapping; the dev set's categories are
        # the model's own and need not be NLI categories
        nli = make_ordinal_corpus(60, seed=6, categories=("c", "n", "e"),
                                  shared_counts=(0, 5, 9))
        sts = make_ordinal_corpus(48, seed=7)
        vocab = build_vocab([s for ds in (nli, sts) for p in ds.pairs
                             for s in (p.s1, p.s2)])
        mapping = LabelMapping(ORDINAL_CATEGORIES, 0.0, 1.0)
        model = Model.initialize(vocab, dim=8, seed=21, mapping=mapping)
        cfg = TrainConfig(batch_size=8, epochs=1, learning_rate=0.1, seed=21)
        result = two_stage_finetune(model, nli, sts, sts, cfg, cfg, K2, NLI)
        initial = evaluate(model, [sts]).average
        assert result.stage1.history[0].dev_spearman == pytest.approx(initial, abs=1e-12)

    def test_corpus_with_other_texts_changes_nothing(self, corpus):
        nli = make_ordinal_corpus(60, seed=6, categories=("c", "n", "e"),
                                  shared_counts=(0, 5, 9))
        other = make_ordinal_corpus(30, seed=5)
        vocab = build_vocab(corpus.texts + nli.texts)
        model = Model.initialize(vocab, dim=8, seed=21, label_range=(0.0, 3.0))
        model = dataclasses.replace(model, max_tokens=3)
        cfg = TrainConfig(batch_size=4, epochs=1, learning_rate=0.1, seed=21,
                          eval_every=3)
        joint = TrainConfig(batch_size=4, epochs=2, learning_rate=0.05, seed=21,
                            eval_every=2, optimizer="adam")
        shared = Corpus(other.texts + nli.texts
                        + corpus.texts)
        alone = two_stage_finetune(model, nli, corpus, corpus, cfg, joint, K2, NLI)
        given = two_stage_finetune(model, nli, corpus, corpus, cfg, joint, K2, NLI,
                                   corpus=shared)
        for a, b in ((given.stage1, alone.stage1), (given.stage2, alone.stage2)):
            assert a.history == b.history
            assert_same_params(a.best_model.params, b.best_model.params)

    def test_one_vocabulary_lookup_per_run(self, corpus, monkeypatch):
        nli = make_ordinal_corpus(60, seed=6, categories=("c", "n", "e"),
                                  shared_counts=(0, 5, 9))
        vocab = build_vocab(corpus.texts + nli.texts)
        model = Model.initialize(vocab, dim=8, seed=21, label_range=(0.0, 3.0))
        cfg = TrainConfig(batch_size=4, epochs=1, learning_rate=0.1, seed=21)
        with monkeypatch.context() as patch:
            # the reference looks the word table up again for every dataset
            patch.setattr(Corpus, "vocab_ids",
                          lambda self, vocab: vocab.lookup(self.words))
            every_dataset = two_stage_finetune(model, nli, corpus, corpus, cfg, cfg, K2,
                                               NLI)
        calls = []
        lookup = encoder.Vocabulary.lookup

        def counted(self, words):
            calls.append(self)
            return lookup(self, words)

        monkeypatch.setattr(encoder.Vocabulary, "lookup", counted)
        once = two_stage_finetune(model, nli, corpus, corpus, cfg, cfg, K2, NLI)
        assert calls == [vocab]
        for a, b in ((once.stage1, every_dataset.stage1),
                     (once.stage2, every_dataset.stage2)):
            assert a.history == b.history
            assert_same_params(a.best_model.params, b.best_model.params)

    def test_bit_identical_across_reruns(self, corpus):
        nli = make_ordinal_corpus(60, seed=6, categories=("c", "n", "e"),
                                  shared_counts=(0, 5, 9))
        vocab = build_vocab(
            [s for p in corpus.pairs for s in (p.s1, p.s2)]
            + [s for p in nli.pairs for s in (p.s1, p.s2)]
        )
        model = Model.initialize(vocab, dim=8, seed=21, label_range=(0.0, 3.0))
        cfg = TrainConfig(batch_size=4, epochs=1, learning_rate=0.1, seed=21)
        a = two_stage_finetune(model, nli, corpus, corpus, cfg, cfg, K2, NLI)
        b = two_stage_finetune(model, nli, corpus, corpus, cfg, cfg, K2, NLI)
        np.testing.assert_array_equal(
            a.best_model.params.embeddings, b.best_model.params.embeddings
        )
        np.testing.assert_array_equal(
            a.best_model.params.head_weights, b.best_model.params.head_weights
        )


class TestHistoryCsv:
    def test_blank_cells_for_missing_values(self, tmp_path, model, corpus):
        cfg = TrainConfig(batch_size=4, epochs=1, learning_rate=0.1, seed=1,
                          eval_every=10**9)
        result = train(model, corpus, corpus, cfg, K2, Stage.JOINT)
        path = tmp_path / "history.csv"
        write_history_csv(result.history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,train_loss,dev_spearman"
        assert lines[1].startswith("0,,")  # step 0 has no train loss

    def test_failed_write_keeps_the_old_file(self, tmp_path, model, corpus,
                                             failing_writes):
        cfg = TrainConfig(batch_size=4, epochs=1, learning_rate=0.1, seed=1)
        history = train(model, corpus, corpus, cfg, K2, Stage.JOINT).history
        path = tmp_path / "history.csv"
        write_history_csv(history[:1], path)
        before = path.read_bytes()
        with failing_writes(), pytest.raises(OSError):
            write_history_csv(history, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["history.csv"]


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(batch_size=0)
        with pytest.raises(InvalidInputError):
            TrainConfig(epochs=-1)
        with pytest.raises(InvalidInputError):
            TrainConfig(optimizer="lbfgs")
        with pytest.raises(InvalidInputError):
            TrainConfig(learning_rate=-0.1)
