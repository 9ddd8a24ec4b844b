import base64
import dataclasses
import inspect
import json
import math
import string
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    copy_params,
    dense_embeddings,
    forward_backward_per_pair,
    head_forward_backward,
    params_of,
    pool_per_sentence,
    pooling_matrix,
    split_words,
    take,
    tokenize_per_token,
)
from simreg import encoder
from simreg.data import SentencePair
from simreg.encoder import (
    Corpus,
    FeatureMode,
    Model,
    ModelParams,
    PairTokens,
    Vocabulary,
    build_vocab,
    feature_dim,
    features,
    forward_backward,
    head_parts,
    init_params,
    load_checkpoint,
    pool,
    prepare_forward_backward,
    prepare_head_loss,
    save_checkpoint,
    tokenize_pairs,
)
from simreg.errors import CheckpointError, InvalidInputError
from simreg.gradcheck import (
    ALL_KINDS,
    _random_spec,
    finite_difference_grads,
    max_relative_error,
)
from simreg.labelmap import LabelMapping
from simreg.losses import LossKind, LossSpec, info_nce
from simreg.synth import make_ordinal_corpus
from simreg.training import AdamOptimizer, SgdOptimizer, _copy_updated


def run(model, batch, spec, clamp_range=None):
    """forward_backward on a list of (SentencePair, target)."""
    pairs = model.encode([text for pair, _ in batch for text in (pair.s1, pair.s2)])
    targets = [target for _, target in batch]
    return forward_backward(model.params, pairs.pooling, targets, model.feature_mode,
                            spec, clamp_range)


def loss_of(model, batch, spec):
    """value_fn for finite_difference_grads: the loss of each stacked
    parameter copy on a list of (SentencePair, target)."""
    pairs = model.encode([text for pair, _ in batch for text in (pair.s1, pair.s2)])
    targets = [target for _, target in batch]
    return lambda params: forward_backward(params, pairs.pooling, targets,
                                           model.feature_mode, spec)[0]


def score(model, pair):
    pairs = model.encode([pair.s1, pair.s2])
    return float(model.head_scores(*model.embed_pairs(pairs))[0])


def token_ids(text, vocab, max_tokens=None):
    """The token ids of one sentence."""
    return tokenize_pairs([text], vocab, max_tokens=max_tokens).ids.tolist()


def one_sentence(ids):
    ids = np.asarray(ids, dtype=np.intp)
    return PairTokens(ids, np.array([len(ids)]))


@pytest.fixture
def vocab():
    return build_vocab(["a man runs", "the dog swims fast", "a cat sleeps"])


@pytest.fixture
def model(vocab):
    return Model.initialize(vocab, dim=6, seed=42, label_range=(0.0, 3.0))


class TestTokenize:
    def test_exact_lookup(self, vocab):
        ids = token_ids("a man runs", vocab)
        assert ids == [vocab.tokens.index(w) for w in ("a", "man", "runs")]

    def test_case_folding_and_punctuation(self, vocab):
        assert token_ids("A MAN runs!", vocab) == token_ids("a man runs", vocab)
        corpus = Corpus(["Hello,world...again"])
        assert [corpus.words[i] for i in corpus.word_ids] == ["hello", "world", "again"]
        assert split_words("Hello,world...again") == ["hello", "world", "again"]

    def test_unknown_maps_to_oov(self, vocab):
        assert token_ids("zebra", vocab) == [vocab.oov_id]

    def test_empty_input_yields_single_oov(self, vocab):
        assert token_ids("", vocab) == [vocab.oov_id]
        assert token_ids("!!!", vocab) == [vocab.oov_id]

    def test_truncation(self, vocab):
        assert len(token_ids("a man runs a man runs", vocab, max_tokens=2)) == 2

    def test_vocab_ids_dense_with_oov(self, vocab):
        assert sorted(vocab._ids.values()) == list(range(len(vocab)))
        assert vocab.oov_id == 1 and vocab.lookup(["<pad>"]).tolist() == [0]

    def test_take_matches_tokenizing_the_chosen_pairs(self, vocab):
        texts = ["a man runs", "", "the dog", "cat cat sleeps", "zebra", "a"]
        picked = take(tokenize_pairs(texts, vocab), [2, 0, 2])
        direct = tokenize_pairs(texts[4:6] + texts[0:2] + texts[4:6], vocab)
        for name in ("ids", "starts", "lengths"):
            np.testing.assert_array_equal(getattr(picked, name), getattr(direct, name))

    def test_text_outside_the_corpus_rejected(self, vocab):
        with pytest.raises(InvalidInputError, match="not in the corpus"):
            tokenize_pairs(["a man", "a cat"], vocab, corpus=Corpus(["a man"]))

    def test_vocab_counts_repeats_but_only_its_own_texts(self):
        texts = ["c", "b b", "c", "C!"]  # c three times, b twice
        shared = Corpus(["b b b", "d"] + texts)
        assert build_vocab(texts, shared) == build_vocab(texts)
        assert build_vocab(texts).tokens == ("<pad>", "<oov>", "c", "b")

    def test_text_without_words_adds_no_token(self):
        assert build_vocab(["", "?!", "a"]).tokens == ("<pad>", "<oov>", "a")
        with pytest.raises(InvalidInputError, match="empty string"):
            Vocabulary(("<pad>", "<oov>", ""))

    def test_vocab_build_is_deterministic(self):
        texts = ["b a a", "c b a"]
        assert build_vocab(texts).tokens == build_vocab(list(texts)).tokens
        # frequency order with alphabetical ties
        assert build_vocab(texts).tokens == ("<pad>", "<oov>", "a", "b", "c")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.text("abzé日ß_0", min_size=1, max_size=2), max_size=6),
                    max_size=8))
    @example([["é", "z"], ["z", "é"], ["日", "a", "a"], ["日"], []])
    def test_vocab_order_matches_the_python_key_sort(self, sentences):
        # a small alphabet, non-ASCII letters in it, gives many count ties
        texts = [" ".join(words) for words in sentences]
        counts = Counter(word for text in texts for word in split_words(text))
        expect = sorted(counts, key=lambda word: (-counts[word], word))
        assert build_vocab(texts).tokens == ("<pad>", "<oov>", *expect)


class TestEmbedSentence:
    def test_single_token_is_its_row(self, model):
        row = model.params.embeddings[3]
        np.testing.assert_array_equal(pool(model.params.embeddings, one_sentence([3]))[0],
                                      row)

    def test_mean_of_two_rows(self):
        table = np.array([[1.0, 3.0], [3.0, 5.0]])
        np.testing.assert_array_equal(pool(table, one_sentence([0, 1])),
                                      np.array([[2.0, 4.0]]))

    def test_permutation_invariance(self, model):
        ids = [2, 3, 4, 2]
        np.testing.assert_allclose(
            pool(model.params.embeddings, one_sentence(ids)),
            pool(model.params.embeddings, one_sentence(list(reversed(ids)))),
        )

    def test_empty_sequence_rejected(self):
        with pytest.raises(InvalidInputError):
            PairTokens(np.array([], dtype=np.intp), np.array([0]))

    def test_ids_must_fill_the_lengths(self):
        with pytest.raises(InvalidInputError, match="3 token ids"):
            PairTokens(np.array([1, 2, 3], dtype=np.intp), np.array([1, 1]))


class TestFeatures:
    u = np.array([1.0, 2.0])
    v = np.array([3.0, 0.0])

    def test_concat_with_abs_diff(self):
        np.testing.assert_array_equal(
            features(self.u, self.v, FeatureMode.UV_ABS_DIFF),
            np.array([1.0, 2.0, 3.0, 0.0, 2.0, 2.0]),
        )

    def test_abs_diff_only(self):
        np.testing.assert_array_equal(
            features(self.u, self.v, FeatureMode.ABS_DIFF), np.array([2.0, 2.0])
        )

    def test_uv_only(self):
        np.testing.assert_array_equal(
            features(self.u, self.v, FeatureMode.UV), np.array([1.0, 2.0, 3.0, 0.0])
        )

    def test_identical_embeddings_zero_tail(self):
        f = features(self.u, self.u, FeatureMode.UV_ABS_DIFF)
        np.testing.assert_array_equal(f[4:], np.zeros(2))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            features(self.u, np.array([1.0, 2.0, 3.0]), FeatureMode.UV)


class TestPredict:
    def test_zero_weights_give_bias(self, vocab):
        params = init_params(len(vocab), 4, FeatureMode.UV_ABS_DIFF, seed=0,
                             label_range=(0.0, 3.0))
        params.head_weights[:] = 0.0
        m = Model(vocab, params, FeatureMode.UV_ABS_DIFF)
        pair = SentencePair("a man", "the dog", score=1.0)
        assert score(m, pair) == float(params.head_bias)

    def test_identical_sentences_absdiff_gives_bias(self, vocab):
        m = Model.initialize(vocab, dim=4, feature_mode=FeatureMode.ABS_DIFF, seed=1,
                             label_range=(0.0, 3.0))
        pair = SentencePair("a man runs", "a man runs", score=1.0)
        assert score(m, pair) == pytest.approx(float(m.params.head_bias))

    def test_matches_manual_dot_product(self, model):
        pair = SentencePair("a man runs", "the dog swims", score=1.0)
        u = model.params.embeddings[token_ids(pair.s1, model.vocab)].mean(axis=0)
        v = model.params.embeddings[token_ids(pair.s2, model.vocab)].mean(axis=0)
        f = np.concatenate([u, v, np.abs(u - v)])
        manual = sum(w * x for w, x in zip(model.params.head_weights, f))
        manual += float(model.params.head_bias)
        assert score(model, pair) == pytest.approx(manual, rel=1e-12)

    def test_absdiff_mode_is_symmetric(self, vocab):
        m = Model.initialize(vocab, dim=5, feature_mode=FeatureMode.ABS_DIFF, seed=9,
                             label_range=(0.0, 3.0))
        a = SentencePair("a man runs", "the dog swims fast", score=1.0)
        b = SentencePair("the dog swims fast", "a man runs", score=1.0)
        assert score(m, a) == pytest.approx(score(m, b), rel=1e-12)

    def test_classifier_predicts_expected_node_value(self, vocab):
        mapping = LabelMapping(["lo", "mid", "hi"], 0.0, 1.0)
        m = Model.initialize(vocab, dim=4, seed=7, n_classes=3, mapping=mapping)
        pair = SentencePair("a man runs", "the dog swims", score=1.0)
        u = m.params.embeddings[token_ids(pair.s1, vocab)].mean(axis=0)
        v = m.params.embeddings[token_ids(pair.s2, vocab)].mean(axis=0)
        logits = m.params.head_weights @ np.concatenate([u, v, np.abs(u - v)])
        logits += m.params.head_bias
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        assert score(m, pair) == pytest.approx(float(probs @ [0.0, 1.0, 2.0]))
        assert 0.0 <= score(m, pair) <= 2.0

    def test_classifier_without_mapping_uses_class_indices(self, vocab):
        m = Model.initialize(vocab, dim=4, seed=7, n_classes=4,
                             label_range=(0.0, 3.0))
        pair = SentencePair("a man runs", "the dog swims", score=1.0)
        assert 0.0 <= score(m, pair) <= 3.0


class TestParameterCounts:
    def test_regression_head_is_three_dim(self):
        params = init_params(10, 16, FeatureMode.UV_ABS_DIFF, seed=0)
        assert params.head_weight_count == 3 * 16

    def test_classification_head_is_three_dim_k(self):
        params = init_params(10, 16, FeatureMode.UV_ABS_DIFF, seed=0, n_classes=4)
        assert params.head_weight_count == 3 * 16 * 4

    def test_reduced_modes(self):
        assert init_params(10, 16, FeatureMode.UV, seed=0).head_weight_count == 2 * 16
        assert init_params(10, 16, FeatureMode.ABS_DIFF, seed=0).head_weight_count == 16

    def test_feature_dim_table(self):
        assert feature_dim(FeatureMode.UV, 8) == 16
        assert feature_dim(FeatureMode.ABS_DIFF, 8) == 8
        assert feature_dim(FeatureMode.UV_ABS_DIFF, 8) == 24

    def test_mode_weight_mismatch_rejected(self, vocab):
        params = init_params(len(vocab), 4, FeatureMode.UV, seed=0)
        with pytest.raises(InvalidInputError):
            Model(vocab, params, FeatureMode.UV_ABS_DIFF)


class TestForwardBackward:
    def test_buffer_zone_zeroes_all_gradients(self, vocab):
        m = Model.initialize(vocab, dim=4, seed=3, label_range=(0.0, 3.0))
        pair = SentencePair("a man", "the dog", score=0.0)
        target = score(m, pair) + 0.1  # residual 0.1 < x0
        spec = LossSpec(LossKind.SMOOTH_K2, k=2.0, x0=0.25)
        value, grads = run(m, [(pair, target)], spec)
        weights, bias = head_parts(grads.head, m.params.weights_shape)
        assert value == 0.0
        assert not grads.embeddings.any()
        assert not weights.any()
        assert not bias.any()

    def test_absent_tokens_have_zero_gradients(self, model):
        pair = SentencePair("a man", "the dog", score=0.0)
        spec = LossSpec(LossKind.MSE)
        _, grads = run(model, [(pair, 3.0)], spec)
        used = set(token_ids(pair.s1, model.vocab) + token_ids(pair.s2, model.vocab))
        dense = dense_embeddings(grads, model.params.vocab_size)
        for row in range(model.params.vocab_size):
            if row not in used:
                assert not dense[row].any()

    def test_repeated_tokens_accumulate(self, model):
        pair = SentencePair("man man man", "the dog", score=0.0)
        _, grads = run(model, [(pair, 3.0)], LossSpec(LossKind.MSE))
        man = model.vocab.tokens.index("man")
        assert dense_embeddings(grads, model.params.vocab_size)[man].any()

    def test_gradient_rows_are_the_batch_token_set(self, model):
        batch = [
            (SentencePair("man man dog", "the a", score=0.0), 3.0),
            (SentencePair("zebra cat", "dog", score=0.0), 1.0),
        ]
        _, grads = run(model, batch, LossSpec(LossKind.MSE))
        ids = {i for pair, _ in batch for text in (pair.s1, pair.s2)
               for i in token_ids(text, model.vocab)}
        assert grads.rows.tolist() == sorted(ids)
        assert grads.embeddings.shape == (len(ids), model.params.dim)

    @pytest.mark.parametrize("mode", list(FeatureMode))
    @pytest.mark.parametrize(
        "kind", [LossKind.TRANSLATED_RELU, LossKind.SMOOTH_K2, LossKind.L1,
                 LossKind.MSE]
    )
    def test_gradients_match_finite_differences(self, vocab, mode, kind):
        m = Model.initialize(vocab, dim=4, feature_mode=mode, seed=11,
                             label_range=(0.0, 3.0))
        batch = [
            (SentencePair("a man runs", "the dog swims", score=0.0), 2.5),
            (SentencePair("cat sleeps fast", "a man", score=0.0), 0.4),
        ]
        spec = (
            LossSpec(kind, k=1.7, x0=0.2)
            if kind in (LossKind.TRANSLATED_RELU, LossKind.SMOOTH_K2)
            else LossSpec(kind)
        )
        _, analytic = run(m, batch, spec)
        fd = finite_difference_grads(loss_of(m, batch, spec), m.params)
        assert max_relative_error(analytic, fd) < 1e-4

    def test_classifier_gradcheck(self, vocab):
        m = Model.initialize(vocab, dim=4, seed=5, n_classes=3,
                             label_range=(0.0, 2.0))
        batch = [
            (SentencePair("a man runs", "the dog swims", score=0.0), 2),
            (SentencePair("cat sleeps", "a man", score=0.0), 0),
        ]
        spec = LossSpec(LossKind.CROSS_ENTROPY)
        _, analytic = run(m, batch, spec)
        fd = finite_difference_grads(loss_of(m, batch, spec), m.params)
        assert max_relative_error(analytic, fd) < 1e-4

    def test_clamped_overshoot_blocks_gradient(self, vocab):
        m = Model.initialize(vocab, dim=4, seed=3, label_range=(0.0, 3.0))
        pair = SentencePair("a man", "the dog", score=0.0)
        m.params.head_bias[...] = 3.8  # raw prediction past the top node
        spec = LossSpec(LossKind.SMOOTH_K2, k=2.0, x0=0.25)

        def bias(grads):
            return head_parts(grads.head, m.params.weights_shape)[1]

        value, grads = run(m, [(pair, 3.0)], spec, clamp_range=(0.0, 3.0))
        assert value == 0.0  # clamped to 3.0, residual 0 within buffer
        assert not bias(grads).any() and not grads.embeddings.any()
        offset = score(m, pair) - 3.8  # the raw prediction without the bias
        # undershoot: clamped up to 0.0, so the residual 1.0 costs but sends nothing
        m.params.head_bias[...] = -0.4 - offset
        value, grads = run(m, [(pair, 1.0)], spec, clamp_range=(0.0, 3.0))
        assert value == pytest.approx(2.0 * 0.75 ** 2)
        assert not bias(grads).any() and not grads.embeddings.any()
        # in range: the prediction 1.5 is not clamped and its gradient flows
        m.params.head_bias[...] = 1.5 - offset
        value, grads = run(m, [(pair, 0.0)], spec, clamp_range=(0.0, 3.0))
        assert value == pytest.approx(2.0 * 1.25 ** 2)
        assert float(bias(grads)) == pytest.approx(2.0 * 2.0 * 1.25)

    def test_empty_batch_rejected(self, model):
        with pytest.raises(InvalidInputError):
            run(model, [], LossSpec(LossKind.MSE))

    def test_head_kind_mismatch_rejected(self, vocab):
        regressor = Model.initialize(vocab, dim=4, seed=0, label_range=(0.0, 3.0))
        classifier = Model.initialize(vocab, dim=4, seed=0, n_classes=3,
                                      label_range=(0.0, 2.0))
        pair = SentencePair("a man", "the dog", score=0.0)
        with pytest.raises(InvalidInputError):
            run(regressor, [(pair, 1)], LossSpec(LossKind.CROSS_ENTROPY))
        with pytest.raises(InvalidInputError):
            run(classifier, [(pair, 1.0)], LossSpec(LossKind.MSE))

    def test_stacked_params_give_values_only(self, model):
        """The parameters alone decide values or gradients: a stack of copies
        gives one loss per copy and None gradients, one set its loss and
        gradients, and no step takes a flag for it."""
        p, mode = model.params, model.feature_mode
        stack = params_of(*(np.stack([a, a]) for a in
                            (p.embeddings, p.head_weights, p.head_bias)))
        assert stack.stack_shape == (2,) and stack.dim == p.dim
        pairs = model.encode(["a man", "the dog"])
        mse = LossSpec(LossKind.MSE)
        for spec in (mse, LossSpec(LossKind.INFO_NCE, tau=0.5)):
            value, grads = forward_backward(p, pairs.pooling, [1.0], mode, spec)
            assert type(value) is float and grads.embeddings is not None
            for values, none in (
                    forward_backward(stack, pairs.pooling, [1.0], mode, spec),
                    prepare_forward_backward(stack, mode, spec)(pairs.pooling, [1.0])):
                assert none is None
                np.testing.assert_array_max_ulp(values, [value, value], maxulp=4)
        rows, S = pairs.pooling
        f = features(*np.split(S.T @ p.embeddings[rows], 2), mode)
        value, d_head, d_out = prepare_head_loss(p, mse)(f, [1.0])
        assert d_head.shape == p.head.shape and d_out.shape == (1,)
        values, d_head, d_out = prepare_head_loss(stack, mse)(f, [1.0])
        assert d_head is None and d_out is None
        np.testing.assert_array_max_ulp(values, [value, value], maxulp=4)
        # clamp_range is the last parameter: a values-or-gradients flag after
        # it, by keyword or by position, is a TypeError
        for fn, args in ((forward_backward, (stack, pairs.pooling, [1.0], mode, mse)),
                         (prepare_forward_backward, (stack, mode, mse)),
                         (prepare_head_loss, (stack, mse))):
            assert list(inspect.signature(fn).parameters)[len(args):] == ["clamp_range"]
            with pytest.raises(TypeError, match="positional argument"):
                fn(*args, None, False)
        with pytest.raises(InvalidInputError):
            ModelParams(stack.embeddings, p.head, p.weights_shape)
        with pytest.raises(InvalidInputError):
            Model(model.vocab, stack, model.feature_mode)


WORDS = [f"w{i}" for i in range(10)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(LossKind)),
       st.sampled_from(list(FeatureMode)), st.booleans())
def test_batched_core_matches_per_pair_oracle(seed, kind, mode, clamp):
    rng = np.random.default_rng(seed)
    vocab = build_vocab([" ".join(WORDS)])
    batch = int(rng.integers(1, 6))
    n_classes = 3 if kind is LossKind.CROSS_ENTROPY else None
    params = init_params(len(vocab), int(rng.integers(2, 6)), mode, seed,
                         n_classes=n_classes)
    if n_classes is None:
        params.head_bias[...] = rng.uniform(-1.0, 4.0)  # some get clamped
        targets = rng.uniform(0.0, 3.0, size=batch)
    else:
        targets = rng.integers(0, n_classes, size=batch)
    spec = _random_spec(rng, kind)
    clamp_range = (0.0, 3.0) if clamp else None
    texts = [" ".join(rng.choice(WORDS, size=int(rng.integers(0, 6))))
             for _ in range(2 * batch)]

    tokens = tokenize_pairs(texts, vocab)
    value, grads = forward_backward(params, tokens.pooling, targets, mode, spec,
                                    clamp_range)
    ids = [(tokenize_per_token(a, vocab), tokenize_per_token(b, vocab))
           for a, b in zip(texts[0::2], texts[1::2])]
    expect, expect_grads = forward_backward_per_pair(
        params, ids, targets, mode.value, spec, clamp_range,
        contrastive=lambda a, p: info_nce(a, p, spec.tau),
    )
    assert abs(value - expect) <= 1e-12
    if kind is LossKind.INFO_NCE:  # no head, so no head gradient
        assert grads.head is None
        heads = tuple(np.zeros_like(a) for a in expect_grads[1:])
    else:
        heads = head_parts(grads.head, params.weights_shape)
    for got, want in zip((dense_embeddings(grads, len(vocab)), *heads), expect_grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


TEXT_PIECES = ["a", "man", "runs", "Dog", "zebra", "QUOKKA", "!!!", ",", "cat's", ""]

# texts per window of Corpus's split: windows' edges between every text, or
# every second or third, and the module's own window, which holds all the
# texts these tests draw
SPLIT_WINDOWS = (1, 2, 3, encoder._SPLIT_WINDOW)


def corpora(texts) -> list[Corpus]:
    """Corpus(texts) built with each window of SPLIT_WINDOWS."""
    built = []
    for window in SPLIT_WINDOWS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoder, "_SPLIT_WINDOW", window)
            built.append(Corpus(texts))
    return built


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from(TEXT_PIECES), max_size=7), min_size=1,
                max_size=8),
       st.one_of(st.none(), st.integers(1, 4)), st.lists(st.sampled_from(WORDS)))
# limits below the texts' lengths, and texts without words, which the cut
# leaves the single OOV token
@example([["a", "man", "runs", "Dog", "zebra"], ["!!!", ","], [], ["cat's", "QUOKKA", "a"]],
         2, ["runs"])
@example([["zebra", "a", "man"], [""], ["Dog", "!!!", "runs"], ["a"]], 1, [])
def test_vectorized_lookup_matches_per_token_oracle(pieces, max_tokens, extra):
    vocab = build_vocab(["a man runs", "the dog swims fast", "a cat sleeps"])
    texts = [" ".join(p) for p in pieces]
    expect = [tokenize_per_token(t, vocab, max_tokens) for t in texts]
    # alone, and inside a larger corpus that also repeats the texts, split
    # in windows of every size
    for tokens in (tokenize_pairs(texts, vocab, max_tokens=max_tokens),
                   *(tokenize_pairs(texts, vocab, shared, max_tokens)
                     for shared in corpora(extra + texts[::-1] + texts))):
        assert tokens.lengths.tolist() == [len(ids) for ids in expect]
        assert tokens.ids.tolist() == [i for ids in expect for i in ids]
        assert tokens.starts.tolist() == np.cumsum([0, *tokens.lengths[:-1]]).tolist()


EPS = np.finfo(float).eps


# whitespace that str.split and \s agree on ("\x85", "\u2028" among it),
# characters that lower() changes by context (final sigma) or into two
# ("İ"), a combining mark, word characters outside ASCII, and characters that
# are neither word characters nor whitespace
SPLIT_ALPHABET = "ab_'09 \n\r\t\x0c\x85\u2028Σσς\u0130\u0301é🙂.,"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(SPLIT_ALPHABET, max_size=10), max_size=8),
       st.lists(st.integers(0, 7), max_size=4))
@example(["ΟΔΟΣ", "Σ", "aΣ\nb", "aΣ b", "aΣ\u0301", "\u0130a"], [])
@example(["a\nb", "a b", "\n", ""], [0, 3])
def test_corpus_splits_each_text_as_the_per_text_oracle(texts, repeats):
    texts = texts + [texts[i] for i in repeats if i < len(texts)]
    distinct = list(dict.fromkeys(texts))
    expect = [split_words(text) for text in distinct]
    for corpus in corpora(texts):
        assert len(corpus.lengths) == len(distinct)
        for row, words in enumerate(expect):
            ids = corpus.word_ids[corpus.starts[row]:][:corpus.lengths[row]]
            assert [corpus.words[i] for i in ids] == words
        # the word table in order of first occurrence
        assert corpus.words == tuple(dict.fromkeys(w for words in expect for w in words))
        assert corpus.rows_of(texts).tolist() == [distinct.index(t) for t in texts]


# every ASCII character that is neither a word character nor whitespace ("."
# and "_" included), digits, letters, and the ASCII whitespace str.split and
# \s agree on, the separators \x1c-\x1f among it
ASCII_SPLIT_ALPHABET = string.punctuation + "09aZ \n\t\x0b\x0c\r\x1c\x1d\x1e\x1f"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(ASCII_SPLIT_ALPHABET, max_size=10), max_size=8),
       st.lists(st.integers(0, 7), max_size=4))
@example(["a.b", ". .", "", "_._", "a\nb"], [1, 2])
def test_ascii_corpus_splits_each_text_as_the_per_text_oracle(texts, repeats):
    texts = texts + [texts[i] for i in repeats if i < len(texts)]
    distinct = list(dict.fromkeys(texts))
    expect = [split_words(text) for text in distinct]
    # a non-ASCII text last sends the texts of its window through the
    # regular expression
    for corpus, mixed in zip(corpora(texts), corpora(texts + ["é"])):
        for row, words in enumerate(expect):
            ids = corpus.word_ids[corpus.starts[row]:][:corpus.lengths[row]]
            assert [corpus.words[i] for i in ids] == words
        assert corpus.words == tuple(dict.fromkeys(w for words in expect for w in words))
        assert mixed.words[:len(corpus.words)] == corpus.words
        assert mixed.word_ids[:len(corpus.word_ids)].tolist() == corpus.word_ids.tolist()
        assert mixed.lengths[:-1].tolist() == corpus.lengths.tolist()


@pytest.mark.parametrize("texts, window", [
    (["a b", "c\nd", "e f", "g"], 2),  # a "\n" in the first window only
    (["ab", "ΣΑΣ cd", "ab cd", "ef"], 2),  # non-ASCII text in the first only
    (["", "a", "?!", "...", "b", " "], 3),  # texts without words at both edges
    (["a b", "b a", "c a"], 2),  # "c" first seen in the second window
], ids=["newline-in-one-window", "non-ascii-in-one-window", "blanks-at-window-edges",
        "word-first-seen-later"])
def test_window_edges_split_as_one_window(texts, window):
    whole = Corpus(texts)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoder, "_SPLIT_WINDOW", window)
        windowed = Corpus(texts)
    for name in ("word_ids", "starts", "lengths"):
        got, want = getattr(windowed, name), getattr(whole, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert windowed.words == whole.words
    assert windowed.rows_of(texts).tolist() == whole.rows_of(texts).tolist()
    for row, text in enumerate(texts):
        ids = whole.word_ids[whole.starts[row]:][:whole.lengths[row]]
        assert [whole.words[i] for i in ids] == split_words(text)


def test_corpus_peak_is_bounded_by_its_window():
    # 40,000 distinct texts of about 62 characters and 9 words each
    texts = list(make_ordinal_corpus(20_000, seed=0).texts)
    tracemalloc.start()
    try:
        corpus = Corpus(texts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the word ids twice (each window's, then joined) and about 90 bytes
    # per text: its row in the dict of texts, its start and length, and its
    # share of one window's strings and words.  A split of all the texts at
    # once holds every word as a string, about 13 times the word ids
    assert len(corpus.lengths) == len(texts)
    assert peak < 2 * corpus.word_ids.nbytes + 112 * len(corpus.lengths)


def test_ascii_blank_table_matches_the_non_word_pattern():
    ascii = "".join(map(chr, range(128)))
    assert len(encoder._ASCII_BLANK) == 128
    assert ascii.translate(encoder._ASCII_BLANK) == encoder._NON_WORD.sub(" ", ascii)


@pytest.mark.parametrize("texts, words, word_ids, lengths", [
    (["", "a b", "b c"], ("a", "b", "c"), [0, 1, 1, 2], [0, 2, 2]),
    (["a b", "?!", "b c"], ("a", "b", "c"), [0, 1, 1, 2], [2, 0, 2]),
    (["a b", "b c", "..."], ("a", "b", "c"), [0, 1, 1, 2], [2, 2, 0]),
    (["a", "", "b", "!", "a", ""], ("a", "b"), [0, 1], [1, 0, 1, 0]),
    (["x", "", "!", "y x"], ("x", "y"), [0, 1, 0], [1, 0, 0, 2]),
    ([""], (), [], [0]),
    (["?", ""], (), [], [0, 0]),
], ids=["empty-first", "punct-middle", "dots-last", "repeats", "blanks-inside",
        "only-empty", "only-blanks"])
def test_text_without_words_holds_none_and_tokenizes_to_the_oov_token(
        texts, words, word_ids, lengths):
    for corpus in corpora(texts):
        assert corpus.words == words
        assert corpus.word_ids.tolist() == word_ids
        assert corpus.lengths.tolist() == lengths
        assert corpus.starts.tolist() == np.cumsum([0, *lengths[:-1]]).tolist()
        vocab = build_vocab(texts, corpus)
        assert sorted(vocab.tokens[2:]) == sorted(words)
        expect = [tokenize_per_token(text, vocab) for text in texts]
        tokens = tokenize_pairs(texts, vocab, corpus)
        assert tokens.lengths.tolist() == [len(ids) for ids in expect]
        assert tokens.ids.tolist() == [i for ids in expect for i in ids]


def test_cached_pooling_matrix_is_built_once_and_read_only(vocab):
    tokens = tokenize_pairs(["a man runs", "a dog", "the cat", "a a cat"], vocab)
    rows, S = tokens.pooling
    assert tokens.pooling[0] is rows and tokens.pooling[1] is S
    expect_rows, expect_S = pooling_matrix(tokens)
    np.testing.assert_array_equal(rows, expect_rows)
    np.testing.assert_array_equal(S, expect_S)
    with pytest.raises(ValueError, match="read-only"):
        rows[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        S[0, 0] = 1.0


# words spread over a vocabulary whose windows' key spaces lie past
# _MASK_KEYS_PER_TOKEN keys per token, so np.unique plans them
MANY_WORDS = [f"v{i:04d}" for i in range(2000)]
# with WORDS, <pad> and <oov>: 2 x _MASK_KEYS_PER_TOKEN ids, so one-token
# sentences in batches of one pair make a key space of exactly
# _MASK_KEYS_PER_TOKEN keys per token; one word more is one id past it
AT_THRESHOLD = [f"x{i}" for i in range(2 * encoder._MASK_KEYS_PER_TOKEN - len(WORDS) - 2)]


@pytest.mark.parametrize("n_pairs, batch_size, max_tokens, words, sorts", [
    (10, 3, None, WORDS, 0),  # n not a multiple of the batch size
    (2 * encoder._PLAN_WINDOW + 5, 2, None, WORDS, 0),  # more batches than one window
    (10, 10, None, WORDS, 0),  # batch_size == n
    (7, 12, None, WORDS, 0),  # batch_size > n
    (9, 4, None, ["w3"], 0),  # every sentence of a batch the same single token
    (10, 3, 2, WORDS, 0),  # sentences cut by tokenize_pairs
    (2 * encoder._PLAN_WINDOW + 5, 2, None, MANY_WORDS, 2),  # both windows sorted
    (20, 1, 1, AT_THRESHOLD, 0),  # a key space at the threshold takes the mask
    (20, 1, 1, AT_THRESHOLD + ["y"], 1),  # one id past it, the sort
], ids=["ragged", "windows", "one-batch", "oversized", "one-token", "truncated",
        "past-threshold", "at-threshold", "one-past-threshold"])
def test_batches_match_the_per_batch_oracle(n_pairs, batch_size, max_tokens, words, sorts,
                                            monkeypatch):
    rng = np.random.default_rng(n_pairs + batch_size)
    vocab = build_vocab([" ".join(dict.fromkeys(WORDS + words))])
    texts = [" ".join(rng.choice(words, size=int(rng.integers(1, 7))))
             for _ in range(2 * n_pairs)]
    tokens = tokenize_pairs(texts, vocab, max_tokens=max_tokens)
    if max_tokens:  # the cut shortens some sentences
        assert tokenize_pairs(texts, vocab).lengths.max() > tokens.lengths.max()
    # a shared corpus that also repeats the texts gathers the same tokens
    shared = tokenize_pairs(texts, vocab, Corpus(texts[::-1] + texts), max_tokens)
    assert shared.ids.tobytes() == tokens.ids.tobytes()
    assert shared.lengths.tobytes() == tokens.lengths.tobytes()
    order = rng.permutation(n_pairs)
    unique, sorted_keys = np.unique, []
    monkeypatch.setattr(np, "unique", lambda keys, **kw: sorted_keys.append(keys)
                        or unique(keys, **kw))
    plan = list(tokens.batches(order, batch_size))
    monkeypatch.undo()
    assert len(sorted_keys) == sorts  # the windows np.unique planned
    assert len(plan) == -(-n_pairs // batch_size)
    for b, (rows, S) in enumerate(plan):
        expect_rows, expect_S = pooling_matrix(
            take(tokens, order[b * batch_size:(b + 1) * batch_size]))
        assert rows.dtype == expect_rows.dtype
        assert rows.tobytes() == expect_rows.tobytes()
        assert S.shape == expect_S.shape and S.tobytes() == expect_S.tobytes()


def test_segment_gather_holds_two_token_length_arrays():
    # 10,000 segments of 15-25 ids, about 200,000 ids in all, gathered in a
    # shuffled order; each segment cut to at most 20 ids
    rng = np.random.default_rng(3)
    full = rng.integers(15, 26, size=10_000)
    ids = rng.integers(0, 5000, size=int(full.sum()))
    starts = np.cumsum(full) - full
    sources = rng.permutation(len(full))
    lengths = np.minimum(full[sources], 20)
    expect = np.concatenate([ids[starts[s]:starts[s] + n]
                             for s, n in zip(sources, lengths)])
    tracemalloc.start()
    try:
        got = encoder._segments(ids, starts, sources, lengths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()
    # the result and one index array, plus segment-length arrays; an index
    # built as offsets + arange would make it three token-length arrays
    assert peak < 2.5 * expect.nbytes


CLAMP_SPECIALS = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 3.0, -3.0,
                  1e-320, -1e-320]


@pytest.mark.parametrize("low, high", [
    (0.0, 3.0), (-0.0, 3.0), (0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0),
    (-3.0, -0.0), (-3.0, 0.0), (1.0, 1.0), (3.0, 1.0),
])
def test_clamp_is_np_clip_bit_for_bit(low, high):
    rng = np.random.default_rng(0)
    for length in range(70):
        x = rng.normal(0.0, 3.0, size=length + 2)
        special = rng.random(len(x)) < 0.5
        x[special] = rng.choice(CLAMP_SPECIALS, size=special.sum())
        for offset in (0, 1, 2):  # every alignment and vector-loop tail
            view = x[offset:offset + length]
            assert (encoder._clamp(view, low, high).tobytes()
                    == np.clip(view, low, high).tobytes())


def test_empty_corpus_holds_no_text():
    corpus = Corpus([])
    assert corpus.lengths.tolist() == [] and corpus.word_ids.tolist() == []
    assert corpus.words == ()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(1, 20),
       st.sampled_from([(), (2,), (3, 2)]))
def test_pool_matches_per_sentence_oracle(seed, n_sentences, max_tokens, stack):
    rng = np.random.default_rng(seed)
    vocab_size, dim = int(rng.integers(1, 30)), int(rng.integers(1, 6))
    lengths = rng.integers(1, max_tokens + 1, size=n_sentences)
    if n_sentences:
        lengths[rng.integers(n_sentences)] = max_tokens
    ids = rng.integers(0, vocab_size, size=int(lengths.sum()))
    tokens = PairTokens(ids, lengths)
    table = rng.normal(size=stack + (vocab_size, dim))
    got = pool(table, tokens)
    assert got.shape == stack + (n_sentences, dim)
    # a mean of at most max_tokens rows: a few ulps of the largest entry per row
    np.testing.assert_allclose(got, pool_per_sentence(table, tokens), rtol=0,
                               atol=4 * max_tokens * EPS * np.abs(table).max())
    # integer entries sum exactly in any order, so the means agree exactly
    whole = np.round(8 * table)
    np.testing.assert_array_equal(pool(whole, tokens), pool_per_sentence(whole, tokens))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(LossKind)),
       st.sampled_from(list(FeatureMode)), st.integers(0, 3))
def test_batch_pooling_matrix_matches_pool(seed, kind, mode, copies):
    rng = np.random.default_rng(seed)
    vocab = build_vocab([" ".join(WORDS)])
    batch = int(rng.integers(1, 6))
    n_classes = 3 if kind is LossKind.CROSS_ENTROPY else None
    params = init_params(len(vocab), 4, mode, seed, n_classes=n_classes)
    if copies:  # the value path of a stack of parameter copies
        params = params_of(*(a + rng.normal(0.0, 0.05, size=(copies,) + a.shape)
                             for a in (params.embeddings, params.head_weights,
                                       params.head_bias)))
    targets = (rng.integers(0, 3, size=batch) if n_classes
               else rng.uniform(0.0, 3.0, size=batch))
    texts = [" ".join(rng.choice(WORDS, size=int(rng.integers(0, 9))))
             for _ in range(2 * batch)]
    tokens = tokenize_pairs(texts, vocab)
    seen = []
    # the head losses read the features, InfoNCE reads u and v themselves
    if kind is LossKind.INFO_NCE:
        owner, core, read = encoder.losses, "info_nce", FeatureMode.UV

        def spy(u, v, *args):
            seen.append(features(u, v, read))
            return info_nce(u, v, *args)
    else:
        owner, core, read = encoder, "prepare_head_loss", mode
        prepare = encoder.prepare_head_loss

        def spy(*args, **kwargs):  # the prepared head step, recording its features
            step = prepare(*args, **kwargs)
            return lambda f, targets: seen.append(f) or step(f, targets)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, core, spy)
        forward_backward(params, tokens.pooling, targets, mode, _random_spec(rng, kind))
    pooled = pool(params.embeddings, tokens)
    atol = 4 * tokens.lengths.max() * EPS * np.abs(params.embeddings).max()
    (f,) = seen
    # |u - v| adds the errors of u and v
    np.testing.assert_allclose(
        f, features(pooled[..., 0::2, :], pooled[..., 1::2, :], read), rtol=0,
        atol=2 * atol)


HEAD_KINDS = [kind for kind in LossKind if kind is not LossKind.INFO_NCE]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(HEAD_KINDS),
       st.sampled_from(list(FeatureMode)))
def test_frozen_encoder_skips_only_the_embedding_gradient(seed, kind, mode):
    rng = np.random.default_rng(seed)
    vocab = build_vocab([" ".join(WORDS)])
    batch = int(rng.integers(1, 6))
    n_classes = 3 if kind is LossKind.CROSS_ENTROPY else None
    params = init_params(len(vocab), 4, mode, seed, n_classes=n_classes)
    targets = (rng.integers(0, 3, size=batch) if n_classes
               else rng.uniform(0.0, 3.0, size=batch))
    texts = [" ".join(rng.choice(WORDS, size=int(rng.integers(0, 6))))
             for _ in range(2 * batch)]
    tokens, spec = tokenize_pairs(texts, vocab), _random_spec(rng, kind)
    full = forward_backward(params, tokens.pooling, targets, mode, spec, (0.0, 3.0))
    rows, S = pooling_matrix(tokens)
    pooled = S.T @ params.embeddings[rows]
    u, v = pooled[0::2], pooled[1::2]
    value, d_head, d_out = prepare_head_loss(params, spec, (0.0, 3.0))(
        features(u, v, mode), targets)
    assert value == full[0]
    # the flat head gradient alone: no embedding gradient
    assert isinstance(d_head, np.ndarray) and d_head.shape == params.head.shape
    # the reference computes its own features and returns their gradient
    expect_value, expect, d_input = head_forward_backward(params, u, v, targets, mode,
                                                          spec, (0.0, 3.0))
    assert value == expect_value
    parts = [head_parts(g, params.weights_shape) for g in (d_head, full[1].head,
                                                           expect.head)]
    for name, got, from_full, from_oracle in zip(("head_weights", "head_bias"), *parts):
        assert got.shape == getattr(params, name).shape
        assert got.tobytes() == from_full.tobytes()
        assert got.tobytes() == from_oracle.tobytes()
    assert d_out.shape == ((batch, 3) if n_classes else (batch,))
    # the reference's gradient of the features, split as forward_backward
    # splits it, is the embedding gradient to the bit
    d_pooled = np.empty_like(pooled)
    encoder._FEATURE_MAPS[mode][1](d_input, u - v, d_pooled)
    assert (S @ d_pooled).tobytes() == full[1].embeddings.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(FeatureMode)),
       st.integers(1, 5), st.booleans())
def test_info_nce_has_no_head_gradient(seed, mode, batch, classifier):
    rng = np.random.default_rng(seed)
    vocab = build_vocab([" ".join(WORDS)])
    params = init_params(len(vocab), 4, mode, seed, n_classes=3 if classifier else None)
    texts = [" ".join(rng.choice(WORDS, size=int(rng.integers(0, 6))))
             for _ in range(2 * batch)]
    tokens, spec = tokenize_pairs(texts, vocab), _random_spec(rng, LossKind.INFO_NCE)
    value, grads = forward_backward(params, tokens.pooling, None, mode, spec)
    assert grads.head is None
    # the loss of u and v themselves, whatever the feature mode and head
    rows, S = pooling_matrix(tokens)
    pooled = S.T @ params.embeddings[rows]
    expect, du, dv = info_nce(pooled[0::2], pooled[1::2], spec.tau)
    assert value == expect
    d_pooled = np.empty_like(pooled)
    d_pooled[0::2], d_pooled[1::2] = du, dv
    assert grads.rows.tobytes() == rows.tobytes()
    assert grads.embeddings.tobytes() == (S @ d_pooled).tobytes()


def test_head_loss_serves_only_the_head_losses():
    params = init_params(6, 2, FeatureMode.UV, 0)
    f = features(np.ones((2, 2)), np.zeros((2, 2)), FeatureMode.UV)
    with pytest.raises(InvalidInputError, match="info_nce"):
        prepare_head_loss(params, LossSpec(LossKind.INFO_NCE, tau=0.5))(f, [0.0, 1.0])


def _step_cases():
    """(kind, n_classes, mode, optimizer) of every loss kind with its head, the
    K-logit head for cross-entropy and both heads for InfoNCE, which reads
    none, by feature mode and optimizer."""
    heads = [(kind, 3 if kind is LossKind.CROSS_ENTROPY else None)
             for kind in LossKind] + [(LossKind.INFO_NCE, 3)]
    for kind, n_classes in heads:
        for mode in FeatureMode:
            for optimizer in ("sgd", "adam"):
                head = "klogit" if n_classes else "regression"
                yield pytest.param(kind, n_classes, mode, optimizer,
                                   id=f"{kind.value}-{head}-{mode.value}-{optimizer}")


def _same_gradients(got, expect):
    for name in ("embeddings", "rows", "head"):
        a, b = getattr(got, name), getattr(expect, name)
        assert (a is None) == (b is None)
        assert a is None or (a.shape == b.shape and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("kind, n_classes, mode, optimizer", _step_cases())
def test_a_prepared_step_holds_no_stale_state(kind, n_classes, mode, optimizer):
    """One prepared step serves batch after batch while an optimizer updates
    the parameters in place: at each step it gives, bit for bit, what a
    fresh forward_backward or prepare_head_loss step gives on the parameters
    as they are then."""
    rng = np.random.default_rng([ALL_KINDS.index(kind), n_classes or 0,
                                 list(FeatureMode).index(mode)])
    vocab = build_vocab([" ".join(WORDS)])
    params = init_params(len(vocab), 4, mode, 3, label_range=(0.0, 3.0),
                         n_classes=n_classes)
    spec, clamp = _random_spec(rng, kind), (0.0, 3.0)
    joint = prepare_forward_backward(params, mode, spec, clamp)
    head = None if kind is LossKind.INFO_NCE else prepare_head_loss(params, spec, clamp)
    opt = SgdOptimizer(0.5) if optimizer == "sgd" else AdamOptimizer(0.05)
    names = ("embeddings",) if head is None else ("embeddings", "head")
    update = opt.updater(params, names)
    start = copy_params(params)
    for _ in range(4):
        batch = int(rng.integers(2, 6))
        texts = [" ".join(rng.choice(WORDS, size=int(rng.integers(1, 6))))
                 for _ in range(2 * batch)]
        tokens = tokenize_pairs(texts, vocab)
        targets = (rng.integers(0, n_classes, size=batch) if n_classes
                   else rng.uniform(0.0, 3.0, size=batch))
        value, grads = joint(tokens.pooling, targets)
        expect_value, expect = forward_backward(params, tokens.pooling, targets, mode,
                                                spec, clamp)
        assert np.float64(value).tobytes() == np.float64(expect_value).tobytes()
        _same_gradients(grads, expect)
        if head is not None:
            pooled = pool(params.embeddings, tokens)
            f = features(pooled[0::2], pooled[1::2], mode)
            got = head(f, targets)
            expect = prepare_head_loss(params, spec, clamp)(f, targets)
            assert got[0] == expect[0] and got[2].tobytes() == expect[2].tobytes()
            assert got[1].shape == expect[1].shape
            assert got[1].tobytes() == expect[1].tobytes()
        update(grads)
    # every array the steps read has moved
    assert not np.array_equal(params.embeddings, start.embeddings)
    if head is not None:
        assert not np.array_equal(params.head_weights, start.head_weights)
        assert not np.array_equal(params.head_bias, start.head_bias)


@pytest.mark.parametrize("kind", list(LossKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("mode", list(FeatureMode), ids=lambda mode: mode.value)
def test_a_prepared_stacked_value_step_holds_no_stale_state(kind, mode):
    """The stacked value-only step the gradient check runs reads its stack's
    arrays as they are at each call."""
    rng = np.random.default_rng([ALL_KINDS.index(kind), list(FeatureMode).index(mode)])
    vocab = build_vocab([" ".join(WORDS)])
    n_classes = 3 if kind is LossKind.CROSS_ENTROPY else None
    base = init_params(len(vocab), 4, mode, 5, label_range=(0.0, 3.0),
                       n_classes=n_classes)
    stack = params_of(*(a + rng.normal(0.0, 0.05, size=(3,) + a.shape)
                        for a in (base.embeddings, base.head_weights, base.head_bias)))
    spec, clamp = _random_spec(rng, kind), (0.0, 3.0)
    step = prepare_forward_backward(stack, mode, spec, clamp)
    texts = [" ".join(rng.choice(WORDS, size=int(rng.integers(1, 6)))) for _ in range(6)]
    tokens = tokenize_pairs(texts, vocab)
    targets = (rng.integers(0, 3, size=3) if n_classes
               else rng.uniform(0.0, 3.0, size=3))
    for _ in range(3):
        values, grads = step(tokens.pooling, targets)
        expect = forward_backward(stack, tokens.pooling, targets, mode, spec, clamp)[0]
        assert grads is None and values.tobytes() == expect.tobytes()
        stack.embeddings[...] += rng.normal(0.0, 0.05, size=stack.embeddings.shape)
        stack.head[...] += rng.normal(0.0, 0.5, size=stack.head.shape)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(LossKind)),
       st.sampled_from(list(FeatureMode)), st.booleans(), st.integers(1, 4),
       st.integers(1, 5))
def test_stacked_values_match_one_forward_per_copy(seed, kind, mode, clamp, batch,
                                                   copies):
    rng = np.random.default_rng(seed)
    vocab = build_vocab([" ".join(WORDS)])
    n_classes = 3 if kind is LossKind.CROSS_ENTROPY else None
    base = init_params(len(vocab), int(rng.integers(2, 6)), mode, seed,
                       n_classes=n_classes)
    if n_classes is None:
        base.head_bias[...] = rng.uniform(-1.0, 4.0)  # some get clamped
        targets = rng.uniform(0.0, 3.0, size=batch)
    else:
        targets = rng.integers(0, n_classes, size=batch)
    stack = params_of(*(a + rng.normal(0.0, 0.05, size=(copies,) + a.shape)
                        for a in (base.embeddings, base.head_weights, base.head_bias)))
    spec = _random_spec(rng, kind)
    clamp_range = (0.0, 3.0) if clamp else None
    texts = [" ".join(rng.choice(WORDS, size=int(rng.integers(0, 6))))
             for _ in range(2 * batch)]
    tokens = tokenize_pairs(texts, vocab)

    values, grads = forward_backward(stack, tokens.pooling, targets, mode, spec,
                                     clamp_range)
    assert grads is None and values.shape == (copies,)
    each = [forward_backward(ModelParams(stack.embeddings[i], stack.head[i],
                                         stack.weights_shape),
                             tokens.pooling, targets, mode, spec, clamp_range)[0]
            for i in range(copies)]
    np.testing.assert_array_max_ulp(values, np.array(each), maxulp=4)
    if kind is LossKind.INFO_NCE and batch == 1:
        assert not values.any()


@pytest.mark.parametrize("n_classes", [None, 3], ids=["regression", "k_logit"])
def test_head_parts_are_views_of_one_flat_head(n_classes, tmp_path):
    def assert_views(holder):
        """head_weights and head_bias read and write holder.head itself,
        the weights then the bias along its last axis, and are made once
        and cannot be rebound."""
        flat = holder.head.reshape(-1, holder.head.shape[-1])
        weights = holder.head_weights.reshape(len(flat), -1)
        bias = holder.head_bias.reshape(len(flat), -1)
        assert np.shares_memory(holder.head_weights, holder.head)
        assert np.shares_memory(holder.head_bias, holder.head)
        assert flat.tobytes() == np.concatenate((weights, bias), axis=1).tobytes()
        for name in ("head_weights", "head_bias"):
            assert getattr(holder, name) is getattr(holder, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(holder, name, getattr(holder, name).copy())
            with pytest.raises(TypeError):
                dataclasses.replace(holder, **{name: getattr(holder, name).copy()})

    mode, dim = FeatureMode.UV_ABS_DIFF, 3
    vocab = build_vocab(["a b c"])
    params = init_params(len(vocab), dim, mode, 0, n_classes=n_classes)
    assert params.head.shape == (params.head_weights.size + params.head_bias.size,)
    assert_views(params)
    # a write through a view is a write to the flat head
    bias = params.head[params.head_weights.size:].copy()
    params.head_bias[...] += 1.0
    assert params.head[params.head_weights.size:].tobytes() == (bias + 1.0).tobytes()
    # copies of the head, and training's copy or read-only view of it
    for made, shared in ((copy_params(params), False),
                         (_copy_updated(params, ("head",)), False),
                         (_copy_updated(params, ()), True)):
        assert_views(made)
        assert np.shares_memory(made.head, params.head) == shared
    with pytest.raises(ValueError, match="read-only"):
        _copy_updated(params, ()).head_bias[...] = 0.0
    # stacked copies: built from stacked arrays, and gradcheck's views of
    # one block of flat parameter vectors
    stacks = [params_of(*(np.stack([a, a]) for a in (params.embeddings,
                                                     params.head_weights,
                                                     params.head_bias)))]
    finite_difference_grads(
        lambda stacked: stacks.append(stacked) or np.zeros(stacked.stack_shape), params)
    for stacked in stacks:
        assert stacked.stack_shape[0] >= 2
        assert_views(stacked)
    assert np.shares_memory(stacks[1].head, stacks[1].embeddings.base)

    tokens = tokenize_pairs(["a b", "c", "b", "a c"], vocab)
    if n_classes is None:
        spec, targets = LossSpec(LossKind.MSE), [0.5, 2.0]
    else:
        spec, targets = LossSpec(LossKind.CROSS_ENTROPY), [0, 2]
    _, grads = forward_backward(params, tokens.pooling, targets, mode, spec)
    fd = finite_difference_grads(
        lambda p: forward_backward(p, tokens.pooling, targets, mode, spec)[0], params)
    rows, S = tokens.pooling
    _, d_head, _ = prepare_head_loss(params, spec)(
        features(*np.split(S.T @ params.embeddings[rows], 2), mode), targets)
    # each flat head gradient splits into views of itself, as the head does
    for g in (grads.head, fd.head, d_head):
        assert g.shape == params.head.shape
        weights, bias = head_parts(g, params.weights_shape)
        assert np.shares_memory(weights, g) and np.shares_memory(bias, g)
        assert g.tobytes() == np.concatenate((weights.ravel(), np.ravel(bias))).tobytes()

    model = Model(vocab, params, mode)
    save_checkpoint(model, tmp_path / "ck.json")
    again = load_checkpoint(tmp_path / "ck.json").params
    assert_views(again)
    for name in ("embeddings", "head_weights", "head_bias", "head"):
        got, want = getattr(again, name), getattr(params, name)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, model, tmp_path):
        model.mapping = LabelMapping(["lo", "mid", "hi"], 0.0, 1.0)
        path = tmp_path / "ck.json"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        np.testing.assert_array_equal(again.params.embeddings, model.params.embeddings)
        np.testing.assert_array_equal(
            again.params.head_weights, model.params.head_weights
        )
        assert again.params.head_bias == model.params.head_bias
        assert again.vocab.tokens == model.vocab.tokens
        assert again.mapping == model.mapping
        assert again.feature_mode == model.feature_mode
        pair = SentencePair("a man runs", "the dog swims", score=1.0)
        assert score(again, pair) == score(model, pair)

    def test_save_is_deterministic(self, model, tmp_path):
        save_checkpoint(model, tmp_path / "a.json")
        save_checkpoint(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.json")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        path.write_text('{"format": "something-else"}')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["embeddings"].update(data="not*base64"),
        lambda doc: doc["embeddings"].update(data="QUJD="),
        lambda doc: doc["embeddings"].update(data="QUJ\u00e9"),
        lambda doc: doc["embeddings"].update(data=3),
        lambda doc: doc["embeddings"].pop("data"),
        lambda doc: doc["embeddings"].update(dtype="<f4"),
        lambda doc: doc["head_weights"]["shape"].append(2),
        lambda doc: doc["head_weights"].update(shape=[1.5]),
        lambda doc: doc["head_bias"]["shape"].append(1),
        lambda doc: doc.update(embeddings=[[0.0, 1.0]]),
        lambda doc: doc.update(version=1),
        lambda doc: doc.update(head_kind="classification"),
        lambda doc: doc.update(head_kind="banana"),
        lambda doc: doc.update(max_tokens=-3),
        lambda doc: doc.update(max_tokens=2.5),
        lambda doc: [doc[name]["shape"].insert(0, 1)
                     for name in ("embeddings", "head_weights", "head_bias")],
    ], ids=["bad-base64", "bad-padding", "non-ascii-base64", "number-payload",
            "no-payload", "wrong-dtype", "bytes-not-shape", "float-shape",
            "bias-shape", "list-payload", "version-1", "head-kind-mismatch", "head-kind-unknown",
            "max-tokens-negative", "max-tokens-float", "stacked-arrays"])
    def test_corrupt_arrays_rejected(self, model, tmp_path, corrupt):
        path = tmp_path / "ck.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_load_holds_one_copy_of_the_base64_text(self, tmp_path):
        vocab = build_vocab([" ".join(f"w{i}" for i in range(3998))])
        model = Model.initialize(vocab, dim=64, seed=0)
        table = model.params.embeddings
        assert table.shape == (4000, 64)
        save_checkpoint(model, tmp_path / "ck.json")
        tracemalloc.start()
        try:
            again = load_checkpoint(tmp_path / "ck.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again.params.embeddings.tobytes() == table.tobytes()
        # the file's text while it is parsed, then the array's base64 text
        # and its decoded bytes; an ASCII copy of the text to decode from,
        # or the text kept while the array is copied out, passes 3.25x
        assert peak < 3.25 * table.nbytes

    def test_arrays_stored_as_base64_bytes(self, model, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(model, path)
        entry = json.loads(path.read_text())["embeddings"]
        assert entry["dtype"] == "<f8"
        assert entry["shape"] == list(model.params.embeddings.shape)
        raw = base64.b64decode(entry["data"])
        assert raw == model.params.embeddings.astype("<f8").tobytes()

    def test_failed_save_keeps_the_old_checkpoint(self, model, tmp_path,
                                                 failing_writes):
        path = tmp_path / "ck.json"
        save_checkpoint(model, path)
        before = path.read_bytes()
        other = dataclasses.replace(model, params=copy_params(model.params))
        other.params.embeddings[...] += 1.0
        with failing_writes(), pytest.raises(OSError):
            save_checkpoint(other, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]

    @pytest.mark.parametrize("classifier", [False, True],
                             ids=["regression", "classification"])
    @pytest.mark.parametrize("with_mapping", [False, True],
                             ids=["no-mapping", "mapping"])
    @pytest.mark.parametrize("chunks", [1, 2], ids=["one-chunk", "chunks"])
    def test_bytes_equal_sorted_json_dumps(self, tmp_path, classifier, with_mapping,
                                           chunks):
        vocab = build_vocab(["café au lait", "a man runs"]
                            + [f"w{i}" for i in range(40)])
        dim = 4
        if chunks > 1:
            # a table of more than one chunk whose bytes do not fill the last
            dim = encoder._B64_CHUNK // (8 * len(vocab)) + 1
            assert (8 * dim * len(vocab)) % encoder._B64_CHUNK
        mapping = None
        if with_mapping:
            mapping = LabelMapping(["lo", "très", "hi"], 0.0, 1.0)
        model = Model.initialize(vocab, dim=dim, seed=3, mapping=mapping,
                                 n_classes=3 if classifier else None)
        path = tmp_path / "ck.json"
        save_checkpoint(model, path)

        def entry(array):
            raw = np.ascontiguousarray(array, dtype="<f8").tobytes()
            return {"dtype": "<f8", "shape": list(array.shape),
                    "data": base64.b64encode(raw).decode("ascii")}

        doc = {
            "format": "simreg-checkpoint",
            "version": 2,
            "feature_mode": model.feature_mode.value,
            "max_tokens": model.max_tokens,
            "vocab": list(vocab.tokens),
            "mapping": mapping.to_json_dict() if mapping else None,
            "head_kind": "classification" if classifier else "regression",
            "embeddings": entry(model.params.embeddings),
            "head_weights": entry(model.params.head_weights),
            "head_bias": entry(model.params.head_bias),
        }
        assert path.read_bytes() == json.dumps(doc, sort_keys=True).encode()
        assert b"caf\\u00e9" in path.read_bytes()

    def test_failure_mid_payload_keeps_the_old_checkpoint(self, tmp_path,
                                                          monkeypatch):
        vocab = build_vocab([" ".join(f"w{i}" for i in range(40))])
        dim = 2 * encoder._B64_CHUNK // (8 * len(vocab)) + 1
        model = Model.initialize(vocab, dim=dim, seed=3)
        path = tmp_path / "ck.json"
        save_checkpoint(model, path)
        before = path.read_bytes()
        other = dataclasses.replace(model, params=copy_params(model.params))
        other.params.embeddings[...] += 1.0
        encode = encoder.binascii.b2a_base64
        calls = []

        def fail_second(data, *, newline):
            calls.append(data)
            if len(calls) == 2:
                # the first chunk's base64 is already in the temporary file
                (tmp,) = (p for p in tmp_path.iterdir() if p.name != "ck.json")
                assert tmp.stat().st_size > 4 * encoder._B64_CHUNK // 3
                raise MemoryError("out of memory")
            return encode(data, newline=newline)

        monkeypatch.setattr(encoder.binascii, "b2a_base64", fail_second)
        with pytest.raises(MemoryError):
            save_checkpoint(other, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]

    def test_vocab_requires_oov(self):
        with pytest.raises(InvalidInputError):
            Vocabulary(("a", "b"))
