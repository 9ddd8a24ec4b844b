import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simreg.encoder as encoder
import simreg.gradcheck as gradcheck
from oracles import (
    dense_embeddings,
    draw_configuration_via_text,
    finite_difference_per_entry,
    join_head,
    max_relative_error_per_array,
)
from simreg.encoder import (
    FeatureMode,
    Gradients,
    Model,
    build_vocab,
    head_parts,
    prepare_forward_backward,
)
from simreg.gradcheck import (
    ALL_KINDS,
    ALL_MODES,
    DEFAULT_STEP,
    DEFAULT_TOLERANCE,
    NORM_MARGIN,
    check_configuration,
    draw_configuration,
    finite_difference_grads,
    max_relative_error,
    run_gradient_checks,
)
from simreg.losses import LossKind, LossSpec


def test_small_sweep_passes():
    results = run_gradient_checks(seeds=range(2))
    assert all(r.max_rel_error <= 1e-4 for r in results)


def test_results_are_reproducible():
    a = check_configuration(3, LossKind.SMOOTH_K2, FeatureMode.UV_ABS_DIFF)
    b = check_configuration(3, LossKind.SMOOTH_K2, FeatureMode.UV_ABS_DIFF)
    assert a == b


def test_injected_sign_bug_is_caught(monkeypatch):
    # flip the sign propagated through the |u - v| branch
    mode = FeatureMode.UV_ABS_DIFF
    combine, split = encoder._FEATURE_MAPS[mode]

    def broken(df, diff, out):
        split(df, diff, out)
        out[0::2], out[1::2] = out[1::2].copy(), out[0::2].copy()  # swapped

    monkeypatch.setitem(encoder._FEATURE_MAPS, mode, (combine, broken))
    result = check_configuration(0, LossKind.MSE, mode)
    assert result.max_rel_error > 1e-4


def test_buffer_zone_gives_zero_on_both_routes():
    vocab = build_vocab(["alpha beta gamma", "delta epsilon"])
    model = Model.initialize(vocab, dim=4, seed=8, label_range=(0.0, 3.0))
    pairs = model.encode(["alpha beta", "delta epsilon"])
    target = model.head_scores(*model.embed_pairs(pairs))[0] + 0.05  # in the buffer
    spec = LossSpec(LossKind.SMOOTH_K2, k=2.0, x0=0.25)

    def run(params=model.params):
        return prepare_forward_backward(params, model.feature_mode, spec)(
            pairs.pooling, [target])

    value, analytic = run()
    fd = finite_difference_grads(lambda p: run(p)[0], model.params)
    assert value == 0.0
    for grads in (analytic, fd):
        weights, bias = head_parts(grads.head, model.params.weights_shape)
        assert not dense_embeddings(grads, model.params.vocab_size).any()
        assert not weights.any()
        assert not np.atleast_1d(bias).any()
    assert max_relative_error(analytic, fd) == 0.0


@pytest.mark.parametrize("name", ["embeddings", "head_bias"])
def test_nan_analytic_entry_is_reported(name):
    vocab = build_vocab(["alpha beta gamma", "delta epsilon"])
    model = Model.initialize(vocab, dim=4, seed=8, label_range=(0.0, 3.0))
    pairs = model.encode(["alpha beta", "delta epsilon"])

    def run(params=model.params):
        return prepare_forward_backward(params, model.feature_mode,
                                        LossSpec(LossKind.MSE))(pairs.pooling, [1.0])

    _, analytic = run()
    fd = finite_difference_grads(lambda p: run(p)[0], model.params)
    assert max_relative_error(analytic, fd) < 1e-4
    grad = (analytic.embeddings if name == "embeddings"
            else head_parts(analytic.head, model.params.weights_shape)[1])
    grad[(0,) * grad.ndim] = np.nan
    assert math.isnan(max_relative_error(analytic, fd))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 5),
       st.sampled_from([None, 2, 5]), st.sampled_from([None, *range(6)]),
       st.booleans())
def test_flat_error_equals_per_array_oracle(seed, vocab_size, width, n_classes, nan_in,
                                            headless):
    rng = np.random.default_rng(seed)
    rows = np.flatnonzero(rng.random(vocab_size) < 0.5)  # maybe none present
    weights_shape = (width,) if n_classes is None else (n_classes, width)
    bias_shape = () if n_classes is None else (n_classes,)

    def draw(shape):
        """Entries on scales either side of the denominator's floor of 1."""
        scale = 10.0 ** rng.uniform(-3, 3, size=shape)
        return np.asarray(rng.normal(size=shape) * scale)

    analytic = Gradients(draw((len(rows), width)), rows,
                         join_head(draw(weights_shape), draw(bias_shape))[0])
    fd_table, fd_weights, fd_bias = (
        np.asarray(a + draw(np.shape(a)) * 1e-3 * rng.integers(0, 2))
        for a in (dense_embeddings(analytic, vocab_size),
                  *head_parts(analytic.head, weights_shape)))
    fd = Gradients(fd_table, np.arange(vocab_size), join_head(fd_weights, fd_bias)[0])
    arrays = [analytic.embeddings, *head_parts(analytic.head, weights_shape),
              fd.embeddings, *head_parts(fd.head, weights_shape)]
    if headless:  # no head gradient, as InfoNCE's: compared as zeros
        analytic = dataclasses.replace(analytic, head=None)
        arrays[1:3] = [np.empty(0), np.empty(0)]
    has_nan = nan_in is not None and arrays[nan_in].size > 0
    if has_nan:
        flat = arrays[nan_in].reshape(-1)  # a view: each array is its own buffer
        flat[rng.integers(flat.size)] = np.nan
    got = max_relative_error(analytic, fd)
    want = max_relative_error_per_array(analytic, fd, weights_shape)
    assert type(got) is float
    assert math.isnan(got) == math.isnan(want) == has_nan
    if not has_nan:
        assert got == want


@pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
def test_info_nce_head_has_no_gradient_and_a_zero_difference(mode):
    params, tokens, targets, spec = draw_configuration(0, LossKind.INFO_NCE, mode)
    _, analytic = prepare_forward_backward(params, mode, spec)(tokens.pooling, targets)
    fd = finite_difference_grads(loss_fn(tokens, targets, mode, spec), params)
    fd_weights, fd_bias = head_parts(fd.head, params.weights_shape)
    assert analytic.head is None
    # the loss does not read the head, so each difference is exactly zero
    assert not fd_weights.any() and not fd_bias.any()
    error = max_relative_error(analytic, fd)
    assert error == check_configuration(0, LossKind.INFO_NCE, mode).max_rel_error
    assert error < DEFAULT_TOLERANCE
    # a nonzero head difference is seen against the missing head gradient
    fd_bias[...] += 1.0
    assert max_relative_error(analytic, fd) >= 0.5


def loss_fn(tokens, targets, mode, spec):
    """value_fn for finite_difference_grads on one drawn configuration."""
    return lambda params: prepare_forward_backward(params, mode, spec)(
        tokens.pooling, targets)[0]


@pytest.mark.parametrize("seed", range(4))
def test_stacked_differences_match_per_entry_oracle(seed):
    for kind in ALL_KINDS:
        for mode in ALL_MODES:
            params, tokens, targets, spec = draw_configuration(seed, kind, mode)
            value_fn = loss_fn(tokens, targets, mode, spec)
            fd = finite_difference_grads(value_fn, params)
            expected = finite_difference_per_entry(value_fn, params, DEFAULT_STEP)
            for got, want in zip((fd.embeddings, *head_parts(fd.head,
                                                             params.weights_shape)),
                                 expected, strict=True):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9,
                                           err_msg=f"{kind.value} {mode.value}")


@pytest.mark.parametrize("seed", range(4))
def test_token_draws_equal_text_draws(seed):
    for kind in ALL_KINDS:
        for mode in ALL_MODES:
            params, tokens, targets, spec = draw_configuration(seed, kind, mode)
            want_params, want_tokens, want_targets, want_spec = (
                draw_configuration_via_text(seed, kind, mode))
            assert snapshot(params) == snapshot(want_params)
            for got, want in ((tokens.ids, want_tokens.ids),
                              (tokens.lengths, want_tokens.lengths),
                              (targets, want_targets)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            assert spec == want_spec


def snapshot(params):
    return [a.tobytes() for a in (params.embeddings, params.head_weights,
                                  params.head_bias)]


def test_caller_params_are_never_written():
    params, tokens, targets, spec = draw_configuration(
        0, LossKind.SMOOTH_K2, FeatureMode.UV_ABS_DIFF)
    before = snapshot(params)
    finite_difference_grads(loss_fn(tokens, targets, FeatureMode.UV_ABS_DIFF, spec),
                            params)
    assert snapshot(params) == before


@pytest.mark.parametrize("kind", [LossKind.SMOOTH_K2, LossKind.CROSS_ENTROPY])
def test_one_stacked_forward_of_every_copy(kind):
    """value_fn is called once, on the +step copies of all N entries and
    then their -step copies."""
    params, tokens, targets, spec = draw_configuration(1, kind, FeatureMode.UV_ABS_DIFF)
    value_fn = loss_fn(tokens, targets, FeatureMode.UV_ABS_DIFF, spec)
    flat = np.concatenate([params.embeddings.reshape(-1), params.head])
    n = flat.size
    stacks = []

    def recording(stacked):
        stacks.append(np.concatenate(
            [stacked.embeddings.reshape(2 * n, -1), stacked.head], axis=1))
        return value_fn(stacked)

    finite_difference_grads(recording, params)
    (stack,) = stacks
    steps = np.eye(n) * DEFAULT_STEP
    np.testing.assert_array_equal(stack, np.concatenate([flat + steps, flat - steps]))


def test_raising_value_fn_leaves_params_unperturbed():
    params, *_ = draw_configuration(0, LossKind.MSE, FeatureMode.UV)
    before = snapshot(params)

    def value_fn(stacked):
        raise RuntimeError("forward failed")

    with pytest.raises(RuntimeError):
        finite_difference_grads(value_fn, params)
    assert snapshot(params) == before


def test_one_pooling_matrix_per_drawn_batch(monkeypatch):
    built, drawn = [], []
    plan, draw = encoder._pooling_plan, gradcheck._random_tokens

    def counting(ids, lengths, per_batch):
        built.append(ids)
        return plan(ids, lengths, per_batch)

    def counting_draw(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(encoder, "_pooling_plan", counting)
    monkeypatch.setattr(gradcheck, "_random_tokens", counting_draw)
    cached = run_gradient_checks(seeds=[0])
    # the kink screening, the analytic pass and the stacked pass share one
    assert len(built) == len(drawn) > len(cached)
    # rebuilt on every use, as without the cached property: the screening of
    # each draw, then the analytic pass and one stacked pass over all three
    # parameter arrays of each accepted draw
    built.clear()
    drawn.clear()
    monkeypatch.setattr(encoder.PairTokens, "pooling",
                        property(encoder.PairTokens.pooling.func))
    rebuilt = run_gradient_checks(seeds=[0])
    assert len(built) == len(drawn) + 2 * len(rebuilt)
    assert cached == rebuilt


def test_info_nce_draw_near_a_zero_norm_is_redrawn():
    """InfoNCE's cosine is singular at a pooled vector of zero norm, where a
    central difference is wrong: a batch whose smallest pooled norm is under
    NORM_MARGIN is screened out."""
    mode = FeatureMode.UV  # no |u - v| kink to screen
    params, tokens, targets, spec = draw_configuration(0, LossKind.INFO_NCE, mode)
    rows, S = tokens.pooling
    smallest = np.linalg.norm(S.T @ params.embeddings[rows], axis=1).min()
    for factor, close in ((0.9, True), (1.1, False)):
        table = params.embeddings * (factor * NORM_MARGIN / smallest)
        scaled = dataclasses.replace(params, embeddings=table)
        assert bool(gradcheck._too_close_to_kink(scaled, tokens, targets, mode,
                                                 spec)) is close

