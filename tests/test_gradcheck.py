import dataclasses
import math
import os
import tracemalloc

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
    forward_backward,
    head_parts,
)
from simreg.gradcheck import (
    ALL_KINDS,
    ALL_MODES,
    DEFAULT_STEP,
    DEFAULT_TOLERANCE,
    FD_CHUNK_BYTES,
    NORM_MARGIN,
    check_configuration,
    draw_configuration,
    finite_difference_grads,
    max_relative_error,
    run_gradient_checks,
)
from simreg.errors import InvalidInputError
from simreg.losses import LossKind, LossSpec


def test_small_sweep_passes():
    results = run_gradient_checks(seeds=range(2), dim_max=5, vocab_max=15,
                                  batch_max=3)
    assert all(r.max_rel_error <= 1e-4 for r in results)


def test_sizes_are_accepted_up_to_the_samplers_bound(monkeypatch):
    """The largest sizes whose table, word list and token arrays each fit in
    physical memory pass the checks; one more is an input error, as is a size
    past the sampler's bound, Generator.integers' int64 draws.  No
    configuration is drawn."""
    largest = 2**63 - 1
    rng = np.random.default_rng(0)
    rng.integers(2, largest + 1), rng.integers(5, largest - 1)  # the draws' bounds
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    checked = []
    monkeypatch.setattr(gradcheck, "check_configuration",
                        lambda *args: checked.append(args))
    words = memory // gradcheck.WORD_BYTES  # the word list binds at dim 2
    rows = memory // (8 * 8)  # the table binds at dim 8
    fitting = [{"dim_max": 2, "vocab_max": words}, {"dim_max": 8, "vocab_max": rows},
               {"batch_max": memory // gradcheck.PAIR_BYTES}]
    for sizes in fitting:
        run_gradient_checks(seeds=[0], **sizes)
    assert len(checked) == len(fitting) * len(ALL_KINDS) * len(ALL_MODES)

    def no_draw(*args):
        raise AssertionError("a refused size was drawn")

    monkeypatch.setattr(gradcheck, "check_configuration", no_draw)
    for name in ("dim_max", "vocab_max", "batch_max"):
        with pytest.raises(InvalidInputError, match=f"{name} must be at least"):
            run_gradient_checks(seeds=[0], **{name: largest + 1})
    for sizes, what in (({"dim_max": 2, "vocab_max": words + 1}, "list of"),
                        ({"dim_max": 8, "vocab_max": rows + 1}, "float64 table"),
                        ({"batch_max": memory // gradcheck.PAIR_BYTES + 1}, "token arrays"),
                        ({"dim_max": largest}, "float64 table"),
                        ({"vocab_max": largest}, "float64 table"),
                        ({"batch_max": largest}, "token arrays")):
        with pytest.raises(InvalidInputError, match=f"{what} .* physical memory"):
            run_gradient_checks(seeds=[0], **sizes)
    with pytest.raises(InvalidInputError, match=r"fewer than 2\*\*63 seeds"):
        run_gradient_checks(seeds=range(largest + 1))


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
        return forward_backward(params, pairs.pooling, [target], model.feature_mode, spec)

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
        return forward_backward(params, pairs.pooling, [1.0], model.feature_mode,
                                LossSpec(LossKind.MSE))

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
    _, analytic = forward_backward(params, tokens.pooling, targets, mode, spec)
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
    return lambda params: forward_backward(params, tokens.pooling, targets, mode, spec)[0]


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


@pytest.mark.parametrize("kind", [LossKind.SMOOTH_K2, LossKind.CROSS_ENTROPY])
def test_chunks_straddling_arrays_match_per_entry_oracle(monkeypatch, kind):
    params, tokens, targets, spec = draw_configuration(1, kind, FeatureMode.UV_ABS_DIFF)
    n_embed = params.embeddings.size
    n = n_embed + params.head_weights.size + params.head_bias.size
    # entries per chunk such that one chunk holds the last embedding entries
    # and the first head-weight entries, and the last chunk a single entry
    per_call = next(k for k in range(2, n) if n_embed % k and n % k == 1)
    # a copy of all n float64 entries is 8 * n bytes
    monkeypatch.setattr(gradcheck, "FD_CHUNK_BYTES", 2 * 8 * n * per_call)
    value_fn = loss_fn(tokens, targets, FeatureMode.UV_ABS_DIFF, spec)
    calls = []

    def counting(stacked):
        calls.append(stacked.stack_shape[0] // 2)
        return value_fn(stacked)

    before = snapshot(params)
    fd = finite_difference_grads(counting, params)
    assert snapshot(params) == before
    assert calls == [per_call] * (n // per_call) + [1]
    expected = finite_difference_per_entry(value_fn, params, DEFAULT_STEP)
    for got, want in zip((fd.embeddings, *head_parts(fd.head, params.weights_shape)),
                         expected, strict=True):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


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


def test_raising_value_fn_leaves_params_unperturbed():
    params, *_ = draw_configuration(0, LossKind.MSE, FeatureMode.UV)
    before = snapshot(params)

    def value_fn(stacked):
        raise RuntimeError("forward failed")

    with pytest.raises(RuntimeError):
        finite_difference_grads(value_fn, params)
    assert snapshot(params) == before


def test_memory_stays_near_the_chunk_budget():
    words = [f"w{i}" for i in range(100)]
    model = Model.initialize(build_vocab([" ".join(words)]), dim=16, seed=4,
                             label_range=(0.0, 3.0))
    table = model.params.embeddings
    # unchunked: one +step and one -step copy of the whole table per entry
    assert 2 * table.size * table.nbytes > 40e6
    pairs = model.encode([text for i in range(0, 40, 10)
                          for text in (" ".join(words[i:i + 5]), words[i + 50])])
    targets = [0.5, 1.0, 2.0, 2.5]
    spec = LossSpec(LossKind.MSE)
    value_fn = loss_fn(pairs, targets, model.feature_mode, spec)
    tracemalloc.start()
    try:
        fd = finite_difference_grads(value_fn, model.params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * FD_CHUNK_BYTES
    _, analytic = forward_backward(model.params, pairs.pooling, targets,
                                   model.feature_mode, spec)
    assert max_relative_error(analytic, fd) <= 1e-4


@pytest.mark.parametrize("kind", [LossKind.SMOOTH_K2, LossKind.CROSS_ENTROPY,
                                  LossKind.INFO_NCE])
def test_a_large_batch_stays_near_the_chunk_budget(monkeypatch, kind):
    """A chunk counts what the stacked forward makes of each copy (the
    gathered rows, pooled vectors, features, logits or similarities), not
    only the copies' parameters: at batch_max 118, seed 0 draws 36, 94 and
    48 pairs, which chunks sized by the parameters alone take to about 10,
    25 and 45 times the budget."""
    budget = 256 * 2**10
    monkeypatch.setattr(gradcheck, "FD_CHUNK_BYTES", budget)
    _, tokens, *_ = draw_configuration(0, kind, FeatureMode.UV_ABS_DIFF, batch_max=118)
    assert len(tokens) >= 36
    tracemalloc.start()
    try:
        result = check_configuration(0, kind, FeatureMode.UV_ABS_DIFF, batch_max=118)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * budget
    assert result.max_rel_error <= DEFAULT_TOLERANCE


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


def test_a_draw_once_next_to_a_zero_norm_passes():
    """At batch_max 100 this draw once held a pooled vector of norm 2.9e-4,
    whose central difference failed the tolerance."""
    result = check_configuration(12, LossKind.INFO_NCE, FeatureMode.ABS_DIFF,
                                 batch_max=100)
    assert result.max_rel_error <= DEFAULT_TOLERANCE

