import math

import numpy as np
import pytest

import simreg.encoder as encoder
from simreg.data import SentencePair
from simreg.encoder import FeatureMode, Model, build_vocab, forward_backward
from simreg.gradcheck import (
    check_configuration,
    finite_difference_grads,
    max_relative_error,
    run_gradient_checks,
)
from simreg.losses import LossKind, LossSpec


def test_small_sweep_passes():
    results = run_gradient_checks(seeds=range(2), dim_max=5, vocab_max=15,
                                  batch_max=3)
    assert all(r.max_rel_error <= 1e-4 for r in results)


def test_results_are_reproducible():
    a = check_configuration(3, LossKind.SMOOTH_K2, FeatureMode.UV_ABS_DIFF)
    b = check_configuration(3, LossKind.SMOOTH_K2, FeatureMode.UV_ABS_DIFF)
    assert a == b


def test_injected_sign_bug_is_caught(monkeypatch):
    # flip the sign propagated through the |u - v| branch
    original = encoder._feature_grad

    def broken(df, u, v, mode):
        du, dv = original(df, u, v, mode)
        if mode is not FeatureMode.UV:
            return dv, du  # swapped: wrong direction through |u - v|
        return du, dv

    monkeypatch.setattr(encoder, "_feature_grad", broken)
    result = check_configuration(0, LossKind.MSE, FeatureMode.UV_ABS_DIFF)
    assert result.max_rel_error > 1e-4


def test_buffer_zone_gives_zero_on_both_routes():
    vocab = build_vocab(["alpha beta gamma", "delta epsilon"])
    model = Model.initialize(vocab, dim=4, seed=8, label_range=(0.0, 3.0))
    pair = SentencePair("alpha beta", "delta epsilon", score=0.0)
    pairs = model.encode([pair])
    target = model.scores(pairs)[0] + 0.05  # inside the x0 = 0.25 buffer
    spec = LossSpec(LossKind.SMOOTH_K2, k=2.0, x0=0.25)

    def run():
        return forward_backward(model.params, pairs, [target], model.feature_mode, spec)

    value, analytic = run()
    fd = finite_difference_grads(lambda: run()[0], model.params)
    assert value == 0.0
    for grads in (analytic, fd):
        assert not grads.dense_embeddings(model.params.vocab_size).any()
        assert not grads.head_weights.any()
        assert not np.atleast_1d(grads.head_bias).any()
    assert max_relative_error(analytic, fd) == 0.0


@pytest.mark.parametrize("name", ["embeddings", "head_bias"])
def test_nan_analytic_entry_is_reported(name):
    vocab = build_vocab(["alpha beta gamma", "delta epsilon"])
    model = Model.initialize(vocab, dim=4, seed=8, label_range=(0.0, 3.0))
    pairs = model.encode([SentencePair("alpha beta", "delta epsilon", score=0.0)])

    def run():
        return forward_backward(model.params, pairs, [1.0], model.feature_mode,
                                LossSpec(LossKind.MSE))

    _, analytic = run()
    fd = finite_difference_grads(lambda: run()[0], model.params)
    assert max_relative_error(analytic, fd) < 1e-4
    grad = getattr(analytic, name)
    grad[(0,) * grad.ndim] = np.nan
    assert math.isnan(max_relative_error(analytic, fd))
