"""Finite-difference verification of every analytic gradient.

Builds small random models and compares the hand-derived backward pass
against central differences, parameter by parameter, for every loss kind and
feature mode.  Sampled configurations are redrawn when the forward pass lands
too close to a non-smooth point (the loss knot at x0, the kink of |u - v| at
equal coordinates, the kink of the absolute error at zero), where comparing
slopes is meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import (
    FeatureMode,
    Gradients,
    ModelParams,
    build_vocab,
    features,
    forward_backward,
    init_params,
    pool,
    tokenize_pairs,
)
from .errors import InvalidInputError, TrainingError
from .losses import LossKind, LossSpec

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4
KNOT_MARGIN = 1e-3  # distance kept from non-smooth points of the loss surface
ABS_MARGIN = 1e-4  # min per-coordinate |u - v| when the |u-v| branch is active

ALL_KINDS = tuple(LossKind)
ALL_MODES = tuple(FeatureMode)


@dataclass(frozen=True)
class GradCheckResult:
    seed: int
    kind: LossKind
    mode: FeatureMode
    max_rel_error: float
    n_params: int

    @property
    def label(self) -> str:
        return f"seed={self.seed} loss={self.kind.value} mode={self.mode.value}"


def finite_difference_grads(value_fn, params: ModelParams,
                            step: float = DEFAULT_STEP) -> Gradients:
    """Central-difference gradient of value_fn() over every parameter entry."""
    fd = Gradients.zeros_like(params)
    for name in ("embeddings", "head_weights", "head_bias"):
        arr = getattr(params, name)
        out = getattr(fd, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + step
            up = value_fn()
            arr[ix] = orig - step
            down = value_fn()
            arr[ix] = orig
            out[ix] = (up - down) / (2.0 * step)
    return fd


def max_relative_error(analytic: Gradients, fd: Gradients) -> float:
    """Worst entry-wise relative error of analytic against the whole-table
    finite-difference gradient fd; analytic's embedding gradient is compared
    densified, so rows it leaves out are checked to be zero.  A NaN entry
    makes the result NaN."""
    vocab_size = len(fd.embeddings)
    errors = []
    for a, f in (
        (analytic.dense_embeddings(vocab_size), fd.embeddings),
        (analytic.head_weights, fd.head_weights),
        (np.atleast_1d(analytic.head_bias), np.atleast_1d(fd.head_bias)),
    ):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
        errors.append(np.max(np.abs(a - f) / denom))
    return float(np.max(errors))


def _random_sentences(rng, words, batch):
    """A random batch of pairs, sentences alternately left and right."""
    return [" ".join(rng.choice(words, size=int(rng.integers(1, 6))))
            for _ in range(2 * batch)]


def _too_close_to_kink(params, pairs, targets, mode, spec):
    pooled = pool(params.embeddings, pairs)
    u, v = pooled[0::2], pooled[1::2]
    if mode is not FeatureMode.UV and np.min(np.abs(u - v)) < ABS_MARGIN:
        return True
    if spec.kind in (LossKind.CROSS_ENTROPY, LossKind.INFO_NCE):
        return False
    x = np.abs(features(u, v, mode) @ params.head_weights + params.head_bias - targets)
    if spec.kind in (LossKind.TRANSLATED_RELU, LossKind.SMOOTH_K2):
        if np.any(np.abs(x - spec.x0) < KNOT_MARGIN):
            return True
    return spec.kind in (LossKind.TRANSLATED_RELU, LossKind.L1) and np.any(x < KNOT_MARGIN)


def check_configuration(
    seed: int,
    kind: LossKind,
    mode: FeatureMode,
    dim_max: int = 8,
    vocab_max: int = 30,
    batch_max: int = 4,
    step: float = DEFAULT_STEP,
) -> GradCheckResult:
    """Gradient-check one randomly drawn (loss, feature-mode) configuration."""
    rng = np.random.default_rng([seed, ALL_KINDS.index(kind), ALL_MODES.index(mode)])
    dim = int(rng.integers(2, dim_max + 1))
    n_words = int(rng.integers(5, vocab_max - 1))
    batch = int(rng.integers(2, batch_max + 1))
    words = [f"w{i}" for i in range(n_words)]
    vocab = build_vocab([" ".join(words)])
    n_classes = int(rng.integers(3, 6)) if kind is LossKind.CROSS_ENTROPY else None
    params = init_params(len(vocab), dim, mode, int(rng.integers(0, 2**31)),
                         label_range=(0.0, 3.0), n_classes=n_classes)
    spec = _random_spec(rng, kind)

    for _ in range(200):
        texts = _random_sentences(rng, words, batch)
        if kind is LossKind.CROSS_ENTROPY:
            targets = rng.integers(0, n_classes, size=batch)
        else:
            targets = rng.uniform(0.0, 3.0, size=batch)
        tokens = tokenize_pairs(texts, vocab)
        if not _too_close_to_kink(params, tokens, targets, mode, spec):
            break
    else:
        raise TrainingError("could not sample a configuration away from kinks")

    _, analytic = forward_backward(params, tokens, targets, mode, spec)
    fd = finite_difference_grads(
        lambda: forward_backward(params, tokens, targets, mode, spec,
                                 with_grads=False)[0],
        params,
        step,
    )
    n_params = params.embeddings.size + params.head_weights.size + params.head_bias.size
    return GradCheckResult(seed, kind, mode, max_relative_error(analytic, fd), n_params)


def run_gradient_checks(
    seeds=range(20),
    kinds=ALL_KINDS,
    modes=ALL_MODES,
    dim_max: int = 8,
    vocab_max: int = 30,
    batch_max: int = 4,
    step: float = DEFAULT_STEP,
) -> list[GradCheckResult]:
    """The full sweep: every seed x loss kind x feature mode."""
    seeds = tuple(seeds)
    if not seeds:
        raise InvalidInputError("gradient check needs at least one seed")
    for name, value, least in (("dim_max", dim_max, 2), ("vocab_max", vocab_max, 7),
                               ("batch_max", batch_max, 2)):
        if value < least:
            raise InvalidInputError(f"{name} must be at least {least}, got {value}")
    return [
        check_configuration(seed, kind, mode, dim_max, vocab_max, batch_max, step)
        for seed in seeds
        for kind in kinds
        for mode in modes
    ]


def _random_spec(rng, kind: LossKind) -> LossSpec:
    if kind is LossKind.INFO_NCE:
        return LossSpec(kind, tau=float(rng.uniform(0.1, 1.0)))
    if kind in (LossKind.TRANSLATED_RELU, LossKind.SMOOTH_K2):
        return LossSpec(
            kind, k=float(rng.uniform(0.5, 3.0)), x0=float(rng.uniform(0.0, 0.5)),
            d=1.0,
        )
    return LossSpec(kind)
