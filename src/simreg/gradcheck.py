"""Finite-difference verification of every analytic gradient.

Builds small random models and compares the hand-derived backward pass
against central differences over every entry of every parameter array, the
embedding rows of tokens absent from the batch included, for every loss kind
and feature mode.  A configuration's sentences are drawn straight as token
ids over a vocabulary of its words (Generator.integers).  Sampled
configurations are redrawn when the forward pass lands too close to a
non-smooth point (the loss knot at x0, the kink of |u - v| at equal
coordinates, the kink of the absolute error at zero, and, for InfoNCE, the
cosine's singularity at a pooled vector of zero norm), where comparing
slopes is meaningless.  The whole batch is redrawn, up to MAX_DRAWS times.
Every configuration is drawn at sizes up to DIM_MAX, VOCAB_MAX and
BATCH_MAX, small enough that its check runs in one stacked forward.
Each drawn batch is screened on its own pooling matrix (PairTokens.pooling),
which the analytic and the stacked passes then reuse.  InfoNCE has no head:
its analytic head gradients are None and are compared as zeros, which
checks that its finite-difference head gradient is zero.

The central differences run on the batched core's parameter-stack axis: the
table and the flat head (ModelParams.head) are laid out as one flat vector,
and all +step and -step copies of its entries go through one forward pass
of the stack, which gives one loss value per copy and no gradients.  The
stacked table and head are views of the copies.  The caller's parameters
are never written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import (
    OOV_TOKEN,
    PAD_TOKEN,
    FeatureMode,
    Gradients,
    ModelParams,
    PairTokens,
    Vocabulary,
    features,
    head,
    init_params,
    prepare_forward_backward,
)
from .errors import InvalidInputError, TrainingError
from .losses import LossKind, LossSpec

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4
KNOT_MARGIN = 1e-3  # distance kept from non-smooth points of the loss surface
ABS_MARGIN = 1e-4  # min per-coordinate |u - v| when the |u-v| branch is active
NORM_MARGIN = 5e-4  # min pooled-vector norm for InfoNCE's cosine, 50 steps
MAX_DRAWS = 200  # batches drawn for one configuration before it is given up

DEFAULT_SEEDS = 20
# the largest sizes a configuration is drawn at
DIM_MAX = 8
VOCAB_MAX = 30
BATCH_MAX = 4

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


def finite_difference_grads(value_fn, params: ModelParams) -> Gradients:
    """Central-difference gradient of value_fn over every parameter entry,
    with steps of DEFAULT_STEP.

    value_fn takes ModelParams stacked along one leading axis of P copies and
    returns their P loss values.  The table and the flat head are laid out
    as one flat vector of N entries, table first; value_fn is called once,
    on the +step copies of all N entries and then their -step copies, split
    back into the table and the head as views.
    """
    table, weights_shape = params.embeddings, params.weights_shape
    flat = np.concatenate([table.reshape(-1), params.head])

    def split(vectors):
        """The table's and the head's views of flat vectors (last axis)."""
        lead = vectors.shape[:-1]
        return (vectors[..., :table.size].reshape(lead + table.shape),
                vectors[..., table.size:])

    n = flat.size
    stack = np.repeat(flat.reshape(1, -1), 2 * n, axis=0)
    entries = np.arange(n)
    stack[entries, entries] += DEFAULT_STEP
    stack[entries + n, entries] -= DEFAULT_STEP
    up, down = np.reshape(value_fn(ModelParams(*split(stack), weights_shape)), (2, n))
    embeddings, flat_head = split((up - down) / (2.0 * DEFAULT_STEP))
    return Gradients(embeddings, np.arange(params.vocab_size), flat_head)


def max_relative_error(analytic: Gradients, fd: Gradients) -> float:
    """Worst entry-wise relative error of analytic against the whole-table
    finite-difference gradient fd, both laid out as one flat vector in
    finite_difference_grads' order: the table, then the flat head.
    analytic's embedding gradient is compared densified, so rows it leaves
    out are checked to be zero, and a gradient it does not have (None, as
    InfoNCE's head gradient) is compared as zeros.  A NaN entry makes the
    result NaN."""
    table = fd.embeddings
    f = np.concatenate([table.reshape(-1), fd.head])
    a = np.zeros_like(f)
    if analytic.embeddings is not None:  # written through a view of a's table
        a[:table.size].reshape(table.shape)[analytic.rows] = analytic.embeddings
    if analytic.head is not None:
        a[table.size:] = analytic.head
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
    return float(np.max(np.abs(a - f) / denom))


def _random_tokens(rng, word_ids, batch):
    """A random batch of pairs, sentences alternately left and right, of one
    to five words each."""
    picks = [word_ids[rng.integers(0, len(word_ids), size=int(rng.integers(1, 6)))]
             for _ in range(2 * batch)]
    return PairTokens(np.concatenate(picks), np.array([len(p) for p in picks]))


def _too_close_to_kink(params, pairs, targets, mode, spec):
    rows, S = pairs.pooling  # the matrix the checked forward passes read
    pooled = S.T @ params.embeddings[rows]
    u, v = pooled[0::2], pooled[1::2]
    if mode is not FeatureMode.UV and np.min(np.abs(u - v)) < ABS_MARGIN:
        return True
    if spec.kind is LossKind.INFO_NCE:
        return np.min(np.linalg.norm(pooled, axis=1)) < NORM_MARGIN
    if spec.kind is LossKind.CROSS_ENTROPY:
        return False
    x = np.abs(head(params)(features(u, v, mode)) - targets)
    if spec.kind in (LossKind.TRANSLATED_RELU, LossKind.SMOOTH_K2):
        if np.any(np.abs(x - spec.x0) < KNOT_MARGIN):
            return True
    return spec.kind in (LossKind.TRANSLATED_RELU, LossKind.L1) and np.any(x < KNOT_MARGIN)


def check_configuration(seed: int, kind: LossKind, mode: FeatureMode) -> GradCheckResult:
    """Gradient-check one randomly drawn (loss, feature-mode) configuration."""
    params, tokens, targets, spec = draw_configuration(seed, kind, mode)
    _, analytic = prepare_forward_backward(params, mode, spec)(tokens.pooling, targets)
    fd = finite_difference_grads(
        lambda stacked: prepare_forward_backward(stacked, mode, spec)(
            tokens.pooling, targets)[0],
        params)
    n_params = params.embeddings.size + params.head.size
    return GradCheckResult(seed, kind, mode, max_relative_error(analytic, fd), n_params)


def draw_configuration(seed: int, kind: LossKind, mode: FeatureMode):
    """The random (params, tokens, targets, spec) that check_configuration
    checks, drawn away from the loss surface's kinks."""
    rng = np.random.default_rng([seed, ALL_KINDS.index(kind), ALL_MODES.index(mode)])
    dim = int(rng.integers(2, DIM_MAX + 1))
    n_words = int(rng.integers(5, VOCAB_MAX - 1))
    batch = int(rng.integers(2, BATCH_MAX + 1))
    words = [f"w{i}" for i in range(n_words)]
    # what build_vocab gives these words: each counts once, ties alphabetical
    vocab = Vocabulary((PAD_TOKEN, OOV_TOKEN, *sorted(words)))
    word_ids = vocab.lookup(words)
    n_classes = int(rng.integers(3, 6)) if kind is LossKind.CROSS_ENTROPY else None
    params = init_params(len(vocab), dim, mode, int(rng.integers(0, 2**31)),
                         label_range=(0.0, 3.0), n_classes=n_classes)
    spec = _random_spec(rng, kind)

    for _ in range(MAX_DRAWS):
        tokens = _random_tokens(rng, word_ids, batch)
        if kind is LossKind.CROSS_ENTROPY:
            targets = rng.integers(0, n_classes, size=batch)
        else:
            targets = rng.uniform(0.0, 3.0, size=batch)
        if not _too_close_to_kink(params, tokens, targets, mode, spec):
            break
    else:
        raise TrainingError(
            f"could not sample a configuration away from kinks: all {MAX_DRAWS} "
            f"draws of {batch} pairs landed near one")
    return params, tokens, targets, spec


def run_gradient_checks(seeds=range(DEFAULT_SEEDS)) -> list[GradCheckResult]:
    """The full sweep: every seed x loss kind x feature mode (ALL_KINDS x
    ALL_MODES).  The seeds number fewer than 2**63."""
    try:
        seeds = tuple(seeds)
    except OverflowError:  # a range of 2**63 or more has no length
        raise InvalidInputError("gradient check takes fewer than 2**63 seeds") from None
    if not seeds:
        raise InvalidInputError("gradient check needs at least one seed")
    return [
        check_configuration(seed, kind, mode)
        for seed in seeds
        for kind in ALL_KINDS
        for mode in ALL_MODES
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
