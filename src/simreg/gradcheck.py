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
slopes is meaningless.  The whole batch is redrawn, up to MAX_DRAWS times,
so the larger the batch, the likelier every draw lands near a kink: from a
batch_max of about 150 pairs a configuration can fail to be drawn at all.
Each drawn batch is screened on its own pooling matrix (PairTokens.pooling),
which the analytic and the stacked passes then reuse.  InfoNCE has no head:
its analytic head gradients are None and are compared as zeros, which
checks that its finite-difference head gradient is zero.

The central differences run on the batched core's parameter-stack axis: the
table and the flat head (ModelParams.head) are laid out as one flat vector,
and all +step and -step copies of its entries go through one forward pass
of the stack, which gives one loss value per copy and no gradients, in
chunks of at most FD_CHUNK_BYTES of copies and their work, so memory stays
bounded however large the table or batch.  Each chunk's stacked table and
head are views of its block of copies.  The caller's parameters are never written.
"""

from __future__ import annotations

import os
import sys
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
    feature_dim,
    features,
    forward_backward,
    head,
    init_params,
)
from .errors import InvalidInputError, TrainingError
from .losses import LossKind, LossSpec

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4
KNOT_MARGIN = 1e-3  # distance kept from non-smooth points of the loss surface
ABS_MARGIN = 1e-4  # min per-coordinate |u - v| when the |u-v| branch is active
NORM_MARGIN = 5e-4  # min pooled-vector norm for InfoNCE's cosine, 50 steps
MAX_DRAWS = 200  # batches drawn for one configuration before it is given up
FD_CHUNK_BYTES = 4 * 2**20  # bytes of a forward's parameter copies and their work
# the least a draw holds per word of its vocabulary: the word's str and its
# slot in the word list
WORD_BYTES = sys.getsizeof("w0") + 8
# the least a draw's tokens hold per pair: for each of its two sentences, an
# array of at least one id and its slot in the list of sentences, then the
# id in the joined ids and the sentence's length
PAIR_BYTES = 2 * (sys.getsizeof(np.zeros(1, np.intp)) + 8 + 8 + 8)

# the default sweep: seeds, and the largest sizes a configuration is drawn at
DEFAULT_SEEDS = 20
DEFAULT_DIM_MAX = 8
DEFAULT_VOCAB_MAX = 30
DEFAULT_BATCH_MAX = 4

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


def finite_difference_grads(value_fn, params: ModelParams, copy_bytes=0) -> Gradients:
    """Central-difference gradient of value_fn over every parameter entry,
    with steps of DEFAULT_STEP.

    value_fn takes ModelParams stacked along one leading axis of P copies and
    returns their P loss values, holding copy_bytes per copy as it works.
    The table and the flat head are laid out as one flat vector, table
    first; each call gets the +step and then the -step copies of a run of
    its entries, as many as fit FD_CHUNK_BYTES with their work, split back
    into the table and the head as views.
    """
    table, weights_shape = params.embeddings, params.weights_shape
    flat = np.concatenate([table.reshape(-1), params.head])

    def split(vectors):
        """The table's and the head's views of flat vectors (last axis)."""
        lead = vectors.shape[:-1]
        return (vectors[..., :table.size].reshape(lead + table.shape),
                vectors[..., table.size:])

    fd = np.empty_like(flat)
    per_call = max(1, FD_CHUNK_BYTES // (2 * (flat.nbytes + copy_bytes)))
    for lo in range(0, flat.size, per_call):
        entries = np.arange(lo, min(lo + per_call, flat.size))
        k = len(entries)
        stack = np.repeat(flat.reshape(1, -1), 2 * k, axis=0)
        stack[np.arange(k), entries] += DEFAULT_STEP
        stack[np.arange(k, 2 * k), entries] -= DEFAULT_STEP
        stacked = ModelParams(*split(stack), weights_shape)
        values = value_fn(stacked)
        del stack, stacked  # free this chunk before the next is built
        up, down = np.reshape(values, (2, k))
        fd[entries] = (up - down) / (2.0 * DEFAULT_STEP)
    embeddings, flat_head = split(fd)
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


def check_configuration(
    seed: int,
    kind: LossKind,
    mode: FeatureMode,
    dim_max: int = DEFAULT_DIM_MAX,
    vocab_max: int = DEFAULT_VOCAB_MAX,
    batch_max: int = DEFAULT_BATCH_MAX,
) -> GradCheckResult:
    """Gradient-check one randomly drawn (loss, feature-mode) configuration."""
    params, tokens, targets, spec = draw_configuration(
        seed, kind, mode, dim_max, vocab_max, batch_max)
    _, analytic = forward_backward(params, tokens.pooling, targets, mode, spec)
    # the stacked forward's float64 work per copy: the gathered rows and pooled
    # vectors, then InfoNCE's normalized vectors, their gradients and four pairs
    # x pairs matrices, or |u - v| (two arrays), the features and four arrays of
    # head outputs (n_classes logits or one score per pair)
    rows, pairs, dim = len(analytic.rows), len(tokens), params.dim
    per_pair = (4 * dim + 4 * pairs if kind is LossKind.INFO_NCE
                else 2 * dim + feature_dim(mode, dim) + 4 * params.n_classes)
    fd = finite_difference_grads(
        lambda stacked: forward_backward(stacked, tokens.pooling, targets, mode, spec)[0],
        params, 8 * (rows * dim + pairs * (2 * dim + per_pair)),
    )
    n_params = params.embeddings.size + params.head.size
    return GradCheckResult(seed, kind, mode, max_relative_error(analytic, fd), n_params)


def draw_configuration(seed: int, kind: LossKind, mode: FeatureMode,
                       dim_max: int = DEFAULT_DIM_MAX, vocab_max: int = DEFAULT_VOCAB_MAX,
                       batch_max: int = DEFAULT_BATCH_MAX):
    """The random (params, tokens, targets, spec) that check_configuration
    checks, drawn away from the loss surface's kinks."""
    rng = np.random.default_rng([seed, ALL_KINDS.index(kind), ALL_MODES.index(mode)])
    dim = int(rng.integers(2, dim_max + 1))
    n_words = int(rng.integers(5, vocab_max - 1))
    batch = int(rng.integers(2, batch_max + 1))
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
            f"draws of {batch} pairs (batch_max {batch_max}) landed near one; "
            f"smaller batches avoid kinks")
    return params, tokens, targets, spec


def run_gradient_checks(
    seeds=range(DEFAULT_SEEDS),
    dim_max: int = DEFAULT_DIM_MAX,
    vocab_max: int = DEFAULT_VOCAB_MAX,
    batch_max: int = DEFAULT_BATCH_MAX,
) -> list[GradCheckResult]:
    """The full sweep: every seed x loss kind x feature mode (ALL_KINDS x
    ALL_MODES).  Each size lies between its sampling minimum and 2**63 - 1,
    the most that Generator.integers' int64 draws take, and the seeds number
    fewer than 2**63.  Before any draw, the largest arrays a draw can make,
    each counted at the least it takes, must each fit in physical memory:
    the vocab_max x dim_max float64 table, the list of vocab_max words
    (WORD_BYTES each) and the token arrays of batch_max pairs (PAIR_BYTES
    each)."""
    try:
        seeds = tuple(seeds)
    except OverflowError:  # a range of 2**63 or more has no length
        raise InvalidInputError("gradient check takes fewer than 2**63 seeds") from None
    if not seeds:
        raise InvalidInputError("gradient check needs at least one seed")
    for name, value, least in (("dim_max", dim_max, 2), ("vocab_max", vocab_max, 7),
                               ("batch_max", batch_max, 2)):
        if not least <= value < 2**63:
            raise InvalidInputError(
                f"{name} must be at least {least} and below 2**63, got {value}")
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for what, size in ((f"a {vocab_max} x {dim_max} float64 table", vocab_max * dim_max * 8),
                       (f"a list of {vocab_max} words", vocab_max * WORD_BYTES),
                       (f"the token arrays of {batch_max} pairs", batch_max * PAIR_BYTES)):
        if size > memory:
            raise InvalidInputError(f"{what} would take {size} bytes, more than the "
                                    f"{memory} bytes of physical memory")
    return [
        check_configuration(seed, kind, mode, dim_max, vocab_max, batch_max)
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
