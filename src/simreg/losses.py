"""Loss functions and their analytic derivatives.

Everything here is stateless.  The residual losses and cross-entropy are
element-wise: they take a scalar or a whole batch at once and return values
and derivatives of the same shape.  Cross-entropy and InfoNCE also take
batches stacked along leading axes, one batch per parameter copy.  The two
buffered losses share the same shape: they are identically zero on
``[0, x0)`` (the zero-gradient buffer zone) and penalize only residuals at
or past the threshold:

    translated_relu(x) = max(0, k*(x - x0))          (piecewise linear)
    smooth_k2(x)       = k*(x - x0)**2  for x >= x0  (piecewise quadratic, C1)

Derivatives are taken with respect to the residual x; at the knot x = x0 the
right-sided derivative is used (k for translated_relu, 0 for smooth_k2).
Per-sample losses are averaged, not summed, over a batch so that k keeps the
same meaning regardless of batch size.  residual_loss binds a residual loss to
its spec once, for a prepared step that applies it to batch after batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .errors import InvalidInputError


class LossKind(str, Enum):
    TRANSLATED_RELU = "translated_relu"
    SMOOTH_K2 = "smooth_k2"
    L1 = "l1"
    MSE = "mse"
    CROSS_ENTROPY = "cross_entropy"
    INFO_NCE = "info_nce"


REGRESSION_KINDS = frozenset(
    {LossKind.TRANSLATED_RELU, LossKind.SMOOTH_K2, LossKind.L1, LossKind.MSE}
)


@dataclass(frozen=True)
class LossSpec:
    """Which loss to use plus its hyperparameters.

    k is the slope/curvature coefficient, x0 the buffer-zone threshold, d the
    interval between mapped label nodes (x0 may not exceed d/2), and tau the
    temperature for the contrastive loss. Every value given must be finite.
    """

    kind: LossKind
    k: float = 1.0
    x0: float = 0.0
    d: float = 1.0
    tau: float | None = None

    def __post_init__(self):
        for name in ("k", "x0", "d", "tau"):
            value = getattr(self, name)
            if value is not None:
                value = float(value)
                if not math.isfinite(value):
                    raise InvalidInputError(f"{name} must be finite, got {value}")
                object.__setattr__(self, name, value)
        if self.k <= 0:
            raise InvalidInputError(f"k must be positive, got {self.k}")
        if self.d <= 0:
            raise InvalidInputError(f"d must be positive, got {self.d}")
        if not 0.0 <= self.x0 <= self.d / 2.0:
            raise InvalidInputError(
                f"x0 must satisfy 0 <= x0 <= d/2 = {self.d / 2.0}, got {self.x0}"
            )
        if self.kind is LossKind.INFO_NCE:
            if self.tau is None or self.tau <= 0:
                raise InvalidInputError("info_nce requires tau > 0")


_FLOAT = np.dtype(float)


def _residuals(x):
    """x as a float (array); every entry must be finite and non-negative,
    else the error names how many are not and the first of them.  A float
    array of at least one axis is taken as it is."""
    if type(x) is not np.ndarray or x.dtype is not _FLOAT or not x.ndim:
        x = np.asarray(x, dtype=float)[()]
    # two reductions over all axes (None), with no temporary array: the
    # least entry is negative for a negative entry or -inf, and NaN, which
    # fails every comparison, for a NaN; the greatest is inf for an inf
    if x.size and not (np.minimum.reduce(x, None) >= 0.0
                       and np.maximum.reduce(x, None) < math.inf):
        flat = np.ravel(x)
        bad = flat[~((flat >= 0.0) & (flat < math.inf))]
        raise InvalidInputError(f"residual must be finite and non-negative, got "
                                f"{bad.size} bad of {flat.size} entries, the first {bad[0]}")
    return x


def translated_relu(x, spec: LossSpec):
    """max(0, k*(x - x0)) and its derivative in x."""
    x = _residuals(x)
    return np.maximum(spec.k * (x - spec.x0), 0.0), spec.k * (x >= spec.x0)


def smooth_k2(x, spec: LossSpec):
    """k*(x - x0)**2 past the buffer zone, 0 inside it; C1 at the knot."""
    t = np.maximum(_residuals(x) - spec.x0, 0.0)
    return spec.k * t * t, 2.0 * spec.k * t


def l1_loss(x):
    """Plain absolute-error baseline: value x, slope 1 (0 at x = 0)."""
    x = _residuals(x)
    return x, np.sign(x)


def mse_loss(x):
    """Squared-error baseline: value x**2, slope 2x."""
    x = _residuals(x)
    return x * x, 2.0 * x


def residual_loss(spec: LossSpec):
    """The residual-based loss the spec names, bound to it once:
    residual_loss(spec)(x) gives the values and derivatives at residuals x."""
    if spec.kind is LossKind.TRANSLATED_RELU:
        return partial(translated_relu, spec=spec)
    if spec.kind is LossKind.SMOOTH_K2:
        return partial(smooth_k2, spec=spec)
    if spec.kind is LossKind.L1:
        return l1_loss
    if spec.kind is LossKind.MSE:
        return mse_loss
    raise InvalidInputError(f"{spec.kind.value} is not a residual-based loss")


def cross_entropy(logits, class_index):
    """Softmax cross-entropy and its gradient with respect to the logits.

    logits is a K-vector with one class index, or an (..., n, K) array with
    n indices, broadcast over any leading stack axes; the values and
    gradients have the shape of the logits' rows.  Uses the log-sum-exp
    stabilized form; gradient is softmax(logits) - onehot.
    """
    z = np.asarray(logits, dtype=float)
    t = np.asarray(class_index)
    if z.ndim == 0 or z.size == 0:
        raise InvalidInputError("logits must be a nonempty vector or array")
    rows = z.shape[:-1]
    if (t.ndim > len(rows) or rows[len(rows) - t.ndim:] != t.shape
            or not np.issubdtype(t.dtype, np.integer)):
        raise InvalidInputError("need one integer class index per logit row")
    if ((t < 0) | (t >= z.shape[-1])).any():
        raise InvalidInputError(
            f"class index {class_index} out of range for {z.shape[-1]} logits"
        )
    t = np.broadcast_to(t, rows)[..., None]
    m = z.max(axis=-1, keepdims=True)
    exp = np.exp(z - m)
    norm = exp.sum(axis=-1, keepdims=True)
    value = m + np.log(norm) - np.take_along_axis(z, t, axis=-1)
    grad = exp / norm
    np.put_along_axis(grad, t, np.take_along_axis(grad, t, axis=-1) - 1.0, axis=-1)
    return value[..., 0][()], grad


def info_nce(anchors, positives, tau: float
             ) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Batch-mean contrastive loss over cosine similarities.

    Each anchor is pulled toward its own positive and pushed away from every
    other positive in the batch:

        loss_i = -log( exp(cos(a_i, p_i)/tau) / sum_j exp(cos(a_i, p_j)/tau) )

    Returns the mean loss and gradients for the anchor and positive matrices.
    Stacked (..., n, dim) inputs give one batch-mean loss per leading index
    (an array) and gradients of the inputs' shape.  With a single pair the
    numerator equals the denominator, so the loss and all gradients are
    exactly zero.
    """
    if tau <= 0:
        raise InvalidInputError(f"tau must be positive, got {tau}")
    a = np.atleast_2d(np.asarray(anchors, dtype=float))
    p = np.atleast_2d(np.asarray(positives, dtype=float))
    if a.shape[-2] == 0:
        raise InvalidInputError("batch must be nonempty")
    if a.shape != p.shape:
        raise InvalidInputError(f"shape mismatch: {a.shape} vs {p.shape}")
    na = np.linalg.norm(a, axis=-1, keepdims=True)
    np_ = np.linalg.norm(p, axis=-1, keepdims=True)
    if np.any(na == 0) or np.any(np_ == 0):
        raise InvalidInputError("zero-norm embedding in contrastive batch")

    ah = a / na
    ph = p / np_
    sims = ah @ np.swapaxes(ph, -1, -2)  # sims[..., i, j] = cos(a_i, p_j)
    n = sims.shape[-1]

    scaled = sims / tau
    row_max = scaled.max(axis=-1, keepdims=True)
    exp = np.exp(scaled - row_max)
    log_norm = row_max[..., 0] + np.log(exp.sum(axis=-1))
    value = np.mean(log_norm - np.diagonal(scaled, axis1=-2, axis2=-1), axis=-1)

    d_sims = exp / exp.sum(axis=-1, keepdims=True)
    d_sims[..., np.arange(n), np.arange(n)] -= 1.0
    d_sims /= n * tau

    # d cos(a_i, p_j) / d a_i = (ph_j - sims_ij * ah_i) / |a_i|
    row_dot = (d_sims * sims).sum(axis=-1, keepdims=True)
    d_anchors = (d_sims @ ph - row_dot * ah) / na
    col_dot = (d_sims * sims).sum(axis=-2)[..., None]
    d_positives = (np.swapaxes(d_sims, -1, -2) @ ah - col_dot * ph) / np_
    return (value if value.ndim else float(value)), d_anchors, d_positives
