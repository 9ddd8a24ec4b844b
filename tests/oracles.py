"""Brute-force reference implementations the tests check against.

These deliberately avoid the package's own code paths: ranks come from a
stable sort with explicit tie grouping, Pearson from the textbook sum
formula, classification from an argmin scan over nodes, a TSV corpus parsed
one line at a time, gold values and rounding accuracy one pair at a time,
words one regular-expression scan per text, token ids one dictionary lookup
per word, a batch's tokens copied one
sentence at a time and its pooling matrix counted one token at a time,
sentence means one sentence at a time, deduplication from a full O(n*m)
comparison, the model's forward/backward pass from scalar loss closed forms
applied one pair and one token at a time, the head and loss of pooled pairs
as one function of u and v that builds its own features and returns their
gradient (head_forward_backward), finite differences one parameter
entry and two forward passes at a time, the gradient check's relative error
one parameter array at a time (max_relative_error_per_array), its
configurations drawn as text and tokenized (draw_configuration_via_text), the
optimizers as updates of whole dense arrays, and the synthetic corpus from a
set difference over the whole vocabulary per pair.  params_of builds
parameters from the head's weights and bias as separate arrays, join_head
joins such parts into one flat head, copy_params gives tests that
mutate parameters their own copy, zero_gradients a zero gradient of
every parameter entry for the optimizers to step on, and dense_embeddings a
row-sparse embedding gradient as the whole table's.
"""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import numpy as np

from simreg import losses
from simreg.data import Dataset, SentencePair
from simreg.encoder import (
    Gradients,
    ModelParams,
    PairTokens,
    build_vocab,
    features,
    head,
    head_parts,
    init_params,
    tokenize_pairs,
)
from simreg.errors import DataFormatError, TrainingError
from simreg.gradcheck import (
    ALL_KINDS,
    ALL_MODES,
    BATCH_MAX,
    DIM_MAX,
    MAX_DRAWS,
    VOCAB_MAX,
    _random_spec,
    _too_close_to_kink,
)
from simreg.losses import LossKind


def join_head(weights, bias, lead=()):
    """(head, weights_shape): a new flat head holding weights, then bias,
    along its last axis after the lead stack axes, and one copy's weights
    shape, as ModelParams takes them."""
    weights, bias = np.asarray(weights, dtype=float), np.asarray(bias, dtype=float)
    head = np.concatenate((weights.reshape(lead + (-1,)), bias.reshape(lead + (-1,))),
                          axis=-1)
    return head, weights.shape[len(lead):]


def params_of(embeddings, weights, bias):
    """ModelParams of the table embeddings, whose leading axes are the
    stack, and a new flat head joined from the weights and bias."""
    embeddings = np.asarray(embeddings, dtype=float)
    params = ModelParams(embeddings, *join_head(weights, bias, embeddings.shape[:-2]))
    assert params.head_bias.shape == np.shape(bias)
    return params


def copy_params(params):
    """params with a private copy of each of its arrays."""
    return dataclasses.replace(params, embeddings=params.embeddings.copy(),
                               head=params.head.copy())


def zero_gradients(params):
    """Zero gradients covering the whole embedding table."""
    return Gradients(np.zeros_like(params.embeddings), np.arange(params.vocab_size),
                     np.zeros_like(params.head))


def dense_embeddings(grads, vocab_size):
    """The (vocab_size, dim) embedding gradient, zero on untouched rows."""
    dense = np.zeros((vocab_size, grads.embeddings.shape[1]))
    dense[grads.rows] = grads.embeddings
    return dense


def rank_with_ties(values):
    """1-based average ranks via sorted positions, grouped by exact value."""
    positions = {}
    for pos, v in enumerate(sorted(values), start=1):
        positions.setdefault(v, []).append(pos)
    return [sum(positions[v]) / len(positions[v]) for v in values]


def pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    dx = math.sqrt(sum((x - mx) ** 2 for x in xs))
    dy = math.sqrt(sum((y - my) ** 2 for y in ys))
    return num / (dx * dy)


def spearman_bruteforce(predictions, golds):
    return pearson(rank_with_ties(predictions), rank_with_ties(golds))


def classify_bruteforce(mapping, prediction):
    """Nearest node by linear scan; exact-distance ties pick the higher node."""
    best_i = 0
    best_dist = abs(prediction - mapping.nodes[0])
    for i, node in enumerate(mapping.nodes):
        dist = abs(prediction - node)
        if dist < best_dist or (dist == best_dist and i > best_i):
            best_i, best_dist = i, dist
    return mapping.categories[best_i]


def classes_per_pair(dataset, mapping):
    """Each pair's label position in a scan of the mapping's categories."""
    return np.array([list(mapping.categories).index(pair.label)
                     for pair in dataset.pairs], dtype=np.intp)


def golds_per_pair(dataset, mapping):
    """Each pair's score, or the node at its label's position in a scan of
    the mapping's categories."""
    return [pair.score if pair.label is None
            else mapping.nodes[list(mapping.categories).index(pair.label)]
            for pair in dataset.pairs]


def accuracy_per_pair(scores, dataset, mapping):
    """Share of pairs whose nearest node (by linear scan) is their label's."""
    hits = sum(classify_bruteforce(mapping, s) == pair.label
               for s, pair in zip(scores, dataset.pairs, strict=True))
    return hits / len(dataset)


def parse_tsv_per_line(raw, path, name=None, score_range=(0.0, 5.0), categories=None):
    """A TSV corpus read one line at a time: each line split, checked and
    made a SentencePair on its own, so the first bad line raises.  Lines end
    at "\\n", "\\r\\n" or "\\r", and a final line end starts no line."""
    path = Path(path)
    name = name if name is not None else path.stem
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not valid UTF-8: {exc}") from exc
    if text.startswith("\ufeff"):  # a byte-order mark opens no field
        text = text[1:]
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    pairs = []
    for lineno, line in enumerate(lines, start=1):
        fields = line.split("\t")
        if len(fields) < 3:
            raise DataFormatError(
                f"{path}:{lineno}: expected at least 3 tab-separated fields, "
                f"got {len(fields)}"
            )
        first, s1, s2 = fields[0], fields[1], fields[2]
        if categories is not None:
            if first not in categories:
                raise DataFormatError(f"{path}:{lineno}: unknown label {first!r}")
            pairs.append(SentencePair(s1, s2, label=first))
        else:
            try:
                score = float(first)
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: score field {first!r} is not a number"
                ) from None
            low, high = score_range
            if not low <= score <= high:
                raise DataFormatError(
                    f"{path}:{lineno}: score {score} outside [{low}, {high}]"
                )
            pairs.append(SentencePair(s1, s2, score=score))
    if categories is not None:
        return Dataset(name, tuple(pairs), categories=tuple(categories))
    return Dataset(name, tuple(pairs), score_range=score_range)


def dedup_bruteforce(train, tests):
    """Full pairwise scan; returns (kept indices, removed indices)."""
    kept, removed = [], []
    for i, tp in enumerate(train.pairs):
        a, b = tp.s1.strip(), tp.s2.strip()
        hit = False
        for ds in tests:
            for q in ds.pairs:
                c, d = q.s1.strip(), q.s2.strip()
                if (a == c and b == d) or (a == d and b == c):
                    hit = True
                    break
            if hit:
                break
        (removed if hit else kept).append(i)
    return kept, removed


def softmax_bruteforce(logits):
    exps = [math.exp(z) for z in logits]
    total = sum(exps)
    return [e / total for e in exps]


def central_difference(fn, x, step=1e-6):
    return (fn(x + step) - fn(x - step)) / (2.0 * step)


def residual_loss_scalar(x, kind, k, x0):
    """Closed-form value and slope of a residual loss at x >= 0."""
    if kind == "translated_relu":
        return (0.0, 0.0) if x < x0 else (k * (x - x0), k)
    if kind == "smooth_k2":
        return (0.0, 0.0) if x < x0 else (k * (x - x0) ** 2, 2.0 * k * (x - x0))
    if kind == "l1":
        return x, (0.0 if x == 0 else 1.0)
    return x * x, 2.0 * x


def split_words(text):
    """The words of one text: its lowercased \\w+ runs."""
    return re.findall(r"\w+", text.lower())


def tokenize_per_token(text, vocab, max_tokens=None):
    """Token ids of one sentence, one lookup per lowercased word, cut to
    max_tokens words; a text without words is the single OOV token."""
    ids = {token: i for i, token in enumerate(vocab.tokens)}
    oov = ids["<oov>"]
    words = split_words(text)[:max_tokens]
    return [ids.get(word, oov) for word in words] or [oov]


def take(tokens, index):
    """The PairTokens of the pairs of tokens at the given positions, in that
    order, copying each sentence's ids one sentence at a time."""
    ids, lengths = [], []
    for i in index:
        for j in (2 * i, 2 * i + 1):
            start, length = tokens.starts[j], tokens.lengths[j]
            ids.append(tokens.ids[start:start + length])
            lengths.append(length)
    return PairTokens(np.concatenate(ids), np.array(lengths, dtype=np.intp))


def pooling_matrix(tokens):
    """(rows, S) of one batch: its sorted distinct token ids, and S[r, j] =
    count of rows[r] in sentence j / sentence j's length, counted one token
    at a time."""
    rows = sorted(set(tokens.ids.tolist()))
    position = {token: r for r, token in enumerate(rows)}
    counts = np.zeros((len(rows), len(tokens.lengths)), dtype=np.intp)
    for j, (start, length) in enumerate(zip(tokens.starts, tokens.lengths)):
        for token in tokens.ids[start:start + length].tolist():
            counts[position[token], j] += 1
    return np.array(rows, dtype=np.intp), counts / tokens.lengths


def pool_per_sentence(embeddings, tokens):
    """Each sentence's mean embedding row, E[ids].mean(axis=0) one sentence at
    a time, stacked as (..., n_sentences, dim) over embeddings' leading axes."""
    lead, dim = embeddings.shape[:-2], embeddings.shape[-1]
    means = [embeddings[..., tokens.ids[start:start + length], :].mean(axis=-2)
             for start, length in zip(tokens.starts, tokens.lengths)]
    return np.stack(means, axis=-2) if means else np.zeros(lead + (0, dim))


def forward_backward_per_pair(params, pairs, targets, mode, spec, clamp_range=None,
                              contrastive=None):
    """Batch-mean loss and (embedding, head weight, head bias) gradients, one
    pair at a time: per-sentence means, scalar losses, per-token scatter.

    pairs is a list of (ids1, ids2) and mode a feature-mode string.  For
    info_nce, contrastive(anchors, positives) gives the loss and the pooled
    gradients (value, d_anchors, d_positives); only the scatter is done here.
    """
    emb, w, b = params.embeddings, params.head_weights, params.head_bias
    g_w, g_b = np.zeros_like(w), np.zeros_like(b)
    kind, n, total = spec.kind.value, len(pairs), 0.0
    pooled = [(emb[i1].mean(axis=0), emb[i2].mean(axis=0)) for i1, i2 in pairs]
    if kind == "info_nce":
        total, d_a, d_p = contrastive([u for u, _ in pooled], [v for _, v in pooled])
        return total, (_scatter(emb, pairs, zip(d_a, d_p)), g_w, g_b)
    d_pooled = []
    for (u, v), target in zip(pooled, targets):
        dim, s = len(u), np.sign(u - v)
        f = {"uv": np.concatenate([u, v]), "absdiff": np.abs(u - v),
             "uv_absdiff": np.concatenate([u, v, np.abs(u - v)])}[mode]
        out = w @ f + b
        if kind == "cross_entropy":
            probs = softmax_bruteforce(list(out))
            value = -math.log(probs[int(target)])
            d_out = (np.array(probs) - np.eye(len(probs))[int(target)]) / n
        else:
            pred, passthrough = float(out), 1.0
            if clamp_range is not None and not clamp_range[0] <= pred <= clamp_range[1]:
                pred, passthrough = min(max(pred, clamp_range[0]), clamp_range[1]), 0.0
            diff = pred - float(target)
            value, slope = residual_loss_scalar(abs(diff), kind, spec.k, spec.x0)
            d_out = slope * ((diff > 0) - (diff < 0)) * passthrough / n
        total += value / n
        g_w += np.multiply.outer(d_out, f)
        g_b += d_out
        df = d_out @ w if w.ndim == 2 else d_out * w
        if mode == "uv":
            d_pooled.append((df[:dim], df[dim:]))
        elif mode == "absdiff":
            d_pooled.append((df * s, -df * s))
        else:
            d_pooled.append((df[:dim] + df[2 * dim:] * s,
                             df[dim:2 * dim] - df[2 * dim:] * s))
    return total, (_scatter(emb, pairs, d_pooled), g_w, g_b)


def head_forward_backward(params, u, v, targets, mode, loss_spec, clamp_range=None):
    """(value, grads, d_input) of the head and loss on pooled pairs u and v
    (n, dim), all from one unstacked call: the features built here, head
    gradients written into zero arrays, and d_input the loss gradient of
    the (n, feature_dim) features.  grads' embeddings and rows are None."""
    n = u.shape[-2]
    f = features(u, v, mode)
    out = head(params)(f)
    if loss_spec.kind is LossKind.CROSS_ENTROPY:
        values, d_out = losses.cross_entropy(out, np.asarray(targets, dtype=int))
    else:
        pred = out if clamp_range is None else np.clip(out, *clamp_range)
        diff = pred - np.asarray(targets, dtype=float)
        values, d_x = losses.residual_loss(loss_spec)(np.abs(diff))
        d_out = d_x * np.sign(diff) * (pred == out)
    value = np.sum(values, axis=-1) / n
    grads = Gradients(None, None, np.zeros_like(params.head))
    d_out = d_out / n
    d_weights, d_bias = head_parts(grads.head, params.weights_shape)
    d_weights[...] = d_out.T @ f
    d_bias[...] = np.sum(d_out, axis=0)
    if params.is_classifier:
        return float(value), grads, d_out @ params.head_weights
    return float(value), grads, np.multiply.outer(d_out, params.head_weights)


def _scatter(emb, pairs, d_pooled):
    """Embedding gradient: each sentence's gradient split over its tokens."""
    g_emb = np.zeros_like(emb)
    for (i1, i2), (du, dv) in zip(pairs, d_pooled):
        for ids, d in ((i1, du), (i2, dv)):
            for i in ids:
                g_emb[i] += d / len(ids)
    return g_emb


def finite_difference_per_entry(value_fn, params, step):
    """Central differences of value_fn(params) over every entry of
    (embeddings, head weights, head bias) of a copy of params, perturbing one
    entry in place for each pair of unstacked calls."""
    params = copy_params(params)
    fd = []
    for arr in (params.embeddings, params.head_weights, params.head_bias):
        out = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + step
            up = value_fn(params)
            arr[ix] = orig - step
            down = value_fn(params)
            arr[ix] = orig
            out[ix] = (up - down) / (2.0 * step)
        fd.append(out)
    return fd


def max_relative_error_per_array(analytic, fd, weights_shape):
    """gradcheck.max_relative_error taken over each parameter array on its
    own, the head's weights and bias (of weights of weights_shape) apart,
    then the max of the three maxes; a head gradient analytic does not have
    (None) is taken as zeros."""
    errors = []
    heads = (None, None) if analytic.head is None else head_parts(analytic.head,
                                                                  weights_shape)
    for a, f in (
        (dense_embeddings(analytic, len(fd.embeddings)), fd.embeddings),
        *zip(heads, head_parts(fd.head, weights_shape)),
    ):
        f = np.atleast_1d(f)
        a = np.zeros_like(f) if a is None else np.atleast_1d(a)
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
        errors.append(np.max(np.abs(a - f) / denom))
    return float(np.max(errors))


def draw_configuration_via_text(seed, kind, mode):
    """gradcheck.draw_configuration's draws made as text: each attempt's
    sentences drawn as words, joined into strings and tokenized against
    build_vocab of the configuration's words."""
    rng = np.random.default_rng([seed, ALL_KINDS.index(kind), ALL_MODES.index(mode)])
    dim = int(rng.integers(2, DIM_MAX + 1))
    n_words = int(rng.integers(5, VOCAB_MAX - 1))
    batch = int(rng.integers(2, BATCH_MAX + 1))
    words = [f"w{i}" for i in range(n_words)]
    vocab = build_vocab([" ".join(words)])
    n_classes = int(rng.integers(3, 6)) if kind is LossKind.CROSS_ENTROPY else None
    params = init_params(len(vocab), dim, mode, int(rng.integers(0, 2**31)),
                         label_range=(0.0, 3.0), n_classes=n_classes)
    spec = _random_spec(rng, kind)
    for _ in range(MAX_DRAWS):
        texts = [" ".join(rng.choice(words, size=int(rng.integers(1, 6))))
                 for _ in range(2 * batch)]
        if kind is LossKind.CROSS_ENTROPY:
            targets = rng.integers(0, n_classes, size=batch)
        else:
            targets = rng.uniform(0.0, 3.0, size=batch)
        tokens = tokenize_pairs(texts, vocab)
        if not _too_close_to_kink(params, tokens, targets, mode, spec):
            return params, tokens, targets, spec
    raise TrainingError("could not sample a configuration away from kinks")


def sgd_step_dense(params, grads, lr, names):
    """p -= lr * g over whole arrays; grads maps each field name to its dense
    gradient, and only the fields in names are updated."""
    for name in names:
        p = getattr(params, name)
        p -= lr * grads[name]


class DenseAdam:
    """Adam over whole arrays: every entry, touched by the batch or not,
    moves by its momentum."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        names = ("embeddings", "head_weights", "head_bias")
        self.m = {n: np.zeros_like(getattr(params, n)) for n in names}
        self.v = {n: np.zeros_like(getattr(params, n)) for n in names}
        self.t = 0

    def step(self, params, grads, names):
        self.t += 1
        for name in names:
            p, g, m, v = getattr(params, name), grads[name], self.m[name], self.v[name]
            m[...] = self.beta1 * m + (1 - self.beta1) * g
            v[...] = self.beta2 * v + (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1 ** self.t)
            v_hat = v / (1 - self.beta2 ** self.t)
            p[...] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def ordinal_corpus_setdiff(n_pairs, seed, vocab_size=120, sentence_len=9,
                           shared_counts=(0, 5, 8, 9),
                           categories=("irrelevant", "slightly relevant",
                                       "moderately relevant", "highly relevant")):
    """(s1, s2, label) rows of the synthetic ordinal corpus, drawing each
    pair's remaining tokens from np.setdiff1d over the whole vocabulary."""
    rng = np.random.default_rng(seed)
    words = np.array([f"tok{i:03d}" for i in range(vocab_size)])
    rows = []
    for i in range(n_pairs):
        c = i % len(categories)
        k = shared_counts[c]
        first = rng.choice(vocab_size, size=sentence_len, replace=False)
        shared = rng.choice(first, size=k, replace=False)
        rest_pool = np.setdiff1d(np.arange(vocab_size), first)
        rest = rng.choice(rest_pool, size=sentence_len - k, replace=False)
        second = rng.permutation(np.concatenate([shared, rest]))
        rows.append((" ".join(words[first]), " ".join(words[second]), categories[c]))
    return rows
