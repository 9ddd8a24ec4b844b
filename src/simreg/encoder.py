"""Toy Siamese encoder: embedding table, mean pooling, linear head.

Both sentences of a pair run through the same embedding table (one shared
parameter set), are mean-pooled into vectors u and v, combined into a feature
vector per the configured mode, and fed to a linear head: a single output for
regression or K outputs for the classification baseline.  The backward pass
is derived by hand and returns exact gradients for every parameter.  The
head is stored as one flat array per parameter copy, ModelParams.head: the
weights, then the bias, as head_parts lays them out.  head_weights and
head_bias are read-only views of it, and the head gradient, Gradients.head,
has the same layout, so an optimizer updates the whole head as one array.

Everything runs on whole batches at once.  The distinct texts are split into
words a window of _SPLIT_WINDOW texts at a time (``Corpus``), each window by
one split of one string: joined, lowercased, blanked of every character that
is neither a word character nor whitespace (by str.translate when the window
is ASCII), with a "." before each text to mark where it starts.  Every
window maps its words through one shared word table, and only their ids are
kept, so the split holds one window's strings at a time.
A dataset becomes flat token ids with per-sentence offsets
and lengths (``PairTokens``) by one gather of its words, each text cut to
max_tokens first (``tokenize_pairs``).  A whole dataset is pooled by ``pool``:
sentences sorted by length, longest first, and each token position added into
the sentences that reach it, so the work is one gather and add per token with
no padding.  A training batch is pooled by its pooling matrix S, one row per
distinct token and one column per sentence holding count / length:
pooled = S.T @ E[rows] forward, and one matrix product with S carries every
sentence's gradient back to the token rows.  An epoch's matrices are planned
a window of batches at a time (PairTokens.batches): one token gather and one
sort of (batch, token id) keys per window (a presence mask, or np.unique past
_MASK_KEYS_PER_TOKEN keys per token), one bincount per batch.  The embedding
gradient holds only the batch's token rows: its cost does not grow with the
vocabulary.  The head and loss of the regression and K-logit heads run in
one step, prepare_head_loss's, on the head's features.  It returns the loss,
the flat head gradient and the gradient of the raw head output, and does no
more: only the joint step, prepare_forward_backward's, turns that output
gradient into the gradients of the features, of u and v and of the table.
A stage that freezes the encoder runs the head step alone, on features it
computed once, so it computes no feature or embedding gradient.  The
contrastive baseline, InfoNCE, has no head: the joint step computes it on u
and v themselves, and its Gradients hold no head gradient (None).  Both
steps are prepared with every dispatch and check that does not read the
batch done once, so a training stage calls one step batch after batch;
forward_backward prepares a joint step per call, so the gradient check
checks the code that trains.

The value path (pooling, features, head and every loss) also broadcasts over
a leading parameter-stack axis: ModelParams whose arrays all carry the same
leading shape hold that many parameter copies.  Given such a stack,
forward_backward returns one loss value per copy and no gradients (None).
The finite-difference gradient check uses this to evaluate every perturbed
copy of a parameter array in one call.  Each copy's loss agrees with an
unstacked call on that copy to a few ulps.
"""

from __future__ import annotations

import binascii
import json
import math
import re
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import count, islice
from pathlib import Path

import numpy as np

from . import losses
from .data import write_atomic
from .errors import CheckpointError, InvalidInputError
from .labelmap import LabelMapping
from .losses import LossKind, LossSpec

PAD_TOKEN = "<pad>"
OOV_TOKEN = "<oov>"

# a character that is neither a word character nor whitespace: blanked out,
# it leaves the \w+ words as the runs of non-whitespace
_NON_WORD = re.compile(r"[^\w\s]")
# the same blanking of ASCII text by str.translate: the code point's own
# character, or " " where _NON_WORD matches it
_ASCII_BLANK = "".join(" " if _NON_WORD.match(chr(c)) else chr(c)
                       for c in range(128))

CHECKPOINT_FORMAT = "simreg-checkpoint"
CHECKPOINT_VERSION = 2
CHECKPOINT_DTYPE = "<f8"  # little-endian float64, the raw bytes of each array
# raw bytes base64-encoded per checkpoint chunk; a multiple of 3, so the
# chunks' encodings join without padding into the whole array's
_B64_CHUNK = 3 << 16

# the trainable arrays of ModelParams, in the order of its fields
PARAM_NAMES = ("embeddings", "head_weights", "head_bias")

# distinct texts Corpus splits at once: its memory stays bounded however
# many texts a corpus holds.  Each window costs about 10 us, so 256 texts
# made a 2,000-text corpus 2-3% slower than one whole-corpus split; 512
# matched its time, and 1,024 saved no more memory
_SPLIT_WINDOW = 512
# batches PairTokens.batches plans at once: its memory stays bounded however
# many pairs a dataset holds
_PLAN_WINDOW = 32
# _pooling_plan plans by a presence mask up to this many keys per token, by
# np.unique's sort past it: on a 9,216-token window (2 cores, numpy 2.4) the
# two crossed between 8.7 and 9.7 keys per token
_MASK_KEYS_PER_TOKEN = 8


class FeatureMode(str, Enum):
    """How u and v are combined before the head."""

    UV = "uv"
    ABS_DIFF = "absdiff"
    UV_ABS_DIFF = "uv_absdiff"  # default: (u, v, |u - v|)


def feature_dim(mode: FeatureMode, dim: int) -> int:
    if mode is FeatureMode.UV:
        return 2 * dim
    if mode is FeatureMode.ABS_DIFF:
        return dim
    return 3 * dim


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-id map with dense ids; <pad> and <oov> are always present."""

    tokens: tuple[str, ...]
    _ids: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = {t: i for i, t in enumerate(self.tokens)}
        if len(ids) != len(self.tokens):
            raise InvalidInputError("duplicate tokens in vocabulary")
        if OOV_TOKEN not in ids:
            raise InvalidInputError(f"vocabulary is missing {OOV_TOKEN}")
        if "" in ids:
            raise InvalidInputError("the empty string is not a token")
        object.__setattr__(self, "_ids", ids)

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def oov_id(self) -> int:
        return self._ids[OOV_TOKEN]

    def lookup(self, words) -> np.ndarray:
        """The id of each word, the OOV id for words outside the vocabulary."""
        words = list(words)
        oov, get = self.oov_id, self._ids.get
        return np.fromiter((get(w, oov) for w in words), dtype=np.intp,
                           count=len(words))


def _window_ids(texts, word_id) -> np.ndarray:
    """The words of texts as ids from word_id, the ids of each text after a
    -1 that marks where it opens: the texts joined by "\\n" into one string,
    lowercased, blanked and split once."""
    blob = "\n".join(texts)
    if blob.count("\n") != len(texts) - 1:  # a text holds a "\n" of its own
        blob = "\n".join(text.replace("\n", " ") for text in texts)
    # "\n" and " " are neither cased nor case-ignorable, so lower() sees
    # each text as it would alone (the final sigma rule included)
    blob = blob.lower()
    # both blankings give the same string; on ASCII text translate takes a
    # tenth of the regular expression's time (0.16 against 1.6 ms for a
    # 2,000-text, 126,000-character corpus)
    if blob.isascii():
        blob = blob.translate(_ASCII_BLANK)
    else:
        blob = _NON_WORD.sub(" ", blob)
    # blanking left no ".", so a "." word marks where each text opens
    words = (". " + blob.replace("\n", " . ")).split()
    return np.fromiter(map(word_id.__getitem__, words), dtype=np.intp,
                       count=len(words))


class Corpus:
    """Texts with each distinct text split into words once.

    A text's words are its lowercased \\w+ runs.  The distinct texts are
    split a window of _SPLIT_WINDOW texts at a time, each window by one
    whole-string split: joined by "\\n" into one string, lowercased, every
    character that is neither a word character nor whitespace blanked (by
    str.translate when the window is ASCII, by one regular-expression
    substitution otherwise), a "." put before each text, and the string
    split at whitespace.  Blanking leaves no ".", so the "." words mark
    where each text starts.  The words are kept as ids into the corpus's own
    word table, which all windows share, in order of first occurrence, so
    build_vocab and tokenize_pairs reuse the split without holding one word
    list per text.  No string or word list of the whole corpus is ever made:
    at its peak a corpus holds its word ids twice (each window's, then
    joined), about 90 bytes per text (its row in the one dict of texts, its
    start and length) and one window's strings and words.
    A text without words holds none, so its length is 0; tokenize_pairs
    gives it the OOV token.  The word table's ids under the vocabulary last
    asked for (vocab_ids) are kept, so a run looks its words up once.
    """

    def __init__(self, texts):
        # each distinct text's row, filled in place into the one dict
        rows = dict.fromkeys(texts)
        rows.update(zip(rows, range(len(rows))))
        # "." takes id -1, and each new word the next id from 0
        word_id = defaultdict(count().__next__, {".": -1})
        # each window's word ids, and where its "." words lie among the
        # words of all the windows, "." words included
        keys, done = iter(rows), 0
        ids, opens = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
        for _ in range(0, len(rows), _SPLIT_WINDOW):
            flat = _window_ids(list(islice(keys, _SPLIT_WINDOW)), word_id)
            marks = flat < 0
            ids.append(flat[~marks])
            opens.append(marks.nonzero()[0] + done)
            done += len(flat)
        self.word_ids = np.concatenate(ids)
        # text i starts after i "." words
        self.starts = np.concatenate(opens) - np.arange(len(rows))
        self.lengths = np.diff(self.starts, append=len(self.word_ids))
        self.words = tuple(word_id)[1:]
        self._rows = rows
        self._vocab, self._vocab_ids = None, None

    def rows_of(self, texts) -> np.ndarray:
        """Position of each text among the corpus's distinct texts."""
        try:
            return np.fromiter(map(self._rows.__getitem__, texts), dtype=np.intp)
        except KeyError as exc:
            raise InvalidInputError(
                f"text not in the corpus: {exc.args[0]!r}") from None

    def vocab_ids(self, vocab: Vocabulary) -> np.ndarray:
        """Each word's id in vocab (read-only), the OOV id for words it lacks."""
        if vocab is not self._vocab:
            ids = vocab.lookup(self.words)
            ids.flags.writeable = False
            self._vocab, self._vocab_ids = vocab, ids
        return self._vocab_ids


def build_vocab(texts, corpus: Corpus | None = None) -> Vocabulary:
    """Vocabulary from a corpus, most frequent tokens first (ties alphabetical).

    corpus, when given, holds the texts already split.
    """
    if corpus is None:
        texts = list(texts)
        corpus = Corpus(texts)
    per_text = np.bincount(corpus.rows_of(texts), minlength=len(corpus.lengths))
    counts = np.bincount(corpus.word_ids, np.repeat(per_text, corpus.lengths),
                         minlength=len(corpus.words))
    # by word, then stably by falling count: zero counts go last and are cut
    word = corpus.words.__getitem__
    by_word = np.array(sorted(range(len(corpus.words)), key=word), dtype=np.intp)
    order = by_word[np.argsort(-counts[by_word], kind="stable")][:np.count_nonzero(counts)]
    return Vocabulary((PAD_TOKEN, OOV_TOKEN, *map(word, order.tolist())))


def _segments(ids, starts, sources, lengths):
    """Flat ids of the first lengths[j] ids of segment sources[j], for every j."""
    offset = np.repeat(starts[sources] - (np.cumsum(lengths) - lengths), lengths)
    offset += np.arange(len(offset))  # in place: two token-length arrays, not three
    return ids[offset]


def _pooling_plan(ids, lengths, per_batch: int):
    """(rows, S) of each run of per_batch sentences in turn, the sentences'
    ids laid out one after another: the batch's sorted distinct token ids and
    its pooling matrix, whose entry (r, j) is how often rows[r] occurs in the
    batch's sentence j over that sentence's length.  So pooled = S.T @
    E[rows], and the gradient of E[rows] is S @ d(pooled).  S is dense,
    distinct tokens x sentences: it suits a batch; a whole dataset is pooled
    by pool.

    The sorted distinct (batch, id) keys, from a presence mask over their
    space (batches x largest id + 1) or, past _MASK_KEYS_PER_TOKEN keys per
    token, from np.unique, give every batch's rows and each token's cell in
    its S, so a batch's own work is one bincount and one division.
    """
    # each token's batch and its sentence in that batch
    batch, column = (np.repeat(a, lengths)
                     for a in np.divmod(np.arange(len(lengths)), per_batch))
    n_batches, n_ids = -(-len(lengths) // per_batch), int(ids.max()) + 1
    key = batch * n_ids + ids
    if n_batches * n_ids <= _MASK_KEYS_PER_TOKEN * len(ids):
        present = np.zeros(n_batches * n_ids, dtype=bool)
        present[key] = True
        keys = np.flatnonzero(present)
        rank = np.empty(len(present), dtype=np.intp)
        rank[keys] = np.arange(len(keys))
        inverse = rank[key]
    else:
        keys, inverse = np.unique(key, return_inverse=True)
    # each batch's distinct ids are one run of keys, its tokens one run of ids
    edges = np.arange(n_batches + 1)
    key_bounds = np.searchsorted(keys, edges * n_ids)
    # cells of a full batch's S; a short last batch uses its first columns
    cell = (inverse - key_bounds[batch]) * per_batch + column
    rows = keys % n_ids
    # counts and lengths as floats: the same quotients, with no cast per batch
    ones, float_lengths = np.ones(len(ids)), lengths.astype(float)
    kb, tb = key_bounds.tolist(), np.searchsorted(batch, edges).tolist()
    for b, (lo, hi, first, last) in enumerate(zip(kb, kb[1:], tb, tb[1:])):
        lens = float_lengths[b * per_batch:(b + 1) * per_batch]
        counts = np.bincount(cell[first:last], ones[first:last],
                             minlength=(hi - lo) * per_batch)
        yield rows[lo:hi], counts.reshape(hi - lo, per_batch)[:, :len(lens)] / lens


@dataclass(frozen=True)
class PairTokens:
    """Sentence pairs as flat token ids.

    Sentences alternate left, right: pair i is sentences 2i and 2i + 1, and
    sentence j is ids[starts[j]:][:lengths[j]], the sentences laid out one
    after another.  Every sentence has at least one token; tokenize_pairs
    gives an empty text the OOV token.  batches gives the pooling matrices of
    a sequence of batches; the one of all the pairs as one batch is built on
    first use and kept (pooling).
    """

    ids: np.ndarray
    lengths: np.ndarray
    starts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.lengths) and self.lengths.min() < 1:
            raise InvalidInputError("cannot pool an empty token sequence")
        if len(self.ids) != self.lengths.sum():
            raise InvalidInputError(f"{len(self.ids)} token ids for sentences "
                                    f"of {self.lengths.sum()} tokens")
        object.__setattr__(self, "starts", np.cumsum(self.lengths) - self.lengths)

    def __len__(self) -> int:
        return len(self.lengths) // 2

    @cached_property
    def pooling(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, S) of all these pairs as one batch (see _pooling_plan),
        read-only: every forward_backward on the same batch reads the one
        built first."""
        if not len(self):
            raise InvalidInputError("batch must be nonempty")
        (rows, S), = _pooling_plan(self.ids, self.lengths, len(self.lengths))
        rows.flags.writeable = S.flags.writeable = False
        return rows, S

    def batches(self, order, batch_size: int):
        """(rows, S) of each consecutive batch_size pairs of order in turn (see
        _pooling_plan), planned _PLAN_WINDOW batches at a time: one gather of
        the window's tokens, then one _pooling_plan of them."""
        order = np.asarray(order)
        window = _PLAN_WINDOW * batch_size
        for first in range(0, len(order), window):
            pairs = order[first:first + window]
            sentences = (2 * pairs[:, None] + (0, 1)).ravel()
            lengths = self.lengths[sentences]
            ids = _segments(self.ids, self.starts, sentences, lengths)
            yield from _pooling_plan(ids, lengths, 2 * batch_size)


def tokenize_pairs(texts, vocab: Vocabulary, corpus: Corpus | None = None,
                   max_tokens: int | None = None) -> PairTokens:
    """Tokenize sentences given alternately left, right into one flat id array.

    Each text is cut to its first max_tokens words, when given, in the one
    gather of the words.  A text without words becomes the single OOV token.
    corpus, when given, holds the texts already split.
    """
    if corpus is None:
        texts = list(texts)
        corpus = Corpus(texts)
    rows = corpus.rows_of(texts)
    lengths = corpus.lengths[rows]
    if max_tokens is not None:
        np.minimum(lengths, max_tokens, out=lengths)  # lengths is this call's copy
    word_ids = _segments(corpus.word_ids, corpus.starts, rows, lengths)
    ids = corpus.vocab_ids(vocab)[word_ids]
    empty = lengths == 0
    if empty.any():  # np.insert would copy the ids even with nothing to insert
        ids = np.insert(ids, (np.cumsum(lengths) - lengths)[empty], vocab.oov_id)
        lengths = lengths + empty
    return PairTokens(ids, lengths)


def head_parts(head: np.ndarray, weights_shape: tuple[int, ...]):
    """(weights, bias): the views of a flat head, whose last axis holds one
    copy's weights of weights_shape, then its bias.  The regression head's
    weights are a vector and its bias 0-d; the K-logit head's are a (K,
    feature_dim) matrix and a K-vector."""
    n = math.prod(weights_shape)
    if len(weights_shape) == 1:
        return head[..., :n], head[..., n]  # the Ellipsis keeps a 0-d view
    # splitting the last axis is always a view, never a copy
    return head[..., :n].reshape(head.shape[:-1] + weights_shape), head[..., n:]


@dataclass(frozen=True)
class ModelParams:
    """The complete trainable state.

    embeddings is the (vocab, dim) table.  head is the head as one flat
    array: the weights, then the bias (head_parts).  weights_shape is one
    copy's weights shape, (feature_dim,) for the regression head or (K,
    feature_dim) for the K-logit classification head, whose bias is 0-d or
    a K-vector.  A stack of parameter copies puts the same leading axes
    (stack_shape) in front of embeddings and head.  The arrays are held as
    given, not copied.  head_weights and head_bias are read-only
    attributes, each a view of head made once, so a write through either
    one is a write to head.
    """

    embeddings: np.ndarray
    head: np.ndarray
    weights_shape: tuple[int, ...]

    head_weights = cached_property(lambda self: head_parts(self.head, self.weights_shape)[0])
    head_bias = cached_property(lambda self: head_parts(self.head, self.weights_shape)[1])

    def __post_init__(self):
        """Reject a head that is not one regression or K-logit head per copy
        of this table."""
        if self.embeddings.ndim < 2:
            raise InvalidInputError("embeddings must be a (vocab, dim) matrix")
        shape = self.weights_shape
        if len(shape) not in (1, 2):
            raise InvalidInputError("head weights must be 1- or 2-dimensional")
        size = math.prod(shape) + (shape[0] if len(shape) == 2 else 1)
        if self.head.shape != self.stack_shape + (size,):
            raise InvalidInputError(
                f"a head of shape {self.head.shape} does not hold weights of shape "
                f"{shape} and their bias for each of {self.stack_shape} copies")

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """Leading axes of a stack of parameter copies; () for one set."""
        return self.embeddings.shape[:-2]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[-1]

    @property
    def vocab_size(self) -> int:
        return self.embeddings.shape[-2]

    @property
    def is_classifier(self) -> bool:
        return len(self.weights_shape) == 2

    @property
    def n_classes(self) -> int:
        return self.weights_shape[0] if self.is_classifier else 1

    @property
    def head_weight_count(self) -> int:
        return math.prod(self.weights_shape)


@dataclass(frozen=True)
class Gradients:
    """Gradients of the parameters, the embedding table's row-sparse.

    rows holds sorted, unique token ids and embeddings one gradient row per
    id; every other row of the table has a zero gradient.  Both are None
    when no embedding gradient was computed (a frozen encoder).  head is the
    head gradient as one flat array laid out as ModelParams.head
    (head_parts); it is None when the loss has no head (InfoNCE).
    """

    embeddings: np.ndarray | None
    rows: np.ndarray | None
    head: np.ndarray | None


def init_params(
    vocab_size: int,
    dim: int,
    mode: FeatureMode,
    seed: int,
    label_range: tuple[float, float] = (0.0, 5.0),
    n_classes: int | None = None,
) -> ModelParams:
    """Random initial parameters, fully determined by the seed.

    Embeddings start uniform in (-0.05, 0.05); head weights uniform with scale
    1/sqrt(feature_dim).  The regression bias starts at the midpoint of the
    label range so early predictions sit inside it instead of being clamped.
    """
    rng = np.random.default_rng(seed)
    emb = rng.uniform(-0.05, 0.05, size=(vocab_size, dim))
    f = feature_dim(mode, dim)
    scale = f ** -0.5
    if n_classes is None:
        shape, bias = (f,), [(label_range[0] + label_range[1]) / 2.0]
    else:
        if n_classes < 2:
            raise InvalidInputError("classification head needs at least 2 classes")
        shape, bias = (n_classes, f), np.zeros(n_classes)
    weights = rng.uniform(-scale, scale, size=math.prod(shape))
    return ModelParams(emb, np.concatenate((weights, bias)), shape)


def pool(embeddings: np.ndarray, tokens: PairTokens) -> np.ndarray:
    """Mean of each sentence's token embedding rows (order-free), one row per
    sentence, so a pair's (u, v) are rows 2i and 2i + 1.  Leading stack axes
    of embeddings carry over to the result.

    Sentences are sorted by length, longest first, so the sentences with more
    than k tokens are a prefix of that order: token position k is one gather
    added into that prefix.  The loop runs once per token position.
    """
    lengths = tokens.lengths
    order = np.argsort(-lengths, kind="stable")
    first = tokens.starts[order]
    # longer[k] sentences have more than k tokens; longer[0] is all of them
    longer = len(lengths) - np.cumsum(np.bincount(lengths))
    sums = embeddings[..., tokens.ids[first], :]
    for k in range(1, len(longer) - 1):
        m = longer[k]
        sums[..., :m, :] += embeddings[..., tokens.ids[first[:m] + k], :]
    sums /= lengths[order, None]
    pooled = np.empty(sums.shape)
    pooled[..., order, :] = sums
    return pooled


def head(params: ModelParams):
    """f -> the raw head output for features f (..., n, feature_dim): n
    outputs of the regression head or an (n, K) logit matrix, with params'
    stack axes broadcast against f's leading axes.  It reads params' head
    through views taken here, once."""
    w, b = params.head_weights, params.head_bias
    if params.is_classifier:
        w_t, b_row = np.swapaxes(w, -1, -2), b[..., None, :]
        return lambda f: f @ w_t + b_row
    w_col, b_col = w[..., None], b[..., None]
    return lambda f: (f @ w_col)[..., 0] + b_col


def features(u: np.ndarray, v: np.ndarray, mode: FeatureMode) -> np.ndarray:
    """Combine the two sentence embeddings (last axis) for the head."""
    if u.shape != v.shape:
        raise InvalidInputError(f"embedding shape mismatch: {u.shape} vs {v.shape}")
    return _FEATURE_MAPS[mode][0](u, v, None if mode is FeatureMode.UV else u - v)


def _uv_grad(df, diff, out):
    dim = df.shape[-1] // 2
    out[0::2], out[1::2] = df[..., :dim], df[..., dim:]


def _absdiff_grad(df, diff, out):
    s = np.sign(diff)
    np.multiply(df, s, out=out[0::2])
    np.multiply(-df, s, out=out[1::2])


def _uv_absdiff_grad(df, diff, out):
    s = np.sign(diff)
    dim = diff.shape[-1]
    tail = df[..., 2 * dim:] * s
    np.add(df[..., :dim], tail, out=out[0::2])
    np.subtract(df[..., dim:2 * dim], tail, out=out[1::2])


# each mode's (combine, split), given diff = u - v (None for UV, which reads
# none): combine(u, v, diff) gives the features, and split(df, diff, out)
# writes a feature gradient's du and dv to out's rows 0::2 and 1::2; the
# |u - v| branch back-propagates sign(u - v), with the standard subgradient 0
# wherever u equals v
_FEATURE_MAPS = {
    FeatureMode.UV: (lambda u, v, diff: np.concatenate([u, v], axis=-1), _uv_grad),
    FeatureMode.ABS_DIFF: (lambda u, v, diff: np.abs(diff), _absdiff_grad),
    FeatureMode.UV_ABS_DIFF: (
        lambda u, v, diff: np.concatenate([u, v, np.abs(diff)], axis=-1),
        _uv_absdiff_grad),
}


@dataclass
class Model:
    """Everything needed to score a sentence pair."""

    vocab: Vocabulary
    params: ModelParams
    feature_mode: FeatureMode = FeatureMode.UV_ABS_DIFF
    mapping: LabelMapping | None = None
    max_tokens: int = 256

    def __post_init__(self):
        expected = feature_dim(self.feature_mode, self.params.dim)
        got = self.params.weights_shape[-1]
        if got != expected:
            raise InvalidInputError(
                f"head expects {expected} features for mode "
                f"{self.feature_mode.value}, parameters have {got}"
            )
        if self.params.stack_shape:
            raise InvalidInputError("a model holds one unstacked parameter set")
        if len(self.vocab) != self.params.vocab_size:
            raise InvalidInputError("vocabulary and embedding table sizes differ")
        if self.params.is_classifier:
            if self.mapping is None:
                raise InvalidInputError("a classification head needs a label mapping")
            if self.params.n_classes != len(self.mapping.categories):
                raise InvalidInputError(
                    f"classification head has {self.params.n_classes} logits "
                    f"for {len(self.mapping.categories)} categories")

    @classmethod
    def initialize(
        cls,
        vocab: Vocabulary,
        dim: int = 32,
        feature_mode: FeatureMode = FeatureMode.UV_ABS_DIFF,
        seed: int = 0,
        label_range: tuple[float, float] = (0.0, 5.0),
        mapping: LabelMapping | None = None,
        n_classes: int | None = None,
    ) -> "Model":
        if mapping is not None:
            label_range = (mapping.low, mapping.high)
        params = init_params(len(vocab), dim, feature_mode, seed, label_range, n_classes)
        return cls(vocab, params, feature_mode, mapping)

    def encode(self, texts, corpus: Corpus | None = None) -> PairTokens:
        """tokenize_pairs of a dataset's texts (sentences given alternately
        left, right) and corpus, cut to max_tokens: the one cut there is."""
        return tokenize_pairs(texts, self.vocab, corpus, self.max_tokens)

    def embed_pairs(self, pairs: PairTokens) -> tuple[np.ndarray, np.ndarray]:
        """Pooled sentence embeddings (u, v), one row per pair."""
        pooled = pool(self.params.embeddings, pairs)
        return pooled[0::2], pooled[1::2]

    def head_scores(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Raw similarity score of every pair from its pooled embeddings.

        For the classification baseline this is the softmax-expected node
        value under the model's mapping, so rank evaluation and rounding
        classification work for both head kinds.
        """
        out = head(self.params)(features(u, v, self.feature_mode))
        if not self.params.is_classifier:
            return out
        probs = np.exp(out - out.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        return probs @ np.asarray(self.mapping.nodes)


def forward_backward(
    params: ModelParams,
    pooling: tuple[np.ndarray, np.ndarray],
    targets,
    mode: FeatureMode,
    loss_spec: LossSpec,
    clamp_range: tuple[float, float] | None = None,
) -> tuple[float | np.ndarray, Gradients | None]:
    """Batch-mean loss and exact analytic gradients for all parameters.

    pooling is the batch's (rows, S), from PairTokens.batches or
    PairTokens.pooling.  targets holds one entry per pair: floats for the
    residual losses, class indices for cross-entropy; the contrastive loss
    ignores them and treats each pair as anchor/positive.  Predictions
    outside clamp_range are clamped and pass no gradient.  InfoNCE reads u
    and v themselves and has no head, so its head gradient is None.  The
    embedding gradient covers only the rows of tokens present in the batch
    (Gradients.rows); every other row's gradient is zero.  params may be a
    stack of copies (ModelParams.stack_shape): then only the loss is
    computed, an array with one value per copy, and the gradients are None.
    This is prepare_forward_backward's step, prepared for one call.
    """
    return prepare_forward_backward(params, mode, loss_spec, clamp_range)(pooling, targets)


def prepare_forward_backward(params: ModelParams, mode: FeatureMode, loss_spec: LossSpec,
                             clamp_range: tuple[float, float] | None = None):
    """step(pooling, targets) giving forward_backward(params, pooling,
    targets, mode, loss_spec, clamp_range), every dispatch and every check
    that does not read the batch made here, once.  The step reads params'
    arrays through views taken here, so it sees every in-place update of
    them (an optimizer's) and serves batch after batch.
    """
    stacked = bool(params.stack_shape)
    table = params.embeddings
    if loss_spec.kind is LossKind.INFO_NCE:
        tau = loss_spec.tau

        def info_nce_step(pooling, targets):
            rows, S = pooling
            pooled = S.T @ table[..., rows, :]
            value, du, dv = losses.info_nce(pooled[..., 0::2, :], pooled[..., 1::2, :], tau)
            if stacked:
                return value, None
            d_pooled = np.empty(pooled.shape)
            d_pooled[0::2], d_pooled[1::2] = du, dv
            return value, Gradients(S @ d_pooled, rows, None)
        return info_nce_step
    head_step = prepare_head_loss(params, loss_spec, clamp_range)
    combine, split = _FEATURE_MAPS[mode]
    w, classifier = params.head_weights, params.is_classifier
    uv = mode is FeatureMode.UV

    def joint_step(pooling, targets):
        rows, S = pooling
        pooled = S.T @ table[..., rows, :]
        u, v = pooled[..., 0::2, :], pooled[..., 1::2, :]
        diff = None if uv else u - v  # feeds |u - v| and its gradient's sign
        value, d_head, d_out = head_step(combine(u, v, diff), targets)
        if stacked:
            return value, None
        d_pooled = np.empty(pooled.shape)
        split(d_out @ w if classifier else np.multiply.outer(d_out, w), diff, d_pooled)
        return value, Gradients(S @ d_pooled, rows, d_head)
    return joint_step


def prepare_head_loss(params: ModelParams, loss_spec: LossSpec,
                      clamp_range: tuple[float, float] | None = None):
    """step(f, targets): the head and loss of a batch, from the head's
    features, prepared as prepare_forward_backward is.

    f (..., n, feature_dim) holds the n pairs' features(u, v, mode); the
    other arguments are as for forward_backward, and the loss is a residual
    loss (regression head) or cross-entropy (K-logit head).  The step
    returns (value, d_head, d_out): d_head is the flat head gradient, laid
    out as params.head, and d_out the loss gradient of the raw head output,
    (n,) for the regression head and (n, K) for the classifier's logits.
    d_out is all the encoder's gradient needs; the joint step turns it into
    the feature gradient.  For a stack of copies only the loss is computed,
    one value per copy, and d_head and d_out are None.
    """
    stacked = bool(params.stack_shape)
    output = head(params)
    if loss_spec.kind is LossKind.CROSS_ENTROPY:
        if not params.is_classifier:
            raise InvalidInputError("cross-entropy needs a classification head")

        def loss(f, targets):
            return losses.cross_entropy(output(f), np.asarray(targets, dtype=int))
    else:
        if params.is_classifier:
            raise InvalidInputError("residual losses need a regression head")
        residual_loss = losses.residual_loss(loss_spec)
        low, high = clamp_range if clamp_range is not None else (None, None)

        def loss(f, targets):
            out = output(f)
            pred = out if low is None else _clamp(out, low, high)
            diff = pred - targets
            values, d_x = residual_loss(np.abs(diff))
            # a clamped prediction passes no gradient back to the raw output
            return values, d_x * np.sign(diff) * (pred == out)
    flat_head, weights_shape = params.head, params.weights_shape

    def head_step(f, targets):
        n = f.shape[-2]
        if n == 0:
            raise InvalidInputError("batch must be nonempty")
        values, d_out = loss(f, targets)
        value = np.add.reduce(values, axis=-1) / n
        if stacked:
            return value, None, None
        d_out /= n  # d_out is this step's own array
        d_head = np.empty(flat_head.shape)
        d_weights, d_bias = head_parts(d_head, weights_shape)
        np.matmul(d_out.T, f, out=d_weights)
        np.add.reduce(d_out, axis=0, out=d_bias)
        return float(value), d_head, d_out
    return head_step


def _clamp(x: np.ndarray, low: float, high: float) -> np.ndarray:
    """np.clip(x, low, high) bit for bit, NaN and signed zeros included,
    without np.clip's Python-level argument handling."""
    return np.minimum(high, np.maximum(low, x))


def _array_chunks(array: np.ndarray):
    """The bytes of json.dumps(entry, sort_keys=True) for the array's entry
    {"data": ..., "dtype": ..., "shape": ...}, in pieces.

    The raw bytes are base64-encoded _B64_CHUNK at a time; the chunk size
    is a multiple of 3, so the pieces join into the whole array's base64.
    """
    raw = np.ascontiguousarray(array, dtype=CHECKPOINT_DTYPE).reshape(-1)
    raw = memoryview(raw.view(np.uint8))
    yield b'{"data": "'
    for start in range(0, len(raw), _B64_CHUNK):
        yield binascii.b2a_base64(raw[start:start + _B64_CHUNK], newline=False)
    yield (f'", "dtype": {json.dumps(CHECKPOINT_DTYPE)}, '
           f'"shape": {json.dumps(list(array.shape))}}}').encode("ascii")


def _decode_array(doc: dict, name: str) -> np.ndarray:
    if doc["dtype"] != CHECKPOINT_DTYPE:
        raise CheckpointError(f"{name}: unsupported dtype {doc['dtype']!r}")
    shape = doc["shape"]
    if not isinstance(shape, list) or not all(
        type(n) is int and n >= 0 for n in shape
    ):
        raise CheckpointError(f"{name}: bad shape {shape!r}")
    # popped, so the base64 text is freed before the array is copied out; a
    # str is decoded in place (b64decode would first copy it to bytes)
    raw = binascii.a2b_base64(doc.pop("data"), strict_mode=True)
    itemsize = np.dtype(CHECKPOINT_DTYPE).itemsize
    if len(raw) != itemsize * math.prod(shape):
        raise CheckpointError(
            f"{name}: {len(raw)} bytes do not hold an array of shape {shape}"
        )
    return np.frombuffer(raw, dtype=CHECKPOINT_DTYPE).astype(float).reshape(shape)


def _head_kind(params: ModelParams) -> str:
    return "classification" if params.is_classifier else "regression"


def _checkpoint_chunks(fields: dict, arrays: dict):
    """The bytes of json.dumps(doc, sort_keys=True), in pieces, for the
    document holding fields and an _array_chunks entry for each array."""
    separator = b"{"
    for key in sorted({*fields, *arrays}):
        yield separator + json.dumps(key).encode("ascii") + b": "
        if key in arrays:
            yield from _array_chunks(arrays[key])
        else:
            # ensure_ascii (the default) escapes every non-ASCII character
            yield json.dumps(fields[key], sort_keys=True).encode("ascii")
        separator = b", "
    yield b"}"


def save_checkpoint(model: Model, path) -> None:
    """Write a self-describing JSON checkpoint (bit-exact round trip).

    Each parameter array is stored as its dtype, shape and raw bytes in
    base64.  The file holds exactly the bytes of json.dumps(doc,
    sort_keys=True), streamed to disk a chunk at a time instead of built
    whole in memory, and is replaced whole, never left half-written.
    """
    fields = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "feature_mode": model.feature_mode.value,
        "max_tokens": model.max_tokens,
        "vocab": list(model.vocab.tokens),
        "mapping": model.mapping.to_json_dict() if model.mapping else None,
        "head_kind": _head_kind(model.params),
    }
    arrays = {name: getattr(model.params, name) for name in PARAM_NAMES}
    write_atomic(path, _checkpoint_chunks(fields, arrays))


def load_checkpoint(path) -> Model:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        if doc["format"] != CHECKPOINT_FORMAT:
            raise CheckpointError(f"not a model checkpoint: {path}")
        if doc["version"] != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {doc['version']}")
        vocab = Vocabulary(tuple(doc["vocab"]))
        mapping = (
            LabelMapping.from_json_dict(doc["mapping"]) if doc["mapping"] else None
        )
        embeddings, weights, bias = (_decode_array(doc[name], name)
                                     for name in PARAM_NAMES)
        params = ModelParams(embeddings, np.append(weights, bias), weights.shape)
        if params.head_bias.shape != bias.shape:
            raise CheckpointError(f"head_bias of shape {bias.shape} does not fit "
                                  f"head_weights of shape {weights.shape}")
        if doc["head_kind"] != _head_kind(params):
            raise CheckpointError(
                f"head_kind {doc['head_kind']!r} does not match the head weights")
        max_tokens = doc["max_tokens"]
        if type(max_tokens) is not int or max_tokens <= 0:
            raise CheckpointError(
                f"max_tokens must be a positive integer, got {max_tokens!r}")
        return Model(
            vocab, params, FeatureMode(doc["feature_mode"]), mapping, max_tokens
        )
    except (KeyError, TypeError, ValueError, InvalidInputError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
