"""Synthetic graded-similarity corpora for desk-scale experiments.

Pairs are built so that the number of tokens the two sentences share decides
the similarity class.  The shared counts are spaced so the typical embedding
distance between the two sentences falls off roughly linearly from the lowest
class to the highest, which a mean-pooling encoder with a linear head can fit
well.
"""

from __future__ import annotations

import operator

import numpy as np

from .data import Dataset
from .errors import InvalidInputError

ORDINAL_CATEGORIES = (
    "irrelevant",
    "slightly relevant",
    "moderately relevant",
    "highly relevant",
)


def make_ordinal_corpus(
    n_pairs: int,
    seed: int,
    vocab_size: int = 120,
    sentence_len: int = 9,
    shared_counts: tuple[int, ...] = (0, 5, 8, 9),
    categories: tuple[str, ...] = ORDINAL_CATEGORIES,
    name: str = "synthetic",
) -> Dataset:
    """Balanced categorical corpus where shared-token count sets the class.

    Class c pairs share exactly shared_counts[c] of their sentence_len tokens;
    the remaining tokens are drawn disjointly, and token order is shuffled so
    only the overlap carries signal.

    Pair i has class i % len(categories).  With k its shared count, each pair
    makes these draws from one generator seeded with seed, in this order, and
    no others:

    1. the first sentence: ``choice(vocab_size, sentence_len, replace=False)``;
    2. when k > 0, the positions in the first sentence of the shared tokens:
       ``choice(sentence_len, k, replace=False)``;
    3. when k < sentence_len, the ranks of the remaining tokens among the
       words outside the first sentence, in ascending word order:
       ``choice(vocab_size - sentence_len, sentence_len - k, replace=False)``;
    4. the order of the second sentence: ``permutation`` of the shared tokens
       followed by the remaining ones.
    """
    sizes = [(n_pairs, "pair count", 0), (sentence_len, "sentence length", 1),
             (vocab_size, "vocabulary size", 0)]
    for value, what, low in sizes + [(k, "shared count", 0) for k in shared_counts]:
        try:
            number = operator.index(value)
        except TypeError:
            raise InvalidInputError(f"{what} must be an integer, got {value!r}") from None
        if number < low:
            raise InvalidInputError(f"{what} must be at least {low}, got {value!r}")
    if not categories:
        raise InvalidInputError("need at least one category")
    if len(categories) != len(shared_counts):
        raise InvalidInputError("need one shared count per category")
    if list(shared_counts) != sorted(shared_counts):
        raise InvalidInputError("shared counts must ascend with similarity")
    if shared_counts[-1] > sentence_len:
        raise InvalidInputError("cannot share more tokens than a sentence holds")
    if vocab_size < 2 * sentence_len:
        raise InvalidInputError("vocabulary too small for disjoint remainders")

    rng = np.random.default_rng(seed)
    words = [f"tok{i:03d}" for i in range(vocab_size)]
    # the word of rank r outside first is r + #{j : sorted(first)[j] - j <= r}
    offsets = np.arange(sentence_len)
    classes = np.arange(n_pairs) % len(categories)
    s1, s2 = [], []
    for c in classes.tolist():
        k = shared_counts[c]
        first = rng.choice(vocab_size, size=sentence_len, replace=False)
        parts = []
        if k:
            parts.append(first[rng.choice(sentence_len, size=k, replace=False)])
        if k < sentence_len:
            ranks = rng.choice(vocab_size - sentence_len, size=sentence_len - k,
                               replace=False)
            gaps = np.sort(first) - offsets
            parts.append(ranks + np.searchsorted(gaps, ranks, side="right"))
        second = rng.permutation(np.concatenate(parts))
        s1.append(" ".join([words[i] for i in first.tolist()]))
        s2.append(" ".join([words[i] for i in second.tolist()]))
    return Dataset.from_columns(name, classes, s1, s2, categories=tuple(categories))
