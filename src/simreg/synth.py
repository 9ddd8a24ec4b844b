"""Synthetic graded-similarity corpora for desk-scale experiments.

Pairs are built so that the number of tokens the two sentences share decides
the similarity class.  The shared counts are spaced so the typical embedding
distance between the two sentences falls off roughly linearly from the lowest
class to the highest, which a mean-pooling encoder with a linear head can fit
well.
"""

from __future__ import annotations

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
    """
    if len(categories) != len(shared_counts):
        raise InvalidInputError("need one shared count per category")
    if list(shared_counts) != sorted(shared_counts):
        raise InvalidInputError("shared counts must ascend with similarity")
    if shared_counts[-1] > sentence_len:
        raise InvalidInputError("cannot share more tokens than a sentence holds")
    if vocab_size < 2 * sentence_len:
        raise InvalidInputError("vocabulary too small for disjoint remainders")

    rng = np.random.default_rng(seed)
    words = np.array([f"tok{i:03d}" for i in range(vocab_size)])
    classes = np.arange(n_pairs) % len(categories)
    s1, s2 = [], []
    for c in classes.tolist():
        k = shared_counts[c]
        first = rng.choice(vocab_size, size=sentence_len, replace=False)
        shared = rng.choice(first, size=k, replace=False)
        unused = np.ones(vocab_size, dtype=bool)
        unused[first] = False
        rest = rng.choice(np.flatnonzero(unused), size=sentence_len - k, replace=False)
        second = rng.permutation(np.concatenate([shared, rest]))
        s1.append(" ".join(words[first]))
        s2.append(" ".join(words[second]))
    return Dataset.from_columns(name, classes, s1, s2, categories=tuple(categories))
