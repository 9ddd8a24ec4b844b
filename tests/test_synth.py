import hashlib

import pytest

from oracles import ordinal_corpus_setdiff
from simreg.data import save_tsv
from simreg.errors import InvalidInputError
from simreg.synth import make_ordinal_corpus

THREE_CLASSES = dict(vocab_size=16, sentence_len=8, shared_counts=(0, 3, 8),
                     categories=("far", "near", "same"))


def rows(corpus):
    """(s1, s2, label) of every pair, read from the Dataset's columns."""
    labels = [corpus.categories[v] for v in corpus.values.tolist()]
    return list(zip(corpus.s1, corpus.s2, labels))


@pytest.mark.parametrize("n_pairs, seed, options", [
    (40, 0, {}),
    (37, 5, {"vocab_size": 18}),
    (200, 21, {"vocab_size": 5000}),
    (64, 3, {"vocab_size": 400}),
    (90, 2, THREE_CLASSES),
    (30, 8, {**THREE_CLASSES, "vocab_size": 1200, "sentence_len": 12,
             "shared_counts": (0, 12, 12)}),
    (120, 9, {"vocab_size": 20000}),
], ids=["40-0-120", "37-5-18", "200-21-5000", "64-3-400", "90-2-16-len8",
        "30-8-1200-len12", "120-9-20000"])
def test_corpus_matches_whole_vocabulary_setdiff(n_pairs, seed, options):
    corpus = make_ordinal_corpus(n_pairs, seed=seed, **options)
    assert rows(corpus) == ordinal_corpus_setdiff(n_pairs, seed, **options)


# sha256 of save_tsv's bytes for the benchmark workloads' seed-0 corpora
@pytest.mark.parametrize("n_pairs, seed, vocab_size, digest", [
    (2000, 11, 120, "368099f1d74ed62c3e45c183ed4972e96fb2d3170467d2ceff8336065ed97c08"),
    (400, 12, 120, "12d5bbd8776e12e58c78a1239fdf5a49480a824eb3c93a6ea6b76ad8570c7ecc"),
    (2400, 21, 5000, "8831ba6fd2a6708123b6ca78fd11e5aabcb53f9bc6094b0b6e362cab1d93f545"),
    (200, 22, 5000, "a7eb9c4e46dcd5a7ee528bbdeadd60beaccd18b9bf125303dc2c0cd912d08fdf"),
    (1000, 41, 120, "da55598a15ecb4bf95b3fcfcef079ff69c1fd5268047ed28d5142c829de2d23e"),
], ids=["two_stage-train", "two_stage-dev", "large_vocab-train", "large_vocab-dev",
        "score-cat0"])
def test_workload_corpora_keep_their_bytes(tmp_path, n_pairs, seed, vocab_size, digest):
    path = tmp_path / "corpus.tsv"
    save_tsv(make_ordinal_corpus(n_pairs, seed=seed, vocab_size=vocab_size), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("options", [
    {"n_pairs": -3},
    {"n_pairs": 2.0},
    {"sentence_len": 0},
    {"sentence_len": -1},
    {"vocab_size": 5000.0},
    {"shared_counts": (-1, 5, 8, 9)},
    {"shared_counts": (0, 0.5, 8, 9)},
    {"shared_counts": (0, 5, 8, "9")},
    {"shared_counts": (), "categories": ()},
], ids=["negative-pairs", "float-pairs", "empty-sentence", "negative-sentence",
        "float-vocab", "negative-shared", "fractional-shared", "text-shared",
        "no-categories"])
def test_bad_input_is_rejected_before_any_draw(options):
    options = {"n_pairs": 8, **options}
    with pytest.raises(InvalidInputError):
        make_ordinal_corpus(seed=0, **options)
