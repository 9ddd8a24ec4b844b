import pytest

from oracles import ordinal_corpus_setdiff
from simreg.synth import make_ordinal_corpus


@pytest.mark.parametrize("n_pairs, seed, vocab_size", [
    (40, 0, 120), (37, 5, 18), (200, 21, 5000), (64, 3, 400),
])
def test_corpus_matches_whole_vocabulary_setdiff(n_pairs, seed, vocab_size):
    corpus = make_ordinal_corpus(n_pairs, seed=seed, vocab_size=vocab_size)
    rows = [(p.s1, p.s2, p.label) for p in corpus.pairs]
    assert rows == ordinal_corpus_setdiff(n_pairs, seed, vocab_size)

