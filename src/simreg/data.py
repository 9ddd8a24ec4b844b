"""Corpus ingestion, train/test deduplication, rescaling and merging.

The on-disk format is UTF-8 TSV with no header: ``score<TAB>s1<TAB>s2`` for
continuous corpora or ``label<TAB>s1<TAB>s2`` for categorical ones.  Loaded
datasets are immutable.  ``write_atomic`` is the package's writer for outputs
that must never be left half-written.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .errors import DataFormatError, InvalidInputError

NLI_CATEGORIES = ("contradiction", "neutral", "entailment")


@dataclass(frozen=True)
class SentencePair:
    """Two sentences plus either a continuous score or a categorical label."""

    s1: str
    s2: str
    score: float | None = None
    label: str | None = None

    def __post_init__(self):
        if (self.score is None) == (self.label is None):
            raise InvalidInputError("exactly one of score/label must be set")


@dataclass(frozen=True)
class Dataset:
    """Named collection of pairs with a declared score range or category set."""

    name: str
    pairs: tuple[SentencePair, ...]
    score_range: tuple[float, float] | None = None
    categories: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if self.score_range is not None and self.categories is not None:
            raise InvalidInputError("declare a score range or categories, not both")
        if self.pairs and self.score_range is None and self.categories is None:
            raise InvalidInputError("nonempty dataset needs a range or categories")
        for pair in self.pairs:
            if self.score_range is not None:
                low, high = self.score_range
                if pair.score is None or not low <= pair.score <= high:
                    raise InvalidInputError(
                        f"{self.name}: score {pair.score} outside [{low}, {high}]"
                    )
            elif self.categories is not None and pair.label not in self.categories:
                raise InvalidInputError(f"{self.name}: unknown label {pair.label!r}")

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def is_categorical(self) -> bool:
        return self.categories is not None


@dataclass(frozen=True)
class RemovedPair:
    """Audit record: a dropped training pair and the test set that matched it."""

    pair: SentencePair
    test_name: str


def load_tsv(
    path,
    name: str | None = None,
    score_range: tuple[float, float] = (0.0, 5.0),
    categories: tuple[str, ...] | None = None,
) -> Dataset:
    """Read and parse a TSV corpus (see parse_tsv)."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"no such data file: {path}")
    return parse_tsv(path.read_bytes(), path, name, score_range, categories)


def parse_tsv(
    raw: bytes,
    path,
    name: str | None = None,
    score_range: tuple[float, float] = (0.0, 5.0),
    categories: tuple[str, ...] | None = None,
) -> Dataset:
    """Parse the bytes of a TSV corpus read from path, which names it in
    errors and by default in the dataset; any malformed line rejects the
    whole file.

    With `categories` the first field is read as a label, otherwise as a
    float score that must fall inside `score_range`.
    """
    path = Path(path)
    name = name if name is not None else path.stem
    pairs = []
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not valid UTF-8: {exc}") from exc
    for lineno, line in enumerate(tsv_lines(text), start=1):
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


def tsv_lines(text: str) -> list[str]:
    """The lines of a TSV file's text, without their ends.

    A line ends at "\\n", "\\r\\n" or "\\r", as in a file opened as text, and
    nowhere else: str.splitlines would also end one at characters such as
    "\\x0c" or "\\x85" that a sentence may hold.  A final line end starts no
    line of its own.
    """
    if "\r" in text:  # replace would rescan a whole text that has none
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def format_score(score: float) -> str:
    """Shortest exact decimal form, shared by every writer in the package."""
    return repr(float(score))


def write_atomic(path, content: str | Iterable[bytes]) -> None:
    """Write a file whole or not at all.

    content is UTF-8 text, or an iterable of bytes chunks written one after
    another as they are produced.  It goes to a temporary file in the same
    directory, which then replaces the target in one rename; if writing or
    producing a chunk fails, the temporary file is removed and an existing
    target is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    if isinstance(content, str):
        content = [content.encode("utf-8")]
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(content)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_tsv(dataset: Dataset, path) -> None:
    """Write a dataset back out in the canonical TSV format (atomically).

    A field holding a tab or a line end cannot be written: no TSV line can
    carry it.
    """
    lines = []
    for number, pair in enumerate(dataset.pairs, start=1):
        first = pair.label if pair.label is not None else format_score(pair.score)
        line = f"{first}\t{pair.s1}\t{pair.s2}"
        if line.count("\t") != 2 or "\n" in line or "\r" in line:
            raise InvalidInputError(
                f"{dataset.name}: pair {number} has a tab or line end in a field, "
                "which no TSV line can carry")
        lines.append(line + "\n")
    write_atomic(path, "".join(lines))


def _dedup_key(s1: str, s2: str) -> tuple[str, str]:
    # exact string equality after trimming edge whitespace; no case folding
    return s1.strip(), s2.strip()


def dedup_filter(train: Dataset, tests) -> tuple[Dataset, list[RemovedPair]]:
    """Drop every training pair whose sentences appear in any test set.

    A pair matches in either orientation (s1/s2 same or swapped) and scores
    are ignored entirely.  Test sets are never modified; duplicates within
    the training set itself are kept.  Returns the filtered dataset plus an
    audit list naming the test set each removed pair matched.
    """
    seen: dict[tuple[str, str], str] = {}
    for test in tests:
        for pair in test.pairs:
            seen.setdefault(_dedup_key(pair.s1, pair.s2), test.name)
    kept, removed = [], []
    for pair in train.pairs:
        key = _dedup_key(pair.s1, pair.s2)
        hit = seen.get(key)
        if hit is None:
            hit = seen.get((key[1], key[0]))
        if hit is None:
            kept.append(pair)
        else:
            removed.append(RemovedPair(pair, hit))
    filtered = Dataset(train.name, tuple(kept), train.score_range, train.categories)
    return filtered, removed


def write_removal_audit(removed, path) -> None:
    """One JSON line per removed pair, naming the matching test dataset."""
    lines = []
    for record in removed:
        pair = record.pair
        doc = {"s1": pair.s1, "s2": pair.s2, "matched_test": record.test_name}
        if pair.score is not None:
            doc["score"] = pair.score
        else:
            doc["label"] = pair.label
        lines.append(json.dumps(doc, sort_keys=True) + "\n")
    write_atomic(path, "".join(lines))


def rescale_sick(score: float) -> float:
    """Affine rescale of a [1, 5] score onto [0, 5]: 5*(score - 1)/4."""
    if not 1.0 <= score <= 5.0:
        raise InvalidInputError(f"score {score} outside [1, 5]")
    return 5.0 * (score - 1.0) / 4.0


def rescale_sick_dataset(dataset: Dataset) -> Dataset:
    """Apply the [1, 5] -> [0, 5] rescale to every pair of a dataset."""
    if dataset.is_categorical:
        raise InvalidInputError("cannot rescale a categorical dataset")
    pairs = tuple(
        SentencePair(p.s1, p.s2, score=rescale_sick(p.score)) for p in dataset.pairs
    )
    return Dataset(dataset.name, pairs, score_range=(0.0, 5.0))


def merge(datasets) -> Dataset:
    """Concatenate datasets in order; they must agree on the score range."""
    datasets = list(datasets)
    if not datasets:
        return Dataset("merged", ())
    first = datasets[0]
    for ds in datasets[1:]:
        if ds.score_range != first.score_range or ds.categories != first.categories:
            raise InvalidInputError(
                f"cannot merge {ds.name}: range/categories differ from {first.name}"
            )
    pairs = tuple(pair for ds in datasets for pair in ds.pairs)
    name = "+".join(ds.name for ds in datasets)
    return Dataset(name, pairs, first.score_range, first.categories)


def positive_pairs_dataset(dataset: Dataset, threshold: float = 4.0) -> Dataset:
    """Pairs scoring at or above the threshold (inclusive), for the
    contrastive baseline."""
    if dataset.is_categorical:
        raise InvalidInputError("positive-pair extraction needs continuous scores")
    pairs = tuple(p for p in dataset.pairs if p.score >= threshold)
    return Dataset(f"{dataset.name}-positives", pairs, dataset.score_range)
