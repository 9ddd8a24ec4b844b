"""Corpus ingestion, train/test deduplication, rescaling and merging.

The on-disk format is UTF-8 TSV with no header: ``score<TAB>s1<TAB>s2`` for
continuous corpora or ``label<TAB>s1<TAB>s2`` for categorical ones.  A
dataset is held as columns, read-only: one array of the first fields (float64
scores, or indices into the dataset's categories) and two tuples of
sentences.  A file is decoded and split into lines and fields once
(``split_tsv``); each column is then checked whole, and only when a check
fails is the file walked line by line to name its first bad line.

``SentencePair`` records are only the edge of a dataset, for callers outside
the package: ``Dataset(name, pairs)`` turns records into columns once, and
``Dataset.pairs`` builds them on demand.  No code of the package reads
``pairs``; the dedup audit's ``RemovedPair`` holds its own fields.
``write_atomic`` is the package's writer for outputs that must never be
left half-written.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from contextlib import suppress
from dataclasses import asdict, dataclass
from itertools import chain, compress, islice, repeat
from pathlib import Path

import numpy as np

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


def _positions(categories) -> dict[str, int]:
    """Each category's index in categories, the first one where it repeats."""
    return {c: i for i, c in reversed(tuple(enumerate(categories)))}


def _check_declared(n: int, score_range, categories) -> None:
    if score_range is not None and categories is not None:
        raise InvalidInputError("declare a score range or categories, not both")
    if n and score_range is None and categories is None:
        raise InvalidInputError("nonempty dataset needs a range or categories")


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """Named pairs with a declared score range or category set, as columns.

    values holds each pair's score (float64), or the index of its label in
    categories (intp), and is read-only; s1 and s2 hold the sentences.
    """

    name: str
    values: np.ndarray
    s1: tuple[str, ...]
    s2: tuple[str, ...]
    score_range: tuple[float, float] | None = None
    categories: tuple[str, ...] | None = None

    def __init__(self, name: str, pairs: Iterable[SentencePair],
                 score_range=None, categories=None):
        """The dataset of SentencePair records, turned into columns once."""
        pairs = tuple(pairs)
        if categories is not None:
            position = _positions(categories)
            unknown = [pair.label for pair in pairs if pair.label not in position]
            if unknown:
                raise InvalidInputError(f"{name}: unknown label {unknown[0]!r}")
            values = [position[pair.label] for pair in pairs]
        else:  # a labelled pair's score, None, is held as NaN, outside any range
            values = [pair.score for pair in pairs]
        self._hold(name, values, tuple(p.s1 for p in pairs),
                   tuple(p.s2 for p in pairs), score_range, categories)

    @classmethod
    def from_columns(cls, name: str, values, s1, s2, score_range=None,
                     categories=None) -> "Dataset":
        """The dataset of columns, checked as Dataset(name, pairs) is."""
        dataset = cls.__new__(cls)
        dataset._hold(name, values, tuple(s1), tuple(s2), score_range, categories)
        return dataset

    def _hold(self, name, values, s1, s2, score_range, categories) -> None:
        """Hold the columns once every value is checked: a score inside
        score_range, or an index into categories; the first that is not is
        an InvalidInputError naming the dataset."""
        _check_declared(len(s1), score_range, categories)
        values = np.asarray(values, dtype=np.intp if categories is not None else float)
        if not len(values) == len(s1) == len(s2):
            raise InvalidInputError(f"{name}: columns of different lengths")
        if len(values):
            low, high = score_range if categories is None else (0, len(categories) - 1)
            inside = (low <= values) & (values <= high)  # NaN is outside
            if not inside.all():
                bad = values[~inside][0].item()
                what = (f"score {bad} outside [{low}, {high}]" if categories is None
                        else f"category index {bad} outside [0, {len(categories)})")
                raise InvalidInputError(f"{name}: {what}")
        values.flags.writeable = False
        for field, value in (("name", name), ("values", values), ("s1", s1), ("s2", s2),
                             ("score_range", score_range), ("categories", categories)):
            object.__setattr__(self, field, value)

    def __len__(self) -> int:
        return len(self.s1)

    @property
    def is_categorical(self) -> bool:
        return self.categories is not None

    @property
    def texts(self) -> list[str]:
        """Both sentences of every pair, alternately left, right."""
        texts = [""] * (2 * len(self))
        texts[0::2] = self.s1
        texts[1::2] = self.s2
        return texts

    @property
    def pairs(self) -> tuple[SentencePair, ...]:
        """The pairs as SentencePair records, built on each call."""
        values = self.values.tolist()
        if self.categories is not None:
            return tuple(SentencePair(a, b, label=self.categories[i])
                         for i, a, b in zip(values, self.s1, self.s2))
        return tuple(SentencePair(a, b, score=score)
                     for score, a, b in zip(values, self.s1, self.s2))

    def _subset(self, name: str, keep: np.ndarray) -> "Dataset":
        """The pairs where the boolean array keep is true, in order."""
        flags = keep.tolist()
        return Dataset.from_columns(name, self.values[keep], compress(self.s1, flags),
                                    compress(self.s2, flags), self.score_range,
                                    self.categories)


@dataclass(frozen=True)
class RemovedPair:
    """Audit record: a dropped training pair and the test set that matched it."""

    s1: str
    s2: str
    score: float | None
    label: str | None
    test_name: str


@dataclass(frozen=True)
class TsvFile:
    """A TSV file decoded and split into lines and fields, once, before any
    field is checked.

    Bytes that are not UTF-8 are decoded as U+FFFD, so the fields can still
    be looked at (simreg eval sniffs the first ones); dataset() then rejects
    the file.
    """

    path: Path
    rows: list[list[str]]  # each line's fields
    not_utf8: str | None = None  # the decoding error, when the bytes are not UTF-8

    def dataset(self, name: str | None = None,
                score_range: tuple[float, float] = (0.0, 5.0),
                categories: tuple[str, ...] | None = None) -> Dataset:
        """The file's pairs, named name or else by the file's stem; any
        malformed line rejects the whole file, and the error names the first
        one in file order.

        With `categories` the first field is read as a label, otherwise as a
        float score that must fall inside `score_range`.
        """
        if self.not_utf8 is not None:
            raise DataFormatError(self.not_utf8)
        name = name if name is not None else self.path.stem
        columns = self._columns(categories)
        if columns is not None:
            declared = ({"categories": tuple(categories)} if categories is not None
                        else {"score_range": score_range})
            with suppress(InvalidInputError):  # a value outside the range or categories
                return Dataset.from_columns(name, *columns, **declared)
        raise self._first_bad_line(score_range, categories)

    def _columns(self, categories):
        """(values, s1, s2) with each line's fields parsed, or None when some
        line has too few fields or a score that is not a number; the values
        are checked by Dataset.from_columns."""
        if not self.rows:
            return (), (), ()
        if min(map(len, self.rows)) < 3:
            return None
        firsts, s1, s2 = islice(zip(*self.rows), 3)
        if categories is not None:
            # an unknown label reads as index -1, which Dataset.from_columns rejects
            values = np.fromiter(map(_positions(categories).get, firsts, repeat(-1)),
                                 np.intp, len(firsts))
        else:
            try:
                # Python's float, as each line is read alone: it takes
                # " 4.1 " and "0_5", and "nan" fails the range check
                values = np.fromiter(map(float, firsts), float, len(firsts))
            except ValueError:
                return None
        return values, s1, s2

    def _first_bad_line(self, score_range, categories) -> DataFormatError:
        """The error of the first line, in file order, that fails a check."""
        for lineno, fields in enumerate(self.rows, start=1):
            where = f"{self.path}:{lineno}"
            if len(fields) < 3:
                return DataFormatError(
                    f"{where}: expected at least 3 tab-separated fields, got {len(fields)}"
                )
            first = fields[0]
            if categories is not None:
                if first not in categories:
                    return DataFormatError(f"{where}: unknown label {first!r}")
                continue
            try:
                score = float(first)
            except ValueError:
                return DataFormatError(f"{where}: score field {first!r} is not a number")
            low, high = score_range
            if not low <= score <= high:
                return DataFormatError(f"{where}: score {score} outside [{low}, {high}]")
        raise AssertionError(f"{self.path}: a column check failed on no line")


def split_tsv(raw: bytes, path) -> TsvFile:
    """Decode the bytes of a TSV file read from path, which names it in
    errors, and split them into lines and each line into fields.  One
    leading UTF-8 byte-order mark is dropped; a decoding error still gives
    its position in the file's bytes, the mark's included."""
    path = Path(path)
    not_utf8 = None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        text = raw.decode("utf-8", errors="replace")
        not_utf8 = f"{path} is not valid UTF-8: {exc}"
    text = text.removeprefix("\ufeff")
    return TsvFile(path, [line.split("\t") for line in tsv_lines(text)], not_utf8)


def read_tsv(path) -> TsvFile:
    """Read a TSV file and split it (see split_tsv).  A file that cannot be
    read, missing or a directory, is the OSError of reading it."""
    return split_tsv(Path(path).read_bytes(), path)


def load_tsv(
    path,
    name: str | None = None,
    score_range: tuple[float, float] = (0.0, 5.0),
    categories: tuple[str, ...] | None = None,
) -> Dataset:
    """Read and parse a TSV corpus (see TsvFile.dataset)."""
    return read_tsv(path).dataset(name, score_range, categories)


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
    if dataset.categories is not None:
        firsts = [dataset.categories[i] for i in dataset.values.tolist()]
    else:
        firsts = list(map(repr, dataset.values.tolist()))  # shortest exact form
    text = "".join([f"{first}\t{s1}\t{s2}\n"
                    for first, s1, s2 in zip(firsts, dataset.s1, dataset.s2)])
    # each line holds two tabs and one line end of its own; a field only adds
    n = len(dataset)
    if text.count("\t") != 2 * n or text.count("\n") != n or "\r" in text:
        for number, fields in enumerate(zip(firsts, dataset.s1, dataset.s2), start=1):
            if any("\t" in f or "\n" in f or "\r" in f for f in fields):
                raise InvalidInputError(
                    f"{dataset.name}: pair {number} has a tab or line end in a field, "
                    "which no TSV line can carry")
    write_atomic(path, text)


def _dedup_keys(dataset: Dataset):
    # exact string equality after trimming edge whitespace; no case folding
    return zip(map(str.strip, dataset.s1), map(str.strip, dataset.s2))


def dedup_filter(train: Dataset, tests) -> tuple[Dataset, list[RemovedPair]]:
    """Drop every training pair whose sentences appear in any test set.

    A pair matches in either orientation (s1/s2 same or swapped) and scores
    are ignored entirely.  Test sets are never modified; duplicates within
    the training set itself are kept.  Returns the filtered dataset plus an
    audit list naming the test set each removed pair matched.
    """
    seen: dict[tuple[str, str], str] = {}
    for test in reversed(list(tests)):
        seen.update(zip(_dedup_keys(test), [test.name] * len(test)))
    hits = [seen.get(key, seen.get(key[::-1])) for key in _dedup_keys(train)]
    removed = []
    for i, hit in enumerate(hits):
        if hit is not None:
            value = train.values[i].item()
            score, label = ((None, train.categories[value]) if train.is_categorical
                            else (value, None))
            removed.append(RemovedPair(train.s1[i], train.s2[i], score, label, hit))
    keep = np.fromiter((hit is None for hit in hits), bool, len(hits))
    return train._subset(train.name, keep), removed


def write_removal_audit(removed, path) -> None:
    """One JSON line per removed pair, naming the matching test dataset."""
    lines = []
    for record in removed:
        # the pair's fields but the one of score and label it does not have
        doc = {k: v for k, v in asdict(record).items() if v is not None}
        doc["matched_test"] = doc.pop("test_name")
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
    scores = dataset.values
    outside = ~((1.0 <= scores) & (scores <= 5.0))
    if outside.any():
        rescale_sick(scores[outside][0].item())  # raises, naming the first
    # the same float64 operations, in the same order, as rescale_sick's
    return Dataset.from_columns(dataset.name, 5.0 * (scores - 1.0) / 4.0, dataset.s1,
                                dataset.s2, score_range=(0.0, 5.0))


def merge(datasets) -> Dataset:
    """Concatenate datasets in order; they must agree on the score range."""
    datasets = list(datasets)
    if not datasets:
        return Dataset.from_columns("merged", (), (), ())
    first = datasets[0]
    for ds in datasets[1:]:
        if ds.score_range != first.score_range or ds.categories != first.categories:
            raise InvalidInputError(
                f"cannot merge {ds.name}: range/categories differ from {first.name}"
            )
    return Dataset.from_columns(
        "+".join(ds.name for ds in datasets),
        np.concatenate([ds.values for ds in datasets]),
        chain.from_iterable(ds.s1 for ds in datasets),
        chain.from_iterable(ds.s2 for ds in datasets),
        first.score_range, first.categories,
    )


def positive_pairs_dataset(dataset: Dataset, threshold: float = 4.0) -> Dataset:
    """Pairs scoring at or above the threshold (inclusive), for the
    contrastive baseline."""
    if dataset.is_categorical:
        raise InvalidInputError("positive-pair extraction needs continuous scores")
    return dataset._subset(f"{dataset.name}-positives", dataset.values >= threshold)
