"""Rank-correlation evaluation and report aggregation.

dataset_report scores one dataset from its pooled pairs.  evaluate (simreg
eval) maps it over its datasets, and training selects checkpoints by its
Spearman coefficient on the dev set, so both report one measure.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset
from .errors import DegenerateInputError, InvalidInputError
from .labelmap import LabelMapping, nearest_class


def average_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they cover."""
    _, group, counts = np.unique(np.asarray(values, dtype=float), return_inverse=True,
                                 return_counts=True)
    ends = np.cumsum(counts)  # 1-based rank of the last member of each group
    return ((2 * ends - counts + 1) / 2.0)[group]


def spearman(predictions, golds) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks.

    Raises rather than returning 0 for constant inputs, since a silent zero
    would corrupt multi-dataset averages.
    """
    p = np.asarray(predictions, dtype=float)
    g = np.asarray(golds, dtype=float)
    if p.shape != g.shape or p.ndim != 1:
        raise InvalidInputError(f"length mismatch: {p.shape} vs {g.shape}")
    if p.size < 2:
        raise InvalidInputError("need at least 2 observations")
    if not (np.isfinite(p).all() and np.isfinite(g).all()):
        raise InvalidInputError("rank correlation needs finite inputs")
    if np.all(p == p[0]) or np.all(g == g[0]):
        raise DegenerateInputError("rank correlation undefined for constant input")
    rp = average_ranks(p) - (p.size + 1) / 2.0
    rg = average_ranks(g) - (g.size + 1) / 2.0
    r = float(rp @ rg / np.sqrt((rp @ rp) * (rg @ rg)))
    return min(1.0, max(-1.0, r))  # rounding may leak an ulp past +-1


def cosine(u, v):
    """cos angle between nonzero vectors along the last axis; scale-invariant.

    Two vectors give a scalar, two (n, dim) matrices give n row cosines.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.linalg.norm(u, axis=-1)
    nv = np.linalg.norm(v, axis=-1)
    if np.any(nu == 0) or np.any(nv == 0):
        raise InvalidInputError("cosine undefined for a zero vector")
    return np.sum(u * v, axis=-1) / (nu * nv)


@dataclass(frozen=True)
class DatasetReport:
    name: str
    spearman: float
    accuracy: float | None = None
    n_pairs: int = 0


@dataclass(frozen=True)
class EvalReport:
    """Per-dataset Spearman scores (plus rounding accuracy where categorical)
    and their arithmetic mean."""

    per_dataset: tuple[DatasetReport, ...]
    average: float

    def to_json(self) -> str:
        return json.dumps({"datasets": [asdict(r) for r in self.per_dataset],
                           "average": self.average}, sort_keys=True, indent=2)

    def format_table(self) -> str:
        """Datasets as columns with the average last, one metric per row."""
        names = [r.name for r in self.per_dataset] + ["Avg."]
        widths = [max(len(n), 8) for n in names]
        label_w = max(len("spearman"), len("accuracy"))

        def row(label, values):
            cells = [
                f"{v:>{w}.4f}" if v is not None else f"{'-':>{w}}"
                for v, w in zip(values, widths)
            ]
            return f"{label:<{label_w}}  " + "  ".join(cells)

        header = f"{'':<{label_w}}  " + "  ".join(
            f"{n:>{w}}" for n, w in zip(names, widths)
        )
        lines = [header, row("spearman", [r.spearman for r in self.per_dataset]
                             + [self.average])]
        if any(r.accuracy is not None for r in self.per_dataset):
            lines.append(row("accuracy", [r.accuracy for r in self.per_dataset]
                             + [None]))
        return "\n".join(lines)


def predictions_for(model, u, v, use_cosine: bool = False) -> np.ndarray:
    """Raw head scores of pooled pairs (u, v); cosine(u, v) for embedding-only
    eval."""
    if use_cosine:
        return cosine(u, v)
    return model.head_scores(u, v)


def gold_classes(dataset: Dataset, mapping: LabelMapping | None) -> np.ndarray:
    """Each pair's class: the index of its label in mapping.  A label the
    mapping lacks is an error that names the dataset and the label of the
    first pair holding one; a category no pair uses needs no node."""
    if not dataset.is_categorical:
        raise InvalidInputError(f"{dataset.name} has no categorical labels")
    if mapping is None:
        raise InvalidInputError(f"{dataset.name} needs a label mapping")
    known = {c: i for i, c in enumerate(mapping.categories)}
    table = np.array([known.get(c, -1) for c in dataset.categories], dtype=np.intp)
    classes = table[dataset.values]
    unknown = np.flatnonzero(classes < 0)
    if unknown.size:
        label = dataset.categories[dataset.values[unknown[0]]]
        raise InvalidInputError(f"{dataset.name}: unknown category: {label!r}")
    return classes


def golds(dataset: Dataset, mapping: LabelMapping | None) -> np.ndarray:
    """Gold value of every pair: its score (the dataset's own read-only
    column), or the node of its class (gold_classes) under the mapping."""
    if not dataset.is_categorical:
        return dataset.values
    classes = gold_classes(dataset, mapping)
    return np.asarray(mapping.nodes)[classes]


def accuracy(scores, dataset: Dataset, mapping: LabelMapping, classes=None) -> float:
    """Share of pairs rounded to their class (classes if given, else gold_classes)."""
    classes = gold_classes(dataset, mapping) if classes is None else classes
    if len(dataset) == 0:
        raise InvalidInputError("accuracy undefined on an empty dataset")
    if len(scores) != len(dataset):
        raise InvalidInputError(f"{len(scores)} scores for {len(dataset)} pairs")
    return int(np.count_nonzero(nearest_class(mapping, scores) == classes)) / len(dataset)


def dataset_report(model, dataset: Dataset, u, v, mapping: LabelMapping | None,
                   use_cosine: bool = False) -> DatasetReport:
    """The report of a dataset from its pooled pairs (u, v): the Spearman
    coefficient of its predictions (predictions_for) against its golds under
    mapping and, when categorical, the rounding accuracy of the head scores,
    also when use_cosine ranks by embedding cosine.  An undefined one (fewer
    than two pairs, non-finite or constant predictions or golds) raises an
    error that starts with the dataset's name."""
    classes = gold_classes(dataset, mapping) if dataset.is_categorical else None
    gold = dataset.values if classes is None else np.asarray(mapping.nodes)[classes]
    try:
        ranked = predictions_for(model, u, v, use_cosine)
        rho = spearman(ranked, gold)
        acc = (accuracy(model.head_scores(u, v) if use_cosine else ranked, dataset, mapping,
                        classes) if classes is not None else None)
    except (InvalidInputError, DegenerateInputError) as exc:
        raise type(exc)(f"{dataset.name}: {exc}") from exc
    return DatasetReport(dataset.name, rho, acc, len(dataset))


def evaluate(model, datasets, mapping: LabelMapping | None = None,
             use_cosine: bool = False) -> EvalReport:
    """Report every dataset (dataset_report) and average the Spearman
    coefficients.  mapping, when given, replaces the model's own.  Each
    dataset is tokenized (Model.encode) and pooled once; the head scores and
    the cosine share its (u, v)."""
    active = mapping if mapping is not None else model.mapping
    rows = tuple(dataset_report(model, ds, *model.embed_pairs(model.encode(ds.texts)),
                                active, use_cosine) for ds in datasets)
    if not rows:
        raise InvalidInputError("no datasets to evaluate")
    return EvalReport(rows, sum(r.spearman for r in rows) / len(rows))
