"""Ordered categories mapped to evenly spaced numeric nodes.

A mapping assigns each category (listed in ascending similarity) the value
``start + i * interval``.  Continuous predictions are converted back to
categories by nearest-node rounding; a prediction is classified correctly
whenever it lands within half an interval of the true node.

Instances are immutable; ``index`` and the functions below work element-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class LabelMapping:
    """Bidirectional map between category names and numeric nodes.

    Holds what defines the mapping, the categories, start and interval d,
    and derives the nodes start + i*d from them, so a mapping written as
    JSON reads back with the very nodes it was trained with.
    """

    categories: tuple[str, ...]
    start: float
    d: float
    nodes: tuple[float, ...] = field(init=False, compare=False)
    _positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cats, start, d = tuple(self.categories), float(self.start), float(self.d)
        if len(cats) < 2:
            raise InvalidInputError("a mapping needs at least 2 categories")
        if len(set(cats)) != len(cats):
            raise InvalidInputError("category names must be unique")
        if d <= 0:
            raise InvalidInputError(f"interval must be positive, got {d}")
        if not (math.isfinite(start) and math.isfinite(d)):
            raise InvalidInputError(
                f"start and interval must be finite, got {start}, {d}")
        object.__setattr__(self, "categories", cats)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "nodes", tuple(start + i * d for i in range(len(cats))))
        object.__setattr__(self, "_positions", {c: i for i, c in enumerate(cats)})

    @property
    def low(self) -> float:
        return self.nodes[0]

    @property
    def high(self) -> float:
        return self.nodes[-1]

    def index(self, category):
        """Position of a category name; an int array for a sequence of names."""
        try:
            if isinstance(category, str):
                return self._positions[category]
            return np.array([self._positions[c] for c in category], dtype=np.intp)
        except KeyError as exc:
            raise InvalidInputError(f"unknown category: {exc.args[0]!r}") from None

    def to_json_dict(self) -> dict:
        return {
            "categories": list(self.categories),
            "start": self.start,
            "interval": self.d,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LabelMapping":
        return cls(doc["categories"], doc["start"], doc["interval"])


def encode(mapping: LabelMapping, category):
    """Numeric node of a category name; an array for a sequence of names."""
    idx = mapping.index(category)
    if isinstance(idx, int):
        return mapping.nodes[idx]
    return np.asarray(mapping.nodes, dtype=float)[idx]


def nearest_class(mapping: LabelMapping, prediction):
    """Index of the nearest node; an intp array for an array of predictions.

    Exact midpoints round to the higher node, which keeps the classifier a
    non-decreasing step function.  Predictions beyond the terminal nodes map
    to the nearest terminal node.
    """
    p = np.asarray(prediction, dtype=float)
    finite = np.isfinite(p)
    if not finite.all():
        raise InvalidInputError(f"prediction must be finite, got {p[~finite][0]}")
    idx = np.floor((p - mapping.low) / mapping.d + 0.5)
    idx = np.clip(idx, 0, len(mapping.categories) - 1).astype(np.intp)
    return int(idx) if p.ndim == 0 else idx


def classify(mapping: LabelMapping, prediction):
    """Category of the nearest node (nearest_class); names for an array."""
    idx = nearest_class(mapping, prediction)
    if isinstance(idx, int):
        return mapping.categories[idx]
    return np.asarray(mapping.categories)[idx]
