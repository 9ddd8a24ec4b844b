"""Declarative run configuration for the command-line tools.

A run is described by a JSON document; every key is validated up front and
unknown keys are rejected so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .data import NLI_CATEGORIES
from .encoder import FeatureMode
from .errors import ConfigError, InvalidInputError
from .labelmap import LabelMapping, build_mapping
from .losses import REGRESSION_KINDS, LossKind, LossSpec
from .training import TrainConfig

OUT_DIR_ENV = "SIMREG_OUT"

_TOP_KEYS = {
    "out_dir", "seed", "encoder", "loss", "data", "training", "joint", "stages",
    "sweep",
}
_ENCODER_KEYS = {"dim", "feature_mode"}
_LOSS_KEYS = {"kind", "k", "x0", "d", "tau"}
_DATA_KEYS = {
    "train", "dev", "categories", "mapping_start", "mapping_interval",
    "score_range", "nli_train", "nli_categories", "positive_threshold",
}
_TRAIN_KEYS = {
    "batch_size", "epochs", "learning_rate", "eval_every", "max_tokens",
    "clamp_predictions", "optimizer",
}
_SWEEP_KEYS = {"k", "x0"}


@dataclass(frozen=True)
class RunConfig:
    out_dir: Path
    seed: int
    dim: int
    feature_mode: FeatureMode
    loss: LossSpec
    stages: str  # "single" or "two_stage"
    train_path: Path
    dev_path: Path
    categories: tuple[str, ...] | None
    mapping: LabelMapping | None
    score_range: tuple[float, float]
    nli_path: Path | None
    nli_categories: tuple[str, ...]
    nli_mapping: LabelMapping | None  # stage-1 mapping of two_stage runs
    training: TrainConfig
    joint: TrainConfig | None
    sweep_k: tuple[float, ...]
    sweep_x0: tuple[float, ...]
    positive_threshold: float
    raw: dict

    @property
    def label_range(self) -> tuple[float, float]:
        if self.mapping is not None:
            return self.mapping.low, self.mapping.high
        return self.score_range


def _reject_unknown(section: str, doc: dict, allowed: set) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(sorted(unknown))}")


def _require(doc: dict, key: str, section: str):
    if key not in doc:
        raise ConfigError(f"missing required key {key!r} in {section}")
    return doc[key]


def check_buffer_fits(loss: LossSpec, *mappings) -> None:
    """Reject a buffer x0 wider than half the node spacing of any mapping
    trained on (None entries are skipped): past d/2 the zero-loss zone of one
    node reaches the rounding region of its neighbour."""
    for m in mappings:
        if m is not None and loss.x0 > m.d / 2.0:
            raise ConfigError(
                f"loss.x0 = {loss.x0} exceeds half the node spacing d/2 = {m.d / 2.0}"
            )


def _train_config(doc: dict, seed: int, defaults: TrainConfig | None = None) -> TrainConfig:
    _reject_unknown("training", doc, _TRAIN_KEYS)
    base = defaults if defaults is not None else TrainConfig(seed=seed)
    merged = {
        "batch_size": doc.get("batch_size", base.batch_size),
        "epochs": doc.get("epochs", base.epochs),
        "learning_rate": doc.get("learning_rate", base.learning_rate),
        "eval_every": doc.get("eval_every", base.eval_every),
        "max_tokens": doc.get("max_tokens", base.max_tokens),
        "clamp_predictions": doc.get("clamp_predictions", base.clamp_predictions),
        "optimizer": doc.get("optimizer", base.optimizer),
        "seed": seed,
    }
    try:
        return TrainConfig(**merged)
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc


def load_run_config(
    path,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> RunConfig:
    """Parse and fully validate a JSON run configuration.

    Output-directory precedence: --out flag, then the SIMREG_OUT environment
    variable, then the config file's out_dir.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _reject_unknown("config", doc, _TOP_KEYS)

    seed = int(seed_override if seed_override is not None else doc.get("seed", 0))
    out_dir = out_override or os.environ.get(OUT_DIR_ENV) or doc.get("out_dir")
    if out_dir is None:
        raise ConfigError("no output directory (set out_dir, SIMREG_OUT or --out)")

    enc = doc.get("encoder", {})
    _reject_unknown("encoder", enc, _ENCODER_KEYS)
    dim = int(enc.get("dim", 32))
    if dim <= 0:
        raise ConfigError("encoder.dim must be positive")
    try:
        feature_mode = FeatureMode(enc.get("feature_mode", "uv_absdiff"))
    except ValueError as exc:
        raise ConfigError(f"unknown feature_mode: {enc.get('feature_mode')!r}") from exc

    loss_doc = doc.get("loss", {})
    _reject_unknown("loss", loss_doc, _LOSS_KEYS)
    try:
        kind = LossKind(loss_doc.get("kind", "smooth_k2"))
        loss = LossSpec(
            kind,
            k=float(loss_doc.get("k", 1.0)),
            x0=float(loss_doc.get("x0", 0.0)),
            d=float(loss_doc.get("d", 1.0)),
            tau=loss_doc.get("tau"),
        )
    except (ValueError, InvalidInputError) as exc:
        raise ConfigError(f"invalid loss: {exc}") from exc

    data_doc = _require(doc, "data", "config")
    _reject_unknown("data", data_doc, _DATA_KEYS)
    train_path = Path(_require(data_doc, "train", "data"))
    dev_path = Path(_require(data_doc, "dev", "data"))
    for p in (train_path, dev_path):
        if not p.exists():
            raise ConfigError(f"data file not found: {p}")

    categories = data_doc.get("categories")
    mapping = None
    if categories is not None:
        try:
            mapping = build_mapping(
                categories,
                float(data_doc.get("mapping_start", 0.0)),
                float(data_doc.get("mapping_interval", 1.0)),
            )
        except InvalidInputError as exc:
            raise ConfigError(f"invalid mapping: {exc}") from exc
        categories = tuple(categories)
    score_range = tuple(float(x) for x in data_doc.get("score_range", (0.0, 5.0)))
    if len(score_range) != 2 or score_range[0] >= score_range[1]:
        raise ConfigError(f"invalid score_range: {score_range}")

    stages = doc.get("stages", "single")
    if stages not in ("single", "two_stage"):
        raise ConfigError(f"stages must be 'single' or 'two_stage', got {stages!r}")
    if stages == "two_stage" and kind not in REGRESSION_KINDS:
        raise ConfigError("two_stage runs use a residual-based loss")
    nli_path = data_doc.get("nli_train")
    nli_categories = tuple(data_doc.get("nli_categories", NLI_CATEGORIES))
    if stages == "two_stage":
        if nli_path is None:
            raise ConfigError("two_stage runs need data.nli_train")
        nli_path = Path(nli_path)
        if not nli_path.exists():
            raise ConfigError(f"data file not found: {nli_path}")
    elif nli_path is not None:
        nli_path = Path(nli_path)
    nli_mapping = None
    if stages == "two_stage":
        try:
            nli_mapping = build_mapping(nli_categories, 0.0, 1.0)
        except InvalidInputError as exc:
            raise ConfigError(f"invalid nli_categories: {exc}") from exc
    check_buffer_fits(loss, mapping, nli_mapping)

    training = _train_config(doc.get("training", {}), seed)
    joint = None
    if "joint" in doc:
        joint = _train_config(doc["joint"], seed, defaults=training)

    sweep_doc = doc.get("sweep", {})
    _reject_unknown("sweep", sweep_doc, _SWEEP_KEYS)
    sweep_k = tuple(float(x) for x in sweep_doc.get("k", ()))
    sweep_x0 = tuple(float(x) for x in sweep_doc.get("x0", ()))

    threshold = float(data_doc.get("positive_threshold", 4.0))

    return RunConfig(
        out_dir=Path(out_dir),
        seed=seed,
        dim=dim,
        feature_mode=feature_mode,
        loss=loss,
        stages=stages,
        train_path=train_path,
        dev_path=dev_path,
        categories=categories,
        mapping=mapping,
        score_range=score_range,
        nli_path=nli_path,
        nli_categories=nli_categories,
        nli_mapping=nli_mapping,
        training=training,
        joint=joint,
        sweep_k=sweep_k,
        sweep_x0=sweep_x0,
        positive_threshold=threshold,
        raw=doc,
    )
