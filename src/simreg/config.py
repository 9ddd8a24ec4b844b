"""Declarative run configuration for the command-line tools.

A run is described by a JSON document.  ``SCHEMA`` declares every key once,
with its JSON type and default, and the document is checked against it before
any data is read: an unknown key, a missing required key or a wrong-typed
value is a ConfigError naming ``<section>.<key>``, never a silent default.
Some values are fixed, not configured: a label mapping's first node is 0
(``data.mapping_interval`` gives the spacing), texts are cut at the model's
``max_tokens``, and ``simreg sweep`` takes its grid from its flags alone.
"""

from __future__ import annotations

import json
import math
import os
import typing
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum
from pathlib import Path

from .data import NLI_CATEGORIES
from .encoder import FeatureMode
from .errors import ConfigError, InvalidInputError
from .labelmap import LabelMapping
from .losses import REGRESSION_KINDS, LossKind, LossSpec
from .training import TrainConfig

OUT_DIR_ENV = "SIMREG_OUT"
REQUIRED = MISSING  # the default of a key every document must give


def _from_fields(cls, *skip) -> dict:
    """Schema entries for a dataclass's fields: the annotated type and the
    field's own default, so that default is not restated here.  A field whose
    default is None is annotated ``X | None``; its key also takes null."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (typing.get_args(hints[f.name])[0] if f.default is None
                 else hints[f.name], f.default)
        for f in fields(cls) if f.name not in skip
    }


# section -> key -> (JSON type, default); "" is the top level, whose object
# keys are the other sections.  float takes any finite JSON number, a tuple
# type a list of that element type, an Enum one of its values.
SCHEMA = {
    "": {
        "out_dir": (str, None),
        "seed": (int, 0),
        "stages": (str, "single"),  # or "two_stage"
        "encoder": (dict, {}),
        "loss": (dict, {}),
        "data": (dict, REQUIRED),
        "training": (dict, {}),
        "joint": (dict, {}),  # stage-2 overrides of training
    },
    "encoder": {"dim": (int, 32),
                "feature_mode": (FeatureMode, FeatureMode.UV_ABS_DIFF)},
    "loss": {**_from_fields(LossSpec), "kind": (LossKind, LossKind.SMOOTH_K2)},
    "data": {
        "train": (str, REQUIRED),
        "dev": (str, REQUIRED),
        "categories": (tuple[str, ...], None),
        "mapping_interval": (float, 1.0),
        "score_range": (tuple[float, ...], (0.0, 5.0)),
        "nli_train": (str, None),  # read by two_stage runs only
        "nli_categories": (tuple[str, ...], NLI_CATEGORIES),
        "positive_threshold": (float, 4.0),
    },
    "training": _from_fields(TrainConfig, "seed"),
}

_JSON_NAMES = {str: "string", int: "integer", bool: "boolean", dict: "object"}


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
    mapping: LabelMapping | None  # set for categorical corpora
    score_range: tuple[float, float]
    nli_path: Path | None  # stage-1 corpus of two_stage runs
    nli_mapping: LabelMapping | None  # stage-1 mapping of two_stage runs
    training: TrainConfig
    joint: TrainConfig  # stage 2 of two_stage runs
    positive_threshold: float
    raw: dict

    def __post_init__(self):
        # the run's seed is held once: both stages shuffle at seed, also in a
        # dataclasses.replace(cfg, seed=s)
        for name in ("training", "joint"):
            object.__setattr__(self, name, replace(getattr(self, name), seed=self.seed))


def _typed(where: str, value, kind):
    """value read as the declared kind; anything else is a ConfigError."""
    if typing.get_origin(kind) is tuple:
        if type(value) is not list:
            raise ConfigError(f"{where} must be a list, got {json.dumps(value)}")
        element = typing.get_args(kind)[0]
        return tuple(_typed(f"{where}[{i}]", v, element) for i, v in enumerate(value))
    if issubclass(kind, Enum):
        choices = [m.value for m in kind]
        if type(value) is str and value in choices:
            return kind(value)
        expected = f"one of {', '.join(choices)}"
    elif kind is float:  # Python's json reads NaN and Infinity; JSON has neither
        if type(value) in (int, float) and math.isfinite(value):
            return float(value)
        expected = "a finite JSON number"
    elif type(value) is kind:
        return value
    else:
        expected = f"a JSON {_JSON_NAMES[kind]}"
    raise ConfigError(f"{where} must be {expected}, got {json.dumps(value)}")


def _section(name: str, doc, schema: dict | None = None) -> dict:
    """Every key of schema (default SCHEMA[name]) with its value from doc, of
    the declared type, or its default when doc does not give it."""
    schema = SCHEMA[name] if schema is None else schema
    prefix = f"{name}." if name else ""
    unknown = [prefix + key for key in sorted(set(doc) - set(schema))]
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    checked = {}
    for key, (kind, default) in schema.items():
        if key in doc and not (doc[key] is None and default is None):
            checked[key] = _typed(prefix + key, doc[key], kind)
        elif default is REQUIRED:
            raise ConfigError(f"missing required config key {prefix}{key}")
        else:
            checked[key] = default
    return checked


def _train_config(name: str, doc: dict, base: TrainConfig | None = None):
    """A TrainConfig from one training section; base fills keys it omits.  Its
    seed is set by RunConfig."""
    schema = SCHEMA["training"]
    if base is not None:
        schema = {key: (kind, getattr(base, key)) for key, (kind, _) in schema.items()}
    try:
        return TrainConfig(**_section(name, doc, schema))
    except InvalidInputError as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc


def _mapping(where: str, categories, interval: float) -> LabelMapping:
    try:
        return LabelMapping(categories, 0.0, interval)
    except InvalidInputError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _existing(name: str) -> Path:
    if not Path(name).is_file():
        raise ConfigError(f"data file not found: {name}")
    return Path(name)


def check_buffer_fits(loss: LossSpec, *mappings) -> None:
    """Reject a buffer x0 wider than half the node spacing of any mapping
    trained on (None entries are skipped): past d/2 the zero-loss zone of one
    node reaches the rounding region of its neighbour."""
    for m in mappings:
        if m is not None and loss.x0 > m.d / 2.0:
            raise ConfigError(
                f"loss.x0 = {loss.x0} exceeds half the node spacing d/2 = {m.d / 2.0}"
            )


def load_run_config(path, seed_override: int | None = None,
                    out_override: str | None = None) -> RunConfig:
    """Parse and fully validate a JSON run configuration.

    Output-directory precedence: --out flag, then the SIMREG_OUT environment
    variable, then the config file's out_dir.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    top = _section("", doc)
    enc, data = (_section(key, top[key]) for key in ("encoder", "data"))

    seed = seed_override if seed_override is not None else top["seed"]
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    out_dir = out_override or os.environ.get(OUT_DIR_ENV) or top["out_dir"]
    if out_dir is None:
        raise ConfigError("no output directory (set out_dir, SIMREG_OUT or --out)")
    if enc["dim"] <= 0:
        raise ConfigError("encoder.dim must be positive")
    try:
        loss = LossSpec(**_section("loss", top["loss"]))
    except InvalidInputError as exc:
        raise ConfigError(f"invalid loss: {exc}") from exc
    training = _train_config("training", top["training"])
    joint = _train_config("joint", top["joint"], base=training)

    mapping = None
    if data["categories"] is not None:
        mapping = _mapping("data.categories", data["categories"], data["mapping_interval"])
    if loss.kind is LossKind.CROSS_ENTROPY and mapping is None:
        raise ConfigError("loss.kind cross_entropy needs data.categories")
    if loss.kind is LossKind.INFO_NCE and mapping is not None:
        raise ConfigError("loss.kind info_nce needs continuous scores, "
                          "but data.categories is set")
    score_range = data["score_range"]
    if len(score_range) != 2 or score_range[0] >= score_range[1]:
        raise ConfigError(f"invalid data.score_range: {list(score_range)}")

    stages = top["stages"]
    if stages not in ("single", "two_stage"):
        raise ConfigError(f"stages must be 'single' or 'two_stage', got {stages!r}")
    train_path, dev_path = _existing(data["train"]), _existing(data["dev"])
    nli_path = nli_mapping = None
    if stages == "two_stage":
        if loss.kind not in REGRESSION_KINDS:
            raise ConfigError("two_stage runs use a residual-based loss")
        if data["nli_train"] is None:
            raise ConfigError("two_stage runs need data.nli_train")
        nli_path = _existing(data["nli_train"])
        nli_mapping = _mapping("data.nli_categories", data["nli_categories"], 1.0)
    check_buffer_fits(loss, mapping, nli_mapping)

    return RunConfig(
        out_dir=Path(out_dir), seed=seed, dim=enc["dim"],
        feature_mode=enc["feature_mode"], loss=loss, stages=stages,
        train_path=train_path, dev_path=dev_path, mapping=mapping,
        score_range=score_range, nli_path=nli_path, nli_mapping=nli_mapping,
        training=training, joint=joint,
        positive_threshold=data["positive_threshold"], raw=doc,
    )
