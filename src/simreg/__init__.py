"""Regression-based training and evaluation for graded sentence similarity."""

from .data import Dataset, SentencePair
from .encoder import FeatureMode, Model, ModelParams, Vocabulary, build_vocab
from .evaluation import EvalReport, evaluate, spearman
from .labelmap import LabelMapping, classify
from .losses import LossKind, LossSpec
from .training import Stage, TrainConfig, train, two_stage_finetune

__all__ = [
    "Dataset",
    "EvalReport",
    "FeatureMode",
    "LabelMapping",
    "LossKind",
    "LossSpec",
    "Model",
    "ModelParams",
    "SentencePair",
    "Stage",
    "TrainConfig",
    "Vocabulary",
    "build_vocab",
    "classify",
    "evaluate",
    "spearman",
    "train",
    "two_stage_finetune",
]

__version__ = "0.1.0"
