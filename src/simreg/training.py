"""Mini-batch training with dev-set checkpoint selection.

Supports single-stage runs and the two-stage workflow used for contrastive
pre-trained encoders: first only the randomly initialized head is updated
while the encoder stays frozen, then everything is trained jointly.  train
makes the frozen-or-joint choice in one block, which gives the stage its
batches, the step each batch runs and its dev vectors.  The frozen stage's
encoder cannot change, so it computes every train pair's features, and pools
its dev sentences, once: its batches are rows of those features, and its
step runs only the head and loss (prepare_head_loss), which computes no
feature or embedding gradient.  Every head loss takes this path; InfoNCE
has no head, so a frozen InfoNCE stage would train nothing and is rejected.
The joint stage's batches are each epoch's pooling matrices, planned a
window of batches at a time (PairTokens.batches), and its step is
prepare_forward_backward's.  Each stage prepares its step and its
optimizer's update (updater) once, so a step runs only its arithmetic.
train is the only code that knows a stage is frozen: an optimizer updates
the arrays its updater is prepared for, and the frozen table is shared
read-only, never copied.  Every dataset's tokens are derived inside train
from the dataset itself (Model.encode, cut at the model's max_tokens), so
tokens and labels cannot come from different datasets, and the dev set is
scored as simreg eval scores it (evaluation.dataset_report).  Given a seed,
the whole procedure is deterministic.

A validated run configuration runs through load_run_data, which reads its
files once, and run, which trains its model, one stage or two, on them.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .data import Dataset, positive_pairs_dataset, read_tsv, write_atomic
from .encoder import (
    Corpus,
    Gradients,
    Model,
    ModelParams,
    Vocabulary,
    build_vocab,
    features,
    prepare_forward_backward,
    prepare_head_loss,
)
from .errors import DegenerateInputError, InvalidInputError, TrainingError
from .evaluation import dataset_report, gold_classes, golds
from .labelmap import LabelMapping
from .losses import LossKind, LossSpec

if typing.TYPE_CHECKING:  # config imports this module
    from .config import RunConfig


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    epochs: int = 1
    learning_rate: float = 0.1
    seed: int = 0
    eval_every: int = 50
    clamp_predictions: bool = True
    optimizer: str = "sgd"  # or "adam"

    def __post_init__(self):
        for name in ("batch_size", "epochs", "eval_every"):
            if getattr(self, name) <= 0:
                raise InvalidInputError(f"{name} must be positive")
        if self.learning_rate < 0:
            raise InvalidInputError("learning_rate must be non-negative")
        if self.optimizer not in ("sgd", "adam"):
            raise InvalidInputError(f"unknown optimizer {self.optimizer!r}")


class Stage(Enum):
    HEAD_ONLY = "head_only"  # encoder frozen, only the linear head updates
    JOINT = "joint"


class HistoryEntry(NamedTuple):
    step: int
    train_loss: float | None
    dev_spearman: float | None


@dataclass
class TrainResult:
    best_model: Model
    history: list[HistoryEntry]
    best_dev: float


@dataclass
class TwoStageResult:
    best_model: Model
    stage1: TrainResult
    stage2: TrainResult


# the arrays an optimizer updates: the table, then the flat head
# (ModelParams.head, the head weights and bias in one array)
TRAINED = ("embeddings", "head")


class AdamOptimizer:
    """Adaptive-moment updates with the textbook BETA1, BETA2 and EPS.

    A parameter's moments and scratch buffers are made when an updater is
    first prepared for it, so a parameter that never gets a gradient costs
    nothing; state maps each of TRAINED that has them to (m, v, scratch,
    scratch), and the head weights and bias share the flat head's.  The
    moments cover the whole parameter and decay everywhere, so table rows a
    batch does not touch still move by their momentum; only the entries the
    gradient covers take its terms, and no table-sized gradient is built.
    An uncovered entry's b1*m equals the textbook b1*m + (1-b1)*0, as a
    moment starting at +0.0 never becomes -0.0, so each step gives the
    textbook formulas' floating-point results, worked in place; t counts
    the optimizer's steps.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self.state = {}

    def updater(self, params, names):
        """update(grads): one step of params' arrays names (of TRAINED) by
        grads' gradients of them, as a prepared step makes them: the table's
        gradient covers grads.rows, the head's the whole head."""
        for name in names:
            if name not in self.state:
                self.state[name] = tuple(np.zeros_like(getattr(params, name))
                                         for _ in range(4))
        parts = [(name == "embeddings", getattr(params, name), *self.state[name])
                 for name in names]
        b1, b2 = self.BETA1, self.BETA2
        # the same Python floats for every parameter
        c1, c2 = 1 - b1, 1 - b2
        lr, eps = self.lr, self.EPS

        def update(grads):
            self.t += 1
            bias1, bias2 = 1 - b1 ** self.t, 1 - b2 ** self.t
            for table, p, m, v, a, b in parts:
                # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g * g
                np.multiply(m, b1, out=m)
                np.multiply(v, b2, out=v)
                if table:
                    g, at = grads.embeddings, grads.rows
                    m[at] += g * c1
                    v[at] += g * c2 * g
                else:
                    g = grads.head
                    m += g * c1
                    v += g * c2 * g
                # p -= lr * m_hat / (sqrt(v_hat) + eps)
                np.divide(m, bias1, out=a)
                np.divide(v, bias2, out=b)
                np.sqrt(b, out=b)
                np.add(b, eps, out=b)
                np.multiply(a, lr, out=a)
                np.divide(a, b, out=a)
                np.subtract(p, a, out=p)
        return update


class SgdOptimizer:
    """p <- p - lr*g on the entries each gradient covers (see
    AdamOptimizer.updater); every other entry, and every parameter without
    a gradient, is untouched."""

    def __init__(self, learning_rate: float):
        self.lr = learning_rate

    def updater(self, params, names):
        """update(grads), as AdamOptimizer.updater."""
        lr, table, head = self.lr, params.embeddings, params.head
        steps_table, steps_head = "embeddings" in names, "head" in names

        def update(grads):
            if steps_table:
                table[grads.rows] -= lr * grads.embeddings
            if steps_head:
                np.subtract(head, lr * grads.head, out=head)
        return update


def _dev_score(model: Model, dev_set: Dataset, u, v, mapping, use_cosine: bool) -> float:
    # simreg eval's measure, from the raw (unclamped) predictions
    return dataset_report(model, dev_set, u, v, mapping, use_cosine).spearman


def _copy_updated(params: ModelParams, updated) -> ModelParams:
    """params with a private copy of each of TRAINED named in updated and a
    read-only view of the others, which numpy then refuses to write."""
    arrays = []
    for name in TRAINED:
        array = getattr(params, name)
        if name in updated:
            array = array.copy()
        else:
            array = array.view()
            array.flags.writeable = False
        arrays.append(array)
    return ModelParams(*arrays, params.weights_shape)


def train(
    model: Model,
    train_set: Dataset,
    dev_set: Dataset,
    config: TrainConfig,
    loss_spec: LossSpec,
    stage: Stage = Stage.JOINT,
    mapping: LabelMapping | None = None,
    corpus: Corpus | None = None,
) -> TrainResult:
    """Optimize the model's trainable parameters, returning the best dev
    checkpoint.

    Shuffles once per epoch under the config seed, evaluates dev Spearman at
    step 0, every `eval_every` steps and at each epoch end, and keeps the
    parameters of the best evaluation (first best wins ties).  The input
    model is never mutated.  A categorical train set's targets are read
    through mapping, or the model's own when mapping is None; with neither
    it is an InvalidInputError.  Both sets are tokenized by Model.encode,
    cut to the model's max_tokens; corpus, when given, holds their texts
    already split (otherwise each set's texts are split here), and a text
    it lacks is an InvalidInputError.  With Stage.HEAD_ONLY the encoder is frozen: no
    embedding gradient is computed, and the returned model reads the input
    model's table through a read-only view instead of a copy.  A frozen
    InfoNCE stage is an InvalidInputError, as InfoNCE trains no head.
    """
    if len(train_set) == 0 or len(dev_set) == 0:
        raise InvalidInputError("training and dev sets must be nonempty")
    frozen = stage is Stage.HEAD_ONLY
    if frozen and loss_spec.kind is LossKind.INFO_NCE:
        raise InvalidInputError("info_nce has no head to train with the encoder frozen")
    mapping = mapping if mapping is not None else model.mapping
    if loss_spec.kind is not LossKind.CROSS_ENTROPY:
        targets = golds(train_set, mapping)  # the contrastive loss ignores them
    elif train_set.is_categorical:
        targets = gold_classes(train_set, mapping)
    else:
        raise InvalidInputError("cross-entropy needs categorical targets")
    # dev scores are judged as the saved model will be: through its own mapping
    dev_mapping = model.mapping if model.mapping is not None else mapping
    clamp_range = None
    if config.clamp_predictions:
        clamp_range = ((mapping.low, mapping.high) if train_set.is_categorical
                       else train_set.score_range)
    use_cosine = loss_spec.kind is LossKind.INFO_NCE

    updated = ("head",) if frozen else TRAINED
    work = replace(model, params=_copy_updated(model.params, updated))
    train_pairs, dev_pairs = (work.encode(ds.texts, corpus) for ds in (train_set, dev_set))
    optimizer = (AdamOptimizer if config.optimizer == "adam"
                 else SgdOptimizer)(config.learning_rate)
    rng = np.random.default_rng(config.seed)
    n, batch_size = len(targets), config.batch_size

    # the stage's one frozen-or-joint choice: its batches of the epoch in
    # order perm, the step each batch runs (prepared once) and its dev vectors
    if frozen:
        # the encoder does not change in this stage: every train pair's
        # features, and every dev sentence's vector, are computed once
        train_features = features(*work.embed_pairs(train_pairs), work.feature_mode)
        dev_uv = work.embed_pairs(dev_pairs)
        head_step = prepare_head_loss(work.params, loss_spec, clamp_range)

        def batches(perm):
            return (train_features[perm[start:start + batch_size]]
                    for start in range(0, n, batch_size))

        def batch_step(batch_features, batch_targets):
            value, d_head, _ = head_step(batch_features, batch_targets)
            return value, Gradients(None, None, d_head)

        def embed_dev():
            return dev_uv
    else:
        batches = functools.partial(train_pairs.batches, batch_size=batch_size)
        batch_step = prepare_forward_backward(work.params, work.feature_mode, loss_spec,
                                              clamp_range)
        embed_dev = functools.partial(work.embed_pairs, dev_pairs)

    # the arrays this stage's gradients cover: InfoNCE gives the head none
    update = optimizer.updater(work.params, ("embeddings",) if use_cosine else updated)

    def dev_score():
        return _dev_score(work, dev_set, *embed_dev(), dev_mapping, use_cosine)

    best_dev = dev_score()
    # one buffer for the best parameters, overwritten at each improvement
    best_params = _copy_updated(work.params, updated)
    history = [HistoryEntry(0, None, best_dev)]

    step = 0
    batches_per_epoch = math.ceil(n / batch_size)
    # diverging parameters overflow to inf and NaN, which the checks below
    # turn into one TrainingError; numpy's warnings on the way say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            perm = rng.permutation(n)
            epoch_targets = targets[perm]
            for b, batch in enumerate(batches(perm)):
                try:
                    value, grads = batch_step(
                        batch, epoch_targets[b * batch_size:(b + 1) * batch_size])
                except InvalidInputError as exc:
                    # diverged parameters produce non-finite predictions downstream
                    raise TrainingError(f"aborted at step {step + 1}: {exc}") from exc
                if not math.isfinite(value):
                    raise TrainingError(f"non-finite training loss at step {step + 1}")
                update(grads)
                step += 1
                dev = None
                if step % config.eval_every == 0 or b == batches_per_epoch - 1:
                    try:
                        dev = dev_score()
                    except (InvalidInputError, DegenerateInputError) as exc:
                        # finite loss but runaway parameters (non-finite dev
                        # predictions) or a saturated head (constant ones, whose
                        # rank correlation is undefined): treat as divergence
                        raise TrainingError(
                            f"dev evaluation failed at step {step}: {exc}"
                        ) from exc
                    if dev > best_dev:
                        best_dev = dev
                        for name in updated:
                            np.copyto(getattr(best_params, name),
                                      getattr(work.params, name))
                history.append(HistoryEntry(step, value, dev))

    return TrainResult(replace(work, params=best_params), history, best_dev)


def two_stage_finetune(
    model: Model,
    nli_set: Dataset,
    sts_set: Dataset,
    dev_set: Dataset,
    config: TrainConfig,
    joint_config: TrainConfig,
    loss_spec: LossSpec,
    nli_mapping: LabelMapping,
    corpus: Corpus | None = None,
) -> TwoStageResult:
    """Freeze-then-joint fine-tuning.

    Stage 1 trains only the head on the categorical corpus, under config
    and nli_mapping; its best model shares the input model's table
    read-only.  Stage 2 starts from the stage-1 best checkpoint and trains
    everything on the similarity corpus under joint_config, its labels read
    through the model's own mapping.  Both stages use loss_spec.  Because
    stage 2 re-evaluates its starting point, the final dev score can never
    fall below stage 1's.  corpus, when given, holds the texts of all three
    sets already split; otherwise one Corpus over them is built here, so
    each distinct text is split once and each stage gathers its token ids
    from it.
    """
    if corpus is None:
        corpus = Corpus(text for ds in (nli_set, sts_set, dev_set) for text in ds.texts)
    stage1 = train(
        model, nli_set, dev_set, config, loss_spec, Stage.HEAD_ONLY, nli_mapping,
        corpus,
    )
    stage2 = train(
        stage1.best_model, sts_set, dev_set, joint_config, loss_spec,
        Stage.JOINT, corpus=corpus,
    )
    return TwoStageResult(stage2.best_model, stage1, stage2)


@dataclass(frozen=True)
class RunData:
    """What every run of one command shares: its parsed datasets, the
    vocabulary and one Corpus of their texts.  Feature mode, seed and a
    loss's hyperparameters change none of them.  positives, the train pairs
    scoring at least data.positive_threshold, is set for an InfoNCE config,
    which trains on it."""

    train: Dataset
    dev: Dataset
    nli: Dataset | None
    positives: Dataset | None
    vocab: Vocabulary
    corpus: Corpus


def load_run_data(cfg: RunConfig) -> RunData:
    """Read and split each distinct file of the run once, check it as each
    of its roles reads it, and split every distinct text once.

    The vocabulary is that of the train and stage-1 files; a file named in
    both counts once, which leaves the vocabulary as it would be counted
    twice (every count doubled, the order unchanged).
    """
    files = {}

    def dataset(path, **reading):
        key = path.resolve()
        if key not in files:
            files[key] = read_tsv(path)
        return key, files[key].dataset(**reading)

    categories = cfg.mapping.categories if cfg.mapping is not None else None
    train_file, train_set = dataset(cfg.train_path, score_range=cfg.score_range,
                                    categories=categories)
    dev_file, dev_set = dataset(cfg.dev_path, score_range=cfg.score_range,
                                categories=categories)
    sources = {train_file: train_set}
    nli = None
    if cfg.nli_path is not None:
        nli_file, nli = dataset(cfg.nli_path, categories=cfg.nli_mapping.categories)
        sources.setdefault(nli_file, nli)
    vocab_texts = [text for ds in sources.values() for text in ds.texts]
    sources.setdefault(dev_file, dev_set)
    corpus = Corpus(text for ds in sources.values() for text in ds.texts)
    positives = None
    if cfg.loss.kind is LossKind.INFO_NCE:
        positives = positive_pairs_dataset(train_set, cfg.positive_threshold)
    return RunData(train_set, dev_set, nli, positives,
                   build_vocab(vocab_texts, corpus), corpus)


def run(cfg: RunConfig, data: RunData):
    """Train cfg's model on data, the one or two stages cfg names.

    Returns (best_model, best_dev, {history_name: history}).
    """
    n_classes = None
    if cfg.loss.kind is LossKind.CROSS_ENTROPY:  # the config gives it a mapping
        n_classes = len(cfg.mapping.categories)
    # a mapping, when given, sets the label range
    model = Model.initialize(data.vocab, cfg.dim, cfg.feature_mode, cfg.seed,
                             cfg.score_range, cfg.mapping, n_classes)
    if cfg.stages == "two_stage":
        result = two_stage_finetune(
            model, data.nli, data.train, data.dev, cfg.training,
            joint_config=cfg.joint, loss_spec=cfg.loss, nli_mapping=cfg.nli_mapping,
            corpus=data.corpus,
        )
        histories = {"history_stage1": result.stage1.history,
                     "history_stage2": result.stage2.history}
        return result.best_model, result.stage2.best_dev, histories
    train_set = data.train if data.positives is None else data.positives
    result = train(model, train_set, data.dev, cfg.training, cfg.loss, Stage.JOINT,
                   cfg.mapping, data.corpus)
    return result.best_model, result.best_dev, {"history": result.history}


def write_history_csv(history, path) -> None:
    """A column per HistoryEntry field, in its order, and a line per entry:
    each value's repr, or a blank where a value was not taken (None)."""
    lines = [",".join(HistoryEntry._fields) + "\n"]
    for entry in history:
        cells = ["" if value is None else repr(value) for value in entry]
        lines.append(",".join(cells) + "\n")
    write_atomic(path, "".join(lines))
