"""Command-line surface: filter-data, train, eval, gradcheck, sweep, ablate.

Exit codes: 0 on success, 1 for validation problems (bad config, bad data,
failed gradient check), 2 for runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import data as data_mod
from .config import RunConfig, check_buffer_fits, load_run_config
from .encoder import (
    Corpus,
    FeatureMode,
    Model,
    build_vocab,
    feature_dim,
    load_checkpoint,
    pair_texts,
    save_checkpoint,
)
from .errors import ConfigError, InvalidInputError, SimregError, TrainingError
from .evaluation import evaluate
from .gradcheck import DEFAULT_TOLERANCE, run_gradient_checks
from .losses import LossKind, LossSpec
from .training import Stage, train, two_stage_finetune, write_history_csv


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit code 1
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="simreg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter-data", help="remove train pairs that appear in test sets")
    p.add_argument("--train", action="append", default=[], metavar="TSV",
                   help="training corpus (repeatable)")
    p.add_argument("--sick-train", action="append", default=[], metavar="TSV",
                   help="training corpus on the [1,5] scale; rescaled to [0,5]")
    p.add_argument("--test", action="append", required=True, metavar="TSV",
                   help="test corpus to filter against (repeatable)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train", help="train per a JSON run config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("eval", help="evaluate a checkpoint on datasets")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("datasets", nargs="+", metavar="TSV")
    p.add_argument("--cosine", action="store_true",
                   help="rank by embedding cosine instead of the head score")
    p.add_argument("--out", default=None, help="directory for report files")

    p = sub.add_parser("gradcheck", help="compare analytic gradients to finite differences")
    p.add_argument("--seeds", type=int, default=20, help="number of random seeds")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--vocab", type=int, default=30)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)

    p = sub.add_parser("sweep", help="grid sweep over k and x0")
    p.add_argument("--config", required=True)
    p.add_argument("--k", default=None, help="comma-separated k values")
    p.add_argument("--x0", default=None, help="comma-separated x0 values")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("ablate", help="compare the three feature modes")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    handlers = {
        "filter-data": cmd_filter_data,
        "train": cmd_train,
        "eval": cmd_eval,
        "gradcheck": cmd_gradcheck,
        "sweep": cmd_sweep,
        "ablate": cmd_ablate,
    }
    try:
        return handlers[args.command](args)
    except (UsageError, SimregError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, TrainingError) else 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


# ---------------------------------------------------------------- filter-data

def cmd_filter_data(args) -> int:
    if not args.train and not args.sick_train:
        raise UsageError("need at least one --train or --sick-train file")
    tests = [data_mod.load_tsv(p) for p in args.test]
    filtered_parts = []
    removed_all = []
    total_in = 0
    for path in args.train:
        ds = data_mod.load_tsv(path)
        total_in += len(ds)
        kept, removed = data_mod.dedup_filter(ds, tests)
        filtered_parts.append(kept)
        removed_all.extend(removed)
    for path in args.sick_train:
        ds = data_mod.load_tsv(path, score_range=(1.0, 5.0))
        total_in += len(ds)
        kept, removed = data_mod.dedup_filter(ds, tests)
        filtered_parts.append(data_mod.rescale_sick_dataset(kept))
        removed_all.extend(removed)
    merged = data_mod.merge(filtered_parts)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_mod.save_tsv(merged, out / "filtered.tsv")
    data_mod.write_removal_audit(removed_all, out / "removed.jsonl")
    print(f"input pairs:   {total_in}")
    print(f"removed:       {len(removed_all)}")
    print(f"kept:          {len(merged)}")
    print(f"filtered corpus -> {out / 'filtered.tsv'}")
    print(f"removal audit   -> {out / 'removed.jsonl'}")
    return 0


# ---------------------------------------------------------------------- train

def _load_config_datasets(cfg: RunConfig):
    categories = cfg.mapping.categories if cfg.mapping is not None else None
    train_ds, dev_ds = (
        data_mod.load_tsv(path, score_range=cfg.score_range, categories=categories)
        for path in (cfg.train_path, cfg.dev_path)
    )
    nli_ds = None
    if cfg.nli_path is not None:
        nli_ds = data_mod.load_tsv(cfg.nli_path, categories=cfg.nli_mapping.categories)
    return train_ds, dev_ds, nli_ds


def _vocab_and_corpus(vocab_sets, datasets):
    """The vocabulary of vocab_sets and one Corpus of every text of
    vocab_sets and datasets.

    Every distinct text is split once: the vocabulary counts the split
    words, and training gathers each dataset's token ids from the corpus.
    """
    vocab_texts = [text for ds in vocab_sets for text in pair_texts(ds.pairs)]
    corpus = Corpus(vocab_texts + [t for ds in datasets for t in pair_texts(ds.pairs)])
    return build_vocab(vocab_texts, corpus), corpus


def _build_model(cfg: RunConfig, vocab) -> Model:
    n_classes = None
    if cfg.loss.kind is LossKind.CROSS_ENTROPY:
        if cfg.mapping is None:
            raise UsageError("cross-entropy training needs data.categories")
        n_classes = len(cfg.mapping.categories)
    return Model.initialize(
        vocab,
        dim=cfg.dim,
        feature_mode=cfg.feature_mode,
        seed=cfg.seed,
        label_range=cfg.score_range,  # a mapping, when given, sets the range
        mapping=cfg.mapping,
        n_classes=n_classes,
    )


def _run_training(cfg: RunConfig):
    """Returns (best_model, best_dev, {history_name: history})."""
    train_ds, dev_ds, nli_ds = _load_config_datasets(cfg)
    vocab_sets = [train_ds] if nli_ds is None else [train_ds, nli_ds]
    if cfg.stages == "two_stage":
        vocab, corpus = _vocab_and_corpus(vocab_sets, [nli_ds, train_ds, dev_ds])
        result = two_stage_finetune(
            _build_model(cfg, vocab), nli_ds, train_ds, dev_ds, cfg.training,
            joint_config=cfg.joint, loss_spec=cfg.loss, nli_mapping=cfg.nli_mapping,
            corpus=corpus,
        )
        histories = {
            "history_stage1": result.stage1.history,
            "history_stage2": result.stage2.history,
        }
        return result.best_model, result.stage2.best_dev, histories
    train_set = train_ds
    if cfg.loss.kind is LossKind.INFO_NCE:
        train_set = data_mod.positive_pairs_dataset(train_ds, cfg.positive_threshold)
        print(
            f"contrastive positives: kept {len(train_set)} of {len(train_ds)} pairs "
            f"at threshold {cfg.positive_threshold}"
        )
    vocab, corpus = _vocab_and_corpus(vocab_sets, [train_set, dev_ds])
    result = train(
        _build_model(cfg, vocab), train_set, dev_ds, cfg.training, cfg.loss,
        Stage.JOINT, cfg.mapping, corpus,
    )
    return result.best_model, result.best_dev, {"history": result.history}


def _manifest(cfg: RunConfig, model: Model, best_dev: float) -> dict:
    return {
        "seed": cfg.seed,
        "out_dir": str(cfg.out_dir),
        "stages": cfg.stages,
        "dim": cfg.dim,
        "feature_mode": cfg.feature_mode.value,
        "loss": {
            "kind": cfg.loss.kind.value,
            "k": cfg.loss.k,
            "x0": cfg.loss.x0,
            "d": cfg.loss.d,
            "tau": cfg.loss.tau,
        },
        "vocab_size": len(model.vocab),
        "head_weight_count": model.params.head_weight_count,
        "best_dev_spearman": best_dev,
        "config": cfg.raw,
    }


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.seed, args.out)
    best_model, best_dev, histories = _run_training(cfg)

    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(best_model, out / "checkpoint.json")
    for name, history in histories.items():
        write_history_csv(history, out / f"{name}.csv")
    if best_model.mapping is not None:
        data_mod.write_atomic(
            out / "mapping.json",
            json.dumps(best_model.mapping.to_json_dict(), sort_keys=True),
        )
    data_mod.write_atomic(
        out / "manifest.json",
        json.dumps(_manifest(cfg, best_model, best_dev), sort_keys=True, indent=2),
    )
    print(f"best dev spearman: {best_dev:.4f}")
    print(f"checkpoint -> {out / 'checkpoint.json'}")
    return 0


# ----------------------------------------------------------------------- eval

def _sniff_categorical(text: str, mapping) -> bool:
    """A file is categorical when every first field is one of the mapping's
    categories, or else when its first field does not parse as a score."""
    firsts = [line.split("\t", 1)[0] for line in data_mod.tsv_lines(text)
              if line.strip()]
    if not firsts:
        return False
    if mapping is not None and all(f in mapping.categories for f in firsts):
        return True
    try:
        float(firsts[0])
        return False
    except ValueError:
        return True


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    datasets = []
    for path in args.datasets:
        with open(path, "rb") as fh:  # a missing file is an OSError: exit 2
            raw = fh.read()
        # undecodable bytes are left for parse_tsv to report
        if _sniff_categorical(raw.decode("utf-8", errors="replace"), model.mapping):
            if model.mapping is None:
                raise UsageError(
                    f"{path} looks categorical but the checkpoint has no mapping"
                )
            datasets.append(
                data_mod.parse_tsv(raw, path, categories=model.mapping.categories)
            )
        else:
            datasets.append(data_mod.parse_tsv(raw, path))
    report = evaluate(model, datasets, use_cosine=args.cosine)
    print(report.format_table())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        data_mod.write_atomic(out / "report.json", report.to_json() + "\n")
        data_mod.write_atomic(out / "report.txt", report.format_table() + "\n")
        print(f"report -> {out / 'report.json'}")
    return 0


# ------------------------------------------------------------------ gradcheck

def cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise UsageError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    results = run_gradient_checks(
        seeds=range(args.seeds),
        dim_max=args.dim,
        vocab_max=args.vocab,
        batch_max=args.batch,
    )
    failed = 0
    for r in results:
        status = "ok" if r.max_rel_error <= args.tolerance else "FAIL"  # NaN fails
        print(f"{r.label:<50} max_rel_err={r.max_rel_error:.3e}  {status}")
        failed += status == "FAIL"
    # a NaN error ranks worst
    worst = max((r.max_rel_error for r in results), key=lambda e: (math.isnan(e), e))
    print(f"checked {len(results)} configurations; worst relative error {worst:.3e}")
    if failed:
        print(f"{failed} configuration(s) exceeded tolerance {args.tolerance}")
        return 1
    return 0


# ---------------------------------------------------------------------- sweep

def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise UsageError(f"bad {flag} list: {text!r}") from exc


def _reseeded(cfg: RunConfig, seed: int) -> RunConfig:
    training = dataclasses.replace(cfg.training, seed=seed)
    joint = dataclasses.replace(cfg.joint, seed=seed)
    return dataclasses.replace(cfg, seed=seed, training=training, joint=joint)


def cmd_sweep(args) -> int:
    cfg = load_run_config(args.config, args.seed, args.out)
    ks = _parse_floats(args.k, "--k") if args.k else cfg.sweep_k
    x0s = _parse_floats(args.x0, "--x0") if args.x0 else cfg.sweep_x0
    if not ks or not x0s:
        raise UsageError("sweep needs k and x0 values (config sweep section or flags)")
    if cfg.loss.kind not in (LossKind.TRANSLATED_RELU, LossKind.SMOOTH_K2):
        raise UsageError("sweep applies to the buffered losses (k and x0)")

    jobs = []
    for index, (k, x0) in enumerate((k, x0) for k in ks for x0 in x0s):
        run_seed = cfg.seed + index
        try:
            loss = LossSpec(cfg.loss.kind, k=k, x0=x0, d=cfg.loss.d)
            check_buffer_fits(loss, cfg.mapping, cfg.nli_mapping)
        except (InvalidInputError, ConfigError) as exc:
            print(f"warning: skipping k={k} x0={x0}: {exc}", file=sys.stderr)
            continue
        jobs.append((k, x0, dataclasses.replace(_reseeded(cfg, run_seed), loss=loss)))

    rows = [(k, x0, _run_training(point_cfg)[1]) for k, x0, point_cfg in jobs]
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))

    print(f"{'k':>8}  {'x0':>8}  {'dev_spearman':>12}")
    for k, x0, dev in rows:
        print(f"{k:>8g}  {x0:>8g}  {dev:>12.4f}")
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    lines = ["k,x0,dev_spearman\n"]
    lines += [f"{k},{x0},{repr(dev)}\n" for k, x0, dev in rows]
    data_mod.write_atomic(out / "sweep.csv", "".join(lines))
    print(f"sweep table -> {out / 'sweep.csv'}")
    return 0


# --------------------------------------------------------------------- ablate

def cmd_ablate(args) -> int:
    cfg = load_run_config(args.config, args.seed, args.out)
    modes = (FeatureMode.UV, FeatureMode.ABS_DIFF, FeatureMode.UV_ABS_DIFF)

    rows = [
        (mode, feature_dim(mode, cfg.dim),
         _run_training(dataclasses.replace(cfg, feature_mode=mode))[1])
        for mode in modes
    ]

    print(f"{'features':>12}  {'head_params':>11}  {'dev_spearman':>12}")
    for mode, n_weights, dev in rows:
        print(f"{mode.value:>12}  {n_weights:>11}  {dev:>12.4f}")
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    lines = ["features,head_params,dev_spearman\n"]
    lines += [f"{mode.value},{n},{repr(dev)}\n" for mode, n, dev in rows]
    data_mod.write_atomic(out / "ablate.csv", "".join(lines))
    print(f"ablation table -> {out / 'ablate.csv'}")
    return 0


if __name__ == "__main__":
    entry()
