"""Command-line surface: filter-data, train, eval, gradcheck, sweep, ablate.

Each run of a config goes through training.load_run_data and training.run;
this module parses arguments, prints and writes the output files.

Exit codes: 0 on success, 1 for validation problems (bad config, bad data,
failed gradient check), 2 for runtime failures: aborted training, I/O errors
and running out of memory (an array too large to allocate).  Every failure
prints one "error:" line to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from . import data as data_mod
from . import training
from .config import RunConfig, check_buffer_fits, load_run_config
from .encoder import FeatureMode, Model, feature_dim, load_checkpoint, save_checkpoint
from .errors import ConfigError, InvalidInputError, SimregError, TrainingError
from .evaluation import evaluate
from .gradcheck import DEFAULT_SEEDS, DEFAULT_TOLERANCE, run_gradient_checks
from .losses import LossKind, LossSpec


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit code 1
        raise UsageError(message)


@functools.cache  # parse_args leaves a parser as it was: build it once
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
    p.add_argument("--seeds", type=int, default=DEFAULT_SEEDS, help="number of random seeds")
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
    except (OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
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
    # SICK files score on [1, 5] and are rescaled to [0, 5] once filtered
    for path, sick in [*((p, False) for p in args.train),
                       *((p, True) for p in args.sick_train)]:
        ds = data_mod.load_tsv(path, score_range=(1.0 if sick else 0.0, 5.0))
        total_in += len(ds)
        kept, removed = data_mod.dedup_filter(ds, tests)
        filtered_parts.append(data_mod.rescale_sick_dataset(kept) if sick else kept)
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

def _manifest(cfg: RunConfig, model: Model, best_dev: float) -> dict:
    return {
        "seed": cfg.seed,
        "out_dir": str(cfg.out_dir),
        "stages": cfg.stages,
        "dim": cfg.dim,
        "feature_mode": cfg.feature_mode.value,
        "loss": dataclasses.asdict(cfg.loss),
        "vocab_size": len(model.vocab),
        "head_weight_count": model.params.head_weight_count,
        "best_dev_spearman": best_dev,
        "config": cfg.raw,
    }


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.seed, args.out)
    data = training.load_run_data(cfg)
    if data.positives is not None:
        print(f"contrastive positives: kept {len(data.positives)} of {len(data.train)} "
              f"pairs at threshold {cfg.positive_threshold}")
    best_model, best_dev, histories = training.run(cfg, data)

    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(best_model, out / "checkpoint.json")
    written = {f"{name}.csv" for name in histories}
    for name, history in histories.items():
        training.write_history_csv(history, out / f"{name}.csv")
    if best_model.mapping is not None:
        data_mod.write_atomic(
            out / "mapping.json",
            json.dumps(best_model.mapping.to_json_dict(), sort_keys=True),
        )
        written.add("mapping.json")
    data_mod.write_atomic(
        out / "manifest.json",
        json.dumps(_manifest(cfg, best_model, best_dev), sort_keys=True, indent=2),
    )
    # what only some runs write: an earlier run's would pass for this run's
    for name in {"history.csv", "history_stage1.csv", "history_stage2.csv",
                 "mapping.json"} - written:
        (out / name).unlink(missing_ok=True)
    print(f"best dev spearman: {best_dev:.4f}")
    print(f"checkpoint -> {out / 'checkpoint.json'}")
    return 0


# ----------------------------------------------------------------------- eval

def _sniff_categorical(tsv: data_mod.TsvFile, mapping) -> bool:
    """A file is categorical when every first field of a nonblank line is one
    of the mapping's categories, or else when the first of them does not
    parse as a score."""
    firsts = [fields[0] for fields in tsv.rows]
    if not all(map(str.strip, firsts)):  # a line may be blank: keep the others
        firsts = [fields[0] for fields in tsv.rows if any(map(str.strip, fields))]
    if not firsts:
        return False
    if mapping is not None and set(firsts) <= set(mapping.categories):
        return True
    try:
        float(firsts[0])
        return False
    except ValueError:
        return True


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    # a file is named by its stem, or by its path as given where stems collide
    stems = [Path(path).stem for path in args.datasets]
    datasets = []
    for path, stem in zip(args.datasets, stems):
        name = stem if stems.count(stem) == 1 else path
        # undecodable bytes are read as U+FFFD here and reported by dataset()
        tsv = data_mod.read_tsv(path)
        if _sniff_categorical(tsv, model.mapping):
            if model.mapping is None:
                raise UsageError(
                    f"{path} looks categorical but the checkpoint has no mapping"
                )
            datasets.append(tsv.dataset(name, categories=model.mapping.categories))
        else:
            datasets.append(tsv.dataset(name))
    report = evaluate(model, datasets, use_cosine=args.cosine)
    table = report.format_table()
    print(table)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        data_mod.write_atomic(out / "report.json", report.to_json() + "\n")
        data_mod.write_atomic(out / "report.txt", table + "\n")
        print(f"report -> {out / 'report.json'}")
    return 0


# ------------------------------------------------------------------ gradcheck

def cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise UsageError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    results = run_gradient_checks(seeds=range(args.seeds))
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


# ----------------------------------------------------------- sweep and ablate

def _compare(cfg: RunConfig, name: str, columns: tuple[str, ...],
             points: list[tuple[tuple, RunConfig]]) -> None:
    """Train each (cells, point_config) of points on cfg's data, loaded once,
    then print and write `<name>.csv`: one row per point, its cells and then
    its best dev Spearman, best first; ties keep the points' order.

    A point's config is cfg with its loss or feature mode replaced, so every
    point trains at cfg's seed and rows differ by their cells alone.
    """
    data = training.load_run_data(cfg)
    rows = [(*cells, training.run(point_cfg, data)[1]) for cells, point_cfg in points]
    rows.sort(key=lambda row: -row[-1])

    header = (*columns, "dev_spearman")
    shown = [header, *((*map(str, row[:-1]), f"{row[-1]:.4f}") for row in rows)]
    for line in shown:
        print("  ".join(f"{cell:>12}" for cell in line))
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    # str(float) is its repr: the CSV keeps every bit of each value
    text = "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])
    data_mod.write_atomic(out / f"{name}.csv", text)
    print(f"{name} table -> {out / f'{name}.csv'}")


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise UsageError(f"bad {flag} list: {text!r}") from exc


def cmd_sweep(args) -> int:
    cfg = load_run_config(args.config, args.seed, args.out)
    ks = _parse_floats(args.k, "--k") if args.k else cfg.sweep_k
    x0s = _parse_floats(args.x0, "--x0") if args.x0 else cfg.sweep_x0
    if not ks or not x0s:
        raise UsageError("sweep needs k and x0 values (config sweep section or flags)")
    if cfg.loss.kind not in (LossKind.TRANSLATED_RELU, LossKind.SMOOTH_K2):
        raise UsageError("sweep applies to the buffered losses (k and x0)")

    points = []
    for k, x0 in ((k, x0) for k in ks for x0 in x0s):
        try:
            loss = LossSpec(cfg.loss.kind, k=k, x0=x0, d=cfg.loss.d)
            check_buffer_fits(loss, cfg.mapping, cfg.nli_mapping)
        except (InvalidInputError, ConfigError) as exc:
            print(f"warning: skipping k={k} x0={x0}: {exc}", file=sys.stderr)
            continue
        points.append(((k, x0), dataclasses.replace(cfg, loss=loss)))
    if not points:
        raise UsageError("every sweep point was skipped; nothing to train")
    _compare(cfg, "sweep", ("k", "x0"), points)
    return 0


def cmd_ablate(args) -> int:
    cfg = load_run_config(args.config, args.seed, args.out)
    if cfg.loss.kind is LossKind.INFO_NCE:
        raise UsageError("ablate compares feature modes, but loss.kind info_nce "
                         "reads [u | v] in every mode")
    points = [((mode.value, feature_dim(mode, cfg.dim)),
               dataclasses.replace(cfg, feature_mode=mode)) for mode in FeatureMode]
    _compare(cfg, "ablate", ("features", "head_params"), points)
    return 0


if __name__ == "__main__":
    entry()
