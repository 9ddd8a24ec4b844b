"""Spans and counts recorded around simreg's public functions, from outside.

The benchmark never edits the program.  To trace it, it replaces each
boundary function listed in ``BOUNDARIES`` with a wrapper wherever a simreg
module binds that function object: in its defining module and in every module
that imported it by name.  So a call is recorded whichever module makes it.
Class methods are wrapped on the class.

A span has a name, a start, an end, a parent span and the id of the workload
iteration it belongs to; a call that raises also counts as failed at each
boundary it crosses.  Spans live in flat arrays while the run lasts and are
written out once at the end.  A span's self time is its duration minus the
durations of its direct children; children run one after another inside their
parent, so their durations add up to the time they cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "synth", "data", "labelmap", "losses", "encoder",
    "training", "evaluation", "gradcheck", "config", "cli",
)

# span name -> (module, attribute path) pairs that implement it.  Layer is the
# first part of the span name.  A boundary missing from the program (deleted or
# renamed by a later change) is skipped and reported by install().
BOUNDARIES = {
    "synth.make_ordinal_corpus": [("simreg.synth", "make_ordinal_corpus")],
    "data.load_tsv": [("simreg.data", "load_tsv")],
    "data.save_tsv": [("simreg.data", "save_tsv")],
    "labelmap.build_mapping": [("simreg.labelmap", "build_mapping")],
    "labelmap.encode": [("simreg.labelmap", "encode")],
    "labelmap.classify": [("simreg.labelmap", "classify")],
    # The three entry points that turn predictions into a loss value.
    "losses.regression_loss": [("simreg.losses", "regression_loss")],
    "losses.cross_entropy": [("simreg.losses", "cross_entropy")],
    "losses.info_nce": [("simreg.losses", "info_nce")],
    "encoder.build_vocab": [("simreg.encoder", "build_vocab")],
    "encoder.tokenize": [("simreg.encoder", "tokenize")],
    "encoder.predict": [("simreg.encoder", "predict")],
    "encoder.forward_backward": [("simreg.encoder", "forward_backward")],
    "encoder.save_checkpoint": [("simreg.encoder", "save_checkpoint")],
    "encoder.load_checkpoint": [("simreg.encoder", "load_checkpoint")],
    "training.train": [("simreg.training", "train")],
    "training.two_stage_finetune": [("simreg.training", "two_stage_finetune")],
    "training.optimizer_step": [
        ("simreg.training", "SgdOptimizer.step"),
        ("simreg.training", "AdamOptimizer.step"),
    ],
    # Dev-set scoring inside the training loop (checkpoint selection).
    "training.dev_eval": [("simreg.training", "_dev_score")],
    "training.write_history_csv": [("simreg.training", "write_history_csv")],
    "evaluation.evaluate": [("simreg.evaluation", "evaluate")],
    "evaluation.predictions_for": [("simreg.evaluation", "predictions_for")],
    "evaluation.accuracy": [("simreg.evaluation", "accuracy")],
    "evaluation.spearman": [("simreg.evaluation", "spearman")],
    "gradcheck.run_gradient_checks": [("simreg.gradcheck", "run_gradient_checks")],
    "gradcheck.check_configuration": [("simreg.gradcheck", "check_configuration")],
    "gradcheck.finite_difference_grads": [
        ("simreg.gradcheck", "finite_difference_grads")
    ],
    "gradcheck.max_relative_error": [("simreg.gradcheck", "max_relative_error")],
    "config.load_run_config": [("simreg.config", "load_run_config")],
    "cli.main": [("simreg.cli", "main")],
}


def _simreg_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "simreg" or name.startswith("simreg."))]


class Patches:
    """Replacements of functions inside simreg modules, undone by restore()."""

    def __init__(self):
        self._undo = []

    def replace(self, module_name: str, path: str, make_wrapper) -> bool:
        """Wrap the function at module_name:path everywhere simreg binds it.

        Returns False when the program has no such function.
        """
        module = sys.modules.get(module_name)
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        if owner is None:
            return False
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
            if original is None:
                return False
            self._set(owner, attr, make_wrapper(original))
            return True
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        wrapped = make_wrapper(original)
        for mod in _simreg_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapped)
        return True

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records spans at BOUNDARIES while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.iteration = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._current = 0
        self._patches = Patches()

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        stack = self._stack
        name_id, parent, iteration = self.name_id, self.parent, self.iteration
        start, end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            iteration.append(self._current)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[name] = self.failed.get(name, 0) + 1
                raise
            finally:
                end[index] = perf_counter()
                stack.pop()

        return traced

    def install(self, iteration: int) -> None:
        """Start recording spans under the given iteration id."""
        self._current = iteration
        self.missing = []
        for name, targets in BOUNDARIES.items():
            found = False
            for module_name, path in targets:
                found |= self._patches.replace(
                    module_name, path, lambda fn, name=name: self.wrap(name, fn)
                )
            if not found:
                self.missing.append(name)

    def uninstall(self) -> None:
        self._patches.restore()

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span of the benchmark's own."""
        return self.wrap(name, fn)(*args)

    def arrays(self):
        """Columns of every span recorded, plus self time in seconds."""
        name_id = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=len(duration))
        return {
            "name_id": name_id,
            "parent": parent,
            "iteration": np.array(self.iteration, dtype=np.int32),
            "start": start,
            "end": end,
            "self_s": duration - covered,
        }

    def per_iteration(self):
        """{iteration: {span name: (calls, self seconds, total seconds)}}."""
        cols = self.arrays()
        out: dict[int, dict[str, tuple[int, float, float]]] = {}
        duration = cols["end"] - cols["start"]
        for it in np.unique(cols["iteration"]):
            mask = cols["iteration"] == it
            ids = cols["name_id"][mask]
            calls = np.bincount(ids, minlength=len(self.names))
            self_s = np.bincount(ids, weights=cols["self_s"][mask],
                                 minlength=len(self.names))
            total = np.bincount(ids, weights=duration[mask], minlength=len(self.names))
            out[int(it)] = {
                name: (int(calls[i]), float(self_s[i]), float(total[i]))
                for i, name in enumerate(self.names) if calls[i]
            }
        return out

    def write(self, path) -> None:
        """Save every span as compressed numpy columns plus the name table."""
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **cols)

