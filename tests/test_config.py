"""The run-config schema: wrong-typed values are clean errors, and README's
"Run configuration" block is exactly the schema with its defaults."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from simreg import data as data_mod
from simreg.cli import main
from simreg.config import SCHEMA, load_run_config

README = Path(__file__).resolve().parent.parent / "README.md"

# one wrong-typed value for every schema key: (where, value, name in the error)
WRONG_TYPES = [
    ("out_dir", 5, "out_dir"),
    ("seed", "x", "seed"),
    ("stages", ["two_stage"], "stages"),
    ("encoder", [], "encoder"),
    ("loss", "smooth_k2", "loss"),
    ("data", [1], "data"),
    ("training", [1], "training"),
    ("joint", 1, "joint"),
    ("encoder.dim", "abc", "encoder.dim"),
    ("encoder.feature_mode", 1, "encoder.feature_mode"),
    ("loss.kind", "banana", "loss.kind"),
    ("loss.k", "2", "loss.k"),
    ("loss.x0", [0.25], "loss.x0"),
    ("loss.d", True, "loss.d"),
    ("loss.tau", "0.1", "loss.tau"),
    ("data.train", 5, "data.train"),
    ("data.dev", None, "data.dev"),
    ("data.categories", "abc", "data.categories"),
    ("data.mapping_interval", "x", "data.mapping_interval"),
    ("data.score_range", 5, "data.score_range"),
    ("data.nli_train", ["nli.tsv"], "data.nli_train"),
    ("data.nli_categories", "abc", "data.nli_categories"),
    ("data.positive_threshold", "x", "data.positive_threshold"),
    ("training.batch_size", "16", "training.batch_size"),
    ("training.epochs", 1.5, "training.epochs"),
    ("training.learning_rate", "0.1", "training.learning_rate"),
    ("training.eval_every", 2.5, "training.eval_every"),
    ("training.clamp_predictions", "no", "training.clamp_predictions"),
    ("training.optimizer", 1, "training.optimizer"),
    ("joint.batch_size", True, "joint.batch_size"),
    ("joint.epochs", "2", "joint.epochs"),
    ("joint.learning_rate", None, "joint.learning_rate"),
    ("joint.eval_every", "50", "joint.eval_every"),
    ("joint.clamp_predictions", 0, "joint.clamp_predictions"),
    ("joint.optimizer", ["sgd"], "joint.optimizer"),
    # a wrong element of a list
    ("data.categories", ["low", 3], "data.categories[1]"),
    ("data.score_range", [0, "5"], "data.score_range[1]"),
    # Python's json module reads these, but they are not JSON numbers
    ("training.learning_rate", float("nan"), "training.learning_rate"),
    ("loss.k", float("inf"), "loss.k"),
]

# keys the schema does not have, unknown whatever their value: the sweep
# grid comes from simreg sweep's flags, a mapping's first node is 0, and a
# text is cut at the model's max_tokens
REMOVED_KEYS = [
    ("sweep", None, "unknown config key(s): sweep"),
    ("sweep.k", "1,2", "unknown config key(s): sweep"),
    ("sweep.x0", 0.25, "unknown config key(s): sweep"),
    ("data.mapping_start", "0", "unknown config key(s): data.mapping_start"),
    ("training.max_tokens", 2.5, "unknown config key(s): training.max_tokens"),
    ("joint.max_tokens", [256], "unknown config key(s): joint.max_tokens"),
]


def _set(doc: dict, where: str, value) -> None:
    *sections, key = where.split(".")
    for section in sections:
        doc = doc.setdefault(section, {})
    doc[key] = value


@pytest.fixture
def minimal(tmp_path):
    """Existing train/dev files and the smallest config that loads."""
    for name in ("train", "dev"):
        (tmp_path / f"{name}.tsv").write_text("1.0\ta b\tc d\n")
    data = {name: str(tmp_path / f"{name}.tsv") for name in ("train", "dev")}
    return {"out_dir": str(tmp_path / "run"), "data": data}


def test_every_schema_key_has_a_wrong_type_case():
    keys = {f"{s}.{k}" if s else k for s, entries in SCHEMA.items() for k in entries}
    keys |= {f"joint.{k}" for k in SCHEMA["training"]}
    assert {where for where, _, _ in WRONG_TYPES} == keys
    assert not keys & {where for where, _, _ in REMOVED_KEYS}


@pytest.mark.parametrize("where, value, named", WRONG_TYPES + REMOVED_KEYS,
                         ids=[f"{w}={json.dumps(v)}"
                              for w, v, _ in WRONG_TYPES + REMOVED_KEYS])
def test_wrong_type_is_a_clean_error(minimal, tmp_path, monkeypatch, capsys,
                                     where, value, named):
    """A wrong-typed value, or a removed key with any value, is one error:
    line naming the key, exit 1, before any data is read."""
    def no_reading(*args, **kwargs):
        raise AssertionError("data read before the config was validated")

    monkeypatch.setattr(data_mod, "split_tsv", no_reading)
    _set(minimal, where, value)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(minimal))
    assert main(["train", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("in_file, flag", [(-1, []), (0, ["--seed", "-2"])])
def test_negative_seed_is_a_clean_error(minimal, tmp_path, capsys, in_file, flag):
    minimal["seed"] = in_file
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(minimal))
    assert main(["train", "--config", str(config_path), *flag]) == 1
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("loss, categories", [
    ({"kind": "cross_entropy"}, None),
    ({"kind": "info_nce", "tau": 0.1}, ["low", "high"]),
], ids=["cross_entropy-without-categories", "info_nce-with-categories"])
def test_loss_contradicting_the_labels_is_a_config_error(minimal, tmp_path, capsys,
                                                        loss, categories):
    # a malformed train file: read first, its error would hide the config's
    (tmp_path / "train.tsv").write_text("only one field\n")
    minimal["loss"] = loss
    minimal["data"]["categories"] = categories
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(minimal))
    assert main(["train", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "loss.kind" in err and "data.categories" in err
    assert not (tmp_path / "run").exists()


def _readme_config() -> dict:
    text = README.read_text(encoding="utf-8")
    block = text.split("## Run configuration", 1)[1].split("```jsonc\n", 1)[1]
    block = block.split("```", 1)[0]
    block = re.sub(r"/\*.*?\*/", "", block, flags=re.S)
    return json.loads(re.sub(r"//[^\n]*", "", block))


def test_readme_block_is_the_schema_with_its_defaults(minimal, tmp_path):
    doc = _readme_config()
    for section, entries in SCHEMA.items():
        given = doc if section == "" else doc[section]
        assert set(given) == set(entries), section
    doc["out_dir"] = minimal["out_dir"]
    doc["data"].update(minimal["data"])
    readme_path, minimal_path = tmp_path / "readme.json", tmp_path / "minimal.json"
    readme_path.write_text(json.dumps(doc))
    minimal_path.write_text(json.dumps(minimal))
    from_readme, from_minimal = (
        dataclasses.replace(load_run_config(p), raw=None)
        for p in (readme_path, minimal_path)
    )
    assert from_readme == from_minimal
