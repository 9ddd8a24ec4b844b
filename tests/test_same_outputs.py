import importlib.util
import shutil
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("same_outputs",
                                              ROOT / "scripts" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)

TINY = ["--train-pairs", "40", "--dev-pairs", "20"]
OUTPUTS = {f"{config}/{name}" for config in ("demo", "two_stage")
           for name in ("checkpoint.json", "manifest.json", "mapping.json",
                        "eval/report.json", "eval/report.txt")}
OUTPUTS |= {"demo/history.csv", "two_stage/history_stage1.csv",
            "two_stage/history_stage2.csv", "sweep/sweep.csv", "ablate/ablate.csv",
            "cosine/report.json", "cosine/report.txt", "filter/filtered.tsv",
            "filter/removed.jsonl", "gradcheck.txt"}
OUTPUTS |= {f"corpora/{name}.tsv" for name in ("train", "dev", "large_train", "large_dev")}
OUTPUTS |= {f"info_nce/{name}" for name in ("checkpoint.json", "history.csv",
                                            "manifest.json", "eval/report.json",
                                            "eval/report.txt")}
OUTPUTS |= {f"{config}/{name}"
            for config in ("translated_relu", "mse", "cross_entropy", "large_vocab")
            for name in ("checkpoint.json", "history.csv", "manifest.json", "mapping.json",
                         "eval/report.json", "eval/report.txt")}
OUTPUTS |= {f"odd_texts/{name}"
            for name in ("checkpoint.json", "history_stage1.csv", "history_stage2.csv",
                         "manifest.json", "mapping.json", "eval/report.json",
                         "eval/report.txt")}


def statuses(text):
    """{path: status} of the script's per-file lines, between its
    environment line and its count: a 15-character status column, then the
    path."""
    return {line[16:].split()[0]: line[:15].strip() for line in text.splitlines()[1:-1]}


def test_one_checkout_on_both_sides_is_identical(tmp_path, capsys):
    assert same_outputs.main([str(ROOT), str(ROOT), *TINY,
                              "--work", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == same_outputs.environment()
    assert statuses(out) == dict.fromkeys(OUTPUTS, "same")
    assert out.splitlines()[-1] == f"{len(OUTPUTS)} of {len(OUTPUTS)} files identical"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]  # out/ removed


def test_a_crafted_difference_is_reported(tmp_path, capsys):
    change = tmp_path / "change"
    shutil.copytree(ROOT / "src", change / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "configs", change / "configs")
    cli = change / "src" / "simreg" / "cli.py"
    text = cli.read_text()
    assert text.count("sort_keys=True, indent=2") == 1
    cli.write_text(text.replace("sort_keys=True, indent=2", "sort_keys=True, indent=1"))
    assert same_outputs.main([str(ROOT), str(change), *TINY,
                              "--work", str(tmp_path / "work")]) == 1
    expect = dict.fromkeys(OUTPUTS, "same")
    for config in ("demo", "two_stage", "info_nce", "translated_relu", "mse",
                   "cross_entropy", "large_vocab", "odd_texts"):
        expect[f"{config}/manifest.json"] = "DIFFERS"
    assert statuses(capsys.readouterr().out) == expect


def test_the_environment_line_names_numpy_and_the_blas_threads(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    line = same_outputs.environment()
    assert line.startswith("environment: Python ") and "\n" not in line
    assert f", numpy {np.__version__}, BLAS " in line
    assert "OMP_NUM_THREADS=3" in line and "MKL_NUM_THREADS=unset" in line


def test_files_on_one_side_only_differ():
    rows = same_outputs.compare({"a": "1", "b": "2", "c": "3"},
                                {"b": "2", "c": "4", "d": "5"})
    assert rows == [("only in PARENT", "a", "1"), ("same", "b", "2"),
                    ("DIFFERS", "c", "3 -> 4"), ("only in CHANGE", "d", "5")]
