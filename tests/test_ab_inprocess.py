import importlib.util
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
sys.path.insert(0, str(SCRIPTS))  # ab_inprocess imports bench_summary beside it
spec = importlib.util.spec_from_file_location("ab_inprocess", SCRIPTS / "ab_inprocess.py")
ab_inprocess = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_inprocess)

TINY = ["--rounds", "2", "--tiny"]


def test_one_checkout_on_both_sides(capsys):
    for workload in ("two_stage", "gradcheck"):
        assert ab_inprocess.main([str(ROOT), str(ROOT), "--workload", workload,
                                  *TINY]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"{workload}: 2 rounds, outputs identical in every round"
        assert lines[1].startswith("A: median ") and lines[2].startswith("B: median ")
        assert lines[3].startswith("B / A: median ratio ")


def test_a_crafted_difference_is_reported(tmp_path, capsys):
    change = tmp_path / "change"
    shutil.copytree(ROOT / "src", change / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    training = change / "src" / "simreg" / "training.py"
    text = training.read_text()
    assert text.count("0.9, 0.999, 1e-8") == 1
    training.write_text(text.replace("0.9, 0.999, 1e-8", "0.9, 0.999, 1e-7"))
    path = list(sys.path)
    assert ab_inprocess.main([str(ROOT), str(change), "--workload", "two_stage",
                              *TINY]) == 1
    assert capsys.readouterr().out == "outputs differ in round -1\n"
    assert sys.path == path


def test_ratios_quartiles_and_wins():
    summary = ab_inprocess.summarize([1.0, 2.0, 4.0, 4.0], [0.5, 2.0, 5.0, 3.0])
    assert summary["ratio"]["values"] == [0.5, 1.0, 1.25, 0.75]
    assert summary["ratio"]["median"] == 0.875
    # the tie counts for neither side
    assert (summary["b_wins"], summary["a_wins"], summary["rounds"]) == (2, 1, 4)
    assert "B faster in 2/4 rounds, A in 1" in ab_inprocess.report(summary)
