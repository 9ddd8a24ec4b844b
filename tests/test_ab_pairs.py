import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))  # ab_pairs imports bench_summary beside it
spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPTS / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

END_TO_END = [{"name": "wall_s", "better": "lower"},
              {"name": "items_per_s", "better": "higher"}]


def result(wall, failed=0):
    """A bench/run.py last line with items_per_s the inverse of wall_s."""
    return {"correct": not failed, "attempted": 5, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "items_per_s": {"value": 1.0 / wall, "unit": "1/s"}}}


def test_sides_quartiles_failures_and_wins():
    walls = [(1.0, 0.5), (2.0, 1.5), (3.0, 3.0), (4.0, 4.5)]
    pairs = [(result(a), result(b, failed=b > 4)) for a, b in walls]
    summary = ab_pairs.summarize(pairs, END_TO_END, "wall_s")
    wall = summary["metrics"]["wall_s"]
    assert wall["a"] == {"values": [1.0, 2.0, 3.0, 4.0], "q1": 1.75, "median": 2.5,
                         "q3": 3.25}
    assert wall["b"]["median"] == 2.25
    # the tie at 3.0 counts for neither side
    assert (summary["b_wins"], summary["a_wins"], summary["pairs"]) == (2, 1, 4)
    assert summary["median_gain"] == 0.25 and summary["a_iqr"] == 1.5
    assert (summary["failed_a"], summary["failed_b"]) == (0, 1)
    assert (summary["attempted_a"], summary["attempted_b"]) == (20, 20)
    # higher is better: the same pairs' wins by throughput
    by_rate = ab_pairs.summarize(pairs, END_TO_END, "items_per_s")
    assert (by_rate["b_wins"], by_rate["a_wins"]) == (2, 1)
    assert by_rate["median_gain"] > 0
    assert "B better in 2/4 pairs" in ab_pairs.report(summary)
    assert "B's median better by 0.25, A's IQR 1.5" in ab_pairs.report(summary)


def test_a_slower_change_names_the_parent_as_ahead():
    walls = [(1.0, 1.25), (2.0, 2.5), (3.0, 2.75)]
    pairs = [(result(a), result(b)) for a, b in walls]
    summary = ab_pairs.summarize(pairs, END_TO_END, "wall_s")
    assert (summary["b_wins"], summary["a_wins"]) == (1, 2)
    assert summary["median_gain"] == -0.5
    line = ab_pairs.report(summary).splitlines()[-1]
    assert line == ("wall_s: B better in 1/3 pairs, A in 2; "
                    "A's median better by 0.5, A's IQR 1")
    tied = ab_pairs.summarize([(result(1.0), result(1.0))], END_TO_END, "wall_s")
    assert "; medians equal, " in ab_pairs.report(tied)


def test_unknown_metric_rejected():
    with pytest.raises(ValueError, match="end-to-end"):
        ab_pairs.summarize([(result(1.0), result(1.0))], END_TO_END, "spans")
