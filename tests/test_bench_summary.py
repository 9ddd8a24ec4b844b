import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)


def record(workload, seed, wall, failed=0, commit="abc"):
    return {
        "provenance": {"workload": workload, "seed": seed, "git_commit": commit},
        "end_to_end": {"wall_s": wall},
        "quality": {"dev_spearman": 0.5 + seed},
        "failed": failed,
        "attempted": 10,
    }


def test_per_workload_quartiles_quality_and_failures():
    records = [record("a", s, w, failed=s == 2)
               for s, w in [(3, 4.0), (0, 1.0), (2, 3.0), (1, 2.0)]]
    summary = bench_summary.summarize(records + [record("b", 0, 9.0)])
    a = summary["a"]
    assert a["seeds"] == [0, 1, 2, 3]
    assert a["end_to_end"]["wall_s"] == {"values": [1.0, 2.0, 3.0, 4.0],
                                         "q1": 1.75, "median": 2.5, "q3": 3.25}
    assert a["quality"] == {"quality.dev_spearman": [0.5, 1.5, 2.5, 3.5]}
    assert (a["failed"], a["attempted"]) == (1, 40)
    assert a["provenance"] == {"workload": "a", "git_commit": "abc"}
    assert summary["b"]["end_to_end"]["wall_s"]["median"] == 9.0


def test_mixed_provenance_rejected():
    with pytest.raises(ValueError, match="provenance"):
        bench_summary.summarize([record("a", 0, 1.0), record("a", 1, 1.0, commit="x")])
