"""tools/bench_pairs.py: the per-metric summary of alternating pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _pair(parent_run_s, change_run_s, parent_ops, change_ops):
    return {
        "parent": {"metrics": {"run_s": parent_run_s, "ops_per_s": parent_ops}},
        "change": {"metrics": {"run_s": change_run_s, "ops_per_s": change_ops}},
    }


def test_summary_quartiles_and_wins_follow_each_metrics_direction():
    done = [
        _pair(1.0, 0.5, 10.0, 20.0),
        _pair(2.0, 0.6, 10.0, 10.0),  # an ops_per_s tie counts for neither side
        _pair(3.0, 0.7, 10.0, 5.0),
        _pair(4.0, 4.5, 10.0, 30.0),
        _pair(5.0, 0.9, 10.0, 40.0),
    ]
    got = bench_pairs.summary(done, {"run_s": "lower", "ops_per_s": "higher"})
    assert got["run_s"]["parent"] == {"median": 3.0, "q1": 1.5, "q3": 4.5}
    assert got["run_s"]["change"]["median"] == 0.7
    assert (got["run_s"]["change_wins"], got["run_s"]["parent_wins"]) == (4, 1)
    assert got["run_s"]["change_over_parent"] == pytest.approx(0.7 / 3.0)
    assert (got["ops_per_s"]["change_wins"], got["ops_per_s"]["parent_wins"]) == (3, 1)


def test_summary_of_one_pair_uses_its_value_for_every_quartile():
    got = bench_pairs.summary([_pair(2.0, 1.0, 1.0, 1.0)], {})
    assert got["run_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert got["run_s"]["change_wins"] == 1
