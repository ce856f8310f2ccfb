"""scripts/ab_pairs.py: the summary of alternating benchmark pairs, checked
on canned run outputs (no benchmark run is started)."""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

import ab_pairs  # noqa: E402
from measure import spread  # noqa: E402  (perfbench/, put on the path by ab_pairs)


def _output(p50, quality=0.9, failed=0):
    """What ``perfbench/run.py --trace 0`` prints: lines for people, then
    one JSON object."""
    result = {
        "correct": failed == 0, "attempted": 40, "failed": failed,
        "metrics": {"p50_ms": {"value": p50, "unit": "ms"},
                    "quality": {"value": quality, "unit": "ratio"}},
    }
    return f"match_cold/p50_ms = {p50} ms\n{json.dumps(result)}\n\n"


def _pairs(parent, change, failed=()):
    return [{"pair": i, "seed": 7 + i, "first": ab_pairs.run_order(i)[0],
             "parent": ab_pairs.last_result(_output(p)),
             "change": ab_pairs.last_result(
                 _output(c, failed=1 if i in failed else 0))}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_the_last_line_is_the_result_with_metric_values():
    result = ab_pairs.last_result(_output(12.5))
    assert result == {"correct": True, "attempted": 40, "failed": 0,
                      "metrics": {"p50_ms": 12.5, "quality": 0.9}}


def test_the_parent_runs_first_on_even_pairs():
    assert [ab_pairs.run_order(i) for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_directions_come_from_the_benchmark_declaration():
    better = ab_pairs.directions(ROOT)
    assert better["p50_ms"] == "lower"
    assert better["throughput"] == "higher"


def test_summary_medians_quartiles_and_wins():
    parent = [100.0, 110.0, 120.0, 130.0, 140.0]
    change = [90.0, 100.0, 125.0, 110.0, 120.0]
    summary = ab_pairs.summarize(
        "match_cold", 15.0, _pairs(parent, change, failed={2}),
        {"p50_ms": "lower", "quality": "higher", "throughput": "higher"})
    p50 = summary["metrics"]["p50_ms"]
    assert p50["parent"] == spread(parent)
    assert p50["change"] == spread(change)
    assert (p50["parent"]["q1"], p50["parent"]["median"],
            p50["parent"]["q3"]) == (105.0, 120.0, 135.0)
    assert p50["change_over_parent"] == 110.0 / 120.0
    assert (p50["wins"], p50["ties"], p50["losses"]) == (4, 0, 1)
    # a 10 ms gain is inside the parent's 30 ms interquartile range
    assert p50["gain_beyond_parent_iqr"] is False
    quality = summary["metrics"]["quality"]
    assert (quality["wins"], quality["ties"], quality["losses"]) == (0, 5, 0)
    assert "throughput" not in summary["metrics"]  # no run reported it
    assert summary["correct"] == {"parent": True, "change": False}
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert [pair["first"] for pair in summary["pairs"]] == [
        "parent", "change", "parent", "change", "parent"]


def test_a_higher_is_better_metric_wins_upwards():
    summary = ab_pairs.summarize("match_cold", 15.0, _pairs(
        [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]), {"p50_ms": "higher"})
    assert summary["metrics"]["p50_ms"]["ties"] == 3
    summary = ab_pairs.summarize("match_cold", 15.0, _pairs(
        [10.0, 10.0, 10.0], [20.0, 30.0, 5.0]), {"p50_ms": "higher"})
    p50 = summary["metrics"]["p50_ms"]
    assert (p50["wins"], p50["losses"]) == (2, 1)
    assert p50["gain_beyond_parent_iqr"] is True
