"""A9 — vote-merging strategy ablation (DESIGN.md design decision).

Section 4: *"The vote merger weights each matcher's confidence based on
its magnitude — a score close to 0 indicates that the match voter did not
see enough evidence to make a strong prediction."*

We compare Harmony's magnitude-weighted mean against the obvious
alternatives a composite matcher could use (COMA offers these as
strategies): a plain arithmetic mean over all votes including
abstention-adjacent ones, and max-wins.  Same voters, same flooding, only
the merger changes.
"""

from typing import Dict, List, Sequence

import pytest

from repro.eval import evaluate_matrix, standard_suite
from repro.harmony import HarmonyEngine, VoteMerger
from repro.harmony.merger import Column, Pair


def _cast_rows(pairs: Sequence[Pair], columns: Sequence[Column]):
    """Each pair with its cast (non-zero) votes, in voter order; pairs
    nobody voted on are skipped, as the default merger skips them."""
    for pair, row in zip(pairs, zip(*[scores for _, scores in columns])):
        cast = [score for score in row if score]
        if cast:
            yield pair, cast


class PlainAverageMerger(VoteMerger):
    """Ignores magnitudes: every cast vote counts equally."""

    def merge_columns(
        self, pairs: Sequence[Pair], columns: Sequence[Column]
    ) -> Dict[Pair, float]:
        return {
            pair: max(-0.99, min(0.99, sum(cast) / len(cast)))
            for pair, cast in _cast_rows(pairs, columns)
        }


class MaxWinsMerger(VoteMerger):
    """The single most extreme vote decides."""

    def merge_columns(
        self, pairs: Sequence[Pair], columns: Sequence[Column]
    ) -> Dict[Pair, float]:
        return {
            pair: max(-0.99, min(0.99, max(cast, key=abs)))
            for pair, cast in _cast_rows(pairs, columns)
        }


MERGERS = {
    "magnitude-weighted": VoteMerger,
    "plain-average": PlainAverageMerger,
    "max-wins": MaxWinsMerger,
}


def run_merger_ablation():
    scenarios = standard_suite(seeds=(7, 19))
    results = {}
    for name, merger_class in MERGERS.items():
        f1_values: List[float] = []
        for scenario in scenarios:
            engine = HarmonyEngine(merger=merger_class())
            matrix = engine.match(scenario.source, scenario.target).matrix
            f1_values.append(evaluate_matrix(matrix, scenario.alignment).f1)
        results[name] = sum(f1_values) / len(f1_values)
    return results


def test_a9_merger_ablation(benchmark, report):
    results = benchmark.pedantic(run_merger_ablation, rounds=1, iterations=1)

    lines = [
        "A9 — vote-merging strategy (mean F1, same voters and flooding, 6 scenarios)",
        "",
        f"{'merger':<20} {'mean F1':>8}",
        "-" * 30,
    ]
    for name, f1 in results.items():
        lines.append(f"{name:<20} {f1:>8.3f}")
    lines.append("")
    lines.append(
        "expected shape: magnitude weighting beats a plain mean (which lets "
        "weak-evidence votes dilute confident ones) and beats max-wins "
        "(which lets one over-eager voter decide alone)"
    )
    report("A9_merger_ablation", "\n".join(lines))

    assert results["magnitude-weighted"] >= results["plain-average"] - 0.005
    assert results["magnitude-weighted"] >= results["max-wins"] - 0.005
    assert all(f1 > 0.5 for f1 in results.values())
