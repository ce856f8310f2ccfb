"""Alternating pairs of benchmark runs: a parent checkout against a change.

    python3 scripts/ab_pairs.py --parent ../parent --change . \\
        --workload match_cold --seed 641 --pairs 10 --seconds 15 \\
        --out benchmarks/results/ab_match_cold.json

Runs each checkout's own ``perfbench/run.py`` (``--trace 0``), so each
side measures its own ``src/``.  Pair *i* uses seed ``--seed`` + *i* on
both sides; the parent runs first on even pairs and the change first on
odd ones, so a drift in machine speed falls on both sides alike.  Each
run's last output line (``{"correct", "attempted", "failed",
"metrics"}``) is kept.  The summary holds every pair's values and, per
metric, both sides' median and quartiles (``spread`` from
``perfbench/measure.py``), the change's median over the parent's, and
the pairs the change won, tied and lost, by the direction
``BENCHMARK.json`` gives the metric.  It is written as JSON after every
pair, so an interrupted session keeps the pairs it finished.  Standard
library only.
"""

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from measure import spread  # noqa: E402

SIDES = ("parent", "change")


def run_order(pair: int) -> Sequence[str]:
    """The side that runs first in pair *pair*: the parent on even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def last_result(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a run's output, with
    each metric reduced to its value."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    result["metrics"] = {name: metric["value"]
                         for name, metric in result["metrics"].items()}
    return result


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run of *checkout*, as :func:`last_result`."""
    command = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, timeout=1800, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return last_result(done.stdout)


def directions(checkout: str) -> Dict[str, str]:
    """``{metric: "lower" | "higher"}`` from a checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return {metric["name"]: metric["better"]
            for metric in declared["end_to_end"]}


def summarize(workload: str, seconds: float, pairs: List[dict],
              better: Dict[str, str]) -> dict:
    """The summary of finished *pairs* (each ``{"pair", "seed", "first",
    "parent", "change"}`` with both sides as :func:`last_result`)."""
    metrics = {}
    for name, direction in sorted(better.items()):
        values = {side: [pair[side]["metrics"][name] for pair in pairs
                         if name in pair[side]["metrics"]] for side in SIDES}
        if not values["parent"] or len(values["parent"]) != len(values["change"]):
            continue
        sign = 1 if direction == "higher" else -1
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        parent, change = spread(values["parent"]), spread(values["change"])
        metrics[name] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "change_over_parent": (change["median"] / parent["median"]
                                   if parent["median"] else None),
            "gain_beyond_parent_iqr": (
                sign * (change["median"] - parent["median"])
                > parent["q3"] - parent["q1"]),
            "wins": sum(1 for d in diffs if d > 0),
            "ties": sum(1 for d in diffs if d == 0),
            "losses": sum(1 for d in diffs if d < 0),
        }
    return {
        "workload": workload,
        "seconds": seconds,
        "pairs": pairs,
        "metrics": metrics,
        "correct": {side: all(pair[side]["correct"] for pair in pairs)
                    for side in SIDES},
        "failed": {side: sum(pair[side]["failed"] for pair in pairs)
                   for side in SIDES},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", default=ROOT, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="first pair's seed")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", help="write the JSON summary here")
    args = parser.parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    better = directions(checkouts["change"])
    pairs: List[dict] = []
    summary = summarize(args.workload, args.seconds, pairs, better)
    for index in range(args.pairs):
        seed = args.seed + index
        pair = {"pair": index, "seed": seed, "first": run_order(index)[0]}
        for side in run_order(index):
            pair[side] = run_once(checkouts[side], args.workload, seed,
                                  args.seconds)
        pairs.append(pair)
        summary = summarize(args.workload, args.seconds, pairs, better)
        print(f"# pair {index} seed {seed}: " + " ".join(
            f"{name} {pair['parent']['metrics'][name]:g}->"
            f"{pair['change']['metrics'][name]:g}"
            for name in summary["metrics"]), file=sys.stderr, flush=True)
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(summary, handle, indent=1, sort_keys=True)
                handle.write("\n")
    if not args.out:
        json.dump(summary, sys.stdout, indent=1, sort_keys=True)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
