"""Repeat benchmark runs and report each metric's spread.

    python3 perfbench/repeat.py --workload match_cold --runs 10 --seconds 15
    python3 perfbench/repeat.py --runs 1            # every workload once

Runs ``perfbench/run.py`` once per seed (``--seed``, ``--seed`` + 1, ...)
in a fresh process each time, one after another, and prints for every
metric — end-to-end and ``diag.*`` — the median, the quartiles and the
interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), plus ops attempted and failed
and the output checks of every run, read from the report each run writes
(``run.py --report``).  ``--json`` also writes every run's values to a
file.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from measure import spread  # noqa: E402

#: where each run writes its report
REPORT = os.path.join(HERE, "out", "repeat-report.json")

WORKLOADS = ("match_cold", "refine_decide", "nway_registry", "serve_open",
             "refine_loop")


def run_once(workload, seed, seconds, trace):
    os.makedirs(os.path.dirname(REPORT), exist_ok=True)
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--report", REPORT]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600, check=False)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}")
    with open(REPORT) as handle:
        report = json.load(handle)
    os.remove(REPORT)
    values = {name: metric["value"]
              for name, metric in report["metrics"].items()}
    units = {name: metric["unit"]
             for name, metric in report["metrics"].items()}
    values.update(report["diag"])
    return report, values, units, report["checks"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's values here")
    args = parser.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    record = {}
    for workload in workloads:
        runs = []
        for offset in range(args.runs):
            seed = args.seed + offset
            result, values, units, checks = run_once(
                workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "result": result, "values": values,
                         "checks": checks})
            print(f"# {workload} seed {seed}: attempted "
                  f"{result['attempted']} failed {result['failed']} "
                  f"correct {result['correct']} "
                  + " ".join(f"{k}={'pass' if ok else 'FAIL'}"
                             for k, ok in sorted(checks.items())),
                  flush=True)
        record[workload] = runs
        print(f"{'metric':<44} {'unit':>7} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'iqr/med':>8}")
        for name in sorted(runs[0]["values"]):
            series = [run["values"][name] for run in runs
                      if name in run["values"]]
            stats = spread(series)
            print(f"{workload + '/' + name:<44} {units.get(name, ''):>7} "
                  f"{stats['median']:>12.6g} {stats['q1']:>12.6g} "
                  f"{stats['q3']:>12.6g} {stats['iqr_share']:>8.2%}",
                  flush=True)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
