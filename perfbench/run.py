"""Run one workbench benchmark workload and print its metrics.

    python3 perfbench/run.py --workload match_cold --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program under test is imported from
``src/`` and nothing is installed.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``p50_ms``, ``tail_ms``, ``throughput``, ``quality``); with ``--trace 1``
ops alternate between untraced and traced, and the metrics are the
per-layer ones, with spans written under ``perfbench/out/``.  Lines
before it are for people: every metric as ``<workload>/<metric>``, the
ungated ``diag.*`` values and the output checks.  ``--report FILE`` also
writes all of it (metrics, diagnostics, checks, settings, errors) to
*FILE* as JSON.

Every set-up is cold: the run times ``SETUP_REPS`` - 1 set-ups in fresh
child processes (``--setup-only``, which prints one JSON line), then its
own, which the timed ops use.

Exit status: 0 after a completed run (even one with failed ops or
failed checks, which ``correct`` and ``failed`` report), 2 on bad usage
or when the program under test is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One BLAS thread, set before NumPy loads and inherited by the set-up
# children.  With two, OpenBLAS's second thread spins on the other vCPU
# after every NumPy call and slows both the op and the reference pass by
# an amount that follows the host's scheduling, not the program: on a
# 2-vCPU guest a cold match took 453-510 ms with two threads, 349-356 ms
# with one, and its medians moved 19% between two sets of runs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"


def _paths_ok() -> bool:
    """Put the benchmark, ``src/`` and ``benchmarks/`` on the path;
    False when the checkout has no program to measure."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return False
    for path in (HERE, src, os.path.join(ROOT, "benchmarks")):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def _print_metrics(workload_name, metrics, diag, checks, timed, settings):
    print(f"{workload_name}/settings: " + " ".join(
        f"{key}={value}" for key, value in settings.items()))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{workload_name}/{name} = {value:.6g} {unit}")
    for name, value in sorted(diag.items()):
        print(f"{workload_name}/{name} = {value:.6g}")
    print(f"{workload_name}/attempted = {timed.attempted}")
    print(f"{workload_name}/failed = {timed.failed}")
    for error in timed.errors:
        print(f"{workload_name}/error: {error}")
    for name, ok in sorted(checks.items()):
        print(f"{workload_name}/check.{name} = {'pass' if ok else 'FAIL'}")


def _child_setup(args):
    """One cold set-up in a fresh process: ``(corrected s, raw s)``."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write the full report here")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not _paths_ok():
        print(f"no program under test: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2

    from harness import SETUP_REPS, summarize, timed_setup
    from measure import check_names
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    if args.setup_only:
        state, setup, raw_setup = timed_setup(workload)
        workload.teardown(state)
        print(json.dumps([setup, raw_setup]))
        return 0
    children = [_child_setup(args) for _ in range(SETUP_REPS - 1)]
    state, setup, raw_setup = timed_setup(workload)
    setup_s = [c for c, _ in children] + [setup]
    raw_setup_s = [r for _, r in children] + [raw_setup]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(workload)
    try:
        timed = workload.measure(state, tracer)
        quality = workload.quality(state)
        checks = workload.checks(state)
        if tracer is not None:
            layer = tracer.report(timed)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.teardown(state)

    if args.trace:
        metrics = layer["metrics"]
        diag = layer["diag"]
        spans_path = tracer.write(os.path.join(HERE, "out"), args.seed)
        print(f"{workload.name}/spans written to {spans_path}")
    else:
        summary = summarize(workload, timed, setup_s, raw_setup_s, quality)
        metrics, diag = summary["metrics"], summary["diag"]
    _print_metrics(workload.name, metrics, diag, checks, timed,
                   workload.settings())
    bad = check_names(list(metrics) + list(diag))
    if bad:
        raise ValueError(f"metric names outside the allowed alphabet: {bad}")
    result = {
        "correct": timed.failed == 0 and all(checks.values()),
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(dict(result, workload=workload.name, diag=diag,
                           checks=checks, errors=timed.errors,
                           settings=workload.settings()), handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
