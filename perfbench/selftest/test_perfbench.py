"""Self-tests of the benchmark's own arithmetic and contracts.

    python3 -m pytest perfbench/selftest -q
"""

import ast
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")):
    if path not in sys.path:
        sys.path.insert(0, path)

import measure  # noqa: E402
from refloop import REF_NOMINAL_MS  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- the tail rule ------------------------------------------------------------

def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    pct, value, count = measure.tail(samples)
    assert (pct, value, count) == (90.0, 90.0, 10)


def test_tail_picks_the_highest_rung_with_ten_beyond():
    samples = [float(i) for i in range(1, 1001)]
    pct, value, count = measure.tail(samples)
    assert pct == 99.0 and count == 10 and value == 990.0
    pct, _, count = measure.tail(samples[:999])
    assert pct == 95.0 and count >= 10


def test_tail_with_forty_samples_is_p75():
    pct, value, count = measure.tail([float(i) for i in range(40)])
    assert (pct, value, count) == (75.0, 29.0, 10)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        measure.tail([1.0] * 39)
    assert measure.tail_or_max([1.0, 3.0, 2.0]) == (100.0, 3.0, 0)


def test_percentile_is_nearest_rank():
    assert measure.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert measure.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert measure.percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0


# -- drift correction ---------------------------------------------------------

def test_correction_at_nominal_speed_is_identity():
    assert measure.corrected(12.5, REF_NOMINAL_MS, REF_NOMINAL_MS) == 12.5


def test_correction_scales_by_the_mean_of_adjacent_references():
    # a machine at half speed doubles the reference time
    assert measure.corrected(20.0, 2 * REF_NOMINAL_MS, 2 * REF_NOMINAL_MS) == 10.0
    factor = measure.correction_factor(4.0, 6.0)
    assert factor == pytest.approx(REF_NOMINAL_MS / 5.0)
    assert measure.corrected(10.0, 4.0, 6.0) == pytest.approx(10.0 * factor)
    # only the mean of the two adjacent passes matters
    assert measure.correction_factor(3.0, 7.0) == factor


def test_spread_is_iqr_over_median():
    stats = measure.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats["median"] == 3.0
    assert stats["iqr_share"] == pytest.approx((4.5 - 1.5) / 3.0)


# -- the op script ------------------------------------------------------------

@pytest.mark.parametrize(
    "name", ["match_cold", "refine_decide", "refine_loop", "nway_registry",
             "serve_open"])
def test_seed_determines_the_op_script(name):
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    first = measure.digest(cls(3, 4).script())
    again = measure.digest(cls(3, 4).script())
    other = measure.digest(cls(4, 4).script())
    assert first == again
    assert first != other


# -- metric names -------------------------------------------------------------

def test_metric_names_match_the_alphabet_and_the_contract():
    from harness import Timed, Workload, summarize
    from tracing import Tracer

    contract = _benchmark_json()
    end_to_end = {m["name"] for m in contract["end_to_end"]}
    per_layer = {m["name"] for m in contract["per_layer"]}

    timed = Timed(latencies_ms=[float(i) for i in range(1, 41)],
                  raw_ms=[float(i) for i in range(1, 41)],
                  refs_ms=[REF_NOMINAL_MS], throughput=1.0, attempted=40)
    summary = summarize(Workload(1, 1), timed, [1.0], [1.0], 1.0)
    assert set(summary["metrics"]) == end_to_end

    report = Tracer(Workload(1, 1)).report(Timed())
    assert set(report["metrics"]) == per_layer
    names = (list(summary["metrics"]) + list(summary["diag"])
             + list(report["metrics"]) + list(report["diag"]))
    assert measure.check_names(names) == []
    assert measure.check_names(["ok.name-1", "bad/name", "bad name"]) == [
        "bad/name", "bad name"]


def test_units_match_the_contract():
    from harness import Timed, Workload, summarize
    from tracing import Tracer

    contract = _benchmark_json()
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    timed = Timed(latencies_ms=[float(i) for i in range(1, 41)],
                  raw_ms=[float(i) for i in range(1, 41)],
                  refs_ms=[REF_NOMINAL_MS], throughput=1.0, attempted=40)
    summary = summarize(Workload(1, 1), timed, [1.0], [1.0], 1.0)

    report = Tracer(Workload(1, 1)).report(Timed())
    for name, (_, unit) in list(summary["metrics"].items()) + list(
            report["metrics"].items()):
        assert units[name] == unit, name


# -- the reference loop -------------------------------------------------------

def test_reference_loop_imports_nothing_from_repro():
    with open(os.path.join(BENCH, "refloop.py")) as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= set(sys.stdlib_module_names), imported
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import refloop; "
        "refloop.reference_ms(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    done = subprocess.run([sys.executable, "-c", probe, BENCH],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_reference_pass_takes_milliseconds():
    from refloop import reference_ms

    assert 0.5 < reference_ms() < 100.0
