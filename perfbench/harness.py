"""The timed loop shared by every workload.

A run is: benchmark-side input generation (untimed), ``SETUP_REPS``
cold, drift-corrected set-ups (the median is ``setup_s``), a fixed op
count with a reference pass before and after every op, an untimed
quality pass, and the output checks.  Set-up and ops always use the same
op script for a given ``--seed``.
"""

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from measure import corrected, tail_or_max
from refloop import reference_ms

#: cold set-ups per run; ``setup_s`` is their median.  Each runs in a
#: fresh process (all but the last in a child process of the run), so
#: every one pays the one-time lazy initialisation a user's first
#: set-up pays.  Three, not more: each child re-imports the program and
#: regenerates the inputs, and every run has to fit the time budget
SETUP_REPS = 3

#: safety valve: a timed phase running this many times longer than
#: planned stops early (the remaining ops count as not attempted), so a
#: run on a stalled machine still ends well inside three minutes
MAX_PHASE_FACTOR = 3.0
MAX_PHASE_S = 120.0


@dataclass
class Timed:
    """What the timed phase measured."""

    #: drift-corrected per-op latencies (ms) of ops that succeeded
    latencies_ms: List[float] = field(default_factory=list)
    #: raw wall per-op latencies (ms), same ops
    raw_ms: List[float] = field(default_factory=list)
    #: every reference pass taken during the phase (ms)
    refs_ms: List[float] = field(default_factory=list)
    #: ops (or requests) per second of corrected op time
    throughput: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: first few failure messages, for the log
    errors: List[str] = field(default_factory=list)
    #: workload-specific diagnostics (not gated)
    diag: Dict[str, float] = field(default_factory=dict)
    #: per-op trace flags (traced runs only)
    traced: List[bool] = field(default_factory=list)


class Workload:
    """One named workload.  Subclasses generate inputs in ``__init__``
    (from the seed only), and implement ``setup``/``op``/``quality``/
    ``checks``; ``serve_open`` replaces :meth:`measure` wholesale."""

    name = "workload"
    #: nominal op cost on the reference machine (ms): sizes the fixed op
    #: count from ``--seconds`` so a run takes about that long
    nominal_op_ms = 100.0
    #: fewest ops a run makes, so the tail rule always has a p75
    min_ops = 40
    #: what ``throughput`` counts per second
    op_unit = "op"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seconds = seconds
        self.op_count = max(
            self.min_ops, int(round(seconds * 1000.0 / self.nominal_op_ms)))

    # -- the op script --------------------------------------------------------

    def script(self) -> List[Any]:
        """JSON-able description of every input and op, in order."""
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------------

    def setup(self) -> Any:
        """System-side set-up, including the untimed warm-up op(s)."""
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release what :meth:`setup` created."""

    def before_op(self, state: Any, index: int) -> None:
        """Untimed preparation right before op *index*."""

    def op(self, state: Any, index: int) -> Any:
        """The timed op; returns what :meth:`check_op` inspects."""
        raise NotImplementedError

    def check_op(self, state: Any, index: int, outcome: Any) -> Optional[str]:
        """Untimed per-op output check: an error message, or None."""
        return None

    def op_size(self, state: Any) -> float:
        """How many throughput units one op is."""
        return 1.0

    def quality(self, state: Any) -> float:
        raise NotImplementedError

    def settings(self) -> Dict[str, Any]:
        """Fixed settings of the workload worth stating in the output."""
        return {"ops": self.op_count, "throughput_counts": self.op_unit}

    def engines(self, state: Any) -> List[Any]:
        """Harmony engines whose ``fastpath_stats`` the traced run reads."""
        return []

    def stores(self, state: Any) -> List[Any]:
        """Blackboards whose size and WAL stats the traced run reads."""
        return []

    def checks(self, state: Any) -> Dict[str, bool]:
        """End-of-run output checks (untimed)."""
        return {}

    # -- measurement ----------------------------------------------------------

    def measure(self, state: Any, tracer=None) -> Timed:
        """Run the fixed op script, a reference pass around every op.

        With a *tracer*, ops alternate in blocks of two between untraced
        and traced, so both halves see every pool entry and evolution
        direction.
        """
        timed = Timed()
        corrected_total = 0.0
        planned_s = max(self.seconds, self.op_count * self.nominal_op_ms / 1000.0)
        deadline = time.perf_counter() + min(
            MAX_PHASE_S, MAX_PHASE_FACTOR * planned_s)
        ref_prev = reference_ms()
        timed.refs_ms.append(ref_prev)
        for index in range(self.op_count):
            if time.perf_counter() > deadline:
                break
            traced = tracer is not None and (index // 2) % 2 == 1
            self.before_op(state, index)
            if traced:
                tracer.begin_op(index, state)
            error = None
            outcome = None
            start = time.perf_counter_ns()
            try:
                outcome = self.op(state, index)
            except Exception as exc:  # noqa: BLE001 — a failed op is data
                error = f"op {index}: {type(exc).__name__}: {exc}"
            wall_ms = (time.perf_counter_ns() - start) / 1e6
            ref_next = reference_ms()
            if traced:
                tracer.end_op(index, state, wall_ms)
            timed.refs_ms.append(ref_next)
            timed.attempted += 1
            if error is None:
                error = self.check_op(state, index, outcome)
            if error is not None:
                timed.failed += 1
                if len(timed.errors) < 5:
                    timed.errors.append(error)
            else:
                value = corrected(wall_ms, ref_prev, ref_next)
                timed.latencies_ms.append(value)
                timed.raw_ms.append(wall_ms)
                timed.traced.append(traced)
                corrected_total += value
            ref_prev = ref_next
        ok = timed.attempted - timed.failed
        if corrected_total > 0:
            timed.throughput = ok * self.op_size(state) / (corrected_total / 1000.0)
        return timed


def timed_setup(workload: Workload):
    """One drift-corrected set-up: ``(state, corrected s, raw s)``."""
    before = reference_ms()
    start = time.perf_counter_ns()
    state = workload.setup()
    wall_ms = (time.perf_counter_ns() - start) / 1e6
    after = reference_ms()
    return state, corrected(wall_ms, before, after) / 1000.0, wall_ms / 1000.0


def summarize(workload: Workload, timed: Timed, setup_s: List[float],
              raw_setup_s: List[float], quality: float) -> Dict[str, Any]:
    """End-to-end metrics plus the ungated diagnostics."""
    latencies = timed.latencies_ms or [0.0]
    raw = timed.raw_ms or [0.0]
    pct, value, count = tail_or_max(latencies)
    raw_pct, raw_value, _ = tail_or_max(raw)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "p50_ms": (statistics.median(latencies), "ms"),
        "tail_ms": (value, "ms"),
        "throughput": (timed.throughput, "1/s"),
        "quality": (quality, "ratio"),
    }
    diag = {
        "diag.tail_percentile": pct,
        "diag.tail_beyond": count,
        "diag.samples": len(timed.latencies_ms),
        "diag.raw_p50_ms": statistics.median(raw),
        f"diag.raw_p{raw_pct:g}_ms": raw_value,
        "diag.ref_median_ms": statistics.median(timed.refs_ms),
        "diag.raw_setup_s": statistics.median(raw_setup_s),
    }
    diag.update(timed.diag)
    return {"metrics": metrics, "diag": diag}
