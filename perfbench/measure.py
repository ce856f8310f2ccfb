"""Pure arithmetic of the benchmark: drift correction, percentiles, the
tail rule and run-to-run spread.  Standard library only, so the
self-tests run without the program under test."""

import hashlib
import json
import re
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

from refloop import REF_NOMINAL_MS

#: percentiles the tail rule may report, highest last
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)

#: a tail percentile must leave at least this many samples beyond it
TAIL_MIN_BEYOND = 10

#: every metric name the benchmark prints matches this
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def correction_factor(ref_before_ms: float, ref_after_ms: float) -> float:
    """Scale factor turning a wall time measured between two reference
    passes into a time at the nominal machine speed:
    ``REF_NOMINAL / mean(adjacent reference times)``."""
    return REF_NOMINAL_MS / ((ref_before_ms + ref_after_ms) / 2.0)


def corrected(wall_ms: float, ref_before_ms: float, ref_after_ms: float) -> float:
    """*wall_ms* at the nominal machine speed (see ``correction_factor``)."""
    return wall_ms * correction_factor(ref_before_ms, ref_after_ms)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    *pct* percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil, at least 1
    return ordered[int(rank) - 1]


def beyond(samples: Sequence[float], pct: float) -> int:
    """How many samples lie strictly above the *pct* percentile."""
    cut = percentile(samples, pct)
    return sum(1 for value in samples if value > cut)


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The tail rule: the highest ladder percentile with at least
    ``TAIL_MIN_BEYOND`` samples beyond it.

    Returns ``(percentile, value, samples beyond)``.  Raises when even
    the lowest rung leaves too few samples — the caller must run more
    ops, not report a tail.
    """
    best = None
    for pct in TAIL_LADDER:
        count = beyond(samples, pct)
        if count >= TAIL_MIN_BEYOND:
            best = (pct, percentile(samples, pct), count)
    if best is None:
        raise ValueError(
            f"{len(samples)} samples leave fewer than {TAIL_MIN_BEYOND} "
            f"beyond p{TAIL_LADDER[0]:g}")
    return best


def tail_or_max(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The tail rule, or the maximum (reported as p100 with nothing
    beyond) when a run that stopped early or failed ops left too few
    samples for it."""
    try:
        return tail(samples)
    except ValueError:
        return 100.0, max(samples), 0


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the interquartile range as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        value = float(values[0])
        return {"median": value, "q1": value, "q3": value, "iqr_share": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": share}


def digest(items: Iterable[object]) -> str:
    """A stable sha256 digest of JSON-able items."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(json.dumps(item, sort_keys=True).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def cells_digest(cells: Iterable[Tuple[str, str, float, bool]]) -> str:
    """Digest of matrix cells ``(source, target, confidence, user)``;
    confidences are hashed by their exact ``repr``."""
    return digest(
        (s, t, repr(float(c)), bool(u)) for s, t, c, u in sorted(cells))


def check_names(names: Iterable[str]) -> List[str]:
    """The names that do not match ``METRIC_NAME`` (empty when all do)."""
    return [name for name in names if not METRIC_NAME.fullmatch(name)]
