"""The machine-speed reference loop.

A fixed, deterministic piece of dict and str work (about 3-5 ms on a
2-vCPU KVM guest) that the benchmark times right before and after every
timed op.  Its wall time tracks how fast the machine runs at that moment
(CPU steal, frequency, noisy neighbours), so op times can be scaled to a
fixed nominal machine speed.

The kernel has two halves, because the guest slows down in two ways and
the workbench's ops feel both:

- it formats element-id-like string keys and looks them up, in a fixed
  pseudo-random order, in a table of ~30 MB of such keys.  That is far
  beyond a core's private cache, so each lookup goes to the shared
  last-level cache or to memory, which is what contention from
  neighbours slows;
- it splits element-name-like strings into token sets and intersects
  them, in the core's own cache, as the voters do.  That is what a
  slower core (frequency, a busy sibling thread) slows.

Neither half alone tracks the ops through both kinds of slow phase
(``perfbench/NOTES.md`` has the measurements).  A pass is the median of
``REF_REPEATS`` kernel timings (scaled to the whole pass), so one
preemption inside the pass does not skew it.

This module uses only the standard library and must never import
``repro``: a change to the program under test must not change the
yardstick it is measured with.  A self-test enforces that.
"""

import random
import time

#: nominal reference time (ms): corrected op times read as milliseconds
#: on a machine where one reference pass takes exactly this long
REF_NOMINAL_MS = 5.0

REF_REPEATS = 5

#: keys in the table; ~30 MB of str keys and dict slots
TABLE_SIZE = 300_000

#: lookups per kernel timing
PROBES = 350

_TABLE = {f"schema/element-{i:07d}/name": i for i in range(TABLE_SIZE)}

#: the order the kernel visits the table in.  Each kernel timing takes
#: the next ``PROBES`` of it, so a key comes round again only after the
#: whole table: every pass misses the core's private cache the same way,
#: whatever the op before it left there.
_ORDER = list(range(TABLE_SIZE))
random.Random(2006).shuffle(_ORDER)
_ORDER = tuple(_ORDER)
_cursor = 0

#: the in-cache half's element names
_NAMES = tuple(f"entity{i % 37}_attr{i % 23}_code{i % 11}" for i in range(200))


def _kernel(first: int) -> float:
    table = _TABLE
    total = 0.0
    for index in _ORDER[first:first + PROBES]:
        total += table[f"schema/element-{index:07d}/name"]
    tokens = [set(name.split("_")) for name in _NAMES]
    for i in range(0, len(tokens), 7):
        left = tokens[i]
        for j in range(0, len(tokens), 13):
            total += len(left & tokens[j]) / (1.0 + j)
    return total


def reference_ms() -> float:
    """One reference pass, in milliseconds."""
    global _cursor
    samples = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter_ns()
        _kernel(_cursor)
        samples.append(time.perf_counter_ns() - start)
        _cursor = (_cursor + PROBES) % (TABLE_SIZE - PROBES)
    samples.sort()
    return samples[len(samples) // 2] * REF_REPEATS / 1e6
