"""Test-only reference implementations the production code is held to.

The program runs one implementation of each stage.  The clarity-first
versions those implementations replaced live here, outside ``src/``, as
oracles: the differential suites and the relative gates of
``benchmarks/perf_smoke.py`` compare the production code with them.

* :func:`classic_flooding` / :func:`directional_flooding` — the
  dict-keyed flooding fixpoints (``tests/oracles/flooding.py``); the
  compiled sweeps reproduce them bit for bit on the Python backend;
* :func:`evaluate_reference` — the greedy left-to-right BGP evaluator
  (``tests/oracles/query.py``); the cost-based planner returns the same
  solution multiset.

Import as ``from tests.oracles import ...`` (benchmarks put the repo
root on ``sys.path`` first).
"""

from .flooding import classic_flooding, directional_flooding, pcg_edges
from .query import evaluate_reference

__all__ = [
    "classic_flooding",
    "directional_flooding",
    "evaluate_reference",
    "pcg_edges",
]
