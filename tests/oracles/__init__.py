"""Test-only reference implementations the production code is held to.

The program runs one implementation of each stage.  The clarity-first
versions those implementations replaced live here, outside ``src/``, as
oracles: the differential suites and the relative gates of
``benchmarks/perf_smoke.py`` compare the production code with them.

* :func:`classic_flooding` / :func:`directional_flooding` — the
  dict-keyed flooding fixpoints (``tests/oracles/flooding.py``); the
  compiled sweeps reproduce them bit for bit;
* :func:`blocking_candidates` — the ad hoc inverted-index candidate
  retrieval (``tests/oracles/blocking.py``); retrieval through a warm or
  patched ``BlockingIndex`` returns the same ordered pairs;
* :func:`evaluate_reference` — the greedy left-to-right BGP evaluator
  (``tests/oracles/query.py``); the cost-based planner returns the same
  solution multiset;
* :func:`voter_column` / :func:`merge_pair` — each built-in voter's
  per-pair body and the per-pair vote merge (``tests/oracles/voters.py``);
  the column voters and ``VoteMerger.merge_columns`` reproduce them bit
  for bit;
* :func:`term_sort_key` — the field-by-field order across term kinds
  (``tests/oracles/terms.py``); terms sort natively the same way.

Import as ``from tests.oracles import ...`` (benchmarks put the repo
root on ``sys.path`` first).
"""

from .blocking import blocking_candidates
from .flooding import classic_flooding, directional_flooding, pcg_edges
from .query import evaluate_reference
from .terms import term_sort_key
from .voters import merge_pair, voter_column

__all__ = [
    "blocking_candidates",
    "classic_flooding",
    "directional_flooding",
    "evaluate_reference",
    "merge_pair",
    "pcg_edges",
    "term_sort_key",
    "voter_column",
]
