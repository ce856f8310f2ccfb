"""Record linkage (task 10).

*"Two instance elements (with different unique identifiers) may represent
the same real-world object.  This subtask merges these elements into a
single element."*

Classic pipeline: blocking (cheap candidate pruning on a blocking key) →
pairwise similarity scoring over shared attributes → threshold decision →
transitive-closure clustering → merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

from ..text import kernels
from .documents import Record, RecordSet, normalize_value


@dataclass
class LinkageConfig:
    """Knobs for the linkage pipeline."""

    #: attribute used for blocking; None disables blocking (all pairs)
    blocking_key: Optional[str] = None
    #: first N chars of the (normalized) blocking value form the block
    blocking_prefix: int = 3
    #: per-attribute weights; unlisted attributes get weight 1
    weights: Dict[str, float] = field(default_factory=dict)
    #: pairs scoring >= threshold are links
    threshold: float = 0.8
    #: attributes to ignore entirely (identifiers, timestamps)
    exclude: Set[str] = field(default_factory=set)


def field_similarity(a: Any, b: Any) -> float:
    """Similarity of two field values in [0,1].

    String fields score through the memoized ``repro.text.kernels``:
    field values (cities, status codes, names) recur across records, so
    the cache pays off.
    """
    if a is None or b is None:
        return 0.0
    a_n, b_n = normalize_value(a), normalize_value(b)
    if a_n == b_n:
        return 1.0
    if isinstance(a_n, str) and isinstance(b_n, str):
        return max(
            kernels.jaro_winkler_similarity(a_n, b_n),
            kernels.edit_similarity(a_n, b_n),
        )
    try:
        fa, fb = float(a_n), float(b_n)
    except (TypeError, ValueError):
        return 0.0
    if fa == fb:
        return 1.0
    denom = max(abs(fa), abs(fb))
    if denom == 0:
        return 1.0
    return max(0.0, 1.0 - abs(fa - fb) / denom)


def record_similarity(
    a: Record, b: Record, config: Optional[LinkageConfig] = None
) -> float:
    """Weighted mean field similarity over the attributes both records carry."""
    config = config or LinkageConfig()
    total = 0.0
    weight_sum = 0.0
    for key in set(a) & set(b):
        if key in config.exclude:
            continue
        if a.get(key) is None and b.get(key) is None:
            continue
        weight = config.weights.get(key, 1.0)
        total += weight * field_similarity(a.get(key), b.get(key))
        weight_sum += weight
    if weight_sum == 0.0:
        return 0.0
    return total / weight_sum


def _blocks(records: Sequence[Record], config: LinkageConfig) -> List[List[int]]:
    if config.blocking_key is None:
        return [list(range(len(records)))]
    buckets: Dict[str, List[int]] = {}
    for index, record in enumerate(records):
        value = normalize_value(record.get(config.blocking_key))
        key = str(value)[: config.blocking_prefix] if value is not None else ""
        buckets.setdefault(key, []).append(index)
    return list(buckets.values())


@dataclass
class LinkageResult:
    """Clusters of record indexes plus the merged records."""

    clusters: List[List[int]]
    merged: List[Record]
    pairs_compared: int
    links_found: int

    @property
    def duplicates_removed(self) -> int:
        return sum(len(c) - 1 for c in self.clusters)


class _UnionFind:
    def __init__(self, size: int) -> None:
        self._parent = list(range(size))

    def find(self, x: int) -> int:
        while self._parent[x] != x:
            self._parent[x] = self._parent[self._parent[x]]
            x = self._parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[max(ra, rb)] = min(ra, rb)


def merge_records(cluster: Sequence[Record], reliabilities: Optional[Sequence[float]] = None) -> Record:
    """Merge a cluster into one record: non-null wins; conflicts resolved
    by reliability (or first-seen when reliabilities tie/absent)."""
    merged: Record = {}
    best_reliability: Dict[str, float] = {}
    for index, record in enumerate(cluster):
        reliability = reliabilities[index] if reliabilities else 0.5
        for key, value in record.items():
            if value is None:
                continue
            if key not in merged or reliability > best_reliability.get(key, -1.0):
                if key not in merged or reliability > best_reliability[key]:
                    merged[key] = value
                    best_reliability[key] = reliability
    return merged


def link_records(
    records: Sequence[Record],
    config: Optional[LinkageConfig] = None,
    reliabilities: Optional[Sequence[float]] = None,
) -> LinkageResult:
    """Run the full linkage pipeline on one record list."""
    config = config or LinkageConfig()
    uf = _UnionFind(len(records))
    compared = 0
    links = 0
    for block in _blocks(records, config):
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                a, b = block[i], block[j]
                compared += 1
                if record_similarity(records[a], records[b], config) >= config.threshold:
                    uf.union(a, b)
                    links += 1
    clusters_by_root: Dict[int, List[int]] = {}
    for index in range(len(records)):
        clusters_by_root.setdefault(uf.find(index), []).append(index)
    clusters = sorted(clusters_by_root.values(), key=lambda c: c[0])
    merged = [
        merge_records(
            [records[i] for i in cluster],
            [reliabilities[i] for i in cluster] if reliabilities else None,
        )
        for cluster in clusters
    ]
    return LinkageResult(
        clusters=clusters, merged=merged, pairs_compared=compared, links_found=links
    )


def link_record_sets(
    sets: Sequence[RecordSet], config: Optional[LinkageConfig] = None
) -> LinkageResult:
    """Link across several sources, using each set's reliability."""
    records: List[Record] = []
    reliabilities: List[float] = []
    for record_set in sets:
        for record in record_set:
            records.append(record)
            reliabilities.append(record_set.reliability)
    return link_records(records, config=config, reliabilities=reliabilities)
