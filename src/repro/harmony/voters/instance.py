"""Instance voter: value-overlap evidence when instance data exists.

Section 2's core observation is that instance data is *often unavailable*
in enterprise settings — so this voter is optional and abstains whenever
either element carries no sample values.  Bench A4 measures how Harmony
degrades when it is disabled or starved.

Sample values travel on the ``instance_values`` element annotation
(loaders and scenario generators populate it when instances exist).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...core.elements import ElementKind, SchemaElement
from ...text.similarity import jaccard_similarity
from .base import CandidatePair, ColumnVoter, MatchContext, calibrate

_PATTERN_BUCKETS = (
    (re.compile(r"^\d+$"), "digits"),
    (re.compile(r"^\d+\.\d+$"), "decimal"),
    (re.compile(r"^\d{4}-\d{2}-\d{2}"), "iso-date"),
    (re.compile(r"^[A-Z]{2,5}\d*$"), "code"),
    (re.compile(r"^[A-Za-z]+(?: [A-Za-z]+)*$"), "words"),
    (re.compile(r"^[\w.+-]+@[\w-]+\.[\w.]+$"), "email"),
)


def _pattern_signature(values: Sequence[str]) -> str:
    """The dominant syntactic shape of a value sample."""
    counts = {}
    for value in values:
        for pattern, label in _PATTERN_BUCKETS:
            if pattern.match(value):
                counts[label] = counts.get(label, 0) + 1
                break
        else:
            counts["other"] = counts.get("other", 0) + 1
    if not counts:
        return "empty"
    return max(counts, key=lambda k: counts[k])


def _values_of(element: SchemaElement) -> Optional[List[str]]:
    values = element.annotation("instance_values")
    if not values:
        return None
    return [str(v).strip() for v in values if str(v).strip()]


#: an element's lowercased sample values and their pattern signature
_Sample = Tuple[Set[str], str]


class InstanceVoter(ColumnVoter):
    name = "instance"

    def applicable(self, source: SchemaElement, target: SchemaElement) -> bool:
        return (
            source.kind is ElementKind.ATTRIBUTE
            and target.kind is ElementKind.ATTRIBUTE
            and _values_of(source) is not None
            and _values_of(target) is not None
        )

    def score_pairs(
        self, pairs: Sequence[CandidatePair], context: MatchContext
    ) -> List[float]:
        source_samples: Dict[str, Optional[_Sample]] = {}
        target_samples: Dict[str, Optional[_Sample]] = {}
        scores = []
        for source, target in pairs:
            sample_a = _sample_of(source, source_samples)
            sample_b = _sample_of(target, target_samples)
            if sample_a is None or sample_b is None:
                scores.append(0.0)  # no instance data -> abstain (Section 2)
                continue
            overlap = jaccard_similarity(sample_a[0], sample_b[0])
            if overlap > 0.0:
                scores.append(calibrate(
                    overlap, zero_point=0.05, full_point=0.6, negative_floor=0.0))
            # no shared values: fall back to syntactic-shape agreement
            elif sample_a[1] == sample_b[1]:
                scores.append(0.15)
            else:
                scores.append(-0.3)
        return scores


def _sample_of(
    element: SchemaElement, memo: Dict[str, Optional[_Sample]]
) -> Optional[_Sample]:
    """The element's :data:`_Sample`, computed once per column."""
    key = element.element_id
    if key not in memo:
        values = _values_of(element)
        memo[key] = (
            None if values is None
            else ({v.lower() for v in values}, _pattern_signature(values))
        )
    return memo[key]
