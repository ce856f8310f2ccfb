"""Datatype voter: canonical-type compatibility of attributes.

Weak positive evidence when two attributes' canonical types agree, weak
negative evidence when they are incompatible (a date will not populate a
boolean).  Deliberately low-magnitude: type agreement alone never
confirms a correspondence, it only nudges — and the magnitude-weighted
merger (Section 4) automatically keeps low-magnitude votes from
dominating.
"""

from __future__ import annotations

from typing import List, Sequence

from ...core.elements import ElementKind, SchemaElement
from ...loaders.base import types_compatible
from .base import CandidatePair, ColumnVoter, MatchContext


class DatatypeVoter(ColumnVoter):
    name = "datatype"

    #: Score when types are identical / merely compatible / incompatible.
    SAME = 0.25
    COMPATIBLE = 0.1
    INCOMPATIBLE = -0.45

    def applicable(self, source: SchemaElement, target: SchemaElement) -> bool:
        return (
            source.kind is ElementKind.ATTRIBUTE
            and target.kind is ElementKind.ATTRIBUTE
            and source.datatype is not None
            and target.datatype is not None
        )

    def score_pairs(
        self, pairs: Sequence[CandidatePair], context: MatchContext
    ) -> List[float]:
        scores = []
        for source, target in pairs:
            if not self.applicable(source, target):
                scores.append(0.0)
            elif source.datatype == target.datatype:
                scores.append(self.SAME)
            elif types_compatible(source.datatype, target.datatype):
                scores.append(self.COMPATIBLE)
            else:
                scores.append(self.INCOMPATIBLE)
        return scores
