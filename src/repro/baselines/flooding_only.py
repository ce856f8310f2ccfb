"""Similarity-flooding-only baseline (Melnik et al., ICDE 2002).

The original algorithm as published: a purely structural matcher seeded
with a cheap string measure, then the fixpoint computation, then
threshold selection.  No documentation, thesaurus, datatype or domain
evidence — this is the comparison point that shows what Harmony's voter
ensemble adds (bench A2/A6).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.graph import SchemaGraph
from ..core.matrix import MappingMatrix
from ..harmony.flooding import FloodingConfig, FloodingState
from ..harmony.voters.base import kinds_comparable
from ..text.similarity import ngram_similarity
from .base import Matcher


class FloodingOnlyMatcher(Matcher):
    name = "sf-only"

    def __init__(self, config: FloodingConfig = None, seed_floor: float = 0.05) -> None:
        self.config = config or FloodingConfig()
        self.seed_floor = seed_floor

    def match(self, source: SchemaGraph, target: SchemaGraph) -> MappingMatrix:
        matrix = MappingMatrix.from_schemas(source, target)
        source_root = source.root.element_id
        target_root = target.root.element_id

        initial: Dict[Tuple[str, str], float] = {}
        for s in source:
            for t in target:
                seed = ngram_similarity(s.name, t.name)
                if seed >= self.seed_floor:
                    initial[(s.element_id, t.element_id)] = seed

        flooded = FloodingState().flood(source, target, initial, config=self.config)
        for (source_id, target_id), similarity in flooded.items():
            if source_id in (source_root,) or target_id in (target_root,):
                continue
            if source_id not in source or target_id not in target:
                continue
            s_el = source.element(source_id)
            t_el = target.element(target_id)
            if not kinds_comparable(s_el.kind, t_el.kind):
                continue
            if similarity > 0.0:
                # SF similarities live in [0,1]; map onto machine confidences
                matrix.set_confidence(
                    source_id, target_id, min(0.99, similarity * 2.0 - 1.0)
                    if similarity > 0.5 else similarity * 0.5
                )
        return matrix
