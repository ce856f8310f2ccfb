"""The ad hoc inverted-index candidate retrieval.

Clarity first: every call re-keys both schemas from scratch, builds the
target-side postings in graph order and ranks each source element's
targets by rarity-weighted key overlap, with nothing cached.
``repro.harmony.blocking.CandidateBlocker.candidates`` runs the same
retrieval over a :class:`~repro.harmony.blocking.BlockingIndex` that
caches key sets and patches them after an evolution; the warm-vs-cold
tests hold it to this function's ordered pair list.
"""

from typing import Dict, List, Tuple

from repro.core.elements import ElementKind, SchemaElement
from repro.harmony.blocking import BlockingResult, CandidateBlocker, _family
from repro.harmony.voters.base import MatchContext


def blocking_candidates(
    blocker: CandidateBlocker, context: MatchContext
) -> BlockingResult:
    """The (source, target) pairs *blocker* keeps, retrieved cold."""
    config = blocker.config
    source_root = context.source.root.element_id
    target_root = context.target.root.element_id
    # family → key → target ids (postings in graph order)
    postings_by_family: Dict[str, Dict[str, List[str]]] = {}
    families: Dict[str, List[SchemaElement]] = {}
    for element in context.target:
        if element.element_id == target_root or element.kind is ElementKind.KEY:
            continue
        family = _family(element.kind)
        families.setdefault(family, []).append(element)
        postings = postings_by_family.setdefault(family, {})
        for key in blocker.keys_for(context, context.target, element):
            postings.setdefault(key, []).append(element.element_id)
    by_id = {e.element_id: e for members in families.values() for e in members}

    pairs: List[Tuple[SchemaElement, SchemaElement]] = []
    total = 0
    for source_el in context.source:
        if source_el.element_id == source_root or source_el.kind is ElementKind.KEY:
            continue
        members = families.get(_family(source_el.kind), [])
        total += len(members)
        if not members:
            continue
        if len(members) <= config.budget:
            pairs.extend((source_el, t) for t in members)
            continue
        postings = postings_by_family[_family(source_el.kind)]
        stop_df = max(config.budget, len(members) // 2)
        scores: Dict[str, float] = {}
        for key in sorted(blocker.keys_for(context, context.source, source_el)):
            matched = postings.get(key)
            if matched and len(matched) <= stop_df:
                weight = 1.0 / len(matched)
                for target_id in matched:
                    scores[target_id] = scores.get(target_id, 0.0) + weight
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        kept = [target_id for target_id, _ in ranked[: config.budget]]
        if len(ranked) > config.budget:
            cutoff = ranked[config.budget - 1][1]
            for target_id, score in ranked[config.budget : 2 * config.budget]:
                if score < cutoff:
                    break
                kept.append(target_id)
        if len(kept) < config.budget:
            seen = set(kept)
            for element in members:
                if element.element_id not in seen:
                    kept.append(element.element_id)
                    seen.add(element.element_id)
                if len(kept) >= config.budget:
                    break
        pairs.extend((source_el, by_id[t]) for t in kept)
    return BlockingResult(pairs=pairs, total_pairs=total)
