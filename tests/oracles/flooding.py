"""The dict-keyed similarity-flooding fixpoints.

Clarity first: PCG nodes are ``(source id, target id)`` tuples and every
iteration allocates fresh dicts.  ``repro.harmony.flooding`` runs the
same recurrences over interned int ids and flat edge arrays, and on the
Python sweep backend reproduces these results bit for bit, because the
compiled arrays are flattened in the iteration order of
:func:`pcg_edges` and so accumulate in the same order.
"""

from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.correspondence import clamp_confidence
from repro.core.graph import SchemaGraph
from repro.harmony.flooding import (
    DirectionalConfig,
    FloodingConfig,
    _build_out_by_label,
    _containment_parent,
    _edges_by_label,
    _weighted_adjacency,
)

Pair = Tuple[str, str]


def pcg_edges(
    source: SchemaGraph, target: SchemaGraph
) -> Dict[Pair, List[Tuple[Pair, float]]]:
    """The pairwise connectivity graph.

    PCG node (a, b) has an l-labeled edge to (a', b') whenever
    ``a --l--> a'`` in the source and ``b --l--> b'`` in the target.
    Returns, for every PCG node, its *neighbors with propagation
    coefficients folded in* — each out-edge carries weight
    1/fanout(label) per Melnik's inverse-average scheme, and edges are
    symmetrized (flooding runs on the induced undirected graph).
    """
    out_by_label = _build_out_by_label(
        _edges_by_label(source), _edges_by_label(target))
    return _weighted_adjacency(out_by_label)


def classic_flooding(
    source: SchemaGraph,
    target: SchemaGraph,
    initial: Mapping[Pair, float],
    config: Optional[FloodingConfig] = None,
) -> Dict[Pair, float]:
    """Melnik's basic fixpoint: σ⁺ = normalize(σ⁰ + σ + φ(σ)).

    *initial* maps (source element id, target element id) → similarity in
    [0, 1].  The result is normalized so the best pair scores 1.0.
    """
    config = config or FloodingConfig()
    adjacency = pcg_edges(source, target)
    nodes = set(initial) | set(adjacency)
    for neighbors in adjacency.values():
        nodes.update(n for n, _ in neighbors)

    sigma0 = {node: max(0.0, float(initial.get(node, 0.0))) for node in nodes}
    sigma = dict(sigma0)
    for _ in range(config.max_iterations):
        incoming: Dict[Pair, float] = {node: 0.0 for node in nodes}
        for node, neighbors in adjacency.items():
            value = sigma[node]
            if value == 0.0:
                continue
            for neighbor, weight in neighbors:
                incoming[neighbor] += value * weight
        updated = {
            node: sigma0[node] + sigma[node] + incoming[node] for node in nodes
        }
        peak = max(updated.values(), default=0.0)
        if peak > 0.0:
            updated = {node: value / peak for node, value in updated.items()}
        residual = max(
            (abs(updated[node] - sigma[node]) for node in nodes), default=0.0
        )
        sigma = updated
        if residual < config.epsilon:
            break
    return sigma


def directional_flooding(
    source: SchemaGraph,
    target: SchemaGraph,
    scores: Mapping[Pair, float],
    config: Optional[DirectionalConfig] = None,
    pinned: Optional[set] = None,
) -> Dict[Pair, float]:
    """Harmony's structural adjustment on [-1, +1] confidences.

    Up: a parent pair absorbs the average of its children pairs' *positive*
    scores.  Down: a child pair absorbs its parent pair's *negative* score.
    Pairs in *pinned* (user-decided links, Section 4.3) are never modified.
    """
    config = config or DirectionalConfig()
    pinned = pinned or set()
    adjusted: Dict[Pair, float] = {
        pair: clamp_confidence(value) for pair, value in scores.items()
    }

    # child-pair lists per parent pair, derived from containment
    children_of: Dict[Pair, List[Pair]] = {}
    parent_of: Dict[Pair, Pair] = {}
    for (s_id, t_id) in adjusted:
        parent_s = _containment_parent(source, s_id) if s_id in source else None
        parent_t = _containment_parent(target, t_id) if t_id in target else None
        if parent_s is None or parent_t is None:
            continue
        parent_pair = (parent_s, parent_t)
        if parent_pair in adjusted:
            children_of.setdefault(parent_pair, []).append((s_id, t_id))
            parent_of[(s_id, t_id)] = parent_pair

    for _ in range(config.iterations):
        updated = dict(adjusted)
        # positive evidence propagates up
        for parent_pair, child_pairs in children_of.items():
            if parent_pair in pinned:
                continue
            positives = [adjusted[c] for c in child_pairs if adjusted[c] > 0.0]
            if positives:
                boost = config.up_rate * (sum(positives) / len(positives))
                updated[parent_pair] = clamp_confidence(
                    min(0.99, adjusted[parent_pair] + boost)
                )
        # negative evidence trickles down
        for child_pair, parent_pair in parent_of.items():
            if child_pair in pinned:
                continue
            parent_score = adjusted[parent_pair]
            if parent_score < 0.0:
                updated[child_pair] = clamp_confidence(
                    max(-0.99, updated[child_pair] + config.down_rate * parent_score)
                )
        adjusted = updated
    return adjusted
