"""The per-pair voter bodies and the per-pair vote merge.

Clarity first: each built-in voter scored one (source, target) pair per
call, re-deriving everything it needed about both elements from the
graphs — name, path and leaf tokens, thesaurus and acronym tokens,
domain codes, sample values — and the merger combined each pair's
``VoterScore`` objects.  The production voters score a whole candidate
column from per-element feature records
(``repro.harmony.voters.base.ElementFeatures``) and the merger merges
columns (``VoteMerger.merge_columns``); the differential tests hold
both to these functions bit for bit.
"""

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.correspondence import VoterScore, clamp_confidence
from repro.core.elements import CONTAINER_KINDS, ElementKind, SchemaElement
from repro.core.graph import SchemaGraph
from repro.harmony.merger import VoteMerger
from repro.harmony.voters import MatchContext, MatchVoter, calibrate, kinds_comparable
from repro.harmony.voters.instance import _pattern_signature
from repro.loaders.base import types_compatible
from repro.text import kernels
from repro.text.similarity import jaccard_similarity
from repro.text.stemmer import stem, stem_all
from repro.text.stopwords import remove_stop_words
from repro.text.tfidf import preprocess
from repro.text.tokenize import ngrams, split_identifier

# -- per-element evidence, re-derived on every call ------------------------


def graph_of(context: MatchContext, element: SchemaElement) -> SchemaGraph:
    """Which of the context's two graphs owns this element."""
    source, target = context.source, context.target
    if element.element_id in source and source.get(element.element_id) is element:
        return source
    if element.element_id in target and target.get(element.element_id) is element:
        return target
    # fall back to id membership (copies of elements)
    if element.element_id in source:
        return source
    return target


def name_tokens(context: MatchContext, element: SchemaElement) -> List[str]:
    """Stemmed, stop-word-free, abbreviation-expanded name tokens."""
    expanded: List[str] = []
    for token in split_identifier(element.name):
        expansion = context.thesaurus.expand_abbreviation(token)
        expanded.extend(split_identifier(expansion) or [expansion])
    return stem_all(remove_stop_words(expanded)) or expanded


def path_tokens(graph: SchemaGraph, element: SchemaElement) -> List[str]:
    """Stemmed tokens of the root-to-element name path (root excluded)."""
    tokens: List[str] = []
    for name in graph.path(element.element_id)[1:]:
        tokens.extend(stem(t) for t in split_identifier(name))
    return tokens


def leaf_tokens(graph: SchemaGraph, element: SchemaElement) -> FrozenSet[str]:
    """Stemmed name tokens of the leaf descendants below an element."""
    names = set()
    for descendant in graph.subtree(element.element_id):
        if descendant.element_id == element.element_id:
            continue
        if not graph.children(descendant.element_id):
            for token in split_identifier(descendant.name):
                names.add(stem(token))
    return frozenset(names)


def domain_codes(graph: SchemaGraph, element: SchemaElement) -> Optional[FrozenSet[str]]:
    """The value-code set behind an element, if it has one."""
    if element.kind is ElementKind.DOMAIN:
        domain = element
    elif element.kind is ElementKind.ATTRIBUTE:
        domain = graph.domain_of(element.element_id)
        if domain is None:
            values = element.annotation("instance_values")
            if values:
                return frozenset(str(v).strip().lower() for v in values)
            return None
    else:
        return None
    codes = frozenset(
        child.name.strip().lower()
        for child in graph.children(domain.element_id)
        if child.kind is ElementKind.DOMAIN_VALUE
    )
    return codes or None


def embedding_features(
    context: MatchContext, graph: SchemaGraph, element: SchemaElement
) -> List[str]:
    """The lexical feature multiset one element hashes into."""
    config = context._embed_config
    features: List[str] = []
    for token in name_tokens(context, element):
        features.append(f"t:{token}")
        features.append(f"t:{token}")
        for synonym in context.thesaurus.synonyms(token):
            features.append(f"t:{synonym.lower()}")
    for gram in sorted(set(ngrams(element.name, config.token_ngram))):
        features.append(f"g:{gram}")
    if config.use_documentation and element.documentation:
        for term in preprocess(element.documentation):
            features.append(f"d:{term}")
    parent = graph.parent(element.element_id)
    if parent is not None and parent.element_id != graph.root.element_id:
        for token in name_tokens(context, parent):
            features.append(f"p:{token}")
    if element.kind in CONTAINER_KINDS:
        for token in leaf_tokens(graph, element):
            features.append(f"l:{token}")
    return features


# -- one function per built-in voter ----------------------------------------


def name_score(voter, source, target, context):
    a, b = source.name, target.name
    if a.lower() == b.lower():
        return 1.0
    tokens_a = name_tokens(context, source)
    tokens_b = name_tokens(context, target)
    similarity = kernels.blended_name_similarity(a, b, tokens_a, tokens_b)
    if tokens_a and tokens_a == tokens_b:
        return 1.0
    return calibrate(similarity, zero_point=0.45, full_point=0.92, negative_floor=-0.6)


def documentation_score(voter, source, target, context):
    if not (source.has_documentation and target.has_documentation):
        return 0.0
    doc_a = context.doc_id(graph_of(context, source), source)
    doc_b = context.doc_id(graph_of(context, target), target)
    cosine = context.cosine(doc_a, doc_b)
    return calibrate(cosine, zero_point=0.08, full_point=0.75, negative_floor=-0.35)


def _thesaurus_tokens(name: str, context: MatchContext) -> List[str]:
    tokens = []
    for token in split_identifier(name):
        tokens.append(context.thesaurus.expand_abbreviation(token))
    return [t for t in tokens if not t.isdigit()]


def thesaurus_score(voter, source, target, context):
    thesaurus = context.thesaurus
    tokens_a = _thesaurus_tokens(source.name, context)
    tokens_b = _thesaurus_tokens(target.name, context)
    if not tokens_a or not tokens_b:
        return 0.0

    def aligned(xs: List[str], ys: List[str]) -> float:
        hits = sum(1 for x in xs if any(thesaurus.are_synonyms(x, y) for y in ys))
        return hits / len(xs)

    overlap = (aligned(tokens_a, tokens_b) + aligned(tokens_b, tokens_a)) / 2.0
    if overlap == 0.0:
        return 0.0
    return calibrate(overlap, zero_point=0.25, full_point=0.95, negative_floor=0.0)


def datatype_score(voter, source, target, context):
    if not (
        source.kind is ElementKind.ATTRIBUTE
        and target.kind is ElementKind.ATTRIBUTE
        and source.datatype is not None
        and target.datatype is not None
    ):
        return 0.0
    if source.datatype == target.datatype:
        return voter.SAME
    if types_compatible(source.datatype, target.datatype):
        return voter.COMPATIBLE
    return voter.INCOMPATIBLE


def domain_values_score(voter, source, target, context):
    kinds = (ElementKind.DOMAIN, ElementKind.ATTRIBUTE)
    if source.kind not in kinds or target.kind not in kinds:
        return 0.0
    codes_a = domain_codes(graph_of(context, source), source)
    codes_b = domain_codes(graph_of(context, target), target)
    if codes_a is None or codes_b is None:
        return 0.0
    overlap = jaccard_similarity(codes_a, codes_b)
    return calibrate(overlap, zero_point=0.15, full_point=0.8, negative_floor=-0.8)


def structure_score(voter, source, target, context):
    graph_s = graph_of(context, source)
    graph_t = graph_of(context, target)
    path_sim = kernels.monge_elkan(
        path_tokens(graph_s, source), path_tokens(graph_t, target))
    if source.is_container and target.is_container:
        leaves_s = leaf_tokens(graph_s, source)
        leaves_t = leaf_tokens(graph_t, target)
        if leaves_s and leaves_t:
            leaf_sim = kernels.jaccard_similarity(leaves_s, leaves_t)
            similarity = 0.5 * path_sim + 0.5 * leaf_sim
        else:
            similarity = path_sim
    else:
        similarity = path_sim
    return calibrate(similarity, zero_point=0.4, full_point=0.95, negative_floor=-0.3)


def _initials(tokens: List[str]) -> str:
    return "".join(t[0] for t in tokens if t and t[0].isalpha())


def _is_acronym_of(short: str, tokens: List[str]) -> bool:
    short = short.lower()
    if len(short) < 2 or not tokens:
        return False
    initials = _initials(tokens)
    return initials == short or (len(short) >= 3 and initials.startswith(short))


def _greedy_align(short_tokens: List[str], long_tokens: List[str]) -> bool:
    position = 0
    for token in short_tokens:
        if position >= len(long_tokens):
            return False
        span = len(token)
        if (
            span >= 2
            and position + span <= len(long_tokens)
            and _initials(long_tokens[position : position + span]) == token
        ):
            position += span
            continue
        candidate = long_tokens[position]
        if len(token) >= 2 and candidate.startswith(token):
            position += 1
            continue
        if token == candidate:
            position += 1
            continue
        return False
    return position == len(long_tokens)


def acronym_score(voter, source, target, context):
    tokens_a = split_identifier(source.name)
    tokens_b = split_identifier(target.name)
    for short_tokens, long_tokens in ((tokens_a, tokens_b), (tokens_b, tokens_a)):
        if len(short_tokens) == 1 and len(long_tokens) >= 2:
            if _is_acronym_of(short_tokens[0], long_tokens):
                return 0.7
    for short_tokens, long_tokens in ((tokens_a, tokens_b), (tokens_b, tokens_a)):
        if 1 < len(short_tokens) < len(long_tokens):
            if _greedy_align(short_tokens, long_tokens):
                return 0.6
    if 1 < len(tokens_a) == len(tokens_b):
        if all(
            a == b or (len(a) >= 2 and b.startswith(a)) or (len(b) >= 2 and a.startswith(b))
            for a, b in zip(tokens_a, tokens_b)
        ):
            return 0.5
    return 0.0


def _values_of(element: SchemaElement) -> Optional[List[str]]:
    values = element.annotation("instance_values")
    if not values:
        return None
    return [str(v).strip() for v in values if str(v).strip()]


def instance_score(voter, source, target, context):
    values_a = _values_of(source)
    values_b = _values_of(target)
    if values_a is None or values_b is None:
        return 0.0
    overlap = jaccard_similarity(
        {v.lower() for v in values_a}, {v.lower() for v in values_b}
    )
    if overlap > 0.0:
        return calibrate(overlap, zero_point=0.05, full_point=0.6, negative_floor=0.0)
    if _pattern_signature(values_a) == _pattern_signature(values_b):
        return 0.15
    return -0.3


def embedding_score(voter, source, target, context):
    if not kinds_comparable(source.kind, target.kind):
        return 0.0
    source_vec = context.embedder.embed(
        embedding_features(context, context.source, source))
    target_vec = context.embedder.embed(
        embedding_features(context, context.target, target))
    if not any(source_vec) or not any(target_vec):
        return 0.0
    similarity = sum(a * b for a, b in zip(source_vec, target_vec))
    return calibrate(
        similarity,
        zero_point=voter.zero_point,
        full_point=voter.full_point,
        negative_floor=voter.negative_floor,
    )


#: voter name → per-pair body ``(voter, source, target, context) -> score``
VOTER_ORACLES = {
    "name": name_score,
    "documentation": documentation_score,
    "thesaurus": thesaurus_score,
    "datatype": datatype_score,
    "domain-values": domain_values_score,
    "structure": structure_score,
    "acronym": acronym_score,
    "instance": instance_score,
    "embedding": embedding_score,
}


def voter_column(
    voter: MatchVoter,
    pairs: Sequence[Tuple[SchemaElement, SchemaElement]],
    context: MatchContext,
) -> List[float]:
    """*voter*'s scores over *pairs*, one pair at a time."""
    body = VOTER_ORACLES[voter.name]
    return [body(voter, source, target, context) for source, target in pairs]


def merge_pair(merger: VoteMerger, votes: Iterable[VoterScore]) -> float:
    """One pair's votes merged into a single confidence."""
    numerator = 0.0
    denominator = 0.0
    for vote in votes:
        effective = merger.weight_of(vote.voter) * vote.magnitude
        numerator += effective * vote.score
        denominator += effective
    if denominator == 0.0:
        return 0.0
    merged = numerator / denominator
    return clamp_confidence(max(-0.99, min(0.99, merged)))
