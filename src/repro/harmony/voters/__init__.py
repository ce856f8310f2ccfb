"""Harmony's match voters — one module per matching strategy."""

from typing import List

from .acronym import AcronymVoter, is_acronym_of
from .base import (
    ColumnVoter,
    ElementFeatures,
    MatchContext,
    MatchVoter,
    calibrate,
    kinds_comparable,
)
from .datatype import DatatypeVoter
from .documentation import DocumentationVoter
from .domain_values import DomainValueVoter
from .embedding import EmbeddingVoter
from .instance import InstanceVoter
from .name import NameVoter
from .structure import StructureVoter
from .thesaurus import ThesaurusVoter


def default_voters(
    include_instance: bool = True,
    include_embedding: bool = False,
) -> List[MatchVoter]:
    """The standard Harmony voter suite.

    The instance voter is included by default but abstains automatically
    when no instance data is attached (Section 2: instance data is often
    unavailable); pass ``include_instance=False`` to exclude it entirely.
    ``include_embedding`` adds the dense hash-projection
    :class:`EmbeddingVoter` (the engine passes ``EngineConfig.embedding``
    here).
    """
    voters: List[MatchVoter] = [
        NameVoter(),
        DocumentationVoter(),
        ThesaurusVoter(),
        DatatypeVoter(),
        DomainValueVoter(),
        StructureVoter(),
        AcronymVoter(),
    ]
    if include_instance:
        voters.append(InstanceVoter())
    if include_embedding:
        voters.append(EmbeddingVoter())
    return voters


__all__ = [
    "AcronymVoter",
    "ColumnVoter",
    "DatatypeVoter",
    "DocumentationVoter",
    "DomainValueVoter",
    "ElementFeatures",
    "EmbeddingVoter",
    "InstanceVoter",
    "MatchContext",
    "MatchVoter",
    "NameVoter",
    "StructureVoter",
    "ThesaurusVoter",
    "calibrate",
    "default_voters",
    "is_acronym_of",
    "kinds_comparable",
]
