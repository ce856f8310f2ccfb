"""RDF triples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .term import IRI, Object, Subject, term_sort_key


@dataclass(frozen=True)
class Triple:
    """One (subject, predicate, object) statement."""

    subject: Subject
    predicate: IRI
    object: Object

    def __post_init__(self) -> None:
        if not isinstance(self.predicate, IRI):
            raise TypeError(
                f"predicate must be an IRI, got {type(self.predicate).__name__}"
            )

    def __hash__(self) -> int:
        # the store indexes terms, never triples, so most triples are not
        # hashed at all; the few put in sets (snapshots) cache it on first use
        try:
            return self._hash
        except AttributeError:
            value = hash((self.subject, self.predicate, self.object))
            object.__setattr__(self, "_hash", value)
            return value

    def sort_key(self) -> Tuple[tuple, tuple, tuple]:
        return (
            term_sort_key(self.subject),
            term_sort_key(self.predicate),
            term_sort_key(self.object),
        )

    def __str__(self) -> str:
        return f"{self.subject} {self.predicate} {self.object} ."
