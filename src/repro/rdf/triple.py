"""RDF triples."""

from __future__ import annotations

from dataclasses import dataclass

from .term import IRI, Object, Subject


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

    def sort_key(self) -> tuple:
        """Terms order natively (see :mod:`repro.rdf.term`), so the key
        is the statement's own terms."""
        return (self.subject, self.predicate, self.object)

    def __str__(self) -> str:
        return f"{self.subject} {self.predicate} {self.object} ."
