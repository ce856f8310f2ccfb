"""The field-by-field term order the native tuple order replaced.

RDF terms are tagged tuples that order natively (``repro.rdf.term``).
Before, each kind was a dataclass and sorting across kinds went through
this key, which spells the order out: IRIs < blanks < literals, IRIs
and blanks by their one field, literals by lexical form then datatype.
"""

from repro.rdf.term import IRI, BlankNode, Term


def term_sort_key(term: Term) -> tuple:
    """Total order across term kinds: IRIs < blanks < literals."""
    if isinstance(term, IRI):
        return (0, term.value, "")
    if isinstance(term, BlankNode):
        return (1, term.label, "")
    return (2, term.lexical, term.datatype)
