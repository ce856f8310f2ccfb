"""Loader interface and canonical datatype normalization.

Task 1 of the task model: *"imports the source schemata into the
integration platform.  If the source schemata are not in a format
compatible with the platform, this step also includes any necessary
syntactic transformations."*  Every loader produces a
:class:`~repro.core.graph.SchemaGraph` — the platform's one canonical
representation — and normalizes native datatypes into a small canonical
set so the datatype match voter can compare across metamodels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Iterator, Optional

from ..core.errors import LoaderError
from ..core.graph import SchemaGraph

#: Canonical datatypes shared by every metamodel.
CANONICAL_TYPES = frozenset(
    {
        "string",
        "integer",
        "decimal",
        "float",
        "boolean",
        "date",
        "time",
        "datetime",
        "binary",
        "identifier",
    }
)

#: Native type name (lowercased, parenthesized args stripped) → canonical.
_TYPE_MAP: Dict[str, str] = {
    # SQL
    "char": "string", "varchar": "string", "varchar2": "string",
    "nchar": "string", "nvarchar": "string", "text": "string",
    "clob": "string", "character": "string", "string": "string",
    "int": "integer", "integer": "integer", "smallint": "integer",
    "bigint": "integer", "tinyint": "integer", "serial": "integer",
    "number": "decimal", "numeric": "decimal", "decimal": "decimal",
    "money": "decimal",
    "float": "float", "real": "float", "double": "float",
    "double precision": "float",
    "bool": "boolean", "boolean": "boolean", "bit": "boolean",
    "date": "date",
    "time": "time",
    "timestamp": "datetime", "datetime": "datetime",
    "blob": "binary", "binary": "binary", "varbinary": "binary",
    "bytea": "binary", "raw": "binary",
    "uuid": "identifier", "rowid": "identifier",
    # XML Schema built-ins (xs: prefix stripped by the XSD loader)
    "normalizedstring": "string", "token": "string", "anyuri": "string",
    "qname": "string", "id": "identifier", "idref": "identifier",
    "nonnegativeinteger": "integer", "positiveinteger": "integer",
    "negativeinteger": "integer", "nonpositiveinteger": "integer",
    "long": "integer", "short": "integer", "byte": "integer",
    "unsignedint": "integer", "unsignedlong": "integer",
    "unsignedshort": "integer", "unsignedbyte": "integer",
    "gyear": "date", "gmonth": "date", "gday": "date",
    "gyearmonth": "date", "gmonthday": "date",
    "duration": "string",
    "hexbinary": "binary", "base64binary": "binary",
    # JSON Schema
    "object": "string", "array": "string", "null": "string",
}


def normalize_type(native: Optional[str]) -> Optional[str]:
    """Map a native type name to a canonical one.

    Parenthesized length/precision arguments and common prefixes
    (``xs:``, ``xsd:``) are stripped.  Unknown types pass through
    lowercased so no information is silently destroyed.

    >>> normalize_type("VARCHAR(30)")
    'string'
    >>> normalize_type("xs:decimal")
    'decimal'
    """
    if native is None:
        return None
    cleaned = native.strip().lower()
    for prefix in ("xs:", "xsd:"):
        if cleaned.startswith(prefix):
            cleaned = cleaned[len(prefix):]
    if "(" in cleaned:
        cleaned = cleaned[: cleaned.index("(")].strip()
    if cleaned in CANONICAL_TYPES:
        return cleaned
    return _TYPE_MAP.get(cleaned, cleaned)


#: an optional text field: a string, or absent / null
STRING_OR_NULL = (str, type(None))

#: what each JSON shape the loaders expect is called in their errors
_JSON_SHAPES = {
    dict: "a JSON object",
    list: "a JSON array",
    str: "a string",
    STRING_OR_NULL: "a string",
}


def json_field(spec: Dict[str, Any], key: str, shape: Any,
               default: Any = None) -> Any:
    """``spec.get(key, default)``, or :class:`LoaderError` naming *key*
    when the value is not of *shape* (a key of ``_JSON_SHAPES``).

    The JSON loaders read every field through this as they walk the
    parsed document, so input of the wrong shape fails as a loader
    error instead of a ``TypeError`` or ``AttributeError`` further in.
    """
    value = spec.get(key, default)
    if not isinstance(value, shape):
        raise LoaderError(
            f"{key!r} must be {_JSON_SHAPES[shape]}, "
            f"got {type(value).__name__}")
    return value


def json_objects(spec: Dict[str, Any], key: str) -> Iterator[Dict[str, Any]]:
    """The entries of the JSON array ``spec[key]`` (absent = empty), each
    checked to be an object as it is reached."""
    for item in json_field(spec, key, list, []):
        if not isinstance(item, dict):
            raise LoaderError(
                f"every entry of {key!r} must be a JSON object, "
                f"got {type(item).__name__}")
        yield item


#: Compatibility groups for the datatype match voter: types in the same
#: group can plausibly hold corresponding values.
TYPE_COMPATIBILITY = {
    "string": {"string", "identifier"},
    "integer": {"integer", "decimal", "float", "identifier"},
    "decimal": {"decimal", "integer", "float"},
    "float": {"float", "decimal", "integer"},
    "boolean": {"boolean", "integer", "string"},
    "date": {"date", "datetime"},
    "time": {"time", "datetime"},
    "datetime": {"datetime", "date", "time"},
    "binary": {"binary"},
    "identifier": {"identifier", "string", "integer"},
}


def types_compatible(a: Optional[str], b: Optional[str]) -> bool:
    """Can values of canonical type *a* populate type *b* (or vice versa)?

    Unknown or missing types are treated as compatible — absence of type
    information must never veto a correspondence.
    """
    if a is None or b is None:
        return True
    if a == b:
        return True
    return b in TYPE_COMPATIBILITY.get(a, {a}) or a in TYPE_COMPATIBILITY.get(b, {b})


class SchemaLoader(ABC):
    """A schema importer (Section 5.2.1 "loaders").

    Implementations parse one native format and emit a canonical
    :class:`SchemaGraph`.  They raise
    :class:`~repro.core.errors.LoaderError` on malformed input.
    """

    #: Short format name ("sql", "xsd", "er", "json-schema").
    format_name: str = ""

    @abstractmethod
    def load(self, text: str, schema_name: Optional[str] = None) -> SchemaGraph:
        """Parse *text* into a canonical schema graph."""

    def load_file(self, path: str, schema_name: Optional[str] = None) -> SchemaGraph:
        """Parse a file on disk."""
        with open(path, "r", encoding="utf-8") as handle:
            return self.load(handle.read(), schema_name=schema_name)
