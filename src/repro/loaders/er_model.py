"""Entity-relationship model loader (the ERWin stand-in).

Harmony supports *"entity-relationship schemata from ERWin, a popular
modeling tool"* (Section 4).  ERWin's native format is proprietary, so we
define a self-contained JSON ER format carrying the same information the
paper's registry holds: entities and relationships with one-sentence
definitions, attributes with datatypes and definitions, and semantic
domains (coding schemes) with documented values.

Format::

    {
      "name": "air_traffic",
      "documentation": "...",
      "entities": [
        {"name": "Aircraft", "documentation": "...",
         "attributes": [
            {"name": "tailNumber", "type": "string", "documentation": "...",
             "key": true, "domain": "AircraftType"}]}
      ],
      "relationships": [
        {"name": "operates", "documentation": "...",
         "from": "Carrier", "to": "Flight",
         "attributes": [...]}
      ],
      "domains": [
        {"name": "AircraftType", "type": "string", "documentation": "...",
         "values": [{"code": "B737", "documentation": "..."}]}
      ]
    }
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..core.elements import ElementKind, SchemaElement
from ..core.errors import LoaderError
from ..core.graph import HAS_DOMAIN, HAS_KEY, KEY_ATTRIBUTE, REFERENCES, SchemaGraph
from .base import (
    STRING_OR_NULL,
    SchemaLoader,
    json_field,
    json_objects,
    normalize_type,
)


class ErModelLoader(SchemaLoader):
    """Loads JSON ER models into canonical schema graphs."""

    format_name = "er"

    def load(self, text: str, schema_name: Optional[str] = None) -> SchemaGraph:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LoaderError(f"malformed JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise LoaderError("ER model must be a JSON object")
        return self.load_dict(data, schema_name=schema_name)

    def load_dict(self, data: Dict[str, Any], schema_name: Optional[str] = None) -> SchemaGraph:
        """Load from an already-parsed dictionary."""
        name = schema_name or json_field(data, "name", STRING_OR_NULL)
        if not name:
            raise LoaderError("ER model needs a 'name'")
        graph = SchemaGraph.create(name, documentation=data.get("documentation", ""))

        # domains first so attributes can reference them
        for domain in json_objects(data, "domains"):
            self._load_domain(graph, name, domain)
        entity_ids: Dict[str, str] = {}
        for entity in json_objects(data, "entities"):
            entity_ids[entity.get("name", "")] = self._load_entity(
                graph, name, entity, ElementKind.ENTITY
            )
        for rel in json_objects(data, "relationships"):
            rel_id = self._load_entity(graph, name, rel, ElementKind.RELATIONSHIP)
            for endpoint in ("from", "to"):
                ref = json_field(rel, endpoint, STRING_OR_NULL)
                if ref:
                    if ref not in entity_ids:
                        raise LoaderError(
                            f"relationship {rel.get('name')!r} references unknown entity {ref!r}"
                        )
                    graph.add_edge(rel_id, REFERENCES, entity_ids[ref])
        if len(graph) == 1:
            raise LoaderError("ER model has no entities")
        return graph

    def _load_domain(self, graph: SchemaGraph, prefix: str, spec: Dict[str, Any]) -> None:
        domain_name = json_field(spec, "name", STRING_OR_NULL)
        if not domain_name:
            raise LoaderError("domain without a name")
        domain_id = f"{prefix}/domain:{domain_name}"
        graph.add_child(
            prefix,
            SchemaElement(
                domain_id, domain_name, ElementKind.DOMAIN,
                datatype=normalize_type(json_field(spec, "type", STRING_OR_NULL, "string")),
                documentation=spec.get("documentation", ""),
            ),
            label="contains-element",
        )
        for value in json_field(spec, "values", list, []):
            if isinstance(value, str):
                code, doc = value, ""
            elif isinstance(value, dict):
                code, doc = value.get("code", ""), value.get("documentation", "")
            else:
                raise LoaderError(
                    f"every entry of 'values' must be a string or a JSON "
                    f"object, got {type(value).__name__}")
            graph.add_child(
                domain_id,
                SchemaElement(
                    f"{domain_id}/{code}", code, ElementKind.DOMAIN_VALUE,
                    documentation=doc,
                ),
            )

    def _load_entity(
        self, graph: SchemaGraph, prefix: str, spec: Dict[str, Any], kind: ElementKind
    ) -> str:
        entity_name = json_field(spec, "name", STRING_OR_NULL)
        if not entity_name:
            raise LoaderError(f"{kind.value} without a name")
        entity_id = f"{prefix}/{entity_name}"
        graph.add_child(
            prefix,
            SchemaElement(
                entity_id, entity_name, kind,
                documentation=spec.get("documentation", ""),
            ),
            label="contains-element",
        )
        key_attrs: List[str] = []
        for attr in json_objects(spec, "attributes"):
            attr_name = json_field(attr, "name", STRING_OR_NULL)
            if not attr_name:
                raise LoaderError(f"attribute without a name in {entity_name!r}")
            attr_id = f"{entity_id}/{attr_name}"
            element = SchemaElement(
                attr_id, attr_name, ElementKind.ATTRIBUTE,
                datatype=normalize_type(json_field(attr, "type", STRING_OR_NULL, "string")),
                documentation=attr.get("documentation", ""),
            )
            if "nullable" in attr:
                element.annotate("nullable", bool(attr["nullable"]))
            if "units" in attr:
                element.annotate("units", attr["units"])
            if "instance_values" in attr:
                element.annotate(
                    "instance_values", list(json_field(attr, "instance_values", list)))
            graph.add_child(entity_id, element)
            if attr.get("key"):
                key_attrs.append(attr_id)
            domain_ref = attr.get("domain")
            if domain_ref:
                domain_id = f"{prefix}/domain:{domain_ref}"
                if domain_id not in graph:
                    raise LoaderError(
                        f"attribute {attr_name!r} references unknown domain {domain_ref!r}"
                    )
                graph.add_edge(attr_id, HAS_DOMAIN, domain_id)
        if key_attrs:
            key_id = f"{entity_id}/#pk"
            graph.add_child(
                entity_id,
                SchemaElement(key_id, f"{entity_name}_pk", ElementKind.KEY),
                label=HAS_KEY,
            )
            for attr_id in key_attrs:
                graph.add_edge(key_id, KEY_ATTRIBUTE, attr_id)
        return entity_id


def load_er(data, schema_name: Optional[str] = None) -> SchemaGraph:
    """Convenience wrapper: accepts JSON text or an already-parsed dict."""
    loader = ErModelLoader()
    if isinstance(data, dict):
        return loader.load_dict(data, schema_name=schema_name)
    return loader.load(data, schema_name=schema_name)
