"""JSON Schema loader (draft-07 core subset).

Not in the 2006 paper — JSON Schema did not exist yet — but the workbench
is explicitly *open and extensible*: any format with a loader joins the
ecosystem.  This loader demonstrates exactly that extension point and is
used by the examples.

Supported: ``object`` properties (nested), ``array`` items, scalar types,
``enum`` (→ DOMAIN elements), ``required``, ``description``, local
``$ref`` into ``definitions``/``$defs``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from ..core.elements import ElementKind, SchemaElement
from ..core.errors import LoaderError
from ..core.graph import HAS_DOMAIN, SchemaGraph
from .base import STRING_OR_NULL, SchemaLoader, json_field, normalize_type


class JsonSchemaLoader(SchemaLoader):
    """Loads JSON Schema documents into canonical schema graphs."""

    format_name = "json-schema"

    def load(self, text: str, schema_name: Optional[str] = None) -> SchemaGraph:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LoaderError(f"malformed JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise LoaderError("JSON Schema must be a JSON object")
        return self.load_dict(data, schema_name=schema_name)

    def load_dict(self, data: Dict[str, Any], schema_name: Optional[str] = None) -> SchemaGraph:
        title = json_field(data, "title", STRING_OR_NULL)
        name = (schema_name or title or "json-schema").replace(" ", "_")
        graph = SchemaGraph.create(name, documentation=data.get("description", ""))
        self._graph = graph
        self._root_doc = data
        self._prefix = name
        self._domain_count = 0
        root_name = ("root" if title is None else title).replace(" ", "_")
        self._load_node(data, parent_id=name, node_name=root_name, depth=0)
        return graph

    def _resolve_ref(self, ref: str) -> Dict[str, Any]:
        if not ref.startswith("#/"):
            raise LoaderError(f"only local $ref supported, got {ref!r}")
        node: Any = self._root_doc
        for part in ref[2:].split("/"):
            if not isinstance(node, dict) or part not in node:
                raise LoaderError(f"unresolved $ref {ref!r}")
            node = node[part]
        if not isinstance(node, dict):
            raise LoaderError(f"$ref {ref!r} does not point at a schema object")
        return node

    def _load_node(
        self, spec: Dict[str, Any], parent_id: str, node_name: str, depth: int
    ) -> None:
        if depth > 32:
            raise LoaderError("JSON Schema nesting too deep (cycle via $ref?)")
        if "$ref" in spec:
            resolved = dict(self._resolve_ref(json_field(spec, "$ref", str)))
            resolved.setdefault("description", spec.get("description", ""))
            spec = resolved
        node_type = spec.get("type", "object")
        doc = spec.get("description", "")
        element_id = f"{parent_id}/{node_name}"
        if element_id in self._graph:
            return

        if node_type == "object":
            element = SchemaElement(element_id, node_name, ElementKind.ELEMENT, documentation=doc)
            self._graph.add_child(parent_id, element, label="contains-element")
            required = json_field(spec, "required", list, [])
            for prop_name, prop_spec in json_field(spec, "properties", dict, {}).items():
                if not isinstance(prop_spec, dict):
                    raise LoaderError(f"property {prop_name!r} is not a schema object")
                child_spec = dict(prop_spec)
                child_spec["_required"] = prop_name in required
                self._load_node(child_spec, element_id, prop_name, depth + 1)
        elif node_type == "array":
            element = SchemaElement(element_id, node_name, ElementKind.ELEMENT, documentation=doc)
            element.annotate("repeating", True)
            self._graph.add_child(parent_id, element, label="contains-element")
            items = spec.get("items")
            if isinstance(items, dict):
                self._load_node(items, element_id, "item", depth + 1)
        else:
            element = SchemaElement(
                element_id, node_name, ElementKind.ATTRIBUTE,
                datatype=normalize_type(_scalar_type(spec)),
                documentation=doc,
            )
            if not spec.get("_required", False):
                element.annotate("nullable", True)
            self._graph.add_child(parent_id, element, label="contains-attribute")
            if "enum" in spec:
                self._attach_enum_domain(
                    element_id, node_name, json_field(spec, "enum", list))

    def _attach_enum_domain(self, element_id: str, node_name: str, values) -> None:
        domain_id = f"{self._prefix}/domain:{node_name}Values"
        if domain_id not in self._graph:
            self._graph.add_child(
                self._prefix,
                SchemaElement(domain_id, f"{node_name}Values", ElementKind.DOMAIN),
                label="contains-element",
            )
            for value in values:
                code = str(value)
                self._graph.add_child(
                    domain_id,
                    SchemaElement(f"{domain_id}/{code}", code, ElementKind.DOMAIN_VALUE),
                )
        self._graph.add_edge(element_id, HAS_DOMAIN, domain_id)


def _scalar_type(spec: Dict[str, Any]) -> str:
    node_type = spec.get("type", "string")
    if isinstance(node_type, list):
        concrete = [t for t in node_type if t != "null"]
        node_type = concrete[0] if concrete else "string"
    if node_type == "number":
        return "float"
    return str(node_type)


def load_json_schema(data, schema_name: Optional[str] = None) -> SchemaGraph:
    """Convenience wrapper: accepts JSON text or an already-parsed dict."""
    loader = JsonSchemaLoader()
    if isinstance(data, dict):
        return loader.load_dict(data, schema_name=schema_name)
    return loader.load(data, schema_name=schema_name)
