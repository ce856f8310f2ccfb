"""Metadata-registry loader.

Section 2 works from *"a collection of 265 conceptual (ER) models from the
Department of Defense metadata registry (which contains schemata only, no
instances!)"*.  A registry here is a named collection of ER models (see
:mod:`repro.loaders.er_model` for the per-model format)::

    {"name": "dod-registry", "models": [ <er model>, ... ]}

:mod:`repro.registry` generates synthetic registries in this format; this
loader turns them into schema graphs for matching and statistics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

from ..core.errors import LoaderError
from ..core.graph import SchemaGraph
from .base import STRING_OR_NULL, json_field, json_objects
from .er_model import ErModelLoader


@dataclass
class MetadataRegistry:
    """A loaded registry: named schema graphs plus source dictionaries."""

    name: str
    schemas: List[SchemaGraph] = field(default_factory=list)
    raw_models: List[Dict[str, Any]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.schemas)

    def __iter__(self) -> Iterator[SchemaGraph]:
        return iter(self.schemas)

    def schema(self, name: str) -> SchemaGraph:
        for graph in self.schemas:
            if graph.name == name:
                return graph
        raise LoaderError(f"registry {self.name!r} has no schema {name!r}")

    @property
    def schema_names(self) -> List[str]:
        return [g.name for g in self.schemas]


class RegistryLoader:
    """Loads a JSON metadata registry into schema graphs."""

    def load(self, text: str) -> MetadataRegistry:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LoaderError(f"malformed JSON: {exc}") from exc
        return self.load_dict(data)

    def load_dict(self, data: Dict[str, Any]) -> MetadataRegistry:
        if not isinstance(data, dict) or "models" not in data:
            raise LoaderError("registry must be an object with a 'models' list")
        registry = MetadataRegistry(name=data.get("name", "registry"))
        er_loader = ErModelLoader()
        seen: Dict[str, int] = {}
        for i, model in enumerate(json_objects(data, "models")):
            model_name = json_field(model, "name", STRING_OR_NULL) or f"model{i}"
            # registries may repeat model names; disambiguate deterministically
            if model_name in seen:
                seen[model_name] += 1
                model = dict(model)
                model["name"] = f"{model_name}#{seen[model_name]}"
            else:
                seen[model_name] = 1
            registry.schemas.append(er_loader.load_dict(model))
            registry.raw_models.append(model)
        return registry

    def load_file(self, path: str) -> MetadataRegistry:
        with open(path, "r", encoding="utf-8") as handle:
            return self.load(handle.read())


def load_registry(data) -> MetadataRegistry:
    """Convenience wrapper: accepts JSON text or an already-parsed dict."""
    loader = RegistryLoader()
    if isinstance(data, dict):
        return loader.load_dict(data)
    return loader.load(data)
