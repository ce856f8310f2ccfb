"""Well-formed JSON of the wrong shape fails as a LoaderError.

The ER, JSON Schema and registry loaders type-check each field as they
walk the parsed document, so a number where an array belongs, or an
array where an object belongs, is refused with an error naming the key
instead of escaping as a ``TypeError`` or ``AttributeError``, and the
loader tool writes nothing to the blackboard.
"""

import json

import pytest

from repro.core import LoaderError
from repro.loaders import ErModelLoader, JsonSchemaLoader, RegistryLoader
from repro.workbench import LoaderTool, WorkbenchManager

ER_CASES = [
    ({"name": "m", "entities": 5}, "'entities'"),
    ({"name": "m", "entities": [5]}, "'entities'"),
    ({"name": "m", "entities": [{"name": "A", "attributes": {"x": 1}}]},
     "'attributes'"),
    ({"name": "m", "entities": [{"name": "A", "attributes": ["x"]}]},
     "'attributes'"),
    ({"name": "m", "entities": [{"name": ["A"]}]}, "'name'"),
    ({"name": "m", "entities": [{"name": "A", "attributes": [
        {"name": "x", "type": 5}]}]}, "'type'"),
    ({"name": "m", "entities": [{"name": "A", "attributes": [
        {"name": "x", "instance_values": 5}]}]}, "'instance_values'"),
    ({"name": "m", "entities": [{"name": "A"}], "domains": {"D": 1}},
     "'domains'"),
    ({"name": "m", "entities": [{"name": "A"}],
      "domains": [{"name": "D", "values": [5]}]}, "'values'"),
    ({"name": "m", "entities": [{"name": "A"}],
      "relationships": [{"name": "r", "from": ["A"]}]}, "'from'"),
    ({"name": ["m"], "entities": [{"name": "A"}]}, "'name'"),
]

JSON_SCHEMA_CASES = [
    ({"type": "object", "properties": [1, 2]}, "'properties'"),
    ({"type": "object", "properties": {
        "a": {"type": "object", "properties": "x"}}}, "'properties'"),
    ({"type": "object", "properties": {"a": {"$ref": 5}}}, "'$ref'"),
    ({"type": "object", "required": "a", "properties": {"a": {}}},
     "'required'"),
    ({"type": "object", "properties": {
        "a": {"type": "string", "enum": 5}}}, "'enum'"),
    ({"title": ["T"], "type": "object"}, "'title'"),
]


@pytest.mark.parametrize("document, key", [
    ({"models": 5}, "'models'"),
    ({"models": None}, "'models'"),
    ({"models": [5]}, "'models'"),
    ({"models": [{"name": ["m"], "entities": [{"name": "A"}]}]}, "'name'"),
    ({"models": [{"name": "m", "entities": 5}]}, "'entities'"),
])
def test_a_registry_of_the_wrong_shape_is_refused(document, key):
    with pytest.raises(LoaderError) as info:
        RegistryLoader().load(json.dumps(document))
    assert key in str(info.value)


def _manager():
    manager = WorkbenchManager()
    manager.register(LoaderTool(ErModelLoader()))
    manager.register(LoaderTool(JsonSchemaLoader()))
    manager.invoke("load-er", text=json.dumps(
        {"name": "valid", "entities": [{"name": "A", "attributes": [
            {"name": "x", "type": "string"}]}]}))
    return manager


@pytest.mark.parametrize(
    "tool, document, key",
    [("load-er", *case) for case in ER_CASES]
    + [("load-json-schema", *case) for case in JSON_SCHEMA_CASES])
def test_a_wrong_shape_is_refused_and_the_blackboard_untouched(
        tool, document, key):
    manager = _manager()
    revision = manager.blackboard.store.revision
    with pytest.raises(LoaderError) as info:
        manager.invoke(tool, text=json.dumps(document))
    assert key in str(info.value)
    assert manager.blackboard.store.revision == revision
    assert manager.blackboard.schema_names() == ["valid"]
