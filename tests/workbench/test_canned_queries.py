"""The canned queries on a refinement-round blackboard.

``refine_decide`` rounds pose the canned queries to a blackboard holding
``air_traffic@7``, a ``fast()`` match and the engineer's accept/reject
decisions.  Here the planner must agree with the clarity-first oracle
(``evaluate_reference``) on that realistic shape, as it does on the
small random stores of ``tests/rdf/test_query_planner.py``; its
set-at-a-time join steps must answer ``strong_cells`` without building
a ``Triple`` per binding; and a cell whose confidence is not a number
must not break ``strong_cells``.
"""

import random

import pytest

from repro.eval import ScenarioConfig, air_traffic_model, generate_scenario
from repro.harmony import EngineConfig, HarmonyEngine
from repro.rdf import Literal, Query, Variable, evaluate, literal
from repro.rdf import vocabulary as V
from repro.rdf.schema_rdf import cell_iri, matrix_iri
from repro.rdf.term import XSD_DOUBLE
from repro.rdf.triple import Triple
from repro.workbench import (
    IntegrationBlackboard,
    MatcherTool,
    WorkbenchManager,
    elements_of_kind_query,
    matrix_progress,
    strong_cells,
    strong_cells_query,
    undocumented_elements_query,
    user_decided_cells_query,
)
from tests.oracles import evaluate_reference

MATRIX = "air_traffic->air_traffic_prime"


def solution_multiset(solutions):
    return sorted(
        tuple(sorted((v.name, str(t)) for v, t in binding.items()))
        for binding in solutions
    )


@pytest.fixture(scope="module")
def round_blackboard():
    """One refinement round's blackboard: a ``fast()`` match, ten
    accepted true links and ten rejected wrong ones, the matcher run
    again, and two rows marked complete."""
    scenario = generate_scenario(air_traffic_model(), ScenarioConfig(seed=7))
    source, target = scenario.source, scenario.target
    blackboard = IntegrationBlackboard()
    manager = WorkbenchManager(blackboard=blackboard)
    manager.register(MatcherTool(HarmonyEngine(config=EngineConfig.fast())))
    with manager.transaction():
        blackboard.put_schema(source)
        blackboard.put_schema(target)
    match = dict(source_schema=source.name, target_schema=target.name,
                 matrix_name=MATRIX)
    manager.invoke("harmony", **match)
    rng = random.Random(7)
    truth = sorted(scenario.alignment.pairs)
    targets = sorted(e.element_id for e in target
                     if target.parent(e.element_id) is not None)
    with manager.transaction():
        for s, t in rng.sample(truth, 10):
            blackboard.update_cell(MATRIX, s, t, 1.0, user_defined=True)
        for s, t in rng.sample(truth, 10):
            wrong = rng.choice([other for other in targets if other != t])
            blackboard.update_cell(MATRIX, s, wrong, 0.0, user_defined=True)
    manager.invoke("harmony", **match)
    matrix = blackboard.get_matrix(MATRIX)
    for row in sorted(matrix.row_ids)[:2]:
        matrix.mark_row_complete(row)
    blackboard.put_matrix(matrix)
    return blackboard, target.name


def canned_queries(target_name):
    return {
        "strong_cells": strong_cells_query(MATRIX, 0.5),
        "user_decided_cells": user_decided_cells_query(MATRIX),
        "undocumented_elements": undocumented_elements_query(target_name),
        "elements_of_kind": elements_of_kind_query(target_name, "attribute"),
    }


class TestRoundBlackboardDifferential:
    def test_blackboard_has_the_round_shape(self, round_blackboard):
        blackboard, _ = round_blackboard
        assert len(blackboard.store) > 2000
        assert blackboard.get_matrix(MATRIX).cell_count() > 250

    @pytest.mark.parametrize("name", [
        "strong_cells", "user_decided_cells", "undocumented_elements",
        "elements_of_kind",
    ])
    def test_planner_equals_oracle(self, round_blackboard, name):
        blackboard, target_name = round_blackboard
        query = canned_queries(target_name)[name]
        planned = evaluate(blackboard.store, query)
        assert planned, "every canned query answers on this blackboard"
        assert solution_multiset(planned) == solution_multiset(
            evaluate_reference(blackboard.store, query))

    def test_matrix_progress_equals_oracle(self, round_blackboard):
        """``matrix_progress`` reads the store directly; its fraction
        equals the one the oracle answers as a BGP."""
        blackboard, _ = round_blackboard
        axis = Variable("axis")
        axes = done = 0
        for predicate in (V.HAS_ROW, V.HAS_COLUMN):
            axes += len(evaluate_reference(
                blackboard.store,
                Query().where(matrix_iri(MATRIX), predicate, axis)))
            done += len(evaluate_reference(
                blackboard.store,
                Query().where(matrix_iri(MATRIX), predicate, axis)
                .where(axis, V.IS_COMPLETE, literal(True))))
        assert done == 2
        assert matrix_progress(blackboard.store, MATRIX) == done / axes


class TestNoTriplePerBinding:
    def test_strong_cells_builds_no_triple(self, round_blackboard, monkeypatch):
        blackboard, _ = round_blackboard
        built = []
        post_init = Triple.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Triple, "__post_init__", counting)
        solutions = evaluate(blackboard.store, strong_cells_query(MATRIX, 0.0))
        assert solutions
        assert built == []


class TestNonNumericConfidence:
    @pytest.fixture
    def blackboard(self, purchase_order_graph, shipping_notice_graph,
                   figure3_matrix):
        ib = IntegrationBlackboard()
        ib.put_schema(purchase_order_graph)
        ib.put_schema(shipping_notice_graph)
        ib.put_matrix(figure3_matrix)
        return ib

    def test_non_numeric_confidence_is_skipped(self, blackboard,
                                               figure3_matrix):
        """A ``"high"`` confidence next to a valid cell's number is not
        strong and does not raise; the valid cells answer as before."""
        before = strong_cells(blackboard.store, figure3_matrix.name)
        cell = next(iter(figure3_matrix.cells()))
        subject = cell_iri(figure3_matrix.name, cell.source_id, cell.target_id)
        blackboard.store.add(subject, V.CONFIDENCE_SCORE, Literal("high"))
        assert strong_cells(blackboard.store, figure3_matrix.name) == before

    def test_cell_with_only_a_non_numeric_confidence(self, blackboard,
                                                     figure3_matrix):
        before = strong_cells(blackboard.store, figure3_matrix.name)
        subject = cell_iri(figure3_matrix.name, "po/extra", "sn/extra")
        blackboard.store.add(matrix_iri(figure3_matrix.name), V.HAS_CELL,
                             subject)
        blackboard.store.add(subject, V.CONFIDENCE_SCORE,
                             Literal("0.9x", XSD_DOUBLE))
        assert strong_cells(blackboard.store, figure3_matrix.name) == before
