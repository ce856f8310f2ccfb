"""Golden: the default engine's mapping matrices, frozen.

``golden_engine.json`` pins what ``HarmonyEngine()`` writes into the
mapping matrix, so any change to the one match pipeline — string
measures, TF-IDF cosine, flooding fixpoints, the matrix write — that
moves a confidence fails here.  The golden was frozen from the pipeline
that still scored through the reference implementations — reference
string measures, dict TF-IDF cosine, dict-keyed fixpoints, per-cell
writes — which are now test oracles (``repro.text.similarity``,
``TfIdfCorpus.cosine``, ``tests/oracles``).

Cases:

* one standard-suite scenario per base model, matched cold under each
  flooding mode;
* a scripted five-round session on one scenario — each round the
  engineer accepts the true links and rejects the false ones among the
  twelve strongest undecided suggestions, and the engine re-runs and
  learns — under ``reuse_context`` off and on.

Each case's cell keys are stored once and its confidences in key order.
Cell keys and decisions must be identical; confidences agree to
``TOLERANCE`` (sparse TF-IDF sums in a different order than the dict
cosine did, a last-bit effect).  Regenerate only for an intended change
to the engine's output::

    PYTHONPATH=src python tests/harmony/test_engine_golden.py --regenerate
"""

import json
import os

import pytest

from repro.eval import standard_suite
from repro.harmony import EngineConfig, HarmonyEngine, MatchSession

TOLERANCE = 1e-12

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_engine.json")

SCENARIOS = ("air_traffic@7", "commerce@7", "personnel@7")
FLOODING_MODES = ("off", "classic", "directional")
SESSION_SCENARIO = "commerce@19"
SESSION_ROUNDS = 5
DECISIONS_PER_ROUND = 12
REUSE_MODES = (False, True)


def _scenarios():
    return {scenario.name: scenario for scenario in standard_suite()}


def _cells(matrix):
    """``{(source_id, target_id): (confidence, decision)}`` where
    decision is +1 accepted, -1 rejected, 0 undecided."""
    out = {}
    for cell in matrix.cells():
        decision = 0
        if cell.is_decided:
            decision = 1 if cell.confidence > 0 else -1
        out[cell.pair] = (cell.confidence, decision)
    return out


def _match_runs(scenario):
    runs = {}
    for mode in FLOODING_MODES:
        engine = HarmonyEngine(config=EngineConfig(flooding=mode))
        runs[mode] = _cells(engine.match(scenario.source, scenario.target).matrix)
    return runs


def _session_rounds(scenario, reuse_context):
    engine = HarmonyEngine(config=EngineConfig(reuse_context=reuse_context))
    session = MatchSession(scenario.source, scenario.target, engine=engine)
    truth = set(scenario.alignment.pairs)
    rounds = []
    for _ in range(SESSION_ROUNDS):
        session.run_engine()
        rounds.append(_cells(session.matrix))
        undecided = sorted(session.matrix.undecided(), key=lambda c: -c.confidence)
        for link in undecided[:DECISIONS_PER_ROUND]:
            if link.pair in truth:
                session.accept(*link.pair)
            else:
                session.reject(*link.pair)
    return rounds


def _compute():
    """Every case as ``{case name: [cells of each run]}``."""
    scenarios = _scenarios()
    cases = {}
    for name in SCENARIOS:
        runs = _match_runs(scenarios[name])
        cases[name] = [runs[mode] for mode in FLOODING_MODES]
    for reuse in REUSE_MODES:
        cases[f"{SESSION_SCENARIO} session reuse_context={reuse}"] = (
            _session_rounds(scenarios[SESSION_SCENARIO], reuse))
    return cases


def _encode(cases):
    payload = {}
    for name, runs in cases.items():
        keys = sorted(set().union(*runs))
        index = {key: i for i, key in enumerate(keys)}
        encoded = []
        for cells in runs:
            values = [None] * len(keys)
            decisions = []
            for key, (confidence, decision) in cells.items():
                values[index[key]] = confidence
                if decision:
                    decisions.append([index[key], decision])
            decisions.sort()
            encoded.append({"values": values, "decisions": decisions})
        payload[name] = {"keys": [list(key) for key in keys], "runs": encoded}
    return payload


def _regenerate():
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(_encode(_compute()), handle, separators=(",", ":"))
        handle.write("\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def computed():
    return _encode(_compute())


def _assert_runs_match(want, got):
    assert got["keys"] == want["keys"]
    assert len(got["runs"]) == len(want["runs"])
    for number, (want_run, got_run) in enumerate(zip(want["runs"], got["runs"])):
        assert got_run["decisions"] == want_run["decisions"], f"run {number}"
        present_want = [v is not None for v in want_run["values"]]
        present_got = [v is not None for v in got_run["values"]]
        assert present_got == present_want, f"run {number}: cell keys differ"
        worst = max(
            (abs(a - b) for a, b in zip(want_run["values"], got_run["values"])
             if a is not None),
            default=0.0,
        )
        assert worst <= TOLERANCE, f"run {number}: max |delta| {worst}"


class TestEngineGolden:
    def test_golden_covers_every_case(self, golden):
        assert set(golden) == set(SCENARIOS) | {
            f"{SESSION_SCENARIO} session reuse_context={reuse}"
            for reuse in REUSE_MODES
        }
        assert os.path.getsize(GOLDEN_PATH) < 500_000

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_cold_match_under_every_flooding_mode(self, golden, computed, scenario):
        want, got = golden[scenario], computed[scenario]
        assert len(want["runs"]) == len(FLOODING_MODES)
        assert all(not run["decisions"] for run in want["runs"])
        _assert_runs_match(want, got)

    @pytest.mark.parametrize("reuse", REUSE_MODES)
    def test_refinement_session(self, golden, computed, reuse):
        name = f"{SESSION_SCENARIO} session reuse_context={reuse}"
        want, got = golden[name], computed[name]
        assert len(want["runs"]) == SESSION_ROUNDS
        # every round after the first carries the engineer's decisions
        assert all(run["decisions"] for run in want["runs"][1:])
        _assert_runs_match(want, got)


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
