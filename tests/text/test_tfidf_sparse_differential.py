"""Differential harness: the sparse TF-IDF engine vs the dict reference.

``repro.text.tfidf.TfIdfCorpus`` is the clarity-first reference — one
``{term: weight}`` dict per document, cosine as a per-term dict probe.
``repro.text.tfidf_sparse.SparseTfIdf`` is the packed mirror the match
pipeline runs on: interned term ids, sorted-array vectors, and a
postings index that only ever visits document pairs sharing a term.

As with the string-kernel harness next door, this file is the
correctness argument for scoring only through the sparse engine:
hypothesis-generated corpora plus the frozen golden schema corpus assert
agreement to within ``TOLERANCE`` on every pair, and the postings-driven
``all_pairs`` / ``top_k_similar`` contracts hold exactly, and the
engine's matrix does not move when the context's cosine reads the dict
reference instead.  The frozen matrix golden in
``tests/harmony/test_engine_golden.py`` pins the engine's output on the
standard suite.
"""

import json
import os
import string
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harmony import EngineConfig, HarmonyEngine, MatchContext
from repro.text import SparseTfIdf, TfIdfCorpus
from repro.text.tfidf_sparse import all_pairs_stats, reset_all_pairs_stats

#: the acceptance bound; in practice worst observed drift is ~5e-16
#: (sorted-id merge vs dict-insertion-order float summation)
TOLERANCE = 1e-12

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_schema_tokens.json")

# short lowercase words so hypothesis corpora actually share vocabulary
words = st.text(alphabet=string.ascii_lowercase, min_size=2, max_size=6)
documents = st.lists(words, min_size=0, max_size=12).map(" ".join)
corpora = st.lists(documents, min_size=2, max_size=10)


def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def build(texts):
    corpus = TfIdfCorpus()
    for i, text in enumerate(texts):
        corpus.add_document(f"doc{i}", text)
    return corpus, SparseTfIdf(corpus), [f"doc{i}" for i in range(len(texts))]


class TestHypothesisDifferential:
    @given(corpora)
    @settings(max_examples=80)
    def test_cosine_agrees_on_every_pair(self, texts):
        corpus, sparse, ids = build(texts)
        for a in ids:
            for b in ids:
                assert abs(corpus.cosine(a, b) - sparse.cosine(a, b)) <= TOLERANCE

    @given(corpora)
    @settings(max_examples=60)
    def test_all_pairs_is_total(self, texts):
        """Pairs absent from the table have reference cosine exactly 0.0;
        pairs present agree with the reference."""
        corpus, sparse, ids = build(texts)
        table = sparse.all_pairs()
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                want = corpus.cosine(a, b)
                if (a, b) in table:
                    assert abs(table[(a, b)] - want) <= TOLERANCE
                else:
                    assert want == 0.0, (a, b, want)

    @given(corpora, st.integers(min_value=1, max_value=6))
    @settings(max_examples=60)
    def test_top_k_matches_brute_force(self, texts, k):
        corpus, sparse, ids = build(texts)
        for a in ids:
            got = sparse.top_k_similar(a, k)
            brute = sorted(
                ((corpus.cosine(a, b), b) for b in ids if b != a),
                key=lambda item: (-item[0], item[1]),
            )
            brute = [(doc, sim) for sim, doc in brute if sim > 0.0][:k]
            assert len(got) <= k
            assert [doc for doc, _ in got] == [doc for doc, _ in brute] or all(
                abs(gs - bs) <= TOLERANCE for (_, gs), (_, bs) in zip(got, brute)
            )
            for (gd, gs), (bd, bs) in zip(got, brute):
                assert abs(gs - bs) <= TOLERANCE, (a, gd, bd)

    @given(corpora)
    @settings(max_examples=40)
    def test_group_filter_skips_same_group_pairs(self, texts):
        """With a two-way partition, only cross-group pairs are scored."""
        corpus, sparse, ids = build(texts)
        evens = {doc for i, doc in enumerate(ids) if i % 2 == 0}
        table = sparse.all_pairs(group_of=lambda doc: doc in evens)
        for (a, b), sim in table.items():
            assert (a in evens) != (b in evens)
            assert abs(sim - corpus.cosine(a, b)) <= TOLERANCE


class TestGoldenCorpus:
    """The frozen real-schema corpus: every pair, reference vs sparse."""

    def test_golden_docs_agree_on_every_pair(self):
        data = golden()
        texts = [" ".join(tokens) for tokens in data["token_lists"]]
        texts += data["names"][::2]
        corpus, sparse, ids = build(texts)
        assert sparse.vocabulary_size > 50
        worst = 0.0
        table = sparse.all_pairs()
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                want = corpus.cosine(a, b)
                got = table.get((a, b), 0.0)
                diff = abs(got - want)
                if diff > worst:
                    worst = diff
        assert worst <= TOLERANCE, f"max |sparse - reference| = {worst}"

    def test_golden_norms_positive_for_nonempty_docs(self):
        data = golden()
        texts = [" ".join(tokens) for tokens in data["token_lists"][:40]]
        corpus, sparse, ids = build(texts)
        for doc in ids:
            if corpus.terms(doc):
                assert sparse.norm(doc) > 0.0


class TestInvalidation:
    """The two-level staleness contract the engine's caches rely on."""

    def test_adjust_weight_refreshes_weights_only(self):
        corpus, sparse, ids = build(["alpha beta", "beta gamma", "alpha gamma"])
        before = corpus.cosine(ids[0], ids[1])
        assert abs(sparse.cosine(ids[0], ids[1]) - before) <= TOLERANCE
        builds, refreshes = sparse.structure_builds, sparse.weight_refreshes
        corpus.adjust_weight("beta", 4.0)
        after = corpus.cosine(ids[0], ids[1])
        assert after != before  # the weight change really moved the score
        assert abs(sparse.cosine(ids[0], ids[1]) - after) <= TOLERANCE
        assert sparse.structure_builds == builds  # structure survived
        assert sparse.weight_refreshes == refreshes + 1

    def test_document_replace_bumps_revision_and_rebuilds(self):
        """Regression: replacing a document must invalidate cosine memos.

        ``add_document`` on an existing id previously left ``revision``
        untouched, so sparse vectors (and any revision-keyed cosine memo)
        kept serving the stale text.
        """
        corpus, sparse, ids = build(["alpha beta", "beta gamma"])
        rev = corpus.revision
        stale = sparse.cosine(ids[0], ids[1])
        assert stale > 0.0
        corpus.add_document(ids[0], "delta epsilon")  # replace, no overlap left
        assert corpus.revision == rev + 1
        assert sparse.cosine(ids[0], ids[1]) == 0.0
        assert abs(corpus.cosine(ids[0], ids[1])) <= TOLERANCE

    def test_new_document_extends_vocabulary(self):
        corpus, sparse, ids = build(["alpha beta"])
        assert sparse.vocabulary_size == 2
        corpus.add_document("doc_new", "alpha zeta")
        assert sparse.vocabulary_size == 3
        assert abs(
            sparse.cosine(ids[0], "doc_new") - corpus.cosine(ids[0], "doc_new")
        ) <= TOLERANCE

    def test_stats_shape(self):
        _, sparse, _ = build(["alpha beta", "beta gamma"])
        stats = sparse.stats()
        assert stats["documents"] == 2
        assert stats["vocabulary"] == 3
        assert stats["postings"] == 4
        assert stats["structure_builds"] == 1
        assert stats["weight_refreshes"] == 1


class TestAllPairsBackends:
    """``all_pairs`` has one route, the postings sorted merge, and
    counts every sweep it runs."""

    def test_auto_without_numpy_uses_merge(self):
        _, sparse, ids = build(["alpha beta", "beta gamma"])
        reset_all_pairs_stats()
        table = sparse.all_pairs()
        assert table[(ids[0], ids[1])] > 0.0
        assert all_pairs_stats() == {"allpairs_merge_sweeps": 1}


#: a cold ``match_cold``-shaped op (loader tool, then a ``fast()``
#: matcher tool on a fresh workbench) and a default-config match of the
#: same pair, run in a fresh interpreter
_MATCH_IN_FRESH_PROCESS = """
import json, sys
from repro.harmony import EngineConfig, HarmonyEngine
from repro.loaders import ErModelLoader
from repro.registry import RegistryProfile, generate_registry
from repro.text.tfidf_sparse import all_pairs_stats
from repro.workbench import LoaderTool, MatcherTool, WorkbenchManager

profile = RegistryProfile(model_count=2, elements_per_model=10,
                          attributes_per_element=8,
                          domain_values_per_attribute=0.5)
models = generate_registry(seed=5, scale=1.0, profile=profile,
                           name="pool")["models"]
manager = WorkbenchManager()
manager.register(LoaderTool(ErModelLoader()))
manager.register(MatcherTool(HarmonyEngine(config=EngineConfig.fast())))
for name, model in zip(("source", "target"), models):
    manager.invoke("load-er", text=json.dumps(model), schema_name=name)
matrix = manager.invoke("harmony", source_schema="source",
                        target_schema="target")
default = HarmonyEngine().match(manager.blackboard.get_schema("source"),
                                manager.blackboard.get_schema("target"))
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "sweeps": all_pairs_stats()["allpairs_merge_sweeps"],
    "cells": [matrix.cell_count(), default.matrix.cell_count()],
}))
"""


class TestDependencyFree:
    def test_a_match_does_not_import_numpy(self):
        """The documentation sweep, and every other stage of a default
        or ``fast()`` match, runs on the standard library alone."""
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", _MATCH_IN_FRESH_PROCESS],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True)
        result = json.loads(out.stdout)
        assert result["sweeps"] == 2
        assert min(result["cells"]) > 0
        assert result["numpy"] is False


def _dict_cosine(context, doc_a, doc_b):
    return context.corpus.cosine(doc_a, doc_b)


class TestEngineEquivalence:
    """The engine scores documentation through the sparse ``all_pairs``
    table; with the context's cosine pointed at the dict reference
    instead, not a single confidence may move."""

    def _cells(self, orders_graph, notice_graph):
        run = HarmonyEngine().match(orders_graph, notice_graph)
        return {(c.source_id, c.target_id): c.confidence
                for c in run.matrix.cells()}

    def test_sparse_run_matrix_identical(self, orders_graph, notice_graph, monkeypatch):
        sparse_cells = self._cells(orders_graph, notice_graph)
        monkeypatch.setattr(MatchContext, "cosine", _dict_cosine)
        plain_cells = self._cells(orders_graph, notice_graph)
        assert plain_cells.keys() == sparse_cells.keys()
        for pair, confidence in plain_cells.items():
            assert abs(confidence - sparse_cells[pair]) <= TOLERANCE, pair

    def test_sparse_composes_with_kernels(self, orders_graph, notice_graph, monkeypatch):
        """Both reference scorers at once: dict cosine and the reference
        string measures."""
        from repro.harmony.voters import name, structure
        from repro.text import similarity

        production = self._cells(orders_graph, notice_graph)
        monkeypatch.setattr(MatchContext, "cosine", _dict_cosine)
        monkeypatch.setattr(name, "kernels", similarity)
        monkeypatch.setattr(structure, "kernels", similarity)
        plain_cells = self._cells(orders_graph, notice_graph)
        assert plain_cells.keys() == production.keys()
        for pair, want in plain_cells.items():
            assert abs(production[pair] - want) <= TOLERANCE

    def test_fast_preset_enables_sparse_tfidf(self, orders_graph, notice_graph):
        """No configuration routes around the sparse engine: the default
        and the ``fast()`` engine both run one ``all_pairs`` sweep."""
        for config in (EngineConfig(), EngineConfig.fast()):
            reset_all_pairs_stats()
            HarmonyEngine(config=config).match(orders_graph, notice_graph)
            assert all_pairs_stats()["allpairs_merge_sweeps"] == 1
