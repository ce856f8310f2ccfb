"""Unit tests for repro.text.kernels: caches, bounds, Monge-Elkan edges."""

import pytest

from repro.harmony import MatchContext
from repro.text import kernels
from repro.text import similarity as reference


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts (and leaves) with empty process-wide caches."""
    kernels.clear_caches()
    yield
    kernels.clear_caches()


class TestMongeElkanEdgeCases:
    """Shapes the voters actually produce: single tokens, duplicates,
    lopsided lists — each checked against the reference."""

    CASES = [
        (["name"], ["name"]),                      # single-token lists
        (["name"], ["title"]),
        (["po"], ["po", "line", "number"]),        # asymmetric lengths
        (["a", "b", "c", "d", "e"], ["c"]),
        (["name", "name"], ["name"]),              # duplicate tokens
        (["ship", "ship", "to"], ["to", "ship", "ship"]),
        (["first", "name"], ["name", "first"]),
    ]

    @pytest.mark.parametrize("a,b", CASES)
    def test_matches_reference(self, a, b):
        assert kernels.monge_elkan(a, b) == pytest.approx(
            reference.monge_elkan(a, b), abs=1e-12
        )

    def test_empty_conventions(self):
        assert kernels.monge_elkan([], []) == 1.0
        assert kernels.monge_elkan(["a"], []) == 0.0
        assert kernels.monge_elkan([], ["a"]) == 0.0

    def test_duplicate_tokens_hit_row_cache(self):
        kernels.monge_elkan(["name", "name", "name"], ["title"])
        stats = kernels.cache_stats()["monge_elkan_rows"]
        # first "name" row misses, the two duplicates hit
        assert stats["misses"] >= 1
        assert stats["hits"] >= 2

    def test_custom_base_falls_back_to_reference_path(self):
        calls = []

        def base(x, y):
            calls.append((x, y))
            return 1.0 if x == y else 0.0

        score = kernels.monge_elkan(["a", "b"], ["b"], base=base)
        assert score == pytest.approx(reference.monge_elkan(["a", "b"], ["b"], base=base))
        assert calls  # the custom base really ran


class TestMongeElkanKernel:
    def test_matches_reference_with_custom_base(self):
        def base(x, y):
            return 1.0 if x[0] == y[0] else 0.25

        kernel = kernels.MongeElkanKernel(base)
        for a, b in [(["po", "line"], ["purchase", "order"]), (["x"], ["x", "y"])]:
            assert kernel.similarity(a, b) == pytest.approx(
                reference.monge_elkan(a, b, base=base), abs=1e-12
            )

    def test_memoizes_token_pairs(self):
        calls = []

        def base(x, y):
            calls.append((x, y))
            return 0.5

        kernel = kernels.MongeElkanKernel(base)
        kernel.similarity(["a", "b"], ["c"])
        first = len(calls)
        kernel.similarity(["a", "b"], ["c"])  # fully cached second time
        assert len(calls) == first
        info = kernel.cache_info()
        assert info["pairs"] >= 2 and info["hits"] >= 1

    def test_asymmetric_base_keeps_directions_apart(self):
        def base(x, y):
            return 0.9 if (x, y) == ("a", "b") else 0.1

        kernel = kernels.MongeElkanKernel(base)
        assert kernel.similarity(["a"], ["b"]) == pytest.approx(
            reference.monge_elkan(["a"], ["b"], base=base), abs=1e-12
        )

    def test_clear_resets(self):
        kernel = kernels.MongeElkanKernel(lambda x, y: 1.0)
        kernel.similarity(["a"], ["b"])
        kernel.clear()
        assert kernel.cache_info() == {"pairs": 0, "rows": 0, "hits": 0, "misses": 0}


class TestCacheStatisticsApi:
    def test_clear_zeroes_everything(self):
        kernels.jaro_winkler_similarity("order", "ordre")
        kernels.clear_caches()
        for name, stats in kernels.cache_stats().items():
            assert stats["hits"] == 0 and stats["misses"] == 0, name
            assert stats["size"] == 0, name

    def test_hits_and_misses_count(self):
        kernels.jaro_winkler_similarity("order", "ordre")   # miss
        kernels.jaro_winkler_similarity("order", "ordre")   # hit
        kernels.jaro_winkler_similarity("ordre", "order")   # hit (symmetric key)
        stats = kernels.cache_stats()["token_jw"]
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        assert stats["hit_rate"] == pytest.approx(2 / 3, abs=1e-3)
        assert stats["size"] == 1

    def test_case_variants_share_one_entry(self):
        kernels.jaro_winkler_similarity("Order", "ordre")
        kernels.jaro_winkler_similarity("ORDER", "Ordre")
        assert kernels.cache_stats()["token_jw"]["size"] == 1

    def test_eviction_backstop(self, monkeypatch):
        monkeypatch.setattr(kernels, "MAX_CACHE_ENTRIES", 2)
        kernels.jaro_winkler_similarity("aa", "bb")
        kernels.jaro_winkler_similarity("cc", "dd")
        kernels.jaro_winkler_similarity("ee", "ff")  # overflows, cache resets
        stats = kernels.cache_stats()["token_jw"]
        assert stats["evictions"] >= 1
        assert stats["size"] <= 2
        # values survive an eviction unchanged
        assert kernels.jaro_winkler_similarity("aa", "bb") == pytest.approx(
            reference.jaro_winkler_similarity("aa", "bb"), abs=1e-12
        )

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError, match="unknown measure"):
            kernels.score_pairs([("a", "b")], measure="soundex")

    def test_note_cache_event_feeds_cosine_stats(self):
        kernels.note_cache_event("cosine", hit=False)
        kernels.note_cache_event("cosine", hit=True)
        stats = kernels.cache_stats()["cosine"]
        assert stats == {"hits": 1, "misses": 1, "evictions": 0,
                         "hit_rate": 0.5, "size": 0}


class TestContextCosineCache:
    def test_cosine_memoized_and_invalidated(self, orders_graph, notice_graph):
        """Documentation cosines come from the context's ``all_pairs``
        table: built once, then served; learned word weights rebuild it."""
        context = MatchContext(orders_graph, notice_graph)
        doc_a = context.doc_id(orders_graph, orders_graph.get("orders/customer/first_name"))
        doc_b = context.doc_id(notice_graph, notice_graph.get(
            "notice/shippingNotice/recipientName/firstName"))
        first = context.cosine(doc_a, doc_b)
        table = context.warm_pair_sims()
        assert context.cosine(doc_a, doc_b) == first
        assert context.warm_pair_sims() is table
        assert kernels.cache_stats()["cosine"]["hits"] == 2
        # word-weight learning bumps the revision: the table must rebuild
        context.corpus.adjust_weight("given", 2.0)
        fresh = context.cosine(doc_a, doc_b)
        assert context.warm_pair_sims() is not table
        assert fresh == pytest.approx(context.corpus.cosine(doc_a, doc_b), abs=1e-12)
        assert fresh != first


class TestBoundedKernels:
    def test_jaro_winkler_upper_bound_extremes(self):
        assert kernels.jaro_winkler_upper_bound("same", "same") == 1.0
        assert kernels.jaro_winkler_upper_bound("", "x") == 0.0
        assert kernels.jaro_winkler_upper_bound("", "") == 1.0

    def test_banded_levenshtein_rejects_negative_band(self):
        with pytest.raises(ValueError):
            kernels.levenshtein_distance("a", "b", max_distance=-1)

    def test_band_zero(self):
        assert kernels.levenshtein_distance("same", "same", max_distance=0) == 0
        assert kernels.levenshtein_distance("same", "sane", max_distance=0) == 1
