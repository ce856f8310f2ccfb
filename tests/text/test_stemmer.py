"""Tests for the Porter stemmer against known reference outputs, and
for its process-wide memo."""

import json
import os
import string

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.text import kernels, split_identifier, stem, stem_all
from repro.text.stemmer import porter_stem

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_schema_tokens.json")


class TestKnownStems:
    """Reference pairs from Porter's published vocabulary."""

    @pytest.mark.parametrize(
        "word,expected",
        [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("digitizer", "digit"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("formaliti", "formal"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("homologou", "homolog"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ],
    )
    def test_reference_stem(self, word, expected):
        assert stem(word) == expected


class TestSchemaVocabulary:
    """Stemming unifies the word forms schema matching actually meets."""

    def test_shipping_family(self):
        assert stem("shipping") == stem("shipped") == stem("ships") == "ship"

    def test_order_family(self):
        assert stem("orders") == stem("ordering") == stem("ordered")

    def test_identify_family(self):
        assert stem("identifies") == stem("identified")


class TestEdgeCases:
    def test_short_words_unchanged(self):
        assert stem("a") == "a"
        assert stem("is") == "is"
        assert stem("id") == "id"

    def test_case_folded(self):
        assert stem("Shipping") == "ship"

    def test_stem_all(self):
        assert stem_all(["orders", "shipped"]) == ["order", "ship"]


class TestMemo:
    """``stem`` answers through a process-wide memo that
    ``kernels.clear_caches()`` drops, so a cold match starts cold."""

    @staticmethod
    def golden_words():
        with open(GOLDEN) as handle:
            golden = json.load(handle)
        words = list(golden["tokens"])
        words += [t for tokens in golden["token_lists"] for t in tokens]
        words += [t for name in golden["names"] for t in split_identifier(name)]
        return words

    def test_memo_equals_uncached_on_schema_tokens(self):
        kernels.clear_caches()
        words = self.golden_words()
        assert [stem(w) for w in words] == [porter_stem(w) for w in words]
        # second pass answers from the memo
        assert [stem(w) for w in words] == [porter_stem(w) for w in words]

    @given(st.text(alphabet=string.ascii_letters, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_memo_equals_uncached(self, word):
        assert stem(word) == porter_stem(word)
        assert stem(word) == porter_stem(word)

    def test_clear_caches_empties_the_memo(self):
        stem("shipping")
        assert kernels._stem_cache
        kernels.clear_caches()
        assert not kernels._stem_cache
        assert stem("shipping") == "ship"

    def test_memo_stays_out_of_cache_stats(self):
        """``cache_stats`` covers the similarity caches only; stemming
        moves none of its counters."""
        kernels.clear_caches()
        before = kernels.cache_stats()
        stem_all(["orders", "shipped", "orders"])
        assert kernels.cache_stats() == before
