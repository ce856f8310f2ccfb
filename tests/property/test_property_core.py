"""Property-based tests for the core model and matching machinery."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Correspondence,
    ElementKind,
    MappingMatrix,
    SchemaElement,
    SchemaGraph,
    VoterScore,
    clamp_confidence,
    top_correspondences,
)
from repro.harmony import VoteMerger, directional_flooding_compiled
from repro.instances import link_records, LinkageConfig

names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
confidences = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


class TestConfidenceProperties:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_clamp_always_legal(self, value):
        assert -1.0 <= clamp_confidence(value) <= 1.0

    @given(confidences)
    def test_suggest_keeps_value(self, confidence):
        link = Correspondence("a", "b")
        link.suggest(confidence)
        assert link.confidence == confidence

    @given(confidences)
    def test_decided_links_immune_to_suggestions(self, confidence):
        link = Correspondence("a", "b").accept()
        link.suggest(confidence)
        assert link.confidence == 1.0


class TestMergerProperties:
    @given(st.lists(
        st.tuples(names, confidences), min_size=1, max_size=8,
    ))
    def test_merged_within_extremes(self, votes):
        """The merged score is a weighted mean: it stays within the span of
        the non-abstaining votes (clamped to the machine range)."""
        merger = VoteMerger()
        scores = [VoterScore(f"v{i}", "a", "b", s) for i, (_, s) in enumerate(votes)]
        merged = merger.merge_pair(scores)
        non_zero = [v.score for v in scores if v.score != 0.0]
        if not non_zero:
            assert merged == 0.0
        else:
            # the span of the votes, each clamped into the machine range
            def clamp(value):
                return max(-0.99, min(0.99, value))

            lo, hi = clamp(min(non_zero)), clamp(max(non_zero))
            assert lo - 1e-9 <= merged <= hi + 1e-9

    @given(st.lists(st.tuples(names, confidences), max_size=8))
    def test_merge_order_invariant(self, votes):
        merger = VoteMerger()
        scores = [VoterScore(f"v{i}", "a", "b", s) for i, (_, s) in enumerate(votes)]
        forward = merger.merge_pair(scores)
        backward = merger.merge_pair(list(reversed(scores)))
        assert abs(forward - backward) < 1e-9  # FP summation order only


class TestTopCorrespondenceProperties:
    @given(st.lists(st.tuples(names, names, confidences), max_size=20))
    def test_top_is_subset_with_max_per_source(self, raw):
        deduped = {(s, t): c for s, t, c in raw}
        links = [Correspondence(s, t, confidence=c) for (s, t), c in deduped.items()]
        top = top_correspondences(links, per_source=True)
        best = {}
        for link in links:
            best[link.source_id] = max(best.get(link.source_id, -2.0), link.confidence)
        for link in top:
            assert link.confidence == best[link.source_id]


class TestFloodingProperties:
    def _graphs(self):
        def build(name):
            graph = SchemaGraph.create(name)
            graph.add_child(name, SchemaElement(f"{name}/E", "E", ElementKind.ENTITY),
                            label="contains-element")
            for attr in ("p", "q"):
                graph.add_child(
                    f"{name}/E",
                    SchemaElement(f"{name}/E/{attr}", attr, ElementKind.ATTRIBUTE))
            return graph

        return build("s"), build("t")

    @given(st.dictionaries(
        st.sampled_from([
            ("s/E", "t/E"), ("s/E/p", "t/E/p"), ("s/E/p", "t/E/q"),
            ("s/E/q", "t/E/p"), ("s/E/q", "t/E/q"),
        ]),
        confidences,
        max_size=5,
    ))
    @settings(max_examples=50)
    def test_directional_flooding_stays_in_range(self, scores):
        source, target = self._graphs()
        adjusted = directional_flooding_compiled(source, target, scores)
        assert set(adjusted) == set(scores)
        for value in adjusted.values():
            assert -1.0 <= value <= 1.0


class TestMatrixProperties:
    @given(st.lists(st.tuples(names, names, confidences), max_size=20))
    def test_progress_in_unit_interval(self, cells):
        matrix = MappingMatrix()
        for source, target, confidence in cells:
            matrix.add_row(source)
            matrix.add_column(target)
            matrix.set_confidence(source, target, confidence)
        assert 0.0 <= matrix.progress() <= 1.0
        for row in matrix.row_ids:
            matrix.mark_row_complete(row)
        for column in matrix.column_ids:
            matrix.mark_column_complete(column)
        assert matrix.is_complete


class TestLinkageProperties:
    records_strategy = st.lists(
        st.fixed_dictionaries({
            "name": names,
            "city": st.sampled_from(["mclean", "vienna", "reston"]),
        }),
        max_size=12,
    )

    @given(records_strategy, st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=40)
    def test_clusters_partition_records(self, records, threshold):
        result = link_records(records, LinkageConfig(threshold=threshold))
        flat = sorted(i for cluster in result.clusters for i in cluster)
        assert flat == list(range(len(records)))

    @given(records_strategy)
    @settings(max_examples=30)
    def test_higher_threshold_never_merges_more(self, records):
        loose = link_records(records, LinkageConfig(threshold=0.5))
        strict = link_records(records, LinkageConfig(threshold=0.95))
        assert strict.duplicates_removed <= loose.duplicates_removed
