import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import classify_bruteforce
from simreg.errors import InvalidInputError
from simreg.labelmap import (
    LabelMapping,
    classify,
    encode,
    nearest_class,
)

FOUR = LabelMapping(
    ["irrelevant", "slightly relevant", "moderately relevant", "highly relevant"],
    0.0,
    1.0,
)
NLI = LabelMapping(["contradiction", "neutral", "entailment"], 0.0, 1.0)
TWO = LabelMapping(["low", "high"], 0.0, 0.5)


class TestBuildMapping:
    def test_four_consecutive_integers(self):
        assert FOUR.nodes == (0.0, 1.0, 2.0, 3.0)
        assert FOUR.d == 1.0

    def test_nli_trio(self):
        assert NLI.nodes == (0.0, 1.0, 2.0)

    def test_non_integer_nodes(self):
        assert TWO.nodes == (0.0, 0.5)
        assert TWO.d == 0.5

    def test_integer_start_and_interval_give_float_nodes(self):
        mapping = LabelMapping(["a", "b", "c"], 0, 1)
        assert [type(n) for n in mapping.nodes] == [float] * 3
        assert type(mapping.d) is float
        assert type(encode(mapping, "a")) is float
        assert json.dumps(mapping.to_json_dict()["start"]) == "0.0"

    def test_needs_two_categories(self):
        with pytest.raises(InvalidInputError):
            LabelMapping(["only"], 0.0, 1.0)

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(InvalidInputError):
            LabelMapping(["a", "b"], 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            LabelMapping(["a", "b"], 0.0, -1.0)

    @pytest.mark.parametrize("start, d", [
        (float("nan"), 1.0), (float("inf"), 1.0), (-float("inf"), 1.0),
        (0.0, float("nan")), (0.0, float("inf")),
    ])
    def test_rejects_non_finite_start_or_interval(self, start, d):
        with pytest.raises(InvalidInputError, match="finite"):
            LabelMapping(["a", "b"], start, d)
        with pytest.raises(InvalidInputError, match="finite"):
            LabelMapping.from_json_dict(
                {"categories": ["a", "b"], "start": start, "interval": d})

    def test_decreasing_nodes_rejected(self):
        with pytest.raises(InvalidInputError, match="positive"):
            LabelMapping(("a", "b"), 1.0, -1.0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidInputError, match="unique"):
            LabelMapping(("a", "b", "a"), 0.0, 1.0)

    def test_nodes_are_derived_from_start_and_interval(self):
        mapping = LabelMapping(("a", "b", "c"), 1, 0.1)
        assert (mapping.start, mapping.d) == (1.0, 0.1)
        assert mapping.nodes == (1.0, 1.0 + 0.1, 1.0 + 2 * 0.1)


class TestEncodeDecode:
    def test_entailment_encodes_to_two(self):
        assert encode(NLI, "entailment") == 2.0

    def test_round_trip(self):
        for i, category in enumerate(NLI.categories):
            assert encode(NLI, category) == NLI.nodes[i]
            assert classify(NLI, NLI.nodes[i]) == category

    def test_unknown_category(self):
        with pytest.raises(InvalidInputError):
            encode(NLI, "paraphrase")


class TestClassify:
    def test_near_top_node(self):
        assert classify(FOUR, 2.875) == "highly relevant"

    def test_rounds_down_to_one(self):
        assert classify(FOUR, 1.333) == "slightly relevant"

    def test_midpoint_rounds_half_up(self):
        assert classify(FOUR, 1.5) == "moderately relevant"

    def test_beyond_terminals_clamps(self):
        assert classify(FOUR, 7.3) == "highly relevant"
        assert classify(FOUR, -2.0) == "irrelevant"

    def test_idempotent_on_nodes(self):
        for cat, node in zip(FOUR.categories, FOUR.nodes):
            assert classify(FOUR, node) == cat

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            classify(FOUR, float("nan"))

    @given(st.floats(-2.0, 5.0))
    def test_agrees_with_bruteforce_scan(self, prediction):
        assert classify(FOUR, prediction) == classify_bruteforce(FOUR, prediction)

    @given(st.floats(-1.0, 2.0))
    def test_agrees_with_bruteforce_on_half_interval_nodes(self, prediction):
        assert classify(TWO, prediction) == classify_bruteforce(TWO, prediction)

    @given(st.floats(-2.0, 5.0), st.floats(0.0, 7.0))
    def test_monotone_step_function(self, p, delta):
        lower = FOUR.categories.index(classify(FOUR, p))
        upper = FOUR.categories.index(classify(FOUR, p + delta))
        assert lower <= upper


def predictions(mapping):
    """Floats across and beyond the node range, with nodes and exact midpoints."""
    span = mapping.high - mapping.low
    exact = list(mapping.nodes) + [a + mapping.d / 2 for a in mapping.nodes[:-1]]
    return st.lists(st.one_of(st.floats(mapping.low - span, mapping.high + span),
                              st.sampled_from(exact)), max_size=20)


class TestElementwise:
    @given(st.sampled_from([FOUR, NLI, TWO]).flatmap(lambda m: st.tuples(
        st.just(m), predictions(m), st.lists(st.sampled_from(m.categories)))))
    def test_arrays_match_per_entry_results(self, case):
        mapping, preds, names = case
        rounded = classify(mapping, np.array(preds, dtype=float))
        assert list(rounded) == [classify(mapping, p) for p in preds]
        assert list(rounded) == [classify_bruteforce(mapping, p) for p in preds]
        assert list(encode(mapping, names)) == [encode(mapping, n) for n in names]
        assert list(mapping.index(names)) == [mapping.index(n) for n in names]

    @given(st.sampled_from([FOUR, NLI, TWO]).flatmap(
        lambda m: st.tuples(st.just(m), predictions(m))))
    def test_nearest_class_indexes_the_classified_category(self, case):
        mapping, preds = case
        classes = nearest_class(mapping, np.array(preds, dtype=float))
        assert classes.dtype == np.intp
        assert [mapping.categories[i] for i in classes] == [
            classify_bruteforce(mapping, p) for p in preds]
        for p, i in zip(preds, classes.tolist(), strict=True):
            assert type(nearest_class(mapping, p)) is int
            assert nearest_class(mapping, p) == i

    def test_non_finite_entry_rejected(self):
        with pytest.raises(InvalidInputError):
            classify(FOUR, [0.5, float("inf"), 1.0])

    def test_unknown_name_in_a_sequence_rejected(self):
        with pytest.raises(InvalidInputError, match="paraphrase"):
            encode(NLI, ["neutral", "paraphrase"])


class TestCorrectnessRadius:
    def test_interior_nodes_classified_within_radius(self):
        radius = FOUR.d / 2.0
        for i in (1, 2):  # interior nodes
            node = FOUR.nodes[i]
            for eps in (0.0, 0.1, 0.25, 0.49, radius - 1e-9):
                assert classify(FOUR, node + eps) == FOUR.categories[i]
                assert classify(FOUR, node - eps) == FOUR.categories[i]


class TestSerialization:
    def test_json_document_shape(self):
        doc = FOUR.to_json_dict()
        assert set(doc) == {"categories", "start", "interval"}
        assert doc["start"] == 0.0 and doc["interval"] == 1.0

    def test_round_trip(self):
        doc = json.loads(json.dumps(TWO.to_json_dict()))
        again = LabelMapping.from_json_dict(doc)
        assert again == TWO

    @given(st.floats(-10.0, 10.0), st.floats(1e-3, 10.0), st.integers(2, 6))
    @example(1.0, 0.1, 4)
    def test_json_round_trip_keeps_the_nodes(self, start, interval, n):
        mapping = LabelMapping([f"c{i}" for i in range(n)], start, interval)
        doc = json.loads(json.dumps(mapping.to_json_dict()))
        assert (doc["start"], doc["interval"]) == (start, interval)
        again = LabelMapping.from_json_dict(doc)
        assert again == mapping and again.nodes == mapping.nodes
