import dataclasses
import json
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import dedup_bruteforce, parse_tsv_per_line
from simreg.data import (
    NLI_CATEGORIES,
    Dataset,
    SentencePair,
    dedup_filter,
    load_tsv,
    merge,
    positive_pairs_dataset,
    rescale_sick,
    rescale_sick_dataset,
    save_tsv,
    split_tsv,
    write_removal_audit,
)
from simreg.errors import DataFormatError, InvalidInputError


def cont(name, rows, score_range=(0.0, 5.0)):
    pairs = tuple(SentencePair(s1, s2, score=r) for r, s1, s2 in rows)
    return Dataset(name, pairs, score_range=score_range)


# Train/test overlap fixture: one same-order duplicate and one swapped-order
# duplicate, both with scores that differ between the two sides.
TRAIN = cont(
    "train",
    [
        (4.1, "a cyclist balances on the rear wheel", "someone rides a bike on one wheel"),
        (4.3, "a gray cat naps on the windowsill", "the cat is sleeping by the window"),
        (2.0, "children play football in the park", "a match happens on a field"),
        (1.0, "the chef slices onions", "a pianist performs on stage"),
    ],
)
TESTS = [
    cont(
        "test-a",
        [
            (3.7, "someone rides a bike on one wheel", "a cyclist balances on the rear wheel"),
            (1.5, "rain falls on the quiet street", "an umbrella is opened"),
        ],
    ),
    cont(
        "test-b",
        [
            (3.6, "a gray cat naps on the windowsill", "the cat is sleeping by the window"),
        ],
    ),
]


# the fields a SentencePair and a RemovedPair share
PAIR_FIELDS = attrgetter("s1", "s2", "score", "label")


class TestLoadSave:
    def test_parses_scores_and_sentences(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("4.1\tA man walks.\tThe man is walking.\n", encoding="utf-8")
        ds = load_tsv(path)
        assert len(ds) == 1
        assert ds.pairs[0].score == 4.1
        assert ds.pairs[0].s1 == "A man walks."

    def test_empty_file_gives_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        assert len(load_tsv(path)) == 0

    def test_short_line_reported_with_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("4.1\tok\tok\n3.0\tonly-two-fields\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="bad.tsv:2"):
            load_tsv(path)

    def test_non_numeric_score_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("high\ta\tb\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=":1"):
            load_tsv(path)

    def test_out_of_range_score_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("7.5\ta\tb\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_tsv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_tsv(tmp_path / "absent.tsv")

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.tsv"
        path.write_bytes(b"4.1\tcaf\xe9\tok\n")
        with pytest.raises(DataFormatError, match="UTF-8"):
            load_tsv(path)

    @pytest.mark.parametrize("content, reading", [
        ("3.5\ta man sings\tsomeone sings\n1.0\ta\tb\n", {}),
        ("entailment\ta man sings\tsomeone sings\nneutral\ta\tb\n",
         {"categories": NLI_CATEGORIES}),
    ], ids=["scores", "labels"])
    def test_byte_order_mark_is_dropped(self, tmp_path, content, reading):
        plain, marked = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
        plain.write_text(content, encoding="utf-8")
        marked.write_text(content, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert load_tsv(marked, **reading).pairs == load_tsv(plain, **reading).pairs
        # only the first: a second mark opens the first field
        marked.write_text("\ufeff" + content, encoding="utf-8-sig")
        with pytest.raises(DataFormatError, match="bom.tsv:1"):
            load_tsv(marked, **reading)

    def test_byte_order_mark_counts_in_a_decoding_error(self, tmp_path):
        path = tmp_path / "bom.tsv"
        path.write_bytes(b"\xef\xbb\xbf4.1\tcaf\xe9\tok\n")
        with pytest.raises(DataFormatError, match="byte 0xe9 in position 10"):
            load_tsv(path)

    def test_extra_fields_ignored(self, tmp_path):
        path = tmp_path / "wide.tsv"
        path.write_text("2.5\tleft\tright\tannotation\textra\n", encoding="utf-8")
        ds = load_tsv(path)
        assert ds.pairs[0] == SentencePair("left", "right", score=2.5)

    def test_nan_score_rejected(self, tmp_path):
        path = tmp_path / "nan.tsv"
        path.write_text("nan\ta\tb\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_tsv(path)

    def test_categorical_loading(self, tmp_path):
        path = tmp_path / "nli.tsv"
        path.write_text(
            "entailment\ta man sings\tsomeone makes music\n"
            "contradiction\ta man sings\tnobody is singing\n",
            encoding="utf-8",
        )
        ds = load_tsv(path, categories=("contradiction", "neutral", "entailment"))
        assert ds.is_categorical and ds.pairs[0].label == "entailment"
        with pytest.raises(DataFormatError):
            load_tsv(path, categories=("yes", "no"))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.tsv"
        save_tsv(TRAIN, path)
        again = load_tsv(path, name=TRAIN.name)
        assert again.pairs == TRAIN.pairs
        assert again.score_range == TRAIN.score_range

    # str.splitlines breaks a line at each of these; a TSV line does not
    @pytest.mark.parametrize("separator", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_round_trip_keeps_other_line_separators_in_a_sentence(self, tmp_path,
                                                                  separator):
        path = tmp_path / "out.tsv"
        ds = cont("d", [(1.0, f"e{separator}f", "g"), (2.0, "h", f"{separator}i")])
        save_tsv(ds, path)
        assert load_tsv(path, name="d").pairs == ds.pairs

    def test_lines_end_at_newline_crlf_or_cr(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_bytes(b"1.0\ta\tb\r\n2.0\tc\td\r3.0\te\tf\n4.0\tg\th")
        assert [p.s1 for p in load_tsv(path).pairs] == ["a", "c", "e", "g"]
        path.write_bytes(b"1.0\ta\tb\r\n\r\n")
        with pytest.raises(DataFormatError, match="d.tsv:2: .* got 1"):
            load_tsv(path)

    @pytest.mark.parametrize("field", ["s1", "s2", "label"])
    @pytest.mark.parametrize("char", ["\t", "\n", "\r"])
    def test_save_rejects_a_field_no_line_can_carry(self, tmp_path, field, char):
        pair = SentencePair("a", "b", label="yes")
        ds = Dataset("d", (dataclasses.replace(pair, **{field: f"x{char}y"}),),
                     categories=("yes", f"x{char}y"))
        with pytest.raises(InvalidInputError, match="d: pair 1 has a tab or line end"):
            save_tsv(ds, tmp_path / "out.tsv")
        assert not (tmp_path / "out.tsv").exists()


# first fields: labels, unknown labels, scores in and out of range, and
# strings that Python's float reads ("0_5", " 4.1 ", "nan") or does not
SCORES = ["0", "1.5", "4.1", "5", " 4.1 ", "0_5", "1e0", "-0.0"]
OTHER_FIELDS = ["maybe", "", "nan", "inf", "-inf", "7.5", "-1", "high"]
SENTENCES = st.text(alphabet="ab \x0c\x85\u2028é", max_size=4)
READINGS = [{"categories": NLI_CATEGORIES}, {}, {"score_range": (1, 5)},
            {"score_range": (-1.0, 0.5)}]


@st.composite
def tsv_files(draw):
    """A reading and the bytes of a TSV file: up to 6 lines of 1 to 5
    fields (3 most often) whose first field is mostly what the reading
    takes, each ended by "\\n", "\\r\\n" or "\\r", the last one with
    or without its end, sometimes a UTF-8 byte-order mark first, and
    sometimes a byte that is not UTF-8 somewhere."""
    reading = draw(st.sampled_from(READINGS))
    good = list(reading.get("categories", SCORES))
    firsts = st.sampled_from(good * 4 + SCORES + list(NLI_CATEGORIES) + OTHER_FIELDS)
    lines, ends = [], []
    for _ in range(draw(st.integers(0, 6))):
        n_sentences = draw(st.sampled_from([2] * 8 + [0, 1, 3, 4]))
        fields = [draw(firsts)]
        fields += draw(st.lists(SENTENCES, min_size=n_sentences, max_size=n_sentences))
        lines.append("\t".join(fields))
        ends.append(draw(st.sampled_from(["\n", "\r\n", "\r"])))
    if lines and draw(st.booleans()):
        ends[-1] = ""
    raw = "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")
    if draw(st.sampled_from([False] * 7 + [True])):
        raw = "\ufeff".encode("utf-8") + raw
    if draw(st.sampled_from([False] * 7 + [True])):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw, reading


def split_then_parse(raw, path, **reading):
    return split_tsv(raw, path).dataset(**reading)


def parsed(parse, raw, reading):
    """What parse makes of raw: the dataset's name, declarations and pairs
    (scores by repr, so -0.0 is told from 0.0), or its error message."""
    try:
        ds = parse(raw, "corpora/dev.tsv", **reading)
    except DataFormatError as exc:
        return str(exc)
    return (ds.name, ds.score_range, ds.categories,
            [(p.s1, p.s2, repr(p.score), p.label) for p in ds.pairs])


class TestColumnParse:
    @settings(max_examples=400)
    @given(tsv_files())
    # two bad lines, where checking one column before the other would name
    # the second: a range error before a short line, a short line before an
    # unknown label, a bad number before a range error
    @example((b"7.5\ta\tb\n1.0\tc\n", {}))
    @example((b"neutral\ta\n\nmaybe\tb\tc\n", {"categories": NLI_CATEGORIES}))
    @example((b"1.0\ta\tb\nhigh\tc\td\r\nnan\te\tf", {}))
    @example((b"", {}))
    @example((b"\xff", {"categories": NLI_CATEGORIES}))
    def test_matches_the_per_line_reader(self, file):
        raw, reading = file
        assert (parsed(split_then_parse, raw, reading)
                == parsed(parse_tsv_per_line, raw, reading))

    def test_columns_are_read_only_and_typed(self):
        scored = split_tsv(b"4.1\ta\tb\n0_5\tc\td\n", "s.tsv").dataset()
        labelled = split_tsv(b"neutral\ta\tb\nentailment\tc\td\n", "l.tsv").dataset(
            categories=NLI_CATEGORIES)
        assert scored.values.dtype == np.float64 and scored.values.tolist() == [4.1, 5.0]
        assert labelled.values.dtype == np.intp and labelled.values.tolist() == [1, 2]
        for ds in (scored, labelled):
            assert ds.s1 == ("a", "c") and ds.s2 == ("b", "d")
            assert ds.texts == ["a", "b", "c", "d"]
            with pytest.raises(ValueError, match="read-only"):
                ds.values[0] = 0

    def test_records_round_trip_through_columns(self):
        assert Dataset("t", TRAIN.pairs, score_range=TRAIN.score_range).pairs == TRAIN.pairs
        pairs = (SentencePair("a", "b", label="y"), SentencePair("c", "d", label="x"))
        ds = Dataset("c", pairs, categories=("x", "y"))
        assert ds.values.tolist() == [1, 0] and ds.pairs == pairs


class TestDedupFilter:
    def test_removes_both_orientations_despite_scores(self):
        filtered, removed = dedup_filter(TRAIN, TESTS)
        assert len(filtered) == 2
        assert len(removed) == 2
        removed_s1 = {r.s1 for r in removed}
        assert "a cyclist balances on the rear wheel" in removed_s1  # swapped order
        assert "a gray cat naps on the windowsill" in removed_s1  # same order
        assert {r.test_name for r in removed} == {"test-a", "test-b"}

    def test_disjoint_corpora_untouched(self):
        other = cont("other", [(2.2, "totally new", "never seen")])
        filtered, removed = dedup_filter(other, TESTS)
        assert filtered.pairs == other.pairs
        assert removed == []

    def test_matches_bruteforce_scan(self):
        filtered, removed = dedup_filter(TRAIN, TESTS)
        kept_idx, removed_idx = dedup_bruteforce(TRAIN, TESTS)
        assert [TRAIN.pairs[i] for i in kept_idx] == list(filtered.pairs)
        assert ([PAIR_FIELDS(TRAIN.pairs[i]) for i in removed_idx]
                == [PAIR_FIELDS(r) for r in removed])

    def test_partition_and_idempotence(self):
        filtered, removed = dedup_filter(TRAIN, TESTS)
        assert len(filtered) + len(removed) == len(TRAIN)
        again, removed_again = dedup_filter(filtered, TESTS)
        assert again.pairs == filtered.pairs and removed_again == []

    def test_a_pair_in_two_test_sets_names_the_first(self):
        train = cont("t", [(1.0, "x", "y"), (2.0, "p", "q")])
        tests = [cont("first", [(1.0, "p", "q")]),
                 cont("second", [(1.0, "y", "x"), (2.0, "p", "q")])]
        _, removed = dedup_filter(train, tests)
        assert [(r.s1, r.test_name) for r in removed] == [("x", "second"),
                                                         ("p", "first")]

    def test_trims_edge_whitespace_only(self):
        train = cont("t", [(1.0, "  spaced out  ", "other side"),
                           (1.0, "CASE MATTERS", "other side")])
        tests = [cont("q", [(2.0, "spaced out", "other side"),
                            (2.0, "case matters", "other side")])]
        filtered, removed = dedup_filter(train, tests)
        assert len(removed) == 1  # whitespace trimmed, case not folded
        assert filtered.pairs[0].s1 == "CASE MATTERS"

    def test_duplicates_within_training_kept(self):
        train = cont("t", [(1.0, "twin", "pair"), (3.0, "twin", "pair")])
        filtered, removed = dedup_filter(train, [cont("q", [(1.0, "x", "y")])])
        assert len(filtered) == 2 and removed == []

    @given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")),
                    max_size=8),
           st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")),
                    max_size=8))
    def test_random_fixtures_match_bruteforce(self, train_keys, test_keys):
        train = cont("t", [(1.0, a, b) for a, b in train_keys])
        tests = [cont("q", [(2.0, a, b) for a, b in test_keys])]
        filtered, removed = dedup_filter(train, tests)
        kept_idx, removed_idx = dedup_bruteforce(train, tests)
        assert len(filtered) == len(kept_idx)
        assert len(removed) == len(removed_idx)
        assert len(filtered) + len(removed) == len(train)

    def test_audit_file_names_matching_test(self, tmp_path):
        _, removed = dedup_filter(TRAIN, TESTS)
        path = tmp_path / "removed.jsonl"
        write_removal_audit(removed, path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 2
        assert all({"s1", "s2", "score", "matched_test"} == set(l) for l in lines)

    def test_audit_lines_hold_the_label_or_the_score(self, tmp_path):
        labelled = Dataset("t", (SentencePair("p", "q", label="y"),
                                 SentencePair("x", "w", label="x")),
                           categories=("x", "y"))
        scored = cont("s", [(2.5, "q", "p")])
        _, removed = dedup_filter(labelled, [cont("q", [(1.0, "q", "p")])])
        _, more = dedup_filter(scored, [cont("q", [(1.0, "q", "p")])])
        path = tmp_path / "removed.jsonl"
        write_removal_audit(removed + more, path)
        assert path.read_text() == (
            '{"label": "y", "matched_test": "q", "s1": "p", "s2": "q"}\n'
            '{"matched_test": "q", "s1": "q", "s2": "p", "score": 2.5}\n')


class TestRescale:
    def test_endpoints(self):
        assert rescale_sick(1.0) == 0.0
        assert rescale_sick(5.0) == 5.0

    def test_midpoint(self):
        assert rescale_sick(3.0) == 2.5

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            rescale_sick(0.5)
        with pytest.raises(InvalidInputError):
            rescale_sick(5.1)

    @given(st.floats(1.0, 5.0), st.floats(1.0, 5.0))
    def test_affine_and_increasing(self, a, b):
        if a < b:
            assert rescale_sick(a) < rescale_sick(b)
        mid = rescale_sick((a + b) / 2.0)
        assert mid == pytest.approx((rescale_sick(a) + rescale_sick(b)) / 2.0)

    def test_dataset_rescale(self):
        ds = cont("sick", [(1.0, "a", "b"), (5.0, "c", "d")], score_range=(1.0, 5.0))
        out = rescale_sick_dataset(ds)
        assert out.score_range == (0.0, 5.0)
        assert [p.score for p in out.pairs] == [0.0, 5.0]


class TestMerge:
    def test_sizes_add(self):
        a = cont("a", [(1.0, "p", "q"), (2.0, "r", "s"), (3.0, "t", "u")])
        b = cont("b", [(4.0, "v", "w"), (5.0, "x", "y")])
        merged = merge([a, b])
        assert len(merged) == 5
        assert merged.pairs[:3] == a.pairs  # order preserved dataset by dataset

    def test_empty_merge(self):
        assert len(merge([])) == 0

    def test_range_mismatch_rejected(self):
        a = cont("a", [(1.0, "p", "q")])
        b = cont("b", [(1.5, "r", "s")], score_range=(1.0, 5.0))
        with pytest.raises(InvalidInputError):
            merge([a, b])

    def test_categorical_merge(self):
        cats = ("x", "y")
        a = Dataset("a", (SentencePair("p", "q", label="x"),), categories=cats)
        b = Dataset("b", (SentencePair("r", "s", label="y"),), categories=cats)
        merged = merge([a, b])
        assert len(merged) == 2 and merged.categories == cats


class TestPositivePairs:
    def test_inclusive_threshold(self):
        ds = cont("d", [(3.9, "a", "b"), (4.0, "c", "d"), (4.7, "e", "f")])
        kept = positive_pairs_dataset(ds, threshold=4.0)
        assert [(p.s1, p.s2) for p in kept.pairs] == [("c", "d"), ("e", "f")]

    def test_threshold_above_max(self):
        ds = cont("d", [(3.9, "a", "b")])
        assert len(positive_pairs_dataset(ds, threshold=4.5)) == 0

    def test_categorical_rejected(self):
        ds = Dataset("c", (SentencePair("a", "b", label="x"),), categories=("x",))
        with pytest.raises(InvalidInputError):
            positive_pairs_dataset(ds)


class TestFromColumns:
    @pytest.mark.parametrize("score", [9.5, -1.0, float("nan")])
    def test_score_outside_the_range_rejected(self, score):
        with pytest.raises(InvalidInputError,
                           match=rf"^d: score {score} outside \[0.0, 5.0\]$"):
            Dataset.from_columns("d", [1.0, score, 6.0], "abc", "def",
                                 score_range=(0.0, 5.0))

    @pytest.mark.parametrize("index", [-1, 2, 7])
    def test_category_index_outside_the_categories_rejected(self, index):
        with pytest.raises(InvalidInputError,
                           match=rf"^d: category index {index} outside \[0, 2\)$"):
            Dataset.from_columns("d", [1, index, -5], "abc", "def", categories=("x", "y"))

    def test_bounds_are_accepted(self):
        scored = Dataset.from_columns("d", [0.0, 5.0], "ab", "cd", score_range=(0.0, 5.0))
        labelled = Dataset.from_columns("d", [0, 1], "ab", "cd", categories=("x", "y"))
        assert [p.score for p in scored.pairs] == [0.0, 5.0]
        assert [p.label for p in labelled.pairs] == ["x", "y"]


class TestSentencePair:
    def test_exactly_one_of_score_label(self):
        with pytest.raises(InvalidInputError):
            SentencePair("a", "b")
        with pytest.raises(InvalidInputError):
            SentencePair("a", "b", score=1.0, label="x")

    def test_dataset_validates_range(self):
        with pytest.raises(InvalidInputError):
            Dataset("d", (SentencePair("a", "b", score=9.0),), score_range=(0.0, 5.0))
