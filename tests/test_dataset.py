"""Unit tests for CTR grading, synthetic data, and dataset files.

CTR grading is checked against hand-derived grades and against exactness
properties (scaling a query's counts by a common factor can never change
a grade because the arithmetic is rational, not floating point).
"""

import json
import math
import os

import numpy as np
import pytest

from listrank.dataset import (
    ClickRecord,
    Dataset,
    Document,
    QueryGroup,
    SyntheticSpec,
    attribute_vocabulary,
    corpus_lines,
    generate_synthetic,
    grade_from_ctr,
    load_dataset,
    save_dataset,
    split_dataset,
)
from listrank.errors import (
    EmptyInputError,
    ParseError,
    ValidationError,
)


def record(query_id, doc_id, clicks, impressions):
    return ClickRecord(query_id=query_id, doc_id=doc_id, clicks=clicks, impressions=impressions)


class TestClickRecord:
    def test_valid_record(self):
        r = record("q1", "d1", 5, 100)
        assert r.clicks == 5 and r.impressions == 100

    def test_negative_clicks_raise(self):
        with pytest.raises(ValidationError):
            record("q1", "d1", -1, 100)

    def test_negative_impressions_raise(self):
        with pytest.raises(ValidationError):
            record("q1", "d1", 0, -5)

    def test_clicks_above_impressions_raise(self):
        with pytest.raises(ValidationError):
            record("q1", "d1", 11, 10)


class TestDocument:
    def test_empty_doc_id_raises(self):
        with pytest.raises(ValidationError):
            Document(doc_id="", text="hello")

    @pytest.mark.parametrize("doc_id", ["a,b", "c\nd", "e\r", "\u2028f", 7])
    def test_id_that_is_not_one_csv_field_raises(self, doc_id):
        """``rank`` printed ``a,b`` as two fields and ``c\nd`` as two rows."""
        with pytest.raises(ValidationError) as excinfo:
            Document(doc_id=doc_id, text="hello")
        assert str(excinfo.value) == f"doc_id {doc_id!r} must be a string without a comma or a line break"

    def test_ids_with_other_punctuation_are_kept(self):
        assert Document(doc_id="a b;c\t\"d\"_é", text="hello").doc_id == "a b;c\t\"d\"_é"


class TestQueryGroup:
    def test_doc_grade_length_mismatch_raises(self):
        with pytest.raises(ValidationError):
            QueryGroup("q", "text", [Document("d1", "a")], [1, 2])

    def test_empty_group_raises(self):
        with pytest.raises(EmptyInputError):
            QueryGroup("q", "text", [], [])

    def test_grade_out_of_range_raises(self):
        with pytest.raises(ValidationError):
            QueryGroup("q", "text", [Document("d1", "a")], [5])

    def test_bool_grade_rejected(self):
        """Booleans are ints in Python but are not legal grades."""
        with pytest.raises(ValidationError):
            QueryGroup("q", "text", [Document("d1", "a")], [True])

    def test_float_grade_rejected(self):
        with pytest.raises(ValidationError):
            QueryGroup("q", "text", [Document("d1", "a")], [2.0])


class TestDataset:
    def test_duplicate_query_id_raises(self):
        g1 = QueryGroup("q", "a", [Document("d1", "x")], [0])
        g2 = QueryGroup("q", "b", [Document("d2", "y")], [1])
        with pytest.raises(ValidationError) as excinfo:
            Dataset([g1, g2])
        assert str(excinfo.value) == "duplicate query ids: ['q']"


class TestGradeFromCtr:
    """ceil(4 * ctr / max ctr) over one query, in exact rationals."""

    def test_worked_example(self):
        """CTRs 0.5, 0.25, 0.1 relative to the 0.5 leader grade to
        ceil(4), ceil(2), ceil(0.8) = 4, 2, 1."""
        records = [
            record("q", "a", 50, 100),
            record("q", "b", 25, 100),
            record("q", "c", 10, 100),
        ]
        assert grade_from_ctr(records, min_impressions=0) == [4, 2, 1]

    def test_top_ctr_doc_always_grades_four(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            impressions = rng.integers(1, 1000, size=n)
            clicks = (rng.random(n) * impressions).astype(int)
            clicks[int(rng.integers(0, n))] += 1  # ensure a nonzero ctr
            clicks = np.minimum(clicks, impressions)
            records = [
                record("q", f"d{i}", int(clicks[i]), int(impressions[i])) for i in range(n)
            ]
            grades = grade_from_ctr(records, min_impressions=0)
            ctrs = [c / i for c, i in zip(clicks, impressions)]
            assert grades[int(np.argmax(ctrs))] == 4

    def test_uniform_scaling_cannot_change_grades(self):
        """Multiplying every count by a common factor leaves each ctr ratio
        an identical rational number, so grades match exactly."""
        rng = np.random.default_rng(6)
        for scale in (7, 1000):
            for _ in range(50):
                n = int(rng.integers(1, 8))
                impressions = rng.integers(1, 500, size=n)
                clicks = (rng.random(n) * impressions).astype(int)
                base = [
                    record("q", f"d{i}", int(clicks[i]), int(impressions[i]))
                    for i in range(n)
                ]
                scaled = [
                    record("q", f"d{i}", int(clicks[i]) * scale, int(impressions[i]) * scale)
                    for i in range(n)
                ]
                assert grade_from_ctr(base, 0) == grade_from_ctr(scaled, 0)

    def test_any_click_earns_at_least_grade_one(self):
        """ceil of a positive rational is at least 1, so one click beats
        grade zero."""
        records = [record("q", "a", 500, 500), record("q", "b", 1, 500)]
        grades = grade_from_ctr(records, min_impressions=0)
        assert grades == [4, 1]

    def test_all_zero_ctrs_grade_zero(self):
        records = [record("q", "a", 0, 100), record("q", "b", 0, 50)]
        assert grade_from_ctr(records, min_impressions=0) == [0, 0]

    def test_impression_filter_drops_and_realigns(self):
        """Survivors keep input order; the dropped record contributes
        nothing to the max CTR."""
        records = [
            record("q", "a", 9, 10),  # dropped: too few impressions
            record("q", "b", 25, 100),
            record("q", "c", 50, 100),
        ]
        assert grade_from_ctr(records, min_impressions=50) == [2, 4]

    def test_nothing_survives_filter_raises(self):
        with pytest.raises(EmptyInputError):
            grade_from_ctr([record("q", "a", 1, 10)], min_impressions=50)

    def test_mixed_queries_raise(self):
        with pytest.raises(ValidationError):
            grade_from_ctr([record("q1", "a", 1, 10), record("q2", "b", 1, 10)], 0)


class TestSyntheticSpec:
    def test_rejects_no_queries(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n_queries=0)

    def test_rejects_empty_lists(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n_queries=1, list_size=0)

    def test_rejects_no_query_tokens(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n_queries=1, query_token_count=0)

    def test_rejects_cramped_vocabulary(self):
        """Each facet needs a non-matching alternative word."""
        with pytest.raises(ValidationError):
            SyntheticSpec(n_queries=1, attribute_vocab_size=7, query_token_count=4)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n_queries=1, noise_std=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("n_queries", 2.5), ("list_size", "30"), ("attribute_vocab_size", 120.0), ("query_token_count", None),
        ("seed", True), ("noise_std", "0.2"), ("noise_std", False),
    ])
    def test_mistyped_field_rejected(self, field, value):
        """As in ``EncoderConfig``: an int field takes only an ``int``, a float
        field an ``int`` or a ``float`` but not a ``bool``. ``n_queries=2.5``
        used to construct and fail later in ``generate_synthetic``."""
        with pytest.raises(ValidationError, match=f"^{field} must be "):
            SyntheticSpec(**{"n_queries": 2, field: value})
        assert SyntheticSpec(n_queries=2, noise_std=0).noise_std == 0

    @pytest.mark.parametrize("noise_std", [math.inf, math.nan])
    def test_rejects_non_finite_noise(self, noise_std):
        """inf overflowed in the grade rounding; nan skipped the noise, as nan > 0 is false."""
        with pytest.raises(ValidationError, match="noise_std must be non-negative and finite"):
            SyntheticSpec(n_queries=1, noise_std=noise_std)

    @pytest.mark.parametrize("sizes, message", [
        (dict(attribute_vocab_size=100_001), "attribute_vocab_size must be at most 100000"),
        (dict(attribute_vocab_size=100_000_000), "attribute_vocab_size must be at most 100000"),
        (dict(n_queries=1, list_size=1_000_001), "n_queries * list_size must be at most 1000000 documents"),
        (dict(n_queries=1_001, list_size=1_000), "n_queries * list_size must be at most 1000000 documents"),
        (dict(n_queries=1, list_size=100_000_000_000), "n_queries * list_size must be at most 1000000 documents"),
    ], ids=["vocab-past-by-one", "vocab-1e8", "list-past-by-one", "product-past", "list-1e11"])
    def test_rejects_sizes_past_the_bounds(self, sizes, message):
        """Only 70² + 70³ + 70⁴ attribute words exist, so the vocabulary draw
        of 10⁸ words never ended; 10¹¹ documents filled the memory."""
        with pytest.raises(ValidationError) as info:
            SyntheticSpec(**{"n_queries": 1, "list_size": 1, **sizes})
        assert str(info.value) == message

    def test_accepts_sizes_at_the_bounds(self):
        SyntheticSpec(n_queries=1_000, list_size=1_000, attribute_vocab_size=100_000)


class TestAttributeVocabulary:
    def test_deterministic_for_same_shape(self):
        assert attribute_vocabulary(40, 4) == attribute_vocabulary(40, 4)

    def test_words_are_unique_across_groups(self):
        groups = attribute_vocabulary(60, 4)
        words = [w for g in groups for w in g]
        assert len(words) == 60
        assert len(set(words)) == 60

    def test_partition_is_balanced(self):
        groups = attribute_vocabulary(40, 4)
        assert [len(g) for g in groups] == [10, 10, 10, 10]


class TestGenerateSynthetic:
    def test_same_spec_is_bit_identical(self):
        spec = SyntheticSpec(n_queries=5, list_size=6, attribute_vocab_size=40, seed=11)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        for ga, gb in zip(a.groups, b.groups):
            assert ga.query_text == gb.query_text
            assert ga.grades == gb.grades
            assert [d.text for d in ga.docs] == [d.text for d in gb.docs]

    def test_different_seeds_differ(self):
        base = SyntheticSpec(n_queries=5, list_size=6, attribute_vocab_size=40, seed=0)
        other = SyntheticSpec(n_queries=5, list_size=6, attribute_vocab_size=40, seed=1)
        a, b = generate_synthetic(base), generate_synthetic(other)
        assert any(
            ga.query_text != gb.query_text or ga.grades != gb.grades
            for ga, gb in zip(a.groups, b.groups)
        )

    def test_shapes_and_id_format(self):
        spec = SyntheticSpec(n_queries=3, list_size=4, attribute_vocab_size=40)
        dataset = generate_synthetic(spec)
        assert len(dataset.groups) == 3
        assert all(len(g.docs) == 4 for g in dataset.groups)
        assert dataset.groups[2].query_id == "q00002"
        assert dataset.groups[2].docs[3].doc_id == "q00002_d03"

    def test_noise_free_grade_counts_matching_facets(self):
        """With four facets and no noise the grade equals the number of
        document words matching the query word in the same facet slot."""
        spec = SyntheticSpec(
            n_queries=4, list_size=10, attribute_vocab_size=40,
            query_token_count=4, noise_std=0.0, seed=2,
        )
        for group in generate_synthetic(spec).groups:
            query_tokens = group.query_text.split()
            for doc, grade in zip(group.docs, group.grades):
                doc_tokens = doc.text.split()
                overlap = sum(dt == qt for dt, qt in zip(doc_tokens, query_tokens))
                assert grade == overlap

    def test_heavy_noise_still_respects_grade_bounds(self):
        spec = SyntheticSpec(
            n_queries=3, list_size=20, attribute_vocab_size=40, noise_std=3.0, seed=4
        )
        for group in generate_synthetic(spec).groups:
            assert all(0 <= g <= 4 for g in group.grades)

    def test_overflowing_noise_saturates_the_grades(self):
        """A finite noise_std near the float maximum draws infinite noise,
        which rounding to a grade used to refuse with an OverflowError."""
        spec = SyntheticSpec(n_queries=3, list_size=20, attribute_vocab_size=40, noise_std=1e308, seed=4)
        grades = [g for group in generate_synthetic(spec).groups for g in group.grades]
        assert set(grades) == {0, 4}
        assert all(type(g) is int for g in grades)

    def test_train_and_test_files_share_the_vocabulary(self):
        """Different seeds draw from one fixed attribute vocabulary, so a
        tokenizer trained on one file covers the other."""
        vocab = {
            w
            for g in attribute_vocabulary(40, 4)
            for w in g
        }
        spec = SyntheticSpec(n_queries=3, list_size=5, attribute_vocab_size=40, seed=9)
        for group in generate_synthetic(spec).groups:
            for doc in group.docs:
                assert set(doc.text.split()) <= vocab


class TestDatasetIO:
    def sample(self):
        return Dataset([
            QueryGroup(
                "q1", "red shoes",
                [Document("d1", "red running shoes"), Document("d2", "blue sandals")],
                [3, 0],
            ),
            QueryGroup("q2", "green hat", [Document("d3", "green wool hat")], [4]),
        ])

    def test_roundtrip_preserves_everything(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(self.sample(), path)
        loaded = load_dataset(path)
        for orig, back in zip(self.sample().groups, loaded.groups):
            assert back.query_id == orig.query_id
            assert back.query_text == orig.query_text
            assert back.grades == orig.grades
            assert [(d.doc_id, d.text) for d in back.docs] == [
                (d.doc_id, d.text) for d in orig.docs
            ]

    def test_save_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(self.sample(), path)
        assert os.listdir(tmp_path) == ["data.jsonl"]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(self.sample(), path)
        text = path.read_text(encoding="utf-8")
        path.write_text("\n" + text + "\n\n", encoding="utf-8")
        assert len(load_dataset(path).groups) == 2

    def test_invalid_json_reports_line_number(self, tmp_path):
        """A byte that is not UTF-8 and nesting past the recursion limit
        raised UnicodeDecodeError and RecursionError tracebacks."""
        path = tmp_path / "bad.jsonl"
        for bad in (b"{not json", b'{"query_id": "\xff"}', b"[" * 100_000):
            save_dataset(self.sample(), path)
            with open(path, "ab") as fh:
                fh.write(bad + b"\n")
            with pytest.raises(ParseError) as excinfo:
                load_dataset(path)
            assert str(excinfo.value).startswith("line 3: invalid JSON: ")

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_crlf_and_cr_files_count_lines_as_text_mode_does(self, tmp_path, newline):
        path = tmp_path / "data.jsonl"
        save_dataset(self.sample(), path)
        lines = path.read_bytes().splitlines()
        path.write_bytes(newline.join(lines + [b"{not json"]) + newline)
        with pytest.raises(ParseError, match="^line 3: "):
            load_dataset(path)
        path.write_bytes(newline.join(lines) + newline)
        assert [g.query_id for g in load_dataset(path).groups] == ["q1", "q2"]

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_dataset(path)
        assert "line 1" in str(excinfo.value)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"query_id": "q", "query": "x"}) + "\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_empty_docs_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"query_id": "q", "query": "x", "docs": []}) + "\n", encoding="utf-8"
        )
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_doc_without_grade_or_counts_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        obj = {"query_id": "q", "query": "x", "docs": [{"doc_id": "d", "text": "t"}]}
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_mixing_graded_and_ctr_docs_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        obj = {
            "query_id": "q",
            "query": "x",
            "docs": [
                {"doc_id": "d1", "text": "t", "grade": 2},
                {"doc_id": "d2", "text": "t", "clicks": 5, "impressions": 50},
            ],
        }
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_out_of_range_grade_in_file_rejected(self, tmp_path):
        """An out-of-range grade is a record error like any other: a
        ParseError that names the line."""
        self.check_bad_grade(tmp_path, 9)

    @pytest.mark.parametrize("grade", [-1, "3", 2.0, True, None])
    def test_non_int_or_negative_grade_in_file_rejected(self, tmp_path, grade):
        self.check_bad_grade(tmp_path, grade)

    @staticmethod
    def check_bad_grade(tmp_path, grade):
        path = tmp_path / "bad.jsonl"
        good = {"query_id": "p", "query": "x", "docs": [{"doc_id": "d", "text": "t", "grade": 1}]}
        obj = {"query_id": "q", "query": "x", "docs": [{"doc_id": "d", "text": "t", "grade": grade}]}
        path.write_text(json.dumps(good) + "\n" + json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == f"line 2: grade {grade!r} outside [0, 4] in doc 'd'"

    def test_ctr_docs_are_graded_on_load(self, tmp_path):
        """Docs carrying counts instead of grades go through CTR grading
        with no impression filter: CTRs 0.5, 0.25, 0.1 grade 4, 2, 1."""
        path = tmp_path / "ctr.jsonl"
        obj = {
            "query_id": "q",
            "query": "x",
            "docs": [
                {"doc_id": "a", "text": "t", "clicks": 50, "impressions": 100},
                {"doc_id": "b", "text": "t", "clicks": 25, "impressions": 100},
                {"doc_id": "c", "text": "t", "clicks": 10, "impressions": 100},
            ],
        }
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        assert load_dataset(path).groups[0].grades == [4, 2, 1]

    @pytest.mark.parametrize("key", ["clicks", "impressions"])
    @pytest.mark.parametrize("value", ["x", None, [1], 1.7, 2.0, True])
    def test_non_integer_counts_rejected_with_line_number(self, tmp_path, key, value):
        """Counts are JSON integers, as grades are: int() raised a traceback
        on a string, null or list, truncated 1.7 and took true as 1."""
        path = tmp_path / "bad.jsonl"
        good = {"doc_id": "d", "text": "t", "clicks": 1, "impressions": 3}
        bad = dict(good, **{key: value})
        lines = [json.dumps({"query_id": qid, "query": "x", "docs": [doc]})
                 for qid, doc in (("q1", good), ("q2", bad))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == f"line 2: '{key}' must be an integer, got {value!r}"

    @pytest.mark.parametrize("group_edit, doc_edit, message", [
        ({}, {"doc_id": None}, "'doc_id' must be a string, got None"),
        ({}, {"text": ["a"]}, "'text' must be a string, got ['a']"),
        ({"query_id": 7}, {}, "'query_id' must be a string, got 7"),
        ({"query": None}, {}, "'query' must be a string, got None"),
        ({}, {"doc_id": ""}, "doc_id must be non-empty"),
        ({}, {"doc_id": "a,b"}, "doc_id 'a,b' must be a string without a comma or a line break"),
        ({}, {"clicks": -1}, "clicks/impressions must be non-negative (q2, d)"),
        ({}, {"clicks": 4}, "clicks (4) exceed impressions (3) for (q2, d)"),
    ], ids=["null-doc-id", "list-text", "int-query-id", "null-query", "empty-doc-id", "comma-doc-id",
            "negative-clicks", "clicks-over-impressions"])
    def test_bad_record_fields_rejected_with_line_number(self, tmp_path, group_edit, doc_edit, message):
        """Ids and texts were coerced with ``str`` (null loaded as doc
        'None'), and a record refused by ``Document`` or ``ClickRecord``
        lost its line number."""
        path = tmp_path / "bad.jsonl"
        good = {"doc_id": "d", "text": "t", "clicks": 1, "impressions": 3}
        lines = [json.dumps({"query_id": "q1", "query": "x", "docs": [good]}),
                 json.dumps(dict({"query_id": "q2", "query": "x", "docs": [dict(good, **doc_edit)]}, **group_edit))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == f"line 2: {message}"

    def test_repeated_query_id_names_both_lines(self, tmp_path):
        """A repeated query id was refused by ``Dataset`` without a line number."""
        path = tmp_path / "bad.jsonl"
        record = {"query_id": "q", "query": "x", "docs": [{"doc_id": "d", "text": "t", "grade": 1}]}
        lines = [json.dumps(record), json.dumps(dict(record, query_id="r")), "", json.dumps(record)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == "line 4: query id 'q' repeats line 1"


class TestSplitDataset:
    def sample(self):
        return Dataset([
            QueryGroup(f"q{i}", "words", [Document(f"d{i}", "x")], [0]) for i in range(5)
        ])

    def test_split_sizes_and_order(self):
        head, tail = split_dataset(self.sample(), 3)
        assert [g.query_id for g in head.groups] == ["q0", "q1", "q2"]
        assert [g.query_id for g in tail.groups] == ["q3", "q4"]

    def test_boundary_splits(self):
        head, tail = split_dataset(self.sample(), 0)
        assert len(head.groups) == 0 and len(tail.groups) == 5
        head, tail = split_dataset(self.sample(), 5)
        assert len(head.groups) == 5 and len(tail.groups) == 0

    def test_out_of_bounds_raises(self):
        with pytest.raises(ValidationError):
            split_dataset(self.sample(), 6)
        with pytest.raises(ValidationError):
            split_dataset(self.sample(), -1)


class TestCorpusLines:
    def test_query_then_docs_per_group(self):
        dataset = Dataset([
            QueryGroup(
                "q1", "first query",
                [Document("d1", "doc one"), Document("d2", "doc two")],
                [0, 1],
            ),
            QueryGroup("q2", "second query", [Document("d3", "doc three")], [2]),
        ])
        assert corpus_lines(dataset) == [
            "first query", "doc one", "doc two", "second query", "doc three",
        ]
