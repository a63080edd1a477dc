"""Unit tests for ranking metrics and metric serialization.

DCG values are derived longhand in each test (explicit gain and discount
terms) so the expected numbers do not depend on the code under test.
"""

import math

import numpy as np
import pytest

from listrank.dataset import Dataset, Document, QueryGroup
from listrank.errors import ConfigurationError, EmptyInputError
from listrank.metrics import (
    METRIC_CSV_HEADER,
    MetricRow,
    dcg,
    mean_ndcg,
    metrics_to_csv,
    ndcg_at_k,
    nearest_rank_percentile,
    perplexity,
    score_order,
    str_rank,
)


def make_group(query_id, grades, doc_ids=None):
    """A query group with synthetic doc texts and the given grades."""
    if doc_ids is None:
        doc_ids = [f"{query_id}_d{i}" for i in range(len(grades))]
    docs = [Document(doc_id, f"text {doc_id}") for doc_id in doc_ids]
    return QueryGroup(query_id, f"query {query_id}", docs, list(grades))


class TestDcg:
    """Discounted cumulative gain on grades given in rank order."""

    def test_four_doc_longhand(self):
        """Grades (3, 2, 0, 1): gains 7, 3, 0, 1 discounted by
        1/log2(1 + rank)."""
        expected = (
            7.0 / math.log2(2.0)
            + 3.0 / math.log2(3.0)
            + 0.0 / math.log2(4.0)
            + 1.0 / math.log2(5.0)
        )
        np.testing.assert_allclose(dcg([3, 2, 0, 1]), expected, rtol=1e-12)

    def test_cutoff_truncates_the_sum(self):
        expected = 7.0 + 3.0 / math.log2(3.0)
        np.testing.assert_allclose(dcg([3, 2, 0, 1], k=2), expected, rtol=1e-12)

    def test_cutoff_beyond_length_is_full_list(self):
        assert dcg([2, 1], k=10) == dcg([2, 1])

    def test_empty_list_scores_zero(self):
        assert dcg([]) == 0.0

    def test_zero_grade_adds_nothing(self):
        assert dcg([0, 0, 0]) == 0.0


class TestNdcgAtK:
    """Normalized DCG of grades listed in predicted order."""

    def test_ideal_order_scores_exactly_one(self):
        assert ndcg_at_k([4, 3, 1, 0]) == 1.0

    def test_reversed_order_longhand(self):
        """Grades (0, 1, 2, 3) in predicted order against the ideal
        (3, 2, 1, 0)."""
        got = (
            0.0
            + 1.0 / math.log2(3.0)
            + 3.0 / math.log2(4.0)
            + 7.0 / math.log2(5.0)
        )
        ideal = 7.0 + 3.0 / math.log2(3.0) + 1.0 / math.log2(4.0)
        np.testing.assert_allclose(ndcg_at_k([0, 1, 2, 3]), got / ideal, rtol=1e-12)

    def test_all_zero_grades_score_one(self):
        """A query with no relevant documents counts as perfectly served."""
        assert ndcg_at_k([0, 0, 0]) == 1.0

    def test_cutoff_changes_the_score(self):
        """Grades (0, 3): the relevant doc is outside the top 1, so
        NDCG@1 is 0 while the full-list NDCG is positive."""
        assert ndcg_at_k([0, 3], k=1) == 0.0
        assert ndcg_at_k([0, 3]) > 0.0

    def test_nonpositive_cutoff_raises(self):
        with pytest.raises(ConfigurationError):
            ndcg_at_k([1, 0], k=0)
        with pytest.raises(ConfigurationError):
            ndcg_at_k([1, 0], k=-3)

    def test_bounded_by_one_on_random_lists(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            grades = rng.integers(0, 5, size=int(rng.integers(1, 12))).tolist()
            rng.shuffle(grades)
            value = ndcg_at_k(grades)
            assert 0.0 <= value <= 1.0 + 1e-12


class TestOrderByScores:
    """Deterministic ranking of score lists."""

    def test_orders_by_descending_score(self):
        assert score_order(np.array([1.0, 3.0, 2.0]), np.arange(3)).tolist() == [1, 2, 0]

    def test_ties_break_by_original_index(self):
        assert score_order(np.array([2.0, 2.0, 3.0]), np.arange(3)).tolist() == [2, 0, 1]

    def test_ties_break_by_ascending_doc_id(self):
        assert score_order(np.array([1.0, 1.0]), str_rank(["b", "a"])).tolist() == [1, 0]

    def test_empty_input(self):
        assert score_order(np.array([]), np.arange(0)).tolist() == []

    @staticmethod
    def lexsort_tie_fix(scores, id_rank):
        """The full order as numpy's unstable sort of the scores, then each
        tied run sorted by a ``lexsort`` on (score, id rank)."""
        neg = -scores
        order = np.argsort(neg)
        ranked = neg[order]
        tie = (ranked[1:] == ranked[:-1]) | (np.isnan(ranked[1:]) & np.isnan(ranked[:-1]))
        run = np.zeros(len(neg), dtype=bool)
        run[1:] = tie
        run[:-1] |= tie
        tied = order[run]
        order[run] = tied[np.lexsort((id_rank[tied], ranked[run]))]
        return order

    @pytest.mark.parametrize("seed", range(20))
    def test_tied_runs_match_the_lexsort_formulation(self, seed):
        """Random lists with ties, NaN, ±0.0 and ±inf; the id ranks are those
        of a subset of a longer list, as a gathered store rank passes them."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 3000))
        values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.25])
        scores = values[rng.integers(0, len(values), size=n)]
        distinct = rng.random(n) < rng.random()
        scores[distinct] = rng.standard_normal(int(distinct.sum()))
        id_rank = rng.choice(3 * n, size=n, replace=False)
        assert score_order(scores, id_rank).tolist() == self.lexsort_tie_fix(scores, id_rank).tolist()


class TestMeanNdcg:
    """Dataset-level evaluation under a scoring callable."""

    def test_grade_oracle_scorer_scores_one(self):
        """Scoring each document by its own grade ranks every list
        perfectly."""
        dataset = Dataset([make_group("q1", [2, 0, 3]), make_group("q2", [1, 1, 0])])
        value = mean_ndcg(dataset, lambda g: [float(x) for x in g.grades])
        assert value == 1.0

    def test_averages_over_groups_longhand(self):
        """One perfectly ranked group and one fully reversed 2-doc group:
        the mean is (1 + r) / 2 with r derived longhand."""
        dataset = Dataset([make_group("good", [3, 1]), make_group("bad", [0, 2])])
        value = mean_ndcg(dataset, lambda g: [2.0, 1.0])
        reversed_ndcg = (0.0 + 3.0 / math.log2(3.0)) / 3.0
        np.testing.assert_allclose(value, (1.0 + reversed_ndcg) / 2.0, rtol=1e-12)

    def test_equal_scores_fall_back_to_doc_id_order(self):
        """With tied scores the ascending doc_id decides, making
        evaluation reproducible."""
        group = make_group("q", [0, 3], doc_ids=["b", "a"])
        value = mean_ndcg(Dataset(groups=[group]), lambda g: [5.0, 5.0])
        assert value == 1.0

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyInputError):
            mean_ndcg(Dataset(groups=[]), lambda g: [])

    @pytest.mark.parametrize("k", [0, -1])
    def test_invalid_cutoff_is_refused_before_any_scoring(self, k):
        calls = []

        def scorer(group):
            calls.append(group.query_id)
            return [0.0] * len(group.docs)

        with pytest.raises(ConfigurationError, match=f"NDCG cutoff k must be positive, got {k}"):
            mean_ndcg(Dataset(groups=[make_group("q1", [1, 2]), make_group("q2", [0, 1])]), scorer, k=k)
        assert calls == []

    def test_wrong_scorer_arity_raises(self):
        dataset = Dataset([make_group("q1", [1, 2])])
        with pytest.raises(ConfigurationError):
            mean_ndcg(dataset, lambda g: [1.0])

    def test_same_scorer_twice_is_identical(self):
        dataset = Dataset([make_group("q1", [0, 2, 4, 1])])
        scorer = lambda g: [0.3, 0.1, 0.9, 0.2]
        assert mean_ndcg(dataset, scorer) == mean_ndcg(dataset, scorer)


class TestPerplexity:
    def test_zero_loss_is_exactly_one(self):
        assert perplexity(0.0) == 1.0

    def test_log_vocab_loss_is_vocab_size(self):
        np.testing.assert_allclose(perplexity(math.log(633.0)), 633.0, rtol=1e-12)

    def test_monotone_in_loss(self):
        assert perplexity(2.0) > perplexity(1.0)


class TestNearestRankPercentile:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""

    def test_four_values_worked_examples(self):
        values = [30.0, 10.0, 40.0, 20.0]
        assert nearest_rank_percentile(values, 50.0) == 20.0
        assert nearest_rank_percentile(values, 90.0) == 40.0
        assert nearest_rank_percentile(values, 100.0) == 40.0
        assert nearest_rank_percentile(values, 25.0) == 10.0

    def test_tiny_percentile_clamps_to_first(self):
        assert nearest_rank_percentile([5.0, 6.0], 1.0) == 5.0

    def test_single_value(self):
        assert nearest_rank_percentile([3.5], 90.0) == 3.5

    def test_empty_sequence_raises(self):
        with pytest.raises(EmptyInputError):
            nearest_rank_percentile([], 50.0)

    def test_percentile_out_of_range_raises(self):
        with pytest.raises(ConfigurationError):
            nearest_rank_percentile([1.0], 0.0)
        with pytest.raises(ConfigurationError):
            nearest_rank_percentile([1.0], 101.0)


class TestMetricsToCsv:
    """CSV rendering of metric rows."""

    def test_exact_output(self):
        rows = [
            MetricRow(0, "train", "listnet", 0.123456789, None),
            MetricRow(2, "heldout", "mlm", None, 0.9),
        ]
        expected = (
            "epoch,split,loss_name,loss_value,mean_ndcg\n"
            "0,train,listnet,0.123457,\n"
            "2,heldout,mlm,,0.9\n"
        )
        assert metrics_to_csv(rows) == expected

    def test_no_rows_is_just_the_header(self):
        assert metrics_to_csv([]) == METRIC_CSV_HEADER + "\n"

    def test_six_significant_digits(self):
        row = MetricRow(1, "eval", "ranknet", 1234567.0, 0.000123456789)
        body = metrics_to_csv([row]).splitlines()[1]
        assert body == "1,eval,ranknet,1.23457e+06,0.000123457"
