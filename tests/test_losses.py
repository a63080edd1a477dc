"""Unit tests for the loss kernels.

Each kernel maps scores (plus a graded target) to a scalar loss and an
analytic gradient. Expected values below are derived by hand from the
documented formulas or recomputed by an independent oracle written
directly from the probability model, never by running the kernel twice.
"""

import numpy as np
import pytest

from listrank.errors import ConfigurationError, EmptyInputError, ValidationError
from listrank.losses import (
    ListTarget,
    approxndcg_loss,
    finite_diff_check,
    listmle_loss,
    listmle_loss_on_order,
    listmle_target_order,
    listnet_loss,
    margin_mse_loss,
    mlm_cross_entropy,
    ranknet_loss,
)


def random_instance(rng, n=None):
    """A fully valid list with random grades and standard-normal scores."""
    if n is None:
        n = int(rng.integers(2, 12))
    grades = rng.integers(0, 5, size=n)
    scores = rng.standard_normal(n)
    return scores, ListTarget(grades)


class TestListTarget:
    """Construction and validation of the graded target container."""

    def test_default_mask_is_all_ones(self):
        """Omitting valid_mask marks every slot as real."""
        target = ListTarget(np.array([0, 3, 4]))
        np.testing.assert_array_equal(target.valid_mask, [1, 1, 1])

    def test_grades_cast_to_int64(self):
        target = ListTarget([1, 2])
        assert target.grades.dtype == np.int64

    def test_rejects_2d_grades(self):
        with pytest.raises(ValidationError):
            ListTarget(np.zeros((2, 2), dtype=int))

    def test_rejects_mask_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ListTarget(np.array([1, 2]), np.array([1, 1, 1]))

    def test_rejects_mask_values_outside_01(self):
        with pytest.raises(ValidationError):
            ListTarget(np.array([1, 2]), np.array([1, 2]))

    def test_rejects_grade_above_max(self):
        with pytest.raises(ValidationError):
            ListTarget(np.array([0, 5]))

    def test_rejects_negative_grade(self):
        with pytest.raises(ValidationError):
            ListTarget(np.array([-1, 2]))

    def test_masked_slot_grade_is_unconstrained(self):
        """Padded slots are ignored entirely, including their grade value."""
        target = ListTarget(np.array([9, 2]), np.array([0, 1]))
        assert target.grades[0] == 9

    def test_score_shape_mismatch_raises(self):
        target = ListTarget(np.array([1, 2]))
        with pytest.raises(ValidationError):
            ranknet_loss(np.zeros(3), target)


class TestApproxAlpha:
    def test_alpha_must_be_positive(self):
        target = ListTarget(np.array([1, 0]))
        with pytest.raises(ConfigurationError):
            approxndcg_loss(np.zeros(2), target, alpha=0.0)
        with pytest.raises(ConfigurationError):
            approxndcg_loss(np.zeros(2), target, alpha=-1.0)


class TestRanknetLoss:
    """Relevance-weighted pairwise logistic loss."""

    def test_two_docs_equal_scores_worked_example(self):
        """Grades (3, 1) give weight 9 - 1 = 8; at equal scores the
        logistic term is log 2, so the mean over the single pair is 8 log 2
        and the gradient is -+ 8 * (sigmoid(0) - 1) = -+4."""
        out = ranknet_loss(np.zeros(2), ListTarget(np.array([3, 1])))
        np.testing.assert_allclose(out.value, 8.0 * np.log(2.0), rtol=1e-12)
        np.testing.assert_allclose(out.grad, [-4.0, 4.0], rtol=1e-12)

    def test_three_docs_mean_reduction(self):
        """Grades (2, 1, 0) produce pairs with weights 3, 4, 1. At zero
        scores each pair costs its weight times log 2, mean 8 log 2 / 3,
        and each pair pushes -+ w/6 onto its endpoints."""
        out = ranknet_loss(np.zeros(3), ListTarget(np.array([2, 1, 0])))
        np.testing.assert_allclose(out.value, 8.0 * np.log(2.0) / 3.0, rtol=1e-12)
        np.testing.assert_allclose(out.grad, [-7.0 / 6.0, 1.0 / 3.0, 5.0 / 6.0], rtol=1e-12)

    def test_equal_grades_contribute_zero(self):
        out = ranknet_loss(np.array([1.0, -2.0]), ListTarget(np.array([2, 2])))
        assert out.value == 0.0
        np.testing.assert_array_equal(out.grad, [0.0, 0.0])

    def test_single_doc_contributes_zero(self):
        """One document, or a list whose every slot is padded, has no pair."""
        for scores, target in [(np.array([0.3]), ListTarget(np.array([4]))),
                               (np.array([0.3, -1.0]), ListTarget([1, 2], [0, 0]))]:
            out = ranknet_loss(scores, target)
            assert out.value == 0.0
            np.testing.assert_array_equal(out.grad, np.zeros_like(scores))

    def test_saturated_pair_vanishes(self):
        """Once the right document is far ahead the pair stops pulling."""
        out = ranknet_loss(np.array([60.0, 0.0]), ListTarget(np.array([3, 1])))
        assert out.value < 1e-20
        np.testing.assert_allclose(out.grad, [0.0, 0.0], atol=1e-20)

    def test_gradient_sums_to_zero(self):
        """Pairwise pushes cancel, so the gradient has zero sum."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            scores, target = random_instance(rng)
            out = ranknet_loss(scores, target)
            np.testing.assert_allclose(out.grad.sum(), 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        scores, target = random_instance(rng, n=10)
        err = finite_diff_check(ranknet_loss, scores, target, 1e-5)
        assert err < 1e-4


class TestListnetLoss:
    """Top-one cross-entropy between grade and score distributions."""

    def test_single_doc_is_exactly_zero(self):
        """With one document both top-one distributions are the point mass."""
        out = listnet_loss(np.array([3.0]), ListTarget(np.array([4])))
        assert out.value == 0.0

    def test_two_equal_grades_equal_scores(self):
        """Both distributions are (1/2, 1/2); cross-entropy of a uniform
        pair is log 2."""
        out = listnet_loss(np.array([5.0, 5.0]), ListTarget(np.array([2, 2])))
        np.testing.assert_allclose(out.value, np.log(2.0), rtol=1e-12)

    def test_matches_naive_top_one_cross_entropy(self):
        """Oracle: p = softmax(grades), q = softmax(scores) computed the
        naive way, loss = -sum p log q."""
        rng = np.random.default_rng(21)
        for _ in range(100):
            scores, target = random_instance(rng)
            p = np.exp(target.grades.astype(float))
            p /= p.sum()
            q = np.exp(scores)
            q /= q.sum()
            expected = -float(p @ np.log(q))
            out = listnet_loss(scores, target)
            np.testing.assert_allclose(out.value, expected, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(out.grad, q - p, rtol=1e-10, atol=1e-12)

    def test_no_valid_slots_raises(self):
        with pytest.raises(EmptyInputError):
            listnet_loss(np.zeros(2), ListTarget(np.array([1, 2]), np.array([0, 0])))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        scores, target = random_instance(rng, n=10)
        err = finite_diff_check(listnet_loss, scores, target, 1e-5)
        assert err < 1e-4


class TestListmleLoss:
    """Plackett-Luce negative log-likelihood of the grade-descending order."""

    def test_single_doc_is_exactly_zero(self):
        out = listmle_loss(np.array([2.0]), ListTarget(np.array([1])))
        assert out.value == 0.0

    def test_two_docs_equal_scores(self):
        """Picking the better document first has probability 1/2 when the
        scores tie, so the negative log-likelihood is log 2."""
        out = listmle_loss(np.zeros(2), ListTarget(np.array([3, 1])))
        np.testing.assert_allclose(out.value, np.log(2.0), rtol=1e-12)

    def test_matches_plackett_luce_product(self):
        """Oracle: exp(-loss) equals the sequential-choice product
        prod_k exp(s[o_k]) / sum_{j >= k} exp(s[o_j]) for short lists."""
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            grades = rng.integers(0, 5, size=n)
            scores = rng.standard_normal(n)
            order = listmle_target_order(grades, tie_seed=5)
            prob = 1.0
            for k in range(n):
                rest = np.exp(scores[order[k:]])
                prob *= np.exp(scores[order[k]]) / rest.sum()
            out = listmle_loss(scores, ListTarget(grades), tie_seed=5)
            np.testing.assert_allclose(np.exp(-out.value), prob, rtol=1e-10)

    def test_tie_break_is_deterministic(self):
        """The same tie seed replays the same order, value, and gradient."""
        scores = np.array([0.3, -0.1, 0.8, 0.2])
        target = ListTarget(np.array([2, 2, 2, 2]))
        a = listmle_loss(scores, target, tie_seed=3)
        b = listmle_loss(scores, target, tie_seed=3)
        assert a.value == b.value
        np.testing.assert_array_equal(a.grad, b.grad)

    def test_different_tie_seeds_permute_tied_grades(self):
        orders = {tuple(listmle_target_order(np.zeros(6, dtype=int), seed)) for seed in (0, 1)}
        assert len(orders) == 2

    def test_distinct_grades_ignore_tie_seed(self):
        grades = np.array([4, 1, 3, 0, 2])
        np.testing.assert_array_equal(
            listmle_target_order(grades, 0), listmle_target_order(grades, 99)
        )
        np.testing.assert_array_equal(listmle_target_order(grades, 0), [0, 2, 4, 1, 3])

    def test_explicit_order_equals_default_path(self):
        rng = np.random.default_rng(32)
        scores, target = random_instance(rng, n=8)
        order = listmle_target_order(target.grades, tie_seed=7)
        via_order = listmle_loss_on_order(scores, target, order)
        direct = listmle_loss(scores, target, tie_seed=7)
        assert via_order.value == direct.value
        np.testing.assert_array_equal(via_order.grad, direct.grad)

    def test_order_must_be_a_permutation(self):
        target = ListTarget(np.array([2, 1, 0]))
        with pytest.raises(ValidationError):
            listmle_loss_on_order(np.zeros(3), target, [0, 0, 1])
        with pytest.raises(ValidationError):
            listmle_loss_on_order(np.zeros(3), target, [0, 1, 3])
        with pytest.raises(ValidationError):
            listmle_loss_on_order(np.zeros(3), target, [0, 1])

    def test_no_valid_slots_raises(self):
        with pytest.raises(EmptyInputError):
            listmle_loss(np.zeros(2), ListTarget(np.array([1, 2]), np.array([0, 0])))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        scores, target = random_instance(rng, n=10)
        err = finite_diff_check(
            lambda s, t: listmle_loss(s, t, tie_seed=4), scores, target, 1e-5
        )
        assert err < 1e-4


class TestApproxNdcgLoss:
    """Negated smooth NDCG with sigmoid rank approximation."""

    def test_single_positive_doc_scores_minus_one(self):
        """One relevant document is already perfectly ranked: the smooth
        position is exactly 1 so the loss is -1 with no gradient."""
        out = approxndcg_loss(np.array([0.7]), ListTarget(np.array([3])))
        assert out.value == -1.0
        np.testing.assert_array_equal(out.grad, [0.0])

    def test_all_zero_grades_score_minus_one(self):
        """With no gain anywhere the list is vacuously perfect and must not
        push any gradient into the batch."""
        out = approxndcg_loss(np.array([0.5, -1.0]), ListTarget(np.array([0, 0])))
        assert out.value == -1.0
        np.testing.assert_array_equal(out.grad, [0.0, 0.0])

    def test_equal_scores_closed_form(self):
        """At equal scores every smooth position is 1 + (n-1)/2, so the
        smooth DCG is sum(gains) / log2(2 + (n-1)/2)."""
        grades = np.array([3, 1, 0, 2])
        n = grades.size
        gains = 2.0**grades - 1.0
        idcg = float(np.sum(np.sort(gains)[::-1] / np.log2(2.0 + np.arange(n))))
        expected = -float(np.sum(gains / np.log2(2.0 + (n - 1) / 2.0))) / idcg
        out = approxndcg_loss(np.full(n, 0.25), ListTarget(grades), 5.0)
        np.testing.assert_allclose(out.value, expected, rtol=1e-12)

    def test_value_stays_in_unit_interval(self):
        """The smooth DCG never exceeds the ideal DCG, so the negated
        ratio lies in [-1, 0]."""
        rng = np.random.default_rng(41)
        for alpha in (1.0, 10.0, 100.0):
            for _ in range(50):
                scores, target = random_instance(rng)
                out = approxndcg_loss(scores, target, alpha)
                assert -1.0 - 1e-12 <= out.value <= 1e-12

    def test_no_valid_slots_raises(self):
        with pytest.raises(EmptyInputError):
            approxndcg_loss(np.zeros(2), ListTarget(np.array([1, 2]), np.array([0, 0])))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        scores, target = random_instance(rng, n=10)
        err = finite_diff_check(
            lambda s, t: approxndcg_loss(s, t, 1.0), scores, target, 5e-5
        )
        assert err < 1e-4


class TestMarginMseLoss:
    """Mean squared error between student and teacher score margins."""

    def test_matching_margins_cost_zero(self):
        out = margin_mse_loss(
            np.array([1.5]), np.array([0.5]), np.array([2.0]), np.array([1.0])
        )
        assert out.value == 0.0
        np.testing.assert_allclose(out.grad, [[0.0], [0.0]], atol=0.0)

    def test_unit_pair_worked_example(self):
        """Teacher margin 2, student margin 0: loss (0 - 2)^2 = 4 and the
        gradient 2 * (0 - 2) = -4 lands positively/negatively on the
        student's positive/negative score."""
        out = margin_mse_loss(
            np.array([2.0]), np.array([0.0]), np.array([0.0]), np.array([0.0])
        )
        np.testing.assert_allclose(out.value, 4.0, rtol=1e-12)
        np.testing.assert_allclose(out.grad, [[-4.0], [4.0]], rtol=1e-12)

    def test_mean_reduction_over_pairs(self):
        """Two pairs with squared margin errors 4 and 0 average to 2."""
        out = margin_mse_loss(
            np.array([2.0, 1.0]),
            np.array([0.0, 0.0]),
            np.array([0.0, 1.0]),
            np.array([0.0, 0.0]),
        )
        np.testing.assert_allclose(out.value, 2.0, rtol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValidationError):
            margin_mse_loss(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2))

    def test_empty_pairs_raise(self):
        with pytest.raises(ValidationError):
            margin_mse_loss(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0))

    def test_gradient_matches_finite_differences(self):
        """The kernel differentiates only the student scores, so the check
        runs through an adapter that treats the stacked student scores as
        the free variable."""
        rng = np.random.default_rng(51)
        tp, tn = rng.standard_normal(6), rng.standard_normal(6)
        student = rng.standard_normal((2, 6))

        def kernel(stacked, _):
            return margin_mse_loss(tp, tn, stacked[0], stacked[1])

        err = finite_diff_check(kernel, student, None, 1e-5)
        assert err < 1e-4


class TestMlmCrossEntropy:
    """Mean cross-entropy over masked token positions."""

    def test_uniform_logits_cost_log_vocab(self):
        out = mlm_cross_entropy(np.zeros((3, 7)), np.array([0, 3, 6]))
        np.testing.assert_allclose(out.value, np.log(7.0), rtol=1e-12)

    def test_confident_correct_prediction_costs_almost_nothing(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 50.0
        out = mlm_cross_entropy(logits, np.array([2]))
        assert 0.0 <= out.value < 1e-12

    def test_gradient_is_softmax_minus_onehot_over_rows(self):
        rng = np.random.default_rng(61)
        logits = rng.standard_normal((4, 9))
        labels = rng.integers(0, 9, size=4)
        sm = np.exp(logits - logits.max(axis=1, keepdims=True))
        sm /= sm.sum(axis=1, keepdims=True)
        onehot = np.zeros_like(logits)
        onehot[np.arange(4), labels] = 1.0
        out = mlm_cross_entropy(logits, labels)
        np.testing.assert_allclose(out.grad, (sm - onehot) / 4.0, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(out.grad.sum(axis=1), 0.0, atol=1e-12)

    def test_no_positions_raises(self):
        with pytest.raises(EmptyInputError):
            mlm_cross_entropy(np.zeros((0, 5)), np.zeros(0, dtype=int))

    def test_non_2d_logits_raise(self):
        with pytest.raises(ValidationError):
            mlm_cross_entropy(np.zeros(5), np.array([1]))

    def test_label_count_mismatch_raises(self):
        with pytest.raises(ValidationError):
            mlm_cross_entropy(np.zeros((2, 5)), np.array([1]))

    def test_label_out_of_vocab_raises(self):
        with pytest.raises(ValidationError):
            mlm_cross_entropy(np.zeros((1, 5)), np.array([5]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(62)
        logits = rng.standard_normal((5, 8))
        labels = rng.integers(0, 8, size=5)

        def kernel(x, _):
            return mlm_cross_entropy(x, labels)

        err = finite_diff_check(kernel, logits, None, 1e-5)
        assert err < 1e-4


RANKING_KERNELS = {
    "ranknet": ranknet_loss,
    "listnet": listnet_loss,
    "listmle": lambda s, t: listmle_loss(s, t, tie_seed=0),
    "approxndcg": lambda s, t: approxndcg_loss(s, t, 10.0),
}


class TestSharedKernelInvariants:
    """Structural properties every ranking kernel must satisfy."""

    @pytest.mark.parametrize("name", sorted(RANKING_KERNELS))
    def test_translation_invariance(self, name):
        """Adding a constant to every score changes nothing: only score
        differences matter to a ranking."""
        kernel = RANKING_KERNELS[name]
        rng = np.random.default_rng(71)
        for _ in range(50):
            scores, target = random_instance(rng)
            shift = float(rng.normal(0.0, 5.0))
            base = kernel(scores, target)
            moved = kernel(scores + shift, target)
            np.testing.assert_allclose(moved.value, base.value, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(moved.grad, base.grad, rtol=1e-8, atol=1e-9)

    @pytest.mark.parametrize("name", ["ranknet", "listnet", "approxndcg"])
    def test_permutation_equivariance(self, name):
        """Relabeling the slots relabels the gradient the same way."""
        kernel = RANKING_KERNELS[name]
        rng = np.random.default_rng(72)
        for _ in range(50):
            scores, target = random_instance(rng)
            perm = rng.permutation(scores.size)
            base = kernel(scores, target)
            permuted = kernel(scores[perm], ListTarget(target.grades[perm]))
            np.testing.assert_allclose(permuted.value, base.value, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(permuted.grad, base.grad[perm], rtol=1e-9, atol=1e-12)

    def test_listmle_permutation_equivariance_via_mapped_order(self):
        """Relabeling slots while mapping the target order onto the new
        labels reproduces the same value and a permuted gradient."""
        rng = np.random.default_rng(73)
        for _ in range(50):
            scores, target = random_instance(rng)
            order = listmle_target_order(target.grades, tie_seed=9)
            perm = rng.permutation(scores.size)
            inv = np.empty_like(perm)
            inv[perm] = np.arange(perm.size)
            base = listmle_loss_on_order(scores, target, order)
            permuted = listmle_loss_on_order(
                scores[perm], ListTarget(target.grades[perm]), inv[order]
            )
            np.testing.assert_allclose(permuted.value, base.value, rtol=1e-12)
            np.testing.assert_allclose(permuted.grad, base.grad[perm], rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(RANKING_KERNELS))
    def test_padded_slots_are_inert(self, name):
        """Changing a padded score must not move the loss or any gradient
        entry, and padded gradient entries are exactly zero."""
        kernel = RANKING_KERNELS[name]
        rng = np.random.default_rng(74)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            mask = rng.integers(0, 2, size=n)
            mask[int(rng.integers(0, n))] = 1
            grades = rng.integers(0, 5, size=n)
            target = ListTarget(grades, mask)
            scores = rng.standard_normal(n)
            tampered = scores.copy()
            tampered[mask == 0] = rng.normal(0.0, 100.0, size=int((mask == 0).sum()))
            base = kernel(scores, target)
            after = kernel(tampered, target)
            assert after.value == base.value
            np.testing.assert_array_equal(after.grad, base.grad)
            np.testing.assert_array_equal(base.grad[mask == 0], 0.0)

    @pytest.mark.parametrize("name", sorted(RANKING_KERNELS))
    def test_two_doc_gradient_is_a_descent_direction(self, name):
        """At tied scores with grades (3, 1), lowering the loss means
        raising the better document: its gradient entry must be negative
        and the other positive."""
        kernel = RANKING_KERNELS[name]
        out = kernel(np.zeros(2), ListTarget(np.array([3, 1])))
        assert out.grad[0] < 0.0 < out.grad[1]


class TestFiniteDiffCheck:
    """The central-difference gradient checker itself."""

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            finite_diff_check(ranknet_loss, np.zeros(2), ListTarget(np.array([1, 0])), 0.0)

    def test_flat_kernel_reports_zero_error(self):
        from listrank.losses import LossOutput

        def flat(scores, _):
            return LossOutput(0.0, np.zeros_like(scores))

        assert finite_diff_check(flat, np.ones(4), None, 1e-5) == 0.0

    def test_wrong_gradient_shape_raises(self):
        from listrank.losses import LossOutput

        def bad(scores, _):
            return LossOutput(0.0, np.zeros(scores.size + 1))

        with pytest.raises(ValidationError):
            finite_diff_check(bad, np.ones(3), None, 1e-5)

    def test_detects_a_wrong_gradient(self):
        """A deliberately corrupted gradient must produce a large error."""
        from listrank.losses import LossOutput

        def wrong(scores, target):
            out = listnet_loss(scores, target)
            return LossOutput(out.value, 2.0 * out.grad)

        rng = np.random.default_rng(81)
        scores, target = random_instance(rng, n=6)
        assert finite_diff_check(wrong, scores, target, 1e-5) > 0.1
