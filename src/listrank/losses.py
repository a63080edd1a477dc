"""Ranking and language-model loss kernels with analytic score gradients.

Every kernel is a pure function mapping per-document scores (plus targets) to
a scalar loss and the exact gradient with respect to those scores, so the
training loop never needs autodiff. Padded slots (valid_mask == 0) contribute
nothing: the loss value ignores them and their gradient entries are exactly
zero. All softmax-style expressions are computed with max-subtraction, and
sigmoid inputs are clamped to [-50, 50] before exponentiation, so no input
can overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .dataset import GRADE_MAX
from .errors import ConfigurationError, EmptyInputError, ValidationError

_SIGMOID_CLAMP = 50.0


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid with inputs clamped to +/-50 before exponentiation.

    The clamp changes nothing beyond 1e-22 absolute (expit saturates in
    float64 near +/-37) but guarantees the exponential can never overflow.
    """
    return expit(np.clip(x, -_SIGMOID_CLAMP, _SIGMOID_CLAMP))


@dataclass
class LossOutput:
    """Scalar loss plus gradient aligned with the input scores."""

    value: float
    grad: np.ndarray


@dataclass
class ListTarget:
    """Graded relevance for one score list; valid_mask marks real (unpadded) slots."""

    grades: np.ndarray
    valid_mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.grades = np.asarray(self.grades, dtype=np.int64)
        if self.valid_mask is None:
            self.valid_mask = np.ones_like(self.grades)
        self.valid_mask = np.asarray(self.valid_mask, dtype=np.int64)
        if self.grades.shape != self.valid_mask.shape:
            raise ValidationError("grades and valid_mask must have identical shape")
        if self.grades.ndim != 1:
            raise ValidationError("ListTarget expects 1-D grades")
        if np.any((self.valid_mask != 0) & (self.valid_mask != 1)):
            raise ValidationError("valid_mask entries must be 0 or 1")
        active = self.grades[self.valid_mask == 1]
        if active.size and (active.min() < 0 or active.max() > GRADE_MAX):
            raise ValidationError(f"grades must lie in [0, {GRADE_MAX}]")


def _checked_scores(scores, target: ListTarget) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != target.grades.shape:
        raise ValidationError(
            f"scores shape {scores.shape} does not match grades shape {target.grades.shape}"
        )
    return scores


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max()
    e = np.exp(shifted)
    return e / e.sum()


def _logsumexp(x: np.ndarray) -> float:
    m = x.max()
    return float(m + np.log(np.exp(x - m).sum()))


# -- pairwise ---------------------------------------------------------------


def ranknet_loss(scores, target: ListTarget) -> LossOutput:
    """Relevance-weighted pairwise logistic loss.

    Over all valid ordered pairs (m, n) with grade_m > grade_n:
    ``w * -log sigmoid(s_m - s_n)`` with ``w = grade_m^2 - grade_n^2``,
    mean-reduced over contributing pairs. Lists without such a pair (all
    grades equal, or fewer than two valid documents) contribute zero.
    """
    scores = _checked_scores(scores, target)
    grad = np.zeros_like(scores)
    valid = np.flatnonzero(target.valid_mask == 1)
    g = target.grades[valid].astype(np.float64)
    s = scores[valid]
    m_idx, n_idx = np.nonzero(g[:, None] > g[None, :])
    if m_idx.size == 0:
        return LossOutput(0.0, grad)
    w = g[m_idx] ** 2 - g[n_idx] ** 2
    diff = s[m_idx] - s[n_idx]
    pair_losses = w * np.logaddexp(0.0, -diff)
    n_pairs = m_idx.size
    value = float(pair_losses.sum() / n_pairs)
    pair_grad = w * (_sigmoid(diff) - 1.0) / n_pairs
    np.add.at(grad, valid[m_idx], pair_grad)
    np.add.at(grad, valid[n_idx], -pair_grad)
    return LossOutput(value, grad)


# -- listwise ---------------------------------------------------------------


def listnet_loss(scores, target: ListTarget) -> LossOutput:
    """Top-one cross-entropy between softmax(grades) and softmax(scores)."""
    scores = _checked_scores(scores, target)
    valid = np.flatnonzero(target.valid_mask == 1)
    if valid.size == 0:
        raise EmptyInputError("listnet_loss needs at least one valid slot")
    s = scores[valid]
    p = _softmax(target.grades[valid].astype(np.float64))
    value = _logsumexp(s) - float(p @ s)
    grad = np.zeros_like(scores)
    grad[valid] = _softmax(s) - p
    return LossOutput(value, grad)


def listmle_target_order(grades: np.ndarray, tie_seed: int) -> np.ndarray:
    """Indices sorted by descending grade; ties shuffled by the seeded draw."""
    grades = np.asarray(grades)
    priority = np.random.default_rng(tie_seed).permutation(grades.size)
    return np.lexsort((priority, -grades))


def listmle_loss_on_order(scores, target: ListTarget, order) -> LossOutput:
    """Plackett-Luce negative log-likelihood of an explicit target order.

    ``order`` indexes the valid subsequence (positions after dropping padded
    slots) and must be a permutation of it; padded slots get zero gradient.
    ``listmle_loss`` is this function applied to the grade-descending order
    with seeded tie-breaks; passing the order directly supports custom tie
    policies and permutation tests.
    """
    scores = _checked_scores(scores, target)
    valid = np.flatnonzero(target.valid_mask == 1)
    if valid.size == 0:
        raise EmptyInputError("listmle_loss needs at least one valid slot")
    order = np.asarray(order, dtype=np.int64)
    if sorted(order.tolist()) != list(range(valid.size)):
        raise ValidationError(
            f"order must be a permutation of the {valid.size} valid slots"
        )
    visited = valid[order]
    t = scores[visited]
    m = t.max()
    e = np.exp(t - m)
    suffix = np.cumsum(e[::-1])[::-1]
    value = float(np.sum(np.log(suffix) + m - t))
    grad = np.zeros_like(scores)
    grad[visited] = e * np.cumsum(1.0 / suffix) - 1.0
    return LossOutput(value, grad)


def listmle_loss(scores, target: ListTarget, tie_seed: int = 0) -> LossOutput:
    """Negative log-likelihood of the grade-descending permutation under
    the Plackett-Luce model; grade ties are broken by a shuffle keyed on
    ``tie_seed`` so replays are deterministic.
    """
    order = listmle_target_order(target.grades[target.valid_mask == 1], tie_seed)
    return listmle_loss_on_order(scores, target, order)


def approxndcg_loss(scores, target: ListTarget, alpha: float = 1.0) -> LossOutput:
    """Negated smooth NDCG.

    Document positions are softened to
    ``pos(i) = 1 + sum_{j != i} sigmoid(alpha * (s_j - s_i))``, ``alpha > 0``
    being the sharpness of the smooth rank (Qin, Liu and Li 2010), and plugged
    into DCG with gain ``2^grade - 1`` and discount ``1/log2(1 + pos)``.
    Returns ``-DCG/IDCG`` (a value in [-1, 0]); a list whose grades are all
    zero scores -1 with zero gradient so batches stay total.
    """
    if not alpha > 0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    scores = _checked_scores(scores, target)
    valid = np.flatnonzero(target.valid_mask == 1)
    if valid.size == 0:
        raise EmptyInputError("approxndcg_loss needs at least one valid slot")
    g = target.grades[valid].astype(np.float64)
    s = scores[valid]
    n = s.size
    gains = 2.0**g - 1.0
    ideal = np.sort(gains)[::-1]
    idcg = float(np.sum(ideal / np.log2(2.0 + np.arange(n))))
    grad = np.zeros_like(scores)
    if idcg == 0.0:
        return LossOutput(-1.0, grad)

    diff = s[None, :] - s[:, None]  # diff[i, j] = s_j - s_i
    beats = _sigmoid(alpha * diff)
    np.fill_diagonal(beats, 0.0)
    pos = 1.0 + beats.sum(axis=1)
    u = 1.0 + pos
    log2u = np.log2(u)
    dcg_hat = float(np.sum(gains / log2u))
    value = -dcg_hat / idcg

    # c_i = d(DCG)/d(pos_i); B is symmetric because sigma'(x) = sigma'(-x)
    c = -gains / (u * np.log(2.0) * log2u**2)
    b = alpha * beats * (1.0 - beats)
    ddcg_ds = b.T @ c - c * b.sum(axis=0)
    grad[valid] = -ddcg_ds / idcg
    return LossOutput(value, grad)


# -- distillation and MLM ---------------------------------------------------


def margin_mse_loss(teacher_pos, teacher_neg, student_pos, student_neg) -> LossOutput:
    """Mean squared difference between student and teacher score margins.

    Teacher scores are constants; the gradient is with respect to the student
    scores and comes back stacked as ``grad[0] = d/d(student_pos)``,
    ``grad[1] = d/d(student_neg)``.
    """
    tp, tn, sp, sn = (np.asarray(a, dtype=np.float64) for a in (teacher_pos, teacher_neg, student_pos, student_neg))
    if not (tp.shape == tn.shape == sp.shape == sn.shape) or tp.ndim != 1:
        raise ValidationError("margin_mse_loss expects four 1-D score lists of equal length")
    if tp.size == 0:
        raise ValidationError("margin_mse_loss needs at least one pair")
    residual = (sp - sn) - (tp - tn)
    value = float(np.mean(residual**2))
    d_pos = 2.0 * residual / residual.size
    return LossOutput(value, np.stack([d_pos, -d_pos]))


def mlm_token_nll(logits, labels) -> tuple:
    """-log p(actual token) per masked position, and the row-wise log-softmax."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValidationError("logits must be [positions, vocab]")
    if logits.shape[0] == 0:
        raise EmptyInputError("masked-token loss called with no masked positions")
    if labels.shape != (logits.shape[0],):
        raise ValidationError("one label is required per logit row")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValidationError("label id outside vocabulary")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -log_probs[np.arange(logits.shape[0]), labels], log_probs


def mlm_cross_entropy(logits, labels) -> LossOutput:
    """Mean -log p(actual token) over masked positions; grad is wrt logits."""
    nll, log_probs = mlm_token_nll(logits, labels)
    grad = np.exp(log_probs)
    grad[np.arange(nll.size), labels] -= 1.0
    return LossOutput(float(nll.mean()), grad / nll.size)


# -- verification -----------------------------------------------------------


def finite_diff_check(loss_kernel, scores, target, epsilon: float) -> float:
    """Max relative error between the kernel's gradient and central differences.

    The relative error denominator is ``max(|analytic|, |numeric|, 1e-8)``
    per coordinate.
    """
    if not epsilon > 0:
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
    scores = np.asarray(scores, dtype=np.float64)
    analytic = np.asarray(loss_kernel(scores, target).grad, dtype=np.float64)
    if analytic.shape != scores.shape:
        raise ValidationError("kernel gradient shape must match scores shape")
    numeric = np.zeros_like(scores)
    for idx in np.ndindex(scores.shape):
        bumped = scores.copy()
        bumped[idx] = scores[idx] + epsilon
        up = loss_kernel(bumped, target).value
        bumped[idx] = scores[idx] - epsilon
        down = loss_kernel(bumped, target).value
        numeric[idx] = (up - down) / (2.0 * epsilon)
    if scores.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())
