"""Evaluation metrics: NDCG over graded relevance, perplexity, metric CSV rows.

NDCG uses gain 2^grade - 1 and discount 1/log2(1 + rank); score ties are
broken by ascending doc_id before the metric is computed so evaluation is
deterministic. An all-zero-grade list scores 1.0, mirroring the convention the
training losses use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, EmptyInputError

if TYPE_CHECKING:
    from .dataset import Dataset, QueryGroup


def dcg(grades_in_rank_order: Sequence[int], k: int | None = None) -> float:
    """Discounted cumulative gain of a graded list in its ranked order."""
    if k is None:
        k = len(grades_in_rank_order)
    total = 0.0
    for rank, grade in enumerate(grades_in_rank_order[:k], start=1):
        total += (2.0**grade - 1.0) / math.log2(1.0 + rank)
    return total


def ndcg_at_k(grades_in_predicted_order: Sequence[int], k: int | None = None) -> float:
    """NDCG of a list whose grades are given in predicted-score order.

    ``k=None`` means full-list NDCG. All-zero grades score 1.0 by convention.
    """
    if k is not None and k <= 0:
        raise ConfigurationError(f"NDCG cutoff k must be positive, got {k}")
    ideal = sorted(grades_in_predicted_order, reverse=True)
    idcg = dcg(ideal, k)
    if idcg == 0.0:
        return 1.0
    return dcg(grades_in_predicted_order, k) / idcg


def str_rank(ids: Sequence[str]) -> np.ndarray:
    """Position of each of the ``ids`` in ascending ``str`` order.

    Python's ``sorted`` gives the order: numpy ``U`` arrays drop trailing NULs,
    so sorting them could tie ids that differ.
    """
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def score_order(scores: np.ndarray, id_rank: np.ndarray, k: int | None = None) -> np.ndarray:
    """Indices by descending score, ties by ascending ``id_rank``; the one
    ranking order of evaluation and serving. With ``k``, the first ``k``
    indices of that order only.

    With ``k`` below the list's length, only the indices that score at least
    the k-th largest score are sorted, ties at the boundary included. Otherwise
    numpy's unstable sort orders the scores, and then each run of equal scores
    (NaNs count as equal) is sorted by ``id_rank``.
    """
    neg = -scores
    if k is not None and k < len(neg):
        kth = np.partition(neg, k - 1)[k - 1]
        keep = np.flatnonzero(~(neg > kth))  # NaN compares false: a NaN k-th score keeps every index
        return keep[np.lexsort((id_rank[keep], neg[keep]))[:k]]
    order = np.argsort(neg)
    ranked = neg[order]
    tie = (ranked[1:] == ranked[:-1]) | (np.isnan(ranked[1:]) & np.isnan(ranked[:-1]))
    if tie.any():
        follows = np.zeros(len(neg), dtype=bool)
        follows[1:] = tie
        run = follows.copy()
        run[:-1] |= tie
        tied = order[run]
        ids = id_rank[tied]
        # One integer key: run number, then id rank. id_rank may hold ranks
        # within a longer list (a store's, for gathered rows), so the run
        # number is scaled past the largest id rank, not past len(scores).
        key = (~follows[run]).cumsum() * (int(ids.max()) + 1) + ids
        order[run] = tied[key.argsort(kind="stable")]
    return order


def mean_ndcg(
    dataset: "Dataset",
    scorer: Callable[["QueryGroup"], Sequence[float]],
    k: int | None = None,
) -> float:
    """Unweighted mean of per-query NDCG under ``scorer``.

    ``scorer`` maps a query group to one score per document.
    """
    if k is not None and k <= 0:
        raise ConfigurationError(f"NDCG cutoff k must be positive, got {k}")
    if not dataset.groups:
        raise EmptyInputError("cannot evaluate mean NDCG over an empty dataset")
    total = 0.0
    for group in dataset.groups:
        scores = np.asarray(scorer(group), dtype=np.float64)
        if scores.shape != (len(group.docs),):
            raise ConfigurationError(
                f"scorer returned {scores.shape} scores for a group of {len(group.docs)} docs"
            )
        order = score_order(scores, str_rank([d.doc_id for d in group.docs]))
        total += ndcg_at_k([group.grades[i] for i in order.tolist()], k)
    return total / len(dataset.groups)


def perplexity(mean_mlm_loss: float) -> float:
    """exp(mean token-level cross-entropy)."""
    return float(math.exp(mean_mlm_loss))


def nearest_rank_percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    if not values:
        raise EmptyInputError("percentile of an empty sequence")
    if not 0.0 < p <= 100.0:
        raise ConfigurationError(f"percentile must lie in (0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class MetricRow:
    """One evaluation record; serialized as CSV by :func:`metrics_to_csv`."""

    epoch: int
    split: str
    loss_name: str
    loss_value: float | None
    mean_ndcg: float | None


METRIC_CSV_HEADER = "epoch,split,loss_name,loss_value,mean_ndcg"


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6g}"


def metrics_to_csv(rows: Iterable[MetricRow]) -> str:
    """Render metric rows as CSV (header included, 6 significant digits)."""
    lines = [METRIC_CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.epoch},{row.split},{row.loss_name},{_fmt(row.loss_value)},{_fmt(row.mean_ndcg)}"
        )
    return "\n".join(lines) + "\n"
