"""Optimization loops: masked-token pre-training, listwise fine-tuning of the
cross-encoder, and distillation of a dot-product bi-encoder student.

Everything is deterministic given (seed, config, data): shuffles, masking,
and tie-breaking all derive from ``numpy.random.default_rng`` seeded with
fixed lists, and reduction orders never depend on dict iteration or timing.
The three objectives share one epoch loop (``_train``) and differ only in
their step function. Checkpoints use the shared ``fileio`` frame, so a save
is atomic and the hash covers every byte: an interrupted write never leaves a
half-written file behind, and an edit of the header or the parameters is
detected on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import zip_longest
from typing import ClassVar

import numpy as np

from . import encoder as enc
from .dataset import Dataset, QueryGroup
from .errors import (CheckpointError, ConfigurationError, ContractError, EmptyInputError, NonFiniteError,
                     ValidationError, check_field_types)
from .fileio import FrameFormat, digest, read_framed, write_framed
from .losses import (
    ListTarget,
    approxndcg_loss,
    listmle_loss,
    listnet_loss,
    margin_mse_loss,
    mlm_cross_entropy,
    mlm_token_nll,
    ranknet_loss,
)
from .metrics import MetricRow, mean_ndcg
from .tokenizer import MASK_ID, N_SPECIAL, UNMASKED, Tokenizer, mask_for_mlm

CKPT_FORMAT = FrameFormat("checkpoint", b"LRCKPT01", 4, CheckpointError)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by all three training loops. Adam's decay rates
    and epsilon are the constants of Kingma and Ba (2015)."""

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8

    lr: float = 3e-4
    epochs: int = 10
    batch_size: int = 8
    seed: int = 0
    approx_alpha: float = 1.0
    mask_rate: float = 0.15
    heldout_fraction: float = 0.1
    distill_pair_cap: int = 50
    init_from_teacher: bool = True

    def __post_init__(self):
        check_field_types(self, ConfigurationError)
        if not 0 < self.lr < np.inf:
            raise ConfigurationError(f"lr must be positive and finite, got {self.lr}")
        if self.epochs < 0:
            raise ConfigurationError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if not 0 < self.approx_alpha < np.inf:
            raise ConfigurationError(f"approx_alpha must be positive and finite, got {self.approx_alpha}")
        if not 0.0 <= self.mask_rate <= 1.0:
            raise ConfigurationError("mask_rate must lie in [0, 1]")
        if not 0.0 < self.heldout_fraction < 1.0:
            raise ConfigurationError("heldout_fraction must lie in (0, 1)")
        if self.distill_pair_cap < 1:
            raise ConfigurationError("distill_pair_cap must be >= 1")


@dataclass
class AdamState:
    """First and second moment vectors, laid out like ``EncoderParams.flat``,
    plus the shared step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_adam_state(params: enc.EncoderParams) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), step=0)


def _first_non_finite(params: enc.EncoderParams) -> str:
    """Name of the first parameter group holding a NaN or an infinity."""
    return next(name for name, a in params.named_arrays() if not np.isfinite(a).all())


def adam_step(params: enc.EncoderParams, grads: enc.EncoderParams, state: AdamState, config: TrainConfig):
    """One in-place Adam update with bias correction, over the flat vector.

    A non-finite gradient anywhere aborts the step and names the offending
    parameter; params and state are left untouched in that case.
    """
    g = grads.flat
    if not np.isfinite(g).all():
        raise NonFiniteError(f"non-finite gradient in parameter group '{_first_non_finite(grads)}'")
    state.step += 1
    t = state.step
    bc1 = 1.0 - config.beta1**t
    bc2 = 1.0 - config.beta2**t
    m, v = state.m, state.v
    m *= config.beta1
    m += (1.0 - config.beta1) * g
    v *= config.beta2
    v += (1.0 - config.beta2) * (g * g)
    params.flat -= config.lr * (m / bc1) / (np.sqrt(v / bc2) + config.adam_eps)
    return params, state


# -- checkpoints ------------------------------------------------------------


@dataclass
class Checkpoint:
    """A full model snapshot: parameters plus everything needed to rebuild
    the exact training context (architecture, objective, seed, tokenizer)."""

    params: enc.EncoderParams
    loss_name: str
    seed: int
    epoch: int
    tokenizer_hash: str

    @property
    def config(self) -> enc.EncoderConfig:
        """The architecture, owned by ``params``."""
        return self.params.config


def init_checkpoint(config: enc.EncoderConfig, seed: int, tokenizer_hash: str) -> Checkpoint:
    return Checkpoint(params=enc.init_params(config, seed), loss_name="init", seed=seed, epoch=0,
                      tokenizer_hash=tokenizer_hash)


def _manifest(config: enc.EncoderConfig) -> list:
    """Name, shape, byte offset and byte size of every array in the payload,
    from ``param_layout`` alone, so no array is allocated."""
    manifest, offset = [], 0
    for name, shape in enc.param_layout(config):
        size = 4 * math.prod(shape)
        manifest.append({"name": name, "shape": list(shape), "offset": offset, "size": size})
        offset += size
    return manifest


def _payload(params: enc.EncoderParams) -> np.ndarray:
    """``flat`` as little-endian float32: every array in ``named_arrays`` order."""
    return params.flat.astype("<f4")


def checkpoint_fingerprint(ckpt: Checkpoint) -> str:
    """Short content hash of the stored (float32) parameters; embedding
    stores carry this value so a store can be matched to its checkpoint."""
    return digest(_payload(ckpt.params)).hex()


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Write config, training metadata and manifest, then the float32 payload."""
    header = {
        "encoder_config": asdict(ckpt.config),
        "loss_name": ckpt.loss_name,
        "seed": ckpt.seed,
        "epoch": ckpt.epoch,
        "tokenizer_hash": ckpt.tokenizer_hash,
        "manifest": _manifest(ckpt.config),
    }
    write_framed(path, CKPT_FORMAT, header, _payload(ckpt.params))


def _check_manifest(path: str, manifest, expected: list) -> None:
    """Refuse any manifest but the one the encoder config implies. Entries
    compare as JSON, so 0.0 or false never pass for the integer 0, and any
    missing, extra, reordered, resized, overlapping or gapped entry is found."""
    if not isinstance(manifest, list):
        raise CheckpointError(f"{path}: manifest is not a list")
    for i, (got, want) in enumerate(zip_longest(manifest, expected)):
        if json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True):
            raise CheckpointError(
                f"{path}: manifest entry {i} is {got!r}, the encoder config implies {want!r}"
            )


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint, verifying magic, version, structure, and hash.

    Parameters come back as float64 copies of the stored float32 values. The
    payload is sized from the header's config in closed form over its layer
    count, and the manifest and the parameters are built only once its length
    and hash check out, so no header can ask for an allocation or a loop its
    file does not hold.
    """

    def payload_bytes(header):
        for key in ("encoder_config", "loss_name", "seed", "epoch", "tokenizer_hash", "manifest"):
            if key not in header:
                raise CheckpointError(f"{path}: header missing field {key!r}")
        for key, kind in (("loss_name", str), ("seed", int), ("epoch", int), ("tokenizer_hash", str)):
            if type(header[key]) is not kind:
                raise CheckpointError(f"{path}: header field {key!r} must be {kind.__name__}, "
                                      f"got {header[key]!r}")
        try:
            config = enc.EncoderConfig(**header["encoder_config"])
        except (TypeError, ValueError, ConfigurationError) as exc:
            raise CheckpointError(f"{path}: bad encoder config ({exc})") from exc
        return 4 * enc.param_count(config)

    header, payload = read_framed(path, CKPT_FORMAT, payload_bytes)
    config = enc.EncoderConfig(**header["encoder_config"])
    _check_manifest(path, header["manifest"], _manifest(config))
    params = enc.EncoderParams(config, np.frombuffer(payload, dtype="<f4").astype(np.float64))
    return Checkpoint(params, header["loss_name"], header["seed"], header["epoch"],
                      header["tokenizer_hash"])


# -- shared helpers ---------------------------------------------------------


#: Each list loss as ``kernel(scores, target, tie_seed, alpha)``. The entries
#: look the loss functions up when called, so a rebound module name is seen.
_LOSS_KERNELS = {
    "ranknet": lambda scores, target, tie_seed, alpha: ranknet_loss(scores, target),
    "listnet": lambda scores, target, tie_seed, alpha: listnet_loss(scores, target),
    "listmle": lambda scores, target, tie_seed, alpha: listmle_loss(scores, target, tie_seed=tie_seed),
    "approxndcg": lambda scores, target, tie_seed, alpha: approxndcg_loss(scores, target, alpha),
}
LOSS_NAMES = tuple(_LOSS_KERNELS)


def _check_tokenizer(ckpt: Checkpoint, tokenizer: Tokenizer) -> None:
    """Refuse a tokenizer other than the one ``ckpt`` records (an empty
    recorded hash matches any tokenizer)."""
    if ckpt.tokenizer_hash and ckpt.tokenizer_hash != tokenizer.content_hash():
        raise ContractError(
            f"tokenizer {tokenizer.content_hash()} does not match the one recorded "
            f"in the checkpoint ({ckpt.tokenizer_hash})"
        )


def _first_occurrences(items) -> tuple[list, np.ndarray]:
    """The distinct ``items`` in first-occurrence order, and each item's
    index among them: ``distinct[index[i]] == items[i]``. The one rule by
    which every inference forward runs each distinct text once."""
    positions = {}
    index = [positions.setdefault(item, len(positions)) for item in items]
    return list(positions), np.asarray(index, dtype=np.intp)


def score_pairs(ckpt: Checkpoint, tokenizer: Tokenizer, query: str, texts) -> np.ndarray:
    """Cross-encoder scores of ``query`` paired with each of ``texts``.

    Each distinct text is paired with the query and encoded once, in
    first-occurrence order; the pairs run through ``_embed_rows`` and the
    score head, and every text gets its text's score, so a repeated text
    shares its first occurrence's score exactly. Pairs that fit the budget
    give bit for bit ``score_cls_batch``'s scores of the distinct rows; a
    forward of every pair gives the same scores within rounding."""
    distinct, index = _first_occurrences(texts)
    rows = tokenizer.encode_pairs(query, distinct, ckpt.config.max_len)
    return (np.concatenate([*_embed_rows(ckpt.params, rows)]) @ ckpt.params.score_w + ckpt.params.score_b)[index]


def embed_texts(ckpt: Checkpoint, tokenizer: Tokenizer, texts) -> np.ndarray:
    """Bi-encoder embeddings of ``texts``: each distinct text is encoded
    once, in first-occurrence order, the distinct rows run through
    ``_embed_rows``, and every text gets its text's row. Rows that fit its
    budget give bit for bit the embeddings ``embed_batch`` returns over the
    distinct rows, expanded to one per text; a batch of every text gives the
    same rows within rounding."""
    distinct, index = _first_occurrences(texts)
    rows = [tokenizer.encode_single(t, ckpt.config.max_len).ids for t in distinct]
    return np.concatenate([*_embed_rows(ckpt.params, rows)])[index]


def _embed_rows(params: enc.EncoderParams, rows, read=enc._cls_rows):
    """Last-layer states of token id ``rows`` at the positions ``read`` marks
    in their padded ids ([CLS] by default), in row-major order, yielded per
    chunk of rows. Each chunk runs as one inference forward, cut before the
    row that would take ``rows × longest row`` past a padded-token budget and
    holding at least one row, so rows that fit the budget run as one. A head
    run per chunk can round otherwise than one product over every row: the
    tied head where ``evaluate_mlm`` says, the score head in each chunk's
    last ``len % 4`` scores, so ``score_pairs`` runs it on all chunks' states."""
    # The budget keeps a chunk's widest float64 activation (the feed-forward's,
    # ffn_dim wide) within 1 MiB: 512 tokens at the default width. A chunk's
    # arrays are freed before the next forward; glibc hands the memory of
    # larger chunks back to the system (unmap or heap trim), so each chunk
    # then faults its memory in afresh. At 10,500 docs of 5 tokens (2-core
    # x86-64, one BLAS thread), a repeated build took 109k minor faults and
    # 1.04 s with chunks of 256 docs, 0-900 faults and 0.71-0.87 s at budgets
    # of 256-512 tokens, and 156k faults and 1.12-1.17 s at 1,024 tokens. The
    # 0-900 holds only once the process has freed a large array; in a fresh
    # process a build at 512 tokens takes 122k-125k faults.
    budget = (1 << 20) // (8 * params.config.ffn_dim)
    starts, longest = [0], 0
    for end, n in enumerate(map(len, rows)):
        longest = max(longest, n)
        if end > starts[-1] and (end + 1 - starts[-1]) * longest > budget:
            starts.append(end)
            longest = n
    for start, end in zip(starts, starts[1:] + [len(rows)]):
        ids, mask = enc.pad_token_rows(rows[start:end])
        yield enc.forward_batch(params, params.config, ids, mask, rows=read(ids))


def make_cross_encoder_scorer(ckpt: Checkpoint, tokenizer: Tokenizer):
    """Group scorer that runs the cross-encoder over every (query, doc) pair."""
    _check_tokenizer(ckpt, tokenizer)

    def scorer(group: QueryGroup) -> np.ndarray:
        return score_pairs(ckpt, tokenizer, group.query_text, [d.text for d in group.docs])

    return scorer


def make_bi_encoder_scorer(ckpt: Checkpoint, tokenizer: Tokenizer):
    """Group scorer that embeds query and documents separately and takes
    dot products, mirroring how the student serves."""
    _check_tokenizer(ckpt, tokenizer)

    def scorer(group: QueryGroup) -> np.ndarray:
        emb = embed_texts(ckpt, tokenizer, [group.query_text] + [d.text for d in group.docs])
        return emb[1:] @ emb[0]

    return scorer


def make_scorer(ckpt: Checkpoint, tokenizer: Tokenizer):
    """The group scorer ``ckpt`` serves with: the bi-encoder scorer for a
    distilled student, the cross-encoder scorer otherwise."""
    if ckpt.loss_name == "margin_mse":
        return make_bi_encoder_scorer(ckpt, tokenizer)
    return make_cross_encoder_scorer(ckpt, tokenizer)


def _ndcg_eval(eval_dataset, snapshot, tokenizer: Tokenizer):
    """An ``evaluate`` for ``_train``: one eval row holding the mean NDCG of
    ``snapshot(epoch)`` on ``eval_dataset``, or no row without eval data."""

    def evaluate(epoch):
        if eval_dataset is None or not eval_dataset.groups:
            return []
        ckpt = snapshot(epoch)
        ndcg = mean_ndcg(eval_dataset, make_scorer(ckpt, tokenizer))
        return [MetricRow(epoch, "eval", ckpt.loss_name, None, ndcg)]

    return evaluate


def _train(params: enc.EncoderParams, train_config: TrainConfig, n_items: int, shuffle_tag: int,
           loss_name: str, step, evaluate) -> list:
    """The epoch loop every objective shares; updates ``params`` in place.

    Each epoch visits the ``n_items`` training items in an order drawn from
    ``[seed, shuffle_tag]``, ``batch_size`` at a time. ``step(batch, epoch)``
    gets the item indices, runs the forward pass and returns ``(trace,
    finish)``, or None to skip the batch; ``finish()`` returns ``(grads,
    losses, weight)`` for one Adam step. The epoch's train row is the sum of
    all ``losses``, added in order, over the sum of all weights (0.0 when
    every batch was skipped); ``evaluate(epoch)``'s rows follow it. Returns
    the history rows.

    The parameters are checked after every Adam step: a non-finite gradient or
    parameter stops the run with one error that names the group, the epoch and
    the step (its batch's place in the epoch, from 1). numpy's floating-point
    warnings are off during the steps, so that error is what reports a
    divergence there; ``evaluate`` runs with them as the caller set them.

    As in an inline loop, a step's trace is freed only once the next forward
    has run, and its other arrays as soon as it has finished. Freed with its
    step, the trace's pages go back to the operating system and fault in
    again every step (2.5 times the page faults, about 10% slower
    fine-tuning); kept longer, it or those arrays add page faults too.
    """
    state = init_adam_state(params)
    shuffle_rng = np.random.default_rng([train_config.seed, shuffle_tag])
    history = []
    for epoch in range(1, train_config.epochs + 1):
        order = shuffle_rng.permutation(n_items)
        total, weight = 0.0, 0
        with np.errstate(all="ignore"):
            for batch_no, start in enumerate(range(0, n_items, train_config.batch_size), 1):
                forwarded = step(order[start : start + train_config.batch_size], epoch)
                if forwarded is None:
                    continue
                trace, finish = forwarded  # frees the previous step's trace
                grads, losses, batch_weight = finish()
                del forwarded, finish  # frees this step's other arrays before the next forward
                try:
                    adam_step(params, grads, state, train_config)
                except NonFiniteError as exc:
                    raise NonFiniteError(f"epoch {epoch}, step {batch_no}: {exc}") from None
                if not np.isfinite(params.flat).all():
                    raise NonFiniteError(f"epoch {epoch}, step {batch_no}: the Adam update made parameter group "
                                         f"'{_first_non_finite(params)}' non-finite")
                for value in losses:
                    total += value
                weight += batch_weight
        history.append(MetricRow(epoch, "train", loss_name, total / weight if weight else 0.0, None))
        history.extend(evaluate(epoch))
    return history


# -- masked-token pre-training ----------------------------------------------


def _mlm_loss(params: enc.EncoderParams, rows, labels):
    """Masked-token loss of the id ``rows`` at their [MASK] positions, against
    one label per [MASK] in row-major order. Returns ``(loss, states,
    trace)``: ``states``, the hidden states of those positions in the same
    order, are what the head scored, and the forward ran the last layer from
    its queries on them alone."""
    ids, mask = enc.pad_token_rows(rows)
    states, trace = enc.forward_batch(params, params.config, ids, mask, rows=ids == MASK_ID, _keep_trace=True)
    return mlm_cross_entropy(enc.mlm_logits_batch(params, states), labels), states, trace


def evaluate_mlm(params: enc.EncoderParams, seqs, mask_rate: float, mask_seed_base: list) -> float:
    """Mean masked-token loss over ``seqs`` with deterministic per-line masks.

    Lines where the draw masks nothing are skipped; if that leaves nothing,
    the first maskable position of the first eligible line is masked instead,
    so the evaluation is never empty for a corpus with any real tokens. The
    lines' [MASK] positions, the labelled ones, are read through
    ``_embed_rows``, and each chunk's tied-head logits become its positions'
    losses before the next chunk runs, so no logits span more than one chunk.
    Within the budget the value is bit for bit ``_mlm_loss``'s on the same
    lines. Past it, a chunk's logits can round otherwise than the same rows
    of one product over every chunk. Random ``(M, 64) @ (64, V)`` against the
    same rows of a 3,000-row product (one BLAS thread, OpenBLAS 0.3.31
    Haswell): a one-row product differed in 473-511 of 604 columns, a larger
    one only in the last ``V % 8`` columns of its last 25 rows or fewer, and
    at ``V % 8 == 0`` nowhere. At 7,440 held-out lines of the acceptance
    shape (V = 604), 180 of the 4,409 masked rows in 35 chunks had other
    logit bits there, and every row kept the one-product loss bits."""
    rows, labels = [], []
    for li, seq in enumerate(seqs):
        masked, line_labels = mask_for_mlm(seq, rate=mask_rate, seed=mask_seed_base + [li])
        if MASK_ID in masked.ids:
            rows.append(masked.ids)
            labels += [lab for lab in line_labels if lab != UNMASKED]
    if not rows:
        maskable = ((seq.ids, p) for seq in seqs for p, t in enumerate(seq.ids) if t >= N_SPECIAL)
        ids, p = next(maskable, (None, None))
        if ids is None:
            raise EmptyInputError("evaluation lines contain no maskable tokens")
        rows, labels = [ids[:p] + [MASK_ID] + ids[p + 1 :]], [ids[p]]
    labels = iter(labels)  # each chunk's head takes the next len(states) labels
    nll = [mlm_token_nll(enc.mlm_logits_batch(params, states), np.fromiter(labels, np.int64, len(states)))[0]
           for states in _embed_rows(params, rows, lambda ids: ids == MASK_ID)]
    return float(np.concatenate(nll).mean())


def pretrain_mlm(
    corpus,
    tokenizer: Tokenizer,
    encoder_config: enc.EncoderConfig,
    train_config: TrainConfig,
):
    """Train the encoder to predict masked tokens.

    A deterministic slice of the corpus is held out; history rows report the
    held-out loss at epoch 0 (before any update) and after every epoch, so
    the improvement over the untrained model can be read off directly.
    Returns ``(checkpoint, history)``.
    """
    corpus = list(corpus)
    if not corpus:
        raise EmptyInputError("pre-training corpus is empty")
    params = enc.init_params(encoder_config, train_config.seed)

    seqs = [tokenizer.encode_single(line, encoder_config.max_len) for line in corpus]
    n = len(seqs)
    split_rng = np.random.default_rng([train_config.seed, 7201])
    perm = split_rng.permutation(n)
    n_heldout = max(1, int(round(train_config.heldout_fraction * n))) if n > 1 else 0
    train_idx = perm[n_heldout:]
    heldout_seqs = [seqs[i] for i in (perm[:n_heldout] if n_heldout else train_idx)]
    eval_seed_base = [train_config.seed, 7202]

    def evaluate(epoch):
        loss = evaluate_mlm(params, heldout_seqs, train_config.mask_rate, eval_seed_base)
        return [MetricRow(epoch, "heldout", "mlm", loss, None)]

    def step(batch, epoch):
        rows, labels = [], []
        for li in train_idx[batch]:
            masked_seq, line_labels = mask_for_mlm(
                seqs[li], rate=train_config.mask_rate, seed=[train_config.seed, 7204, epoch, int(li)]
            )
            rows.append(masked_seq.ids)
            labels += [lab for lab in line_labels if lab != UNMASKED]
        if not labels:
            return None
        out, states, trace = _mlm_loss(params, rows, labels)

        def finish():
            grads = enc.backward_batch(params, encoder_config, trace, out.grad @ params.tok_emb)
            grads.tok_emb += out.grad.T @ states
            grads.mlm_bias += out.grad.sum(axis=0)
            return grads, [out.value * len(states)], len(states)

        return trace, finish

    history = evaluate(0)
    history += _train(params, train_config, train_idx.size, 7203, "mlm", step, evaluate)
    ckpt = Checkpoint(params=params, loss_name="mlm", seed=train_config.seed, epoch=train_config.epochs,
                      tokenizer_hash=tokenizer.content_hash())
    return ckpt, history


# -- listwise fine-tuning ---------------------------------------------------


def finetune_ltr(
    dataset: Dataset,
    checkpoint_in: Checkpoint,
    loss_name: str,
    train_config: TrainConfig,
    tokenizer: Tokenizer,
    eval_dataset: Dataset = None,
):
    """Fine-tune the cross-encoder on graded lists with the chosen surrogate.

    Each step averages per-query gradients over a batch of query groups.
    History rows carry the mean training loss per epoch and, when an eval
    dataset is given, its mean NDCG per epoch. Returns ``(checkpoint, history)``.
    """
    if loss_name not in _LOSS_KERNELS:
        raise ConfigurationError(f"unknown loss {loss_name!r}; choose one of {LOSS_NAMES}")
    kernel = _LOSS_KERNELS[loss_name]
    if not dataset.groups:
        raise EmptyInputError("training dataset has no query groups")
    _check_tokenizer(checkpoint_in, tokenizer)

    config = checkpoint_in.config
    params = checkpoint_in.params.copy()
    encoded = [tokenizer.encode_pairs(g.query_text, [d.text for d in g.docs], config.max_len)
               for g in dataset.groups]
    targets = [ListTarget(np.asarray(g.grades, dtype=np.int64)) for g in dataset.groups]

    def snapshot(epoch):
        return Checkpoint(params, loss_name, train_config.seed, epoch, checkpoint_in.tokenizer_hash)

    def step(batch, epoch):
        rows = [row for gi in batch for row in encoded[gi]]
        ids, mask = enc.pad_token_rows(rows)
        scores, trace = enc.score_cls_batch(params, config, ids, mask)

        def finish():
            d_scores = np.zeros_like(scores)
            values = []
            offset = 0
            for gi in batch:
                size = len(encoded[gi])
                sl = slice(offset, offset + size)
                tie_seed = [train_config.seed, 8102, epoch, int(gi)]
                out = kernel(scores[sl], targets[gi], tie_seed, train_config.approx_alpha)
                d_scores[sl] = out.grad / batch.size
                values.append(out.value)
                offset += size
            return enc.score_cls_backward(params, config, trace, d_scores), values, batch.size

        return trace, finish

    evaluate = _ndcg_eval(eval_dataset, snapshot, tokenizer)
    history = _train(params, train_config, len(dataset.groups), 8101, loss_name, step, evaluate)
    return snapshot(train_config.epochs), history


# -- distillation -----------------------------------------------------------


def distill_pairs(group: QueryGroup, cap: int):
    """Document index pairs (higher grade, lower grade) for one query,
    ordered by descending grade gap with index tie-breaks, capped at ``cap``."""
    grades = group.grades
    pairs = [
        (i, j)
        for i in range(len(grades))
        for j in range(len(grades))
        if grades[i] > grades[j]
    ]
    pairs.sort(key=lambda p: (-(grades[p[0]] - grades[p[1]]), p[0], p[1]))
    return pairs[:cap]


def distill(
    teacher: Checkpoint,
    dataset: Dataset,
    train_config: TrainConfig,
    tokenizer: Tokenizer,
    eval_dataset: Dataset = None,
):
    """Train a bi-encoder student to reproduce the teacher's score margins.

    Teacher scores per group are computed once up front. The student starts
    from the teacher's weights unless ``train_config.init_from_teacher`` is
    false. Returns ``(checkpoint, history)``.
    """
    if not dataset.groups:
        raise EmptyInputError("distillation dataset has no query groups")
    if teacher.loss_name not in LOSS_NAMES:
        raise ValidationError(
            f"teacher checkpoint was not produced by list fine-tuning (loss {teacher.loss_name!r})"
        )
    _check_tokenizer(teacher, tokenizer)

    config = teacher.config
    teacher_scores = [score_pairs(teacher, tokenizer, g.query_text, [d.text for d in g.docs])
                      for g in dataset.groups]

    pair_sets = [distill_pairs(g, train_config.distill_pair_cap) for g in dataset.groups]
    usable = [gi for gi, pairs in enumerate(pair_sets) if pairs]
    if not usable:
        raise EmptyInputError("no query group has a pair of documents with different grades")

    if train_config.init_from_teacher:
        params = teacher.params.copy()
    else:
        params = enc.init_params(config, train_config.seed)

    # Per usable group: rows = [query] + unique docs referenced by its pairs.
    encoded = []
    for gi in usable:
        group = dataset.groups[gi]
        doc_ids_used = sorted({i for pair in pair_sets[gi] for i in pair})
        rows = [tokenizer.encode_single(group.query_text, config.max_len).ids]
        rows += [
            tokenizer.encode_single(group.docs[i].text, config.max_len).ids
            for i in doc_ids_used
        ]
        local = {doc: r + 1 for r, doc in enumerate(doc_ids_used)}
        pos_rows = np.asarray([local[i] for i, _ in pair_sets[gi]], dtype=np.int64)
        neg_rows = np.asarray([local[j] for _, j in pair_sets[gi]], dtype=np.int64)
        t_pos = teacher_scores[gi][[i for i, _ in pair_sets[gi]]]
        t_neg = teacher_scores[gi][[j for _, j in pair_sets[gi]]]
        encoded.append({"rows": rows, "pos": pos_rows, "neg": neg_rows,
                        "t_pos": t_pos, "t_neg": t_neg})

    def snapshot(epoch):
        return Checkpoint(params, "margin_mse", train_config.seed, epoch, teacher.tokenizer_hash)

    def step(batch, epoch):
        rows = [row for bi in batch for row in encoded[bi]["rows"]]
        ids, mask = enc.pad_token_rows(rows)
        emb, trace = enc.embed_batch(params, config, ids, mask)

        def finish():
            d_emb = np.zeros_like(emb)
            values = []
            offset = 0
            for bi in batch:
                e = encoded[bi]
                n_rows = len(e["rows"])
                block = emb[offset : offset + n_rows]
                q = block[0]
                s_pos = block[e["pos"]] @ q
                s_neg = block[e["neg"]] @ q
                out = margin_mse_loss(e["t_pos"], e["t_neg"], s_pos, s_neg)
                d_pos, d_neg = out.grad[0] / batch.size, out.grad[1] / batch.size
                d_block = d_emb[offset : offset + n_rows]
                np.add.at(d_block, e["pos"], d_pos[:, None] * q[None, :])
                np.add.at(d_block, e["neg"], d_neg[:, None] * q[None, :])
                d_block[0] += d_pos @ block[e["pos"]] + d_neg @ block[e["neg"]]
                values.append(out.value)
                offset += n_rows
            return enc.embed_backward(params, config, trace, d_emb), values, batch.size

        return trace, finish

    evaluate = _ndcg_eval(eval_dataset, snapshot, tokenizer)
    history = _train(params, train_config, len(usable), 9101, "margin_mse", step, evaluate)
    return snapshot(train_config.epochs), history
