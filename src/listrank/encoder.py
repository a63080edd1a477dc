"""Transformer encoder in plain numpy with hand-written backpropagation.

A training forward records every intermediate needed for the exact
gradient (a ForwardTrace), so ``backward_batch`` can return analytically
correct parameter gradients without any autodiff framework. Every head reads
only some positions of the last layer (the first token, or the masked ones),
so its forward passes those ``rows``: the last layer computes keys and values
for every position, but queries, attention and everything after them only
for those rows, and the training backward of that part runs on them alone.
The states agree with the full forward's to within rounding (about one ulp),
and inference, which keeps no trace, gives the same bits as the heads'
training forwards. All math happens in float64. Architecture: learned
token and position embeddings, post-norm residual blocks (multi-head
attention then a GELU feed-forward), a linear scoring head over the
first-token state, and a masked-token head that shares the token embedding
matrix.

The feed-forward uses the exact (erf) GELU. Its trace caches
``1 + erf(x/√2)`` next to the pre-activation, so the backward pass evaluates
only the Gaussian density term and never calls ``erf`` again. Elementwise
chains (bias adds, residual adds, the attention scaling and mask, the
softmax, the layer norm and their backward passes) run in place, in the same
order of operations as their written-out forms, so every result is bit for
bit the same as those forms.

Padded positions are excluded from attention with additive -inf on the key
axis, which makes the states of real tokens independent of how much padding
follows them, up to rounding: the softmax sum and ``probs @ v`` run over the
padded length, and numpy's pairwise sum changes its order at 8 or more keys,
so a text can embed to other bits in a batch padded to another length. A
batch without padding adds no key bias: adding its zeros would change no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy.special import erf

from .errors import ConfigurationError, ContractError, EmptyInputError, ValidationError, check_field_types
from .tokenizer import CLS_ID, PAD_ID

LN_EPS = 1e-5
INIT_STD = 0.02
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


#: The most parameters an encoder may hold: training keeps 32 bytes of each
#: (the float64 value, its gradient and Adam's two moments), so 2**27 of them
#: fill 4 GiB. Every shape field enters the count, so no field needs a bound
#: of its own, and a shape past it is refused before anything is allocated.
MAX_PARAMS = 1 << 27


@dataclass(frozen=True)
class EncoderConfig:
    """Shape of the encoder; defaults are the desk-scale configuration."""

    n_layers: int = 2
    n_heads: int = 4
    model_dim: int = 64
    ffn_dim: int = 256
    vocab_size: int = 2000
    max_len: int = 64

    def __post_init__(self):
        check_field_types(self, ConfigurationError)
        if self.n_layers < 0:
            raise ConfigurationError("n_layers must be >= 0")
        for name in ("n_heads", "model_dim", "ffn_dim", "vocab_size", "max_len"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.model_dim % self.n_heads != 0:
            raise ConfigurationError(
                f"model_dim {self.model_dim} is not divisible by n_heads {self.n_heads}"
            )
        if (n_params := param_count(self)) > MAX_PARAMS:
            raise ConfigurationError(f"the encoder shape holds {n_params} parameters, "
                                     f"more than the {MAX_PARAMS} that training fits in 4 GiB")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.n_heads


def _layout_tables(config: EncoderConfig) -> tuple:
    """``(name, shape)`` of the arrays before the blocks, of one block's (the
    query, key and value columns of ``w_qkv``, then the rest), and of those after."""
    d, f = config.model_dim, config.ffn_dim
    layer = (
        ("w_qkv", (d, 3 * d)), ("b_qkv", (3 * d,)), ("w_o", (d, d)), ("b_o", (d,)),
        ("ln1_scale", (d,)), ("ln1_offset", (d,)), ("w_ffn1", (d, f)), ("b_ffn1", (f,)),
        ("w_ffn2", (f, d)), ("b_ffn2", (d,)), ("ln2_scale", (d,)), ("ln2_offset", (d,)),
    )
    head = (("tok_emb", (config.vocab_size, d)), ("pos_emb", (config.max_len, d)))
    tail = (("score_w", (d,)), ("score_b", ()), ("mlm_bias", (config.vocab_size,)))
    return head, layer, tail


def param_layout(config: EncoderConfig) -> list:
    """``(name, shape)`` of every parameter array, in the order they tile
    ``EncoderParams.flat``; the optimizer, checkpoints and gradient checks
    all use this order."""
    head, layer, tail = _layout_tables(config)
    return [*head, *((f"layer{i}.{name}", shape) for i in range(config.n_layers) for name, shape in layer), *tail]


def param_count(config: EncoderConfig) -> int:
    """The number of values ``param_layout`` tiles, in closed form over the
    layer count (its tables' sizes, fixed + n_layers × one block), so no
    shape asks for a loop or an allocation."""
    head, layer, tail = (sum(math.prod(shape) for _, shape in table) for table in _layout_tables(config))
    return head + tail + config.n_layers * layer


class EncoderParams:
    """All trainable weights as one contiguous float64 vector, ``flat``.

    Every array the encoder reads (``tok_emb``, ``pos_emb``, ``layers[i].w_qkv``
    and the rest of each block, ``score_w``, the 0-d ``score_b``, ``mlm_bias``)
    is a view into ``flat`` placed by ``param_layout``, so a write through a
    view is a write to ``flat``, and Adam and checkpoints work on ``flat`` alone.
    """

    def __init__(self, config: EncoderConfig, flat: np.ndarray = None):
        layout = param_layout(config)
        sizes = [math.prod(shape) for _, shape in layout]
        self.config = config
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        if self.flat.shape != (sum(sizes),) or self.flat.dtype != np.float64:
            raise ContractError(f"flat parameters must be {sum(sizes)} float64 values")
        self.layers = [SimpleNamespace() for _ in range(config.n_layers)]
        self._views = {}
        offset = 0
        for (name, shape), size in zip(layout, sizes):
            self._views[name] = view = self.flat[offset : offset + size].reshape(shape)
            offset += size
            owner, _, leaf = name.rpartition(".")
            setattr(self.layers[int(owner.removeprefix("layer"))] if owner else self, leaf, view)

    def named_arrays(self):
        """``(name, view)`` of every array, in ``param_layout`` order."""
        yield from self._views.items()

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.config, self.flat.copy())


def zeros_like_params(params: EncoderParams) -> EncoderParams:
    return EncoderParams(params.config, np.zeros_like(params.flat))


def init_params(config: EncoderConfig, seed: int = 0) -> EncoderParams:
    """Fresh parameters: weights ~ N(0, 0.02), biases and norm offsets zero,
    norm scales one. Weights are drawn in ``param_layout`` order, so a seed
    fully determines every array."""
    rng = np.random.default_rng(seed)
    params = EncoderParams(config)
    for name, a in params.named_arrays():
        leaf = name.rpartition(".")[2]
        if leaf.endswith("_scale"):
            a[...] = 1.0
        elif leaf == "w_qkv":  # its query, key and value blocks, drawn in that order
            a[...] = np.hstack(rng.normal(0.0, INIT_STD, size=(3, len(a), len(a))))
        elif leaf.startswith("w_") or leaf in ("tok_emb", "pos_emb", "score_w"):
            a[...] = rng.normal(0.0, INIT_STD, size=a.shape)
    return params


def pad_token_rows(rows):
    """Stack id lists into (ids, attention_mask) arrays, padding short rows with
    the padding token. The ids keep their dtype, so ``forward_batch`` refuses 5.7."""
    if not rows:
        raise EmptyInputError("a batch needs at least one row of token ids")
    lengths = [len(r) for r in rows]
    if min(lengths) == max(lengths):  # nothing to pad, as for one row
        ids = np.array(rows)
        mask = np.empty_like(ids, dtype=np.int64)
        mask.fill(1)
        return ids, mask
    values = np.array([t for r in rows for t in r])
    mask = np.arange(max(lengths)) < np.array(lengths)[:, None]
    ids = np.full(mask.shape, PAD_ID, dtype=values.dtype)
    ids[mask] = values
    return ids, mask.astype(np.int64)


# -- forward ----------------------------------------------------------------


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b``, adding the bias in place."""
    out = x @ w
    out += b
    return out


def _affine_backward(x: np.ndarray, d_out: np.ndarray, w: np.ndarray, g_w: np.ndarray, g_b: np.ndarray):
    """Backward of ``_affine``: writes ``g_w`` and ``g_b`` from the products
    over every row of ``x`` and ``d_out`` flattened, and returns the input
    gradient ``d_out @ w.T``."""
    d_flat = d_out.reshape(-1, d_out.shape[-1])
    g_w[:] = x.reshape(-1, x.shape[-1]).T @ d_flat
    g_b[:] = d_flat.sum(axis=0)
    return d_out @ w.T


def _gelu(x: np.ndarray):
    """Exact (erf) GELU. Returns ``(act, cdf2)``: ``act = 0.5·x·cdf2`` with
    ``cdf2 = 1 + erf(x/√2)``, which the backward pass reuses."""
    cdf2 = x / _SQRT2
    erf(cdf2, out=cdf2)
    cdf2 += 1.0
    act = 0.5 * x
    act *= cdf2
    return act, cdf2


def _gelu_grad(x: np.ndarray, cdf2: np.ndarray) -> np.ndarray:
    """``0.5·cdf2 + x·exp(−x²/2)/√(2π)``, the derivative of ``_gelu`` at ``x``."""
    grad = -0.5 * x
    grad *= x
    np.exp(grad, out=grad)
    grad *= x
    grad /= _SQRT_2PI
    grad += 0.5 * cdf2
    return grad


def _layer_norm(x: np.ndarray, scale: np.ndarray, offset: np.ndarray):
    n = float(x.shape[-1])  # the same quotients as the int's, without its conversion on each divide
    x_hat = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(x_hat * x_hat, axis=-1, keepdims=True) / n
    var += LN_EPS
    inv_std = 1.0 / np.sqrt(var, out=var)
    x_hat *= inv_std
    out = x_hat * scale
    out += offset
    return out, x_hat, inv_std


def _layer_norm_backward(d_out, x_hat, inv_std, scale):
    n = d_out.shape[-1]
    d_x = d_out * scale
    mean1 = np.add.reduce(d_x, axis=-1, keepdims=True) / n
    prod = d_x * x_hat
    mean2 = np.add.reduce(prod, axis=-1, keepdims=True) / n
    d_x -= mean1
    d_x -= np.multiply(x_hat, mean2, out=prod)
    d_x *= inv_std
    axes = tuple(range(d_out.ndim - 1))
    return d_x, np.add.reduce(d_out * x_hat, axis=axes), np.add.reduce(d_out, axis=axes)


@dataclass
class _LayerTrace:
    """One layer's cached arrays, over every position. The gathered last
    layer is the one whose query ``slots`` are set: there ``x_in``, ``k`` and
    ``v`` cover every position, ``q`` and ``probs`` the slots (``[batch,
    heads, width, ...]``) and the arrays from ``ctx`` on the trace's ``rows``
    only, ``[n_rows, ...]``."""

    slots: np.ndarray
    x_in: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    probs: np.ndarray
    ctx: np.ndarray
    x_hat1: np.ndarray
    inv_std1: np.ndarray
    h1: np.ndarray
    ffn_pre: np.ndarray
    ffn_act: np.ndarray
    ffn_cdf2: np.ndarray
    x_hat2: np.ndarray
    inv_std2: np.ndarray


@dataclass
class ForwardTrace:
    """Cached intermediates from one forward pass; consumed by backward.
    ``hidden`` is what the forward returned and ``rows`` the caller's mask
    (None for a full forward). Without layers the rows were picked from the
    embedding sum."""

    ids: np.ndarray
    hidden: np.ndarray
    rows: np.ndarray = None
    layers: list = field(default_factory=list)
    params_id: int = 0


def _split_heads(x: np.ndarray, config: EncoderConfig) -> np.ndarray:
    """``[batch, length, n·model_dim]`` as ``[n, batch, heads, length, head_dim]``
    views, one per column block (the query, key and value blocks of ``w_qkv``)."""
    b, l, w = x.shape
    return x.reshape(b, l, w // config.model_dim, config.n_heads, config.head_dim).transpose(2, 0, 3, 1, 4)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, l, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * hd)


def _check_batch_inputs(config: EncoderConfig, ids, attention_mask):
    """Refuse a batch the encoder cannot run, before it is cast; returns
    ``(ids, attention_mask, padded)``: both as int64, and whether any
    position is padding. The checks read the arrays as given, so a float id
    of 5.7 or a mask entry of 0.5 is refused, not truncated to 5 or 0: each
    id bound is one reduction, and the mask is 0 or 1 when its nonzero
    entries are its entries equal to 1."""
    ids, attention_mask = np.asarray(ids), np.asarray(attention_mask)
    if ids.ndim != 2 or attention_mask.shape != ids.shape:
        raise ValidationError("ids and attention_mask must be matching 2-D arrays")
    if ids.shape[0] == 0:
        raise EmptyInputError("a batch needs at least one row of token ids")
    if ids.shape[1] > config.max_len:
        raise ValidationError(
            f"sequence length {ids.shape[1]} exceeds max_len {config.max_len}"
        )
    if ids.shape[1] == 0:
        raise ValidationError("sequences must contain at least one token")
    # floats pass without a fraction or a NaN; an infinity is out of range below
    if ids.dtype.kind not in "biu" and not (ids.dtype.kind == "f" and np.array_equal(ids, np.trunc(ids))):
        raise ValidationError("token ids must be integers")
    if np.minimum.reduce(ids, axis=None) < 0 or np.maximum.reduce(ids, axis=None) >= config.vocab_size:
        raise ValidationError("token id outside vocabulary range")
    ones = np.count_nonzero(attention_mask == 1)
    padded = ones != attention_mask.size
    if padded:
        if np.count_nonzero(attention_mask) != ones:  # a nonzero entry other than 1
            raise ValidationError("attention_mask entries must be 0 or 1")
        if np.count_nonzero(attention_mask[:, 0]) != ids.shape[0]:
            raise ValidationError("first position of every sequence must be valid")
    return ids.astype(np.int64, copy=False), attention_mask.astype(np.int64, copy=False), padded


def forward_batch(params: EncoderParams, config: EncoderConfig, ids, attention_mask, *, rows=None, _keep_trace=False):
    """Run the encoder over ``[batch, length]`` token ids.

    Returns ``(hidden, trace)`` where hidden is ``[batch, length, model_dim]``.

    ``rows``, a boolean ``[batch, length]`` mask of the positions the caller
    reads, returns only those states, ``hidden[rows]`` as ``[n_rows,
    model_dim]`` in row-major order. The last layer still projects keys and
    values for every position, but queries only for the selected rows, which
    attend over their own sequence's keys: each sequence gets as many query
    slots as the sequence with the most selected rows has (one for the
    [CLS] heads), its rows fill its first slots, and an empty slot's output
    is dropped; when every sequence reads its first position alone, as the
    [CLS] heads do, every slot is filled, and the gather and scatter of the
    slots are a slice and views. The out-projection, residuals, layer norms
    and feed-forward then run on the selected rows alone. Those products have other shapes
    than the full forward's, so the states equal ``hidden[rows]`` only to
    within rounding (about one ulp of the largest state). One selected row,
    sequences of length one and an empty selection take the same path; an
    encoder with no layers picks the rows from the embedding sum.

    A forward with ``rows`` is an inference forward and returns the states
    alone, keeping no trace. The heads' training forwards (``score_cls_batch``,
    ``embed_batch`` and the masked-token loss) pass ``rows`` with the private
    ``_keep_trace=True`` and get ``(states, trace)``, with the same bits as
    the inference forward; that trace keeps the gathered layer's input for
    every position and the rest of that layer for the selected rows only.
    """
    ids, attention_mask, padded = _check_batch_inputs(config, ids, attention_mask)
    b, l = ids.shape
    first = False  # every sequence reads its first position alone (the [CLS] heads)
    if rows is not None:
        rows = np.asarray(rows)
        if rows.dtype != np.bool_ or rows.shape != ids.shape:
            raise ValidationError("rows must be a boolean mask shaped like ids")
        first = np.count_nonzero(rows) == b == np.count_nonzero(rows[:, 0])

    x = params.tok_emb[ids]
    x += params.pos_emb[:l]
    key_bias = np.where(attention_mask[:, None, None, :] == 1, 0.0, -np.inf) if padded else None
    scale = 1.0 / math.sqrt(config.head_dim)

    trace = ForwardTrace(ids=ids, hidden=None, params_id=id(params)) if rows is None or _keep_trace else None
    slots = None if rows is None else np.ones((b, 1), dtype=bool) if first else _slots(rows)
    d = config.model_dim
    for i, layer in enumerate(params.layers):
        x_in = x if trace is not None else None  # without a trace the gather frees the full x
        gathered = slots is not None and i == len(params.layers) - 1
        if gathered:  # keys and values of every position, the read rows' queries in their sequences' slots
            k, v = _split_heads(_affine(x, layer.w_qkv[:, d:], layer.b_qkv[d:]), config)
            x = x[:, 0].copy() if first else x[rows]
            q = _affine(x, layer.w_qkv[:, :d], layer.b_qkv[:d])
            q = _split_heads(q[:, None] if first else _scatter(q, slots), config)[0]  # first: one slot per sequence
        else:
            q, k, v = _split_heads(_affine(x, layer.w_qkv, layer.b_qkv), config)
        logits = np.matmul(q, k.swapaxes(-1, -2))
        logits *= scale
        if key_bias is not None:
            logits += key_bias
        logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
        probs = np.exp(logits, out=logits)
        probs /= np.add.reduce(probs, axis=-1, keepdims=True)
        ctx = _merge_heads(np.matmul(probs, v))
        if gathered:
            ctx = ctx[:, 0] if first else ctx[slots]
        r1 = _affine(ctx, layer.w_o, layer.b_o)
        r1 += x
        h1, x_hat1, inv_std1 = _layer_norm(r1, layer.ln1_scale, layer.ln1_offset)
        ffn_pre = _affine(h1, layer.w_ffn1, layer.b_ffn1)
        ffn_act, ffn_cdf2 = _gelu(ffn_pre)
        r2 = ffn_act @ layer.w_ffn2
        r2 += h1
        r2 += layer.b_ffn2
        x_next, x_hat2, inv_std2 = _layer_norm(r2, layer.ln2_scale, layer.ln2_offset)
        if trace is not None:
            trace.layers.append(
                _LayerTrace(
                    slots=slots if gathered else None,
                    x_in=x_in, q=q, k=k, v=v, probs=probs, ctx=ctx,
                    x_hat1=x_hat1, inv_std1=inv_std1, h1=h1,
                    ffn_pre=ffn_pre, ffn_act=ffn_act, ffn_cdf2=ffn_cdf2,
                    x_hat2=x_hat2, inv_std2=inv_std2,
                )
            )
        x = x_next
    if rows is not None and not params.layers:  # no layer to gather in
        x = x[rows]
    if trace is None:
        return x
    trace.hidden, trace.rows = x, rows
    return x, trace


def _scatter(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``[n_rows, dim]`` values of the selected ``rows`` (a boolean mask,
    such as ``[batch, length]``) placed in zeros shaped ``rows.shape +
    (dim,)``."""
    out = np.zeros(rows.shape + values.shape[-1:])
    out[rows] = values
    return out


def _slots(rows: np.ndarray) -> np.ndarray:
    """Query slots of the gathered last layer: a boolean ``[batch, width]``
    mask, ``width`` the most rows one sequence has selected, whose sequence
    ``s`` has its first ``count(rows[s])`` slots True. The True slots in
    row-major order take the selected rows in row-major order."""
    counts = np.count_nonzero(rows, axis=1)
    return np.arange(counts.max()) < counts[:, None]


def backward_batch(params: EncoderParams, config: EncoderConfig, trace: ForwardTrace, d_hidden) -> EncoderParams:
    """Exact gradients of ``sum(d_hidden * hidden)`` for every parameter.

    ``d_hidden`` is shaped like the states the forward returned: ``[batch,
    length, model_dim]``, or ``[n_rows, model_dim]`` after a forward with
    ``rows``. There the gathered last layer's backward runs on the selected
    rows and their query slots only (every other position's gradient of
    those is exactly zero, and an empty slot's is zero), and the rows'
    residual and query-input gradients are placed at their positions for the
    key and value backward and the earlier layers. Without layers,
    ``d_hidden`` is placed at the rows' positions of the embedding sum.
    """
    if trace.params_id != id(params):
        raise ContractError("trace was produced by different parameters")
    d_hidden = np.asarray(d_hidden, dtype=np.float64)
    if d_hidden.shape != trace.hidden.shape:
        raise ContractError(
            f"upstream gradient shape {d_hidden.shape} does not match hidden {trace.hidden.shape}"
        )
    grads = zeros_like_params(params)
    scale = 1.0 / math.sqrt(config.head_dim)
    l, d = trace.ids.shape[1], config.model_dim

    d_x = _scatter(d_hidden, trace.rows) if trace.rows is not None and not trace.layers else d_hidden
    for layer, lt, g in zip(reversed(params.layers), reversed(trace.layers), reversed(grads.layers)):
        d_r2, g.ln2_scale[:], g.ln2_offset[:] = _layer_norm_backward(
            d_x, lt.x_hat2, lt.inv_std2, layer.ln2_scale
        )
        # r2 = h1 + ffn_act @ w_ffn2 + b_ffn2
        d_pre = _gelu_grad(lt.ffn_pre, lt.ffn_cdf2)
        d_pre *= _affine_backward(lt.ffn_act, d_r2, layer.w_ffn2, g.w_ffn2, g.b_ffn2)
        d_h1 = _affine_backward(lt.h1, d_pre, layer.w_ffn1, g.w_ffn1, g.b_ffn1)
        d_h1 += d_r2

        d_r1, g.ln1_scale[:], g.ln1_offset[:] = _layer_norm_backward(
            d_h1, lt.x_hat1, lt.inv_std1, layer.ln1_scale
        )
        # r1 = x_in + ctx @ w_o + b_o
        d_ctx = _affine_backward(lt.ctx, d_r1, layer.w_o, g.w_o, g.b_o)
        d_ctx = _split_heads(d_ctx if lt.slots is None else _scatter(d_ctx, lt.slots), config)[0]

        d_v = np.matmul(lt.probs.swapaxes(-1, -2), d_ctx)
        # softmax backward in place: d_logits = probs * (d_probs - sum(d_probs * probs))
        d_logits = np.matmul(d_ctx, lt.v.swapaxes(-1, -2))
        d_logits -= np.add.reduce(d_logits * lt.probs, axis=-1, keepdims=True)
        d_logits *= lt.probs
        d_q = np.matmul(d_logits, lt.k)
        d_q *= scale
        d_k = np.matmul(d_logits.swapaxes(-1, -2), lt.q)
        d_k *= scale

        # Q, K and V apart: one weight-gradient product over all three rounds otherwise at some sizes
        w, g_w, g_b = layer.w_qkv.reshape(d, 3, d), g.w_qkv.reshape(d, 3, d), g.b_qkv.reshape(3, d)
        q_block, k_block, v_block = ((w[:, j], g_w[:, j], g_b[j]) for j in range(3))
        if lt.slots is None:
            d_x = d_r1  # nothing reads d_r1 after this, so the input gradient accumulates in it
            d_x += _affine_backward(lt.x_in, _merge_heads(d_q), *q_block)
        else:
            d_r1 += _affine_backward(lt.x_in[trace.rows], _merge_heads(d_q)[lt.slots], *q_block)
            d_x = _scatter(d_r1, trace.rows)
        d_x += _affine_backward(lt.x_in, _merge_heads(d_k), *k_block)
        d_x += _affine_backward(lt.x_in, _merge_heads(d_v), *v_block)

    np.add.at(grads.tok_emb, trace.ids, d_x)
    grads.pos_emb[:l] = d_x.sum(axis=0)
    return grads


# -- heads ------------------------------------------------------------------


def _cls_rows(ids) -> np.ndarray:
    """The ``rows`` mask of ``forward_batch`` that selects each sequence's
    first position (all False unless ``ids`` is 2-D with a column, which the
    forward refuses); a first token other than [CLS] is refused before any forward."""
    ids = np.asarray(ids)
    rows = np.zeros(ids.shape, dtype=bool)
    if rows.ndim == 2 and rows.shape[1] > 0:
        if np.count_nonzero(ids[:, 0] != CLS_ID):
            raise ContractError("scoring and embedding require sequences that start with the [CLS] token")
        rows[:, 0] = True
    return rows


def score_cls_batch(params: EncoderParams, config: EncoderConfig, ids, attention_mask):
    """Scalar relevance score per sequence from the first-token state."""
    cls, trace = embed_batch(params, config, ids, attention_mask)
    return cls @ params.score_w + params.score_b, trace


def score_cls_backward(params: EncoderParams, config: EncoderConfig, trace: ForwardTrace, d_scores) -> EncoderParams:
    d_scores = np.asarray(d_scores, dtype=np.float64)
    if d_scores.shape != (trace.hidden.shape[0],):
        raise ContractError("one upstream gradient per sequence is required")
    grads = backward_batch(params, config, trace, d_scores[:, None] * params.score_w)
    grads.score_w[:] += trace.hidden.T @ d_scores
    grads.score_b[()] += d_scores.sum()
    return grads


def embed_batch(params: EncoderParams, config: EncoderConfig, ids, attention_mask):
    """One embedding vector per sequence: its first-token ([CLS]) state."""
    return forward_batch(params, config, ids, attention_mask, rows=_cls_rows(ids), _keep_trace=True)


def embed_backward(params: EncoderParams, config: EncoderConfig, trace: ForwardTrace, d_emb) -> EncoderParams:
    return backward_batch(params, config, trace, d_emb)


def mlm_logits_batch(params: EncoderParams, states) -> np.ndarray:
    """Vocabulary logits for gathered hidden states, with the output
    projection tied to the token embedding matrix."""
    states = np.asarray(states, dtype=np.float64)
    return states @ params.tok_emb.T + params.mlm_bias
