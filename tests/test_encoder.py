"""Unit tests for the numpy transformer encoder and its hand-written backprop.

The heavyweight parameter-space gradient sweep lives in the acceptance
suite; here the focus is structural: masking exactness, determinism,
the [CLS] read path, head wiring, and cheap gradient spot checks.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import bits_equal
from scipy.special import erf

from listrank import encoder, training
from listrank.encoder import (
    LN_EPS,
    MAX_PARAMS,
    EncoderConfig,
    _affine,
    _gelu,
    _gelu_grad,
    _layer_norm,
    _layer_norm_backward,
    backward_batch,
    embed_backward,
    embed_batch,
    forward_batch,
    init_params,
    mlm_logits_batch,
    pad_token_rows,
    param_count,
    param_layout,
    score_cls_backward,
    score_cls_batch,
    zeros_like_params,
)
from listrank.errors import ConfigurationError, ContractError, EmptyInputError, ValidationError
from listrank.tokenizer import CLS_ID, MASK_ID, PAD_ID, TokenSequence

TINY = EncoderConfig(n_layers=1, n_heads=2, model_dim=8, ffn_dim=16, vocab_size=20, max_len=5)
TINY_ROWS = [[CLS_ID, 7, 12, 9, 6], [CLS_ID, 5, 18], [CLS_ID, 11, 6, 13]]


def tiny_batch():
    """Three variable-length rows, CLS-first, with padding."""
    return pad_token_rows(TINY_ROWS)


def each_row_alone(run):
    """``run(ids, mask)`` on every row of the tiny batch as a one-row batch."""
    return [run(np.array([row]), np.ones((1, len(row)), dtype=np.int64)) for row in TINY_ROWS]


class TestEncoderConfig:
    def test_zero_layers_is_allowed(self):
        assert EncoderConfig(n_layers=0).n_layers == 0

    def test_negative_layers_rejected(self):
        with pytest.raises(ConfigurationError):
            EncoderConfig(n_layers=-1)

    def test_dim_must_divide_by_heads(self):
        with pytest.raises(ConfigurationError):
            EncoderConfig(n_heads=3, model_dim=64)

    @pytest.mark.parametrize("field, value", [
        ("n_layers", 2.5), ("n_layers", True), ("vocab_size", True), ("vocab_size", 2000.0),
        ("n_heads", "4"), ("model_dim", np.int64(64)), ("ffn_dim", None),
    ])
    def test_mistyped_field_rejected(self, field, value):
        """A size that is not an ``int`` (``bool`` included) is a
        configuration error, not a ``TypeError`` later in ``init_params``."""
        with pytest.raises(ConfigurationError, match=field):
            EncoderConfig(**{field: value})

    def test_head_dim(self):
        assert EncoderConfig(n_heads=4, model_dim=64).head_dim == 16

    @pytest.mark.parametrize("field, value", [
        ("model_dim", 10**20), ("n_layers", 3 * 10**9), ("n_layers", 10**20), ("ffn_dim", 3 * 10**9),
        ("max_len", 3 * 10**9),
    ])
    def test_shape_past_the_parameter_bound_rejected(self, monkeypatch, field, value):
        """From the CLI, ``--dim`` 10**20 ended in a numpy traceback, 3·10**9
        layers were killed for memory, 10**20 layers hung in ``param_layout``,
        and ``--ffn-dim`` or ``--max-len`` 3·10**9 failed to allocate. The
        count is closed form, so the refusal builds no layout."""
        monkeypatch.setattr(encoder, "param_layout", lambda config: pytest.fail("layout built"))
        with pytest.raises(ConfigurationError, match=rf"holds \d+ parameters, more than the {MAX_PARAMS} "):
            EncoderConfig(**{field: value})

    def test_parameter_bound_is_inclusive(self):
        """With every other field at its default, ``max_len`` moves the count
        by ``model_dim``: the largest that fits is built, one more is refused."""
        fits = EncoderConfig().max_len + (MAX_PARAMS - param_count(EncoderConfig())) // 64
        assert param_count(EncoderConfig(max_len=fits)) <= MAX_PARAMS
        with pytest.raises(ConfigurationError, match="parameters"):
            EncoderConfig(max_len=fits + 1)

    @pytest.mark.parametrize("config", [TINY, EncoderConfig(), EncoderConfig(n_layers=0, vocab_size=5)])
    def test_param_count_is_the_layout_size(self, config):
        assert param_count(config) == sum(math.prod(shape) for _, shape in param_layout(config))

    @pytest.mark.parametrize("config", [TINY, EncoderConfig(), EncoderConfig(n_layers=3, n_heads=3, model_dim=12)])
    def test_block_holds_twelve_arrays_of_the_same_size(self, config):
        """One ``w_qkv [d, 3d]`` and one ``b_qkv [3d]`` hold what six Q, K and V
        arrays held, so a block's size is 4d² + 2df + f + 9d, as before."""
        d, f = config.model_dim, config.ffn_dim
        block = [(name.rpartition(".")[2], shape) for name, shape in param_layout(config) if name.startswith("layer0.")]
        assert len(block) == 12
        assert block[:2] == [("w_qkv", (d, 3 * d)), ("b_qkv", (3 * d,))]
        fixed = config.vocab_size * d + config.max_len * d + d + 1 + config.vocab_size
        assert param_count(config) == fixed + config.n_layers * (4 * d * d + 2 * d * f + f + 9 * d)


class TestInitParams:
    def test_same_seed_is_bit_identical(self):
        a, b = init_params(TINY, seed=3), init_params(TINY, seed=3)
        for (name, arr_a), (_, arr_b) in zip(a.named_arrays(), b.named_arrays()):
            np.testing.assert_array_equal(arr_a, arr_b, err_msg=name)

    def test_different_seeds_differ(self):
        a, b = init_params(TINY, seed=0), init_params(TINY, seed=1)
        assert not np.array_equal(a.tok_emb, b.tok_emb)

    def test_norm_scales_one_biases_zero(self):
        params = init_params(TINY, seed=0)
        layer = params.layers[0]
        np.testing.assert_array_equal(layer.ln1_scale, 1.0)
        np.testing.assert_array_equal(layer.ln2_scale, 1.0)
        np.testing.assert_array_equal(layer.b_qkv, 0.0)
        np.testing.assert_array_equal(layer.b_ffn1, 0.0)
        np.testing.assert_array_equal(params.mlm_bias, 0.0)
        assert params.score_b.shape == ()
        assert params.score_b == 0.0

    def test_qkv_blocks_are_drawn_query_key_value(self):
        """``w_qkv``'s column blocks hold the seed's next three ``[d, d]``
        draws after the embeddings, in query, key, value order, so a seed gives
        the values that separate Q, K and V arrays held."""
        d = TINY.model_dim
        rng = np.random.default_rng(5)
        for shape in ((TINY.vocab_size, d), (TINY.max_len, d)):
            rng.normal(0.0, encoder.INIT_STD, size=shape)
        w_qkv = init_params(TINY, seed=5).layers[0].w_qkv
        for j in range(3):
            assert bits_equal(w_qkv[:, j * d : (j + 1) * d], rng.normal(0.0, encoder.INIT_STD, size=(d, d)))

    def test_weight_scale_matches_init_std(self):
        """With 2000 x 64 = 128k draws the sample standard deviation of the
        token embedding sits tight around 0.02."""
        params = init_params(EncoderConfig(), seed=0)
        flat = params.tok_emb.ravel()
        assert abs(flat.mean()) < 1e-3
        assert 0.019 < flat.std() < 0.021


class TestPadTokenRows:
    def test_pads_with_pad_id_and_masks(self):
        ids, mask = pad_token_rows([[1, 7, 9], [1, 5]])
        np.testing.assert_array_equal(ids, [[1, 7, 9], [1, 5, PAD_ID]])
        np.testing.assert_array_equal(mask, [[1, 1, 1], [1, 1, 0]])
        assert ids.dtype == mask.dtype == np.int64

    @pytest.mark.parametrize("rows", [[[1, 7], [1, 5]], [[1, 7], []]], ids=["unpadded", "empty-row"])
    def test_int_rows_give_int64(self, rows):
        ids, mask = pad_token_rows(rows)
        assert ids.dtype == mask.dtype == np.int64

    @pytest.mark.parametrize("rows", [[[CLS_ID, 5.7]], [[CLS_ID, 5.7], [CLS_ID]]], ids=["unpadded", "padded"])
    def test_fractional_id_reaches_the_forward_refusal(self, rows):
        """Both paths cast to int64 and so ran an id of 5.7 as 5, past
        ``forward_batch``'s refusal of fractional ids."""
        ids, mask = pad_token_rows(rows)
        assert ids[0, 1] == 5.7
        with pytest.raises(ValidationError, match="token ids must be integers"):
            forward_batch(init_params(TINY, seed=0), TINY, ids, mask)

    def test_empty_batch_refused(self):
        """``max`` of no lengths raised a bare ValueError."""
        with pytest.raises(EmptyInputError):
            pad_token_rows([])


class TestForward:
    def test_zero_layers_is_embedding_sum(self):
        """Without residual blocks the hidden states are exactly token
        embedding plus position embedding."""
        config = EncoderConfig(n_layers=0, n_heads=2, model_dim=8, ffn_dim=16,
                               vocab_size=20, max_len=5)
        params = init_params(config, seed=1)
        ids, mask = tiny_batch()
        hidden, _ = forward_batch(params, config, ids, mask)
        expected = params.tok_emb[ids] + params.pos_emb[: ids.shape[1]][None, :, :]
        np.testing.assert_array_equal(hidden, expected)

    def test_forward_is_bit_deterministic(self):
        params = init_params(TINY, seed=0)
        ids, mask = tiny_batch()
        a, _ = forward_batch(params, TINY, ids, mask)
        b, _ = forward_batch(params, TINY, ids, mask)
        np.testing.assert_array_equal(a, b)

    def test_attention_rows_are_distributions(self):
        """Each attention row sums to one and gives padded keys exactly
        zero probability."""
        params = init_params(TINY, seed=0)
        ids, mask = tiny_batch()
        _, trace = forward_batch(params, TINY, ids, mask)
        probs = trace.layers[0].probs  # [batch, heads, query, key]
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-12)
        padded = np.nonzero(mask == 0)
        for row, col in zip(*padded):
            np.testing.assert_array_equal(probs[row, :, :, col], 0.0)

    def test_padded_ids_cannot_influence_real_positions(self):
        """Rewriting a padded slot's token id leaves every real hidden
        state and the score bit-identical."""
        params = init_params(TINY, seed=0)
        ids, mask = tiny_batch()
        tampered = ids.copy()
        tampered[mask == 0] = 17
        base_hidden, _ = forward_batch(params, TINY, ids, mask)
        tam_hidden, _ = forward_batch(params, TINY, tampered, mask)
        real = np.nonzero(mask == 1)
        np.testing.assert_array_equal(base_hidden[real], tam_hidden[real])
        base_scores, _ = score_cls_batch(params, TINY, ids, mask)
        tam_scores, _ = score_cls_batch(params, TINY, tampered, mask)
        np.testing.assert_array_equal(base_scores, tam_scores)

    def test_trailing_padding_is_inert(self):
        """Appending padded columns does not change the states of the
        original positions."""
        params = init_params(TINY, seed=0)
        ids = np.array([[CLS_ID, 7, 12]])
        mask = np.ones_like(ids)
        short, _ = forward_batch(params, TINY, ids, mask)
        ids_long = np.array([[CLS_ID, 7, 12, PAD_ID, PAD_ID]])
        mask_long = np.array([[1, 1, 1, 0, 0]])
        long, _ = forward_batch(params, TINY, ids_long, mask_long)
        np.testing.assert_allclose(long[0, :3], short[0], rtol=0, atol=1e-12)

    def test_out_of_vocab_id_rejected(self):
        params = init_params(TINY, seed=0)
        ids = np.array([[CLS_ID, 25]])
        with pytest.raises(ValidationError):
            forward_batch(params, TINY, ids, np.ones_like(ids))

    def test_over_length_sequence_rejected(self):
        params = init_params(TINY, seed=0)
        ids = np.full((1, TINY.max_len + 1), CLS_ID)
        with pytest.raises(ValidationError):
            forward_batch(params, TINY, ids, np.ones_like(ids))

    @pytest.mark.parametrize("head", [forward_batch, embed_batch, score_cls_batch], ids=lambda f: f.__name__)
    def test_empty_batch_refused(self, head):
        """``ids.min()`` of a batch with no rows raised numpy's bare ValueError."""
        params = init_params(TINY, seed=0)
        ids = np.zeros((0, 3), dtype=np.int64)
        with pytest.raises(EmptyInputError, match="a batch needs at least one row of token ids"):
            head(params, TINY, ids, np.ones_like(ids))

    @pytest.mark.parametrize("ids, mask, match", [
        ([[CLS_ID, 5.7]], [[1, 1]], "token ids must be integers"),
        ([[CLS_ID, np.nan]], [[1, 1]], "token ids must be integers"),
        ([[CLS_ID, 5]], [[1, 0.5]], "0 or 1"),
        ([[CLS_ID, 5]], [[1, np.nan]], "0 or 1"),
        ([[CLS_ID, 5]], [[1, -np.inf]], "0 or 1"),
    ], ids=["fractional-id", "nan-id", "half-mask", "nan-mask", "inf-mask"])
    def test_non_integer_ids_and_mask_entries_refused(self, ids, mask, match):
        """Both arrays were cast to int64 before they were checked, so an id of
        5.7 ran as 5 and a mask entry of 0.5 as 0, with no error."""
        with pytest.raises(ValidationError, match=match):
            forward_batch(init_params(TINY, seed=0), TINY, np.array(ids), np.array(mask))

    def test_integral_float_and_bool_inputs_run_as_ints(self):
        params = init_params(TINY, seed=0)
        ids, mask = tiny_batch()
        want, _ = forward_batch(params, TINY, ids, mask)
        got, _ = forward_batch(params, TINY, ids.astype(np.float64), mask.astype(bool))
        assert bits_equal(got, want)

    @pytest.mark.parametrize("zero_queries", [False, True])
    def test_unpadded_batch_skips_the_key_mask_bit_for_bit(self, monkeypatch, zero_queries):
        """A batch without padding adds no key bias. Forcing the all-zero bias
        in gives the same bits, full and [CLS]-read forward alike, also when
        zeroed queries make every logit a signed zero."""
        config = EncoderConfig(n_layers=2, n_heads=2, model_dim=8, ffn_dim=16, vocab_size=20, max_len=12)
        params = init_params(config, seed=3)
        if zero_queries:
            for layer in params.layers:
                layer.w_qkv[:, : config.model_dim], layer.b_qkv[: config.model_dim] = 0.0, 0.0
        ids = np.random.default_rng(3).integers(4, 20, size=(3, 11))
        ids[:, 0] = CLS_ID
        mask = np.ones_like(ids)
        rows = encoder._cls_rows(ids)

        def run():
            return forward_batch(params, config, ids, mask)[0], forward_batch(params, config, ids, mask, rows=rows)

        skipped = run()
        check = encoder._check_batch_inputs
        monkeypatch.setattr(encoder, "_check_batch_inputs", lambda *args: (*check(*args)[:2], True))
        masked = run()
        assert all(bits_equal(a, b) for a, b in zip(skipped, masked))

    def test_masked_first_position_rejected(self):
        params = init_params(TINY, seed=0)
        ids = np.array([[CLS_ID, 7]])
        with pytest.raises(ValidationError):
            forward_batch(params, TINY, ids, np.array([[0, 1]]))

    def test_sequence_alone_matches_its_row_in_a_padded_batch(self):
        params = init_params(TINY, seed=0)
        batched, _ = forward_batch(params, TINY, *tiny_batch())
        alone = each_row_alone(lambda ids, mask: forward_batch(params, TINY, ids, mask)[0])
        for row, hidden in enumerate(alone):
            np.testing.assert_allclose(hidden[0], batched[row, : hidden.shape[1]], rtol=0, atol=1e-12)


class TestScoreHead:
    def test_zeroed_head_scores_zero(self):
        params = init_params(TINY, seed=0)
        params.score_w[:] = 0.0
        ids, mask = tiny_batch()
        scores, _ = score_cls_batch(params, TINY, ids, mask)
        np.testing.assert_array_equal(scores, 0.0)

    def test_score_is_affine_in_cls_state(self):
        params = init_params(TINY, seed=0)
        params.score_b[()] = 0.25
        ids, mask = tiny_batch()
        hidden, _ = forward_batch(params, TINY, ids, mask)
        scores, _ = score_cls_batch(params, TINY, ids, mask)
        np.testing.assert_allclose(scores, hidden[:, 0, :] @ params.score_w + 0.25, rtol=1e-12)

    def test_non_cls_start_rejected(self):
        params = init_params(TINY, seed=0)
        ids = np.array([[7, 12]])
        with pytest.raises(ContractError):
            score_cls_batch(params, TINY, ids, np.ones_like(ids))

    def test_non_cls_start_refused_before_the_forward(self, monkeypatch):
        """The forward ran first, so a batch also holding an out-of-vocabulary
        id was refused for that id, where ``score_pairs`` names the [CLS];
        ``embed_batch`` read any first token."""
        calls, forward = [], encoder.forward_batch
        monkeypatch.setattr(encoder, "forward_batch", lambda *a, **k: calls.append(1) or forward(*a, **k))
        ids = np.array([[7, TINY.vocab_size]])
        for head in (score_cls_batch, embed_batch):
            with pytest.raises(ContractError, match=r"\[CLS\]"):
                head(init_params(TINY, seed=0), TINY, ids, np.ones_like(ids))
        assert calls == []

    @pytest.mark.parametrize("head", [score_cls_batch, embed_batch])
    def test_empty_sequences_refused_by_the_forward(self, head):
        """The [CLS] rows of ids without a column raised an IndexError."""
        ids = np.zeros((2, 0), dtype=np.int64)
        with pytest.raises(ValidationError, match="at least one token"):
            head(init_params(TINY, seed=0), TINY, ids, ids)

    def test_sequence_alone_scores_as_in_a_padded_batch(self):
        params = init_params(TINY, seed=0)
        batched, _ = score_cls_batch(params, TINY, *tiny_batch())
        alone = each_row_alone(lambda ids, mask: score_cls_batch(params, TINY, ids, mask)[0])
        assert all(scores.shape == (1,) for scores in alone)
        np.testing.assert_allclose(np.concatenate(alone), batched, rtol=0, atol=1e-12)


class TestPooling:
    def test_cls_pooling_is_first_state(self):
        params = init_params(TINY, seed=0)
        ids, mask = tiny_batch()
        hidden, _ = forward_batch(params, TINY, ids, mask)
        emb, _ = embed_batch(params, TINY, ids, mask)
        np.testing.assert_array_equal(emb, hidden[:, 0, :])

    def test_sequence_alone_embeds_as_in_a_padded_batch(self):
        config = EncoderConfig(n_layers=1, n_heads=2, model_dim=8, ffn_dim=16, vocab_size=20, max_len=5)
        params = init_params(config, seed=0)
        batched, _ = embed_batch(params, config, *tiny_batch())
        alone = each_row_alone(lambda ids, mask: embed_batch(params, config, ids, mask)[0])
        np.testing.assert_allclose(np.concatenate(alone), batched, rtol=0, atol=1e-12)


class TestMlmHead:
    def test_logit_shape_and_bias(self):
        """Zero states leave exactly the bias."""
        params = init_params(TINY, seed=0)
        params.mlm_bias[:] = np.arange(20, dtype=np.float64)
        logits = mlm_logits_batch(params, np.zeros((3, 8)))
        assert logits.shape == (3, 20)
        np.testing.assert_array_equal(logits, np.tile(np.arange(20.0), (3, 1)))

    def test_output_projection_is_tied_to_token_embedding(self):
        """Perturbing one token's embedding row moves exactly that logit
        column, by the state-projection amount."""
        params = init_params(TINY, seed=0)
        states = np.random.default_rng(1).standard_normal((4, 8))
        before = mlm_logits_batch(params, states)
        delta = np.random.default_rng(2).standard_normal(8)
        params.tok_emb[13] += delta
        after = mlm_logits_batch(params, states)
        diff = after - before
        np.testing.assert_allclose(diff[:, 13], states @ delta, rtol=1e-12)
        untouched = [j for j in range(20) if j != 13]
        np.testing.assert_array_equal(diff[:, untouched], 0.0)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        params = init_params(TINY, seed=0)
        ids, mask = tiny_batch()
        hidden, trace = forward_batch(params, TINY, ids, mask)
        grads = backward_batch(params, TINY, trace, np.zeros_like(hidden))
        for name, arr in grads.named_arrays():
            np.testing.assert_array_equal(arr, 0.0, err_msg=name)

    def test_backward_is_linear_in_upstream(self):
        params = init_params(TINY, seed=0)
        ids, mask = tiny_batch()
        hidden, trace = forward_batch(params, TINY, ids, mask)
        d = np.random.default_rng(4).standard_normal(hidden.shape)
        singles = backward_batch(params, TINY, trace, d)
        doubles = backward_batch(params, TINY, trace, 2.0 * d)
        for (name, s), (_, twice) in zip(singles.named_arrays(), doubles.named_arrays()):
            np.testing.assert_allclose(twice, 2.0 * s, rtol=1e-10, atol=1e-12, err_msg=name)

    def test_foreign_params_rejected(self):
        params = init_params(TINY, seed=0)
        ids, mask = tiny_batch()
        hidden, trace = forward_batch(params, TINY, ids, mask)
        with pytest.raises(ContractError):
            backward_batch(params.copy(), TINY, trace, np.zeros_like(hidden))

    def test_upstream_shape_mismatch_rejected(self):
        params = init_params(TINY, seed=0)
        ids, mask = tiny_batch()
        hidden, trace = forward_batch(params, TINY, ids, mask)
        with pytest.raises(ContractError):
            backward_batch(params, TINY, trace, np.zeros((1, 2, 3)))
        scores, trace2 = score_cls_batch(params, TINY, ids, mask)
        with pytest.raises(ContractError):
            score_cls_backward(params, TINY, trace2, np.zeros((7,)))

    def test_score_head_gradient_spot_check(self):
        """Central differences on the scoring head parameters; the full
        parameter sweep runs in the acceptance suite."""
        params = init_params(TINY, seed=0)
        ids, mask = tiny_batch()
        upstream = np.array([0.7, -1.2, 0.4])

        def objective():
            scores, _ = score_cls_batch(params, TINY, ids, mask)
            return float(upstream @ scores)

        scores, trace = score_cls_batch(params, TINY, ids, mask)
        grads = score_cls_backward(params, TINY, trace, upstream)
        eps = 1e-6
        for idx in np.ndindex(params.score_w.shape):
            keep = params.score_w[idx]
            params.score_w[idx] = keep + eps
            hi = objective()
            params.score_w[idx] = keep - eps
            lo = objective()
            params.score_w[idx] = keep
            np.testing.assert_allclose(grads.score_w[idx], (hi - lo) / (2 * eps), rtol=1e-4)
        keep = float(params.score_b)
        params.score_b[()] = keep + eps
        hi = objective()
        params.score_b[()] = keep - eps
        lo = objective()
        params.score_b[()] = keep
        np.testing.assert_allclose(float(grads.score_b), (hi - lo) / (2 * eps), rtol=1e-6)


class TestParamContainers:
    def test_zeros_like_matches_shapes(self):
        params = init_params(TINY, seed=0)
        zeros = zeros_like_params(params)
        for (name, z), (_, p) in zip(zeros.named_arrays(), params.named_arrays()):
            assert z.shape == p.shape, name
            np.testing.assert_array_equal(z, 0.0, err_msg=name)

    def test_copy_is_deep(self):
        params = init_params(TINY, seed=0)
        clone = params.copy()
        clone.tok_emb[0, 0] += 1.0
        clone.layers[0].w_qkv[0, 0] += 1.0
        assert params.tok_emb[0, 0] != clone.tok_emb[0, 0]
        assert params.layers[0].w_qkv[0, 0] != clone.layers[0].w_qkv[0, 0]

    def test_copy_and_zeros_like_share_no_memory(self):
        params = init_params(TINY, seed=0)
        for other in (params.copy(), zeros_like_params(params)):
            assert not np.shares_memory(other.flat, params.flat)
            for (name, a), (_, b) in zip(other.named_arrays(), params.named_arrays()):
                assert np.shares_memory(a, other.flat), name
                assert not np.shares_memory(a, b), name

    def test_layout_tiles_flat_without_gaps(self):
        """The views follow ``param_layout`` and lie end to end in ``flat``,
        so ``flat`` holds every array once and nothing else."""
        params = init_params(EncoderConfig(n_layers=2, n_heads=2, model_dim=8, ffn_dim=12,
                                           vocab_size=11, max_len=5), seed=0)
        start = params.flat.__array_interface__["data"][0]
        offset = 0
        for (name, a), (want_name, shape) in zip(params.named_arrays(), param_layout(params.config), strict=True):
            assert (name, a.shape) == (want_name, shape)
            assert a.flags.c_contiguous and a.__array_interface__["data"][0] == start + 8 * offset, name
            offset += a.size
        assert offset == params.flat.size
        assert params.layers[1].b_ffn2 is dict(params.named_arrays())["layer1.b_ffn2"]

    def test_write_through_a_view_reaches_the_next_forward(self):
        """Finite-difference checks perturb parameters through the
        ``named_arrays()`` views: every such write must land in ``flat`` and
        change what the next forward computes."""
        params = init_params(TINY, seed=0)
        ids, mask = tiny_batch()
        states = np.linspace(-1.0, 1.0, 2 * TINY.model_dim).reshape(2, TINY.model_dim)

        def outputs():
            hidden, _ = forward_batch(params, TINY, ids, mask)
            scores, _ = score_cls_batch(params, TINY, ids, mask)
            return hidden, scores, mlm_logits_batch(params, states)

        rng = np.random.default_rng(0)
        for name, a in params.named_arrays():
            before, flat_before = outputs(), params.flat.copy()
            a += rng.normal(size=a.shape)
            assert np.count_nonzero(params.flat != flat_before) == a.size, name
            assert not all(np.array_equal(x, y) for x, y in zip(before, outputs())), name


def _edge_sample(shape, seed):
    """Seeded normal draws (scaled to reach GELU's tails) with ``0.0``,
    ``-0.0``, subnormals, ±8 and ±40 written over the first entries."""
    x = 3.0 * np.random.default_rng(seed).standard_normal(shape)
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 8.0, -8.0, 40.0, -40.0]
    x.reshape(-1)[: len(edges)] = edges
    return x


class TestFusedKernelsAreBitIdentical:
    """The in-place kernels equal their written-out closed forms bit for bit:
    same operands, same order of operations, only exactly commutative swaps."""

    def test_gelu_and_its_cached_derivative(self):
        x = _edge_sample((4, 5, 32), seed=11)
        act, cdf2 = _gelu(x)
        assert bits_equal(act, 0.5 * x * (1.0 + erf(x / math.sqrt(2.0))))
        assert bits_equal(cdf2, 1.0 + erf(x / math.sqrt(2.0)))
        expected = 0.5 * (1.0 + erf(x / math.sqrt(2.0))) + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        assert bits_equal(_gelu_grad(x, cdf2), expected)

    def test_layer_norm_matches_mean_based_form(self):
        rng = np.random.default_rng(12)
        x = _edge_sample((4, 5, 16), seed=13)
        x[1, 2] = 0.0  # a constant row: variance 0, only LN_EPS in the root
        scale, offset = rng.standard_normal(16), rng.standard_normal(16)
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + LN_EPS)
        x_hat = centered * inv_std
        got = _layer_norm(x, scale, offset)
        for g, want in zip(got, (x_hat * scale + offset, x_hat, inv_std)):
            assert bits_equal(g, want)

        d_out = _edge_sample((4, 5, 16), seed=14)
        d_hat = d_out * scale
        mean1 = d_hat.mean(axis=-1, keepdims=True)
        mean2 = (d_hat * x_hat).mean(axis=-1, keepdims=True)
        expected = (inv_std * (d_hat - mean1 - x_hat * mean2),
                    (d_out * x_hat).sum(axis=(0, 1)), d_out.sum(axis=(0, 1)))
        for g, want in zip(_layer_norm_backward(d_out, x_hat, inv_std, scale), expected):
            assert bits_equal(g, want)

    def test_affine_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(15)
        x, w, b = rng.standard_normal((3, 4, 8)), rng.standard_normal((8, 6)), rng.standard_normal(6)
        assert bits_equal(_affine(x, w, b), x @ w + b)


#: the width of the default encoder, where BLAS runs its blocked kernels
WIDE = dict(n_heads=4, model_dim=64, ffn_dim=256, vocab_size=300, max_len=16)


def assert_states_close(got, want):
    """Same shape, and within 1e-12 of the largest state: the tolerance of
    the rows path against the full forward."""
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)


def _random_batch(batch, length, seed):
    """``batch`` CLS-first rows of random tokens; the first row has ``length``
    tokens and the others a random length of at least one, padded."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, length + 1, size=batch)
    lengths[0] = length
    return pad_token_rows([[CLS_ID] + rng.integers(4, 300, size=n - 1).tolist() for n in lengths])


def _rows(kind, mask, seed):
    """A ``rows`` mask: each sequence's first position, about 15% of the real
    positions, or exactly one real position."""
    rows = np.zeros(mask.shape, dtype=bool)
    if kind == "cls":
        rows[:, 0] = True
    elif kind == "masked":
        rows[:] = (np.random.default_rng(seed).random(mask.shape) < 0.15) & (mask == 1)
    else:
        rows[mask.shape[0] - 1, np.flatnonzero(mask[-1])[-1]] = True
    return rows


class TestInferenceRows:
    """``forward_batch(..., rows=...)`` returns ``hidden[rows]`` of the full
    forward to within 1e-12 of the largest state, and keeps no trace. The
    last layer attends from the read rows only, in products of other shapes
    than the full forward's, which may round differently."""

    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    @pytest.mark.parametrize("batch, length", [(1, 7), (2, 6), (3, 12), (30, 10), (256, 5), (4, 1)])
    @pytest.mark.parametrize("kind", ["cls", "masked", "one"])
    def test_rows_equal_full_forward_selection(self, n_layers, batch, length, kind):
        config = EncoderConfig(n_layers=n_layers, **WIDE)
        params = init_params(config, seed=n_layers + 1)
        ids, mask = _random_batch(batch, length, seed=batch * length)
        rows = _rows(kind, mask, seed=batch + length)
        hidden, _ = forward_batch(params, config, ids, mask)
        states = forward_batch(params, config, ids, mask, rows=rows)
        assert isinstance(states, np.ndarray) and states.shape == (np.count_nonzero(rows), config.model_dim)
        assert_states_close(states, hidden[rows])

    def test_mixed_lengths_select_real_and_padded_positions(self):
        """The tiny batch has padding; a mask over every position, padded
        ones included, still returns the full forward's states."""
        params = init_params(TINY, seed=0)
        ids, mask = tiny_batch()
        hidden, _ = forward_batch(params, TINY, ids, mask)
        every = np.ones(ids.shape, dtype=bool)
        assert bits_equal(forward_batch(params, TINY, ids, mask, rows=every), hidden.reshape(-1, TINY.model_dim))

    def test_empty_selection_returns_no_rows(self):
        params = init_params(TINY, seed=0)
        ids, mask = tiny_batch()
        states = forward_batch(params, TINY, ids, mask, rows=np.zeros(ids.shape, dtype=bool))
        assert states.shape == (0, TINY.model_dim)

    @pytest.mark.parametrize("rows", [
        np.ones((3, 4), dtype=bool), np.ones((3, 5, 1), dtype=bool), np.ones((3, 5), dtype=np.int64),
    ], ids=["short", "3-d", "int"])
    def test_bad_rows_rejected_before_any_layer(self, rows, monkeypatch):
        """A ``rows`` mask that is not boolean and shaped like ``ids`` is
        refused before the first projection."""
        params = init_params(TINY, seed=0)
        ids, mask = tiny_batch()
        calls = []
        monkeypatch.setattr(encoder, "_affine", lambda *args: calls.append(1) or _affine(*args))
        with pytest.raises(ValidationError, match="rows must be a boolean mask shaped like ids"):
            forward_batch(params, TINY, ids, mask, rows=rows)
        assert calls == []
        forward_batch(params, TINY, ids, mask, rows=np.ones(ids.shape, dtype=bool))
        assert calls  # the count sees a forward that runs


def _full_path(params, config, ids, mask, rows, d_states):
    """The reference for a head's training backward: a full forward, then
    ``backward_batch`` with ``d_states`` at the ``rows`` and zero elsewhere.
    Returns the gradients and ``hidden[rows]``."""
    hidden, trace = forward_batch(params, config, ids, mask)
    d_hidden = np.zeros_like(hidden)
    d_hidden[rows] = d_states
    return backward_batch(params, config, trace, d_hidden), hidden[rows]


def _mlm_lines(ids, mask, rows, seed):
    """The padded batch with [MASK] at each selected row, its id lines, and a
    random label for each selected row in row-major order, as
    ``training._mlm_loss`` takes them."""
    labels = np.random.default_rng(seed).integers(4, 300, size=ids.shape)[rows]
    ids = np.where(rows, MASK_ID, ids)
    return ids, [ids[i, :n].tolist() for i, n in enumerate(mask.sum(axis=1))], labels


class TestTrainingRows:
    """A head's training forward passes the rows it reads and its backward
    runs the last layer from its queries on those rows alone. The gradients
    equal the full path's to within 1e-12 of the largest one: the products
    have other shapes and the weight-gradient products sum over fewer rows,
    so they may round differently. Batches with one selected row or length
    one take the same gathered path; without layers, ``d_hidden`` is
    scattered onto the embedding sum."""

    SHAPES = [(1, 7), (2, 6), (3, 12), (30, 10), (240, 10), (4, 1)]

    @staticmethod
    def assert_close(got, want):
        assert np.abs(got.flat - want.flat).max() <= 1e-12 * np.abs(want.flat).max()

    @staticmethod
    def case(n_layers, batch, length):
        config = EncoderConfig(n_layers=n_layers, **WIDE)
        ids, mask = _random_batch(batch, length, seed=batch * length)
        return config, init_params(config, seed=n_layers + 1), ids, mask, np.random.default_rng(batch + length)

    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    @pytest.mark.parametrize("batch, length", SHAPES)
    def test_score_cls_backward(self, n_layers, batch, length):
        config, params, ids, mask, rng = self.case(n_layers, batch, length)
        d_scores = rng.standard_normal(batch)
        scores, trace = score_cls_batch(params, config, ids, mask)
        want, cls = _full_path(params, config, ids, mask, _rows("cls", mask, 0), d_scores[:, None] * params.score_w)
        want.score_w[:] += cls.T @ d_scores
        want.score_b[()] += d_scores.sum()
        assert bits_equal(scores, trace.hidden @ params.score_w + params.score_b)
        assert_states_close(trace.hidden, cls)
        self.assert_close(score_cls_backward(params, config, trace, d_scores), want)

    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    @pytest.mark.parametrize("batch, length", SHAPES)
    def test_embed_backward_cls_pooling(self, n_layers, batch, length):
        config, params, ids, mask, rng = self.case(n_layers, batch, length)
        d_emb = rng.standard_normal((batch, config.model_dim))
        emb, trace = embed_batch(params, config, ids, mask)
        want, cls = _full_path(params, config, ids, mask, _rows("cls", mask, 0), d_emb)
        assert_states_close(emb, cls)
        self.assert_close(embed_backward(params, config, trace, d_emb), want)

    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    @pytest.mark.parametrize("batch, length, kind", [
        (3, 12, "masked"), (30, 10, "masked"), (240, 10, "masked"), (30, 10, "one"), (4, 1, "one"),
    ])
    def test_mlm_gradient(self, n_layers, batch, length, kind):
        """Masked rows, several in a sequence and none at padding, or
        exactly one in the batch."""
        config, params, ids, mask, _ = self.case(n_layers, batch, length)
        rows = _rows(kind, mask, seed=batch + length)
        per_sequence = rows.sum(axis=1)
        if kind == "masked":
            assert per_sequence.max() >= 2 and (mask == 0).any()
        else:
            assert per_sequence.sum() == 1
        ids, lines, labels = _mlm_lines(ids, mask, rows, seed=batch)
        loss, states, trace = training._mlm_loss(params, lines, labels)
        d_states = loss.grad @ params.tok_emb
        want, picked = _full_path(params, config, ids, mask, rows, d_states)
        assert_states_close(states, picked)
        self.assert_close(backward_batch(params, config, trace, d_states), want)

    def test_mlm_gradient_matches_finite_differences(self):
        """Central differences on every parameter of a two-layer encoder,
        through the masked-token loss with several masked rows per sequence
        and padding, so the gathered last layer is the one differentiated."""
        config = EncoderConfig(n_layers=2, n_heads=2, model_dim=8, ffn_dim=16, vocab_size=20, max_len=6)
        params = init_params(config, seed=0)
        rng = np.random.default_rng(41)
        for name, arr in params.named_arrays():
            arr[...] = 1.0 + 0.2 * rng.standard_normal(arr.shape) if name.endswith("scale") else 0.5 * rng.standard_normal(arr.shape)
        lines = [[CLS_ID, MASK_ID, 12, MASK_ID, MASK_ID, 4], [CLS_ID, 5, MASK_ID], [CLS_ID, MASK_ID, MASK_ID, 11]]
        labels = [3, 17, 8, 9, 14, 6]

        def objective():
            return training._mlm_loss(params, lines, labels)[0].value

        loss, states, trace = training._mlm_loss(params, lines, labels)
        assert len(states) == 6 and trace.layers[-1].slots is not None and trace.rows.sum() == 6
        grads = backward_batch(params, config, trace, loss.grad @ params.tok_emb)
        grads.tok_emb += loss.grad.T @ states
        grads.mlm_bias += loss.grad.sum(axis=0)
        analytic = dict(grads.named_arrays())
        eps, worst = 1e-5, 0.0
        for name, arr in params.named_arrays():
            for idx in np.ndindex(arr.shape):
                keep = arr[idx]
                arr[idx] = keep + eps
                hi = objective()
                arr[idx] = keep - eps
                lo = objective()
                arr[idx] = keep
                numeric, g = (hi - lo) / (2.0 * eps), analytic[name][idx]
                worst = max(worst, abs(g - numeric) / max(abs(g), abs(numeric), 1e-6))
        assert worst < 1e-4


class TestInferenceEqualsTraining:
    """The inference forwards (``score_pairs``, ``embed_texts``, the
    masked-token forward of ``evaluate_mlm``) and the heads' training
    forwards run one body: at every shape and row kind they return the same
    bits. The gathered last layer's trace holds attention from the read rows
    only: one query slot per read row, as many slots per sequence as the
    sequence with the most read rows has."""

    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    @pytest.mark.parametrize("batch, length", TestTrainingRows.SHAPES)
    @pytest.mark.parametrize("kind", ["cls", "masked", "one"])
    def test_same_bits_and_read_row_attention(self, n_layers, batch, length, kind):
        config, params, ids, mask, _ = TestTrainingRows.case(n_layers, batch, length)
        rows = _rows(kind, mask, seed=batch + length)
        if kind == "cls":
            lines = [ids[i, :n].tolist() for i, n in enumerate(mask.sum(axis=1))]
            ckpt = training.Checkpoint(params, "listmle", 0, 0, "")
            tokenizer = SimpleNamespace(  # the batch's id rows, indexed by "text"
                encode_pairs=lambda query, texts, max_len: [lines[t] for t in texts],
                encode_single=lambda t, max_len: TokenSequence(ids=lines[t]),
            )
            emb, _ = embed_batch(params, config, ids, mask)
            assert bits_equal(training.embed_texts(ckpt, tokenizer, range(batch)), emb)
            scores, trace = score_cls_batch(params, config, ids, mask)
            assert bits_equal(training.score_pairs(ckpt, tokenizer, "q", range(batch)), scores)
        else:  # a masked-token batch needs a masked position, so the last real one is added
            rows |= _rows("one", mask, seed=0)
            ids, lines, labels = _mlm_lines(ids, mask, rows, seed=batch)
            _, states, trace = training._mlm_loss(params, lines, labels)
            assert bits_equal(forward_batch(params, config, ids, mask, rows=rows), states)
        n_rows = np.count_nonzero(rows)
        assert np.array_equal(trace.rows, rows)
        assert [lt.slots is not None for lt in trace.layers] == [False] * (n_layers - 1) + [True] * (n_layers > 0)
        if n_layers > 0:  # one query slot per read row of the sequence with the most
            width = rows.sum(axis=1).max()  # 1 for the [CLS] heads
            assert trace.layers[-1].probs.shape == (batch, config.n_heads, width, length)
            assert trace.layers[-1].ctx.shape == (n_rows, config.model_dim)
