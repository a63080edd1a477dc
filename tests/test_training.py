"""Unit tests for the optimizer, checkpoints, and the three training loops.

Training-loop tests run on a deliberately tiny setup (12 noise-free
queries of 8 documents, a 1-layer width-16 encoder) so each case stays
well under a second while still exercising real gradient flow.
"""

import dataclasses
import math
import os
import struct
import warnings
import weakref

import numpy as np
import pytest
from conftest import bits_equal, rewrite_header

from listrank import encoder, training
from listrank.dataset import (
    Dataset,
    Document,
    QueryGroup,
    SyntheticSpec,
    corpus_lines,
    generate_synthetic,
)
from listrank.encoder import (
    EncoderConfig,
    init_params,
    pad_token_rows,
    score_cls_backward,
    score_cls_batch,
    zeros_like_params,
)
from listrank.errors import (
    CheckpointError,
    ConfigurationError,
    ContractError,
    EmptyInputError,
    NonFiniteError,
    ValidationError,
)
from listrank.tokenizer import CLS_ID, MASK_ID, TokenSequence, mask_for_mlm, train_bpe
from listrank.training import (
    LOSS_NAMES,
    Checkpoint,
    TrainConfig,
    _manifest,
    adam_step,
    checkpoint_fingerprint,
    distill,
    distill_pairs,
    evaluate_mlm,
    finetune_ltr,
    init_adam_state,
    init_checkpoint,
    load_checkpoint,
    make_bi_encoder_scorer,
    make_cross_encoder_scorer,
    pretrain_mlm,
    save_checkpoint,
)

TINY_ENC = dict(n_layers=1, n_heads=2, model_dim=16, ffn_dim=32, max_len=16)


@pytest.fixture(scope="module")
def tiny_world():
    """Noise-free synthetic data, a matching tokenizer, and encoder config."""
    spec = SyntheticSpec(
        n_queries=12, list_size=8, attribute_vocab_size=40,
        query_token_count=4, noise_std=0.0, seed=3,
    )
    dataset = generate_synthetic(spec)
    tokenizer = train_bpe(corpus_lines(dataset), vocab_size=300)
    config = EncoderConfig(vocab_size=tokenizer.vocab_size, **TINY_ENC)
    return dataset, tokenizer, config


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lr=0.0),
            dict(lr=-1e-3),
            dict(epochs=-1),
            dict(batch_size=0),
            dict(approx_alpha=0.0),
            dict(mask_rate=1.5),
            dict(heldout_fraction=0.0),
            dict(heldout_fraction=1.0),
            dict(distill_pair_cap=0),
            dict(seed=-1),
            dict(lr=float("nan")),
            dict(mask_rate=-0.1),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("field", ["lr", "approx_alpha"])
    def test_infinite_rate_rejected(self, field):
        """An infinite rate used to surface as a non-finite gradient after a step."""
        with pytest.raises(ConfigurationError, match=f"{field} must be positive and finite, got inf"):
            TrainConfig(**{field: math.inf})

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5), ("batch_size", 2.5), ("seed", 1.5), ("distill_pair_cap", 2.5), ("epochs", True),
        ("init_from_teacher", "no"), ("init_from_teacher", 1), ("lr", "x"), ("approx_alpha", True),
        ("mask_rate", None),
    ])
    def test_mistyped_field_rejected(self, field, value):
        """As in ``EncoderConfig``: an int field takes only an ``int``, a float
        field an ``int`` or a ``float`` but not a ``bool``, a bool field only a
        ``bool``. ``epochs=2.5`` used to construct, ``lr="x"`` to raise a bare
        ``TypeError``."""
        with pytest.raises(ConfigurationError, match=f"^{field} must be "):
            TrainConfig(**{field: value})
        assert TrainConfig(lr=1).lr == 1

    def test_zero_epochs_allowed(self):
        assert TrainConfig(epochs=0).epochs == 0

    def test_adam_settings_are_class_constants(self):
        """Adam's decay rates and epsilon are the Kingma and Ba defaults and
        not fields: a config cannot set them."""
        assert len(dataclasses.fields(TrainConfig)) == 9
        assert (TrainConfig.beta1, TrainConfig.beta2, TrainConfig.adam_eps) == (0.9, 0.999, 1e-8)
        assert TrainConfig(lr=1e-3).beta1 == 0.9
        with pytest.raises(TypeError):
            TrainConfig(beta1=0.5)


class TestAdamStep:
    CONFIG = EncoderConfig(n_layers=0, n_heads=1, model_dim=4, ffn_dim=4,
                           vocab_size=6, max_len=4)
    TWO_LAYERS = EncoderConfig(n_layers=2, n_heads=2, model_dim=4, ffn_dim=6,
                               vocab_size=7, max_len=3)

    def test_first_step_moves_by_almost_lr(self):
        """With one constant gradient the bias-corrected first Adam step is
        lr * g / (|g| + eps), essentially lr."""
        params = init_params(self.CONFIG, seed=0)
        params.score_b[()] = 1.0
        grads = zeros_like_params(params)
        grads.score_b[()] = 2.0
        state = init_adam_state(params)
        adam_step(params, grads, state, TrainConfig(lr=0.1))
        assert abs(float(params.score_b) - 0.9) < 1e-6
        assert state.step == 1

    def test_zero_gradient_changes_nothing(self):
        params = init_params(self.CONFIG, seed=0)
        snapshot = params.copy()
        state = init_adam_state(params)
        adam_step(params, zeros_like_params(params), state, TrainConfig(lr=0.1))
        for (name, a), (_, b) in zip(params.named_arrays(), snapshot.named_arrays()):
            np.testing.assert_array_equal(a, b, err_msg=name)
        assert state.step == 1

    def test_update_touches_only_parameters_with_gradient(self):
        params = init_params(self.CONFIG, seed=0)
        before = params.tok_emb.copy()
        grads = zeros_like_params(params)
        grads.score_w[:] = 1.0
        adam_step(params, grads, init_adam_state(params), TrainConfig(lr=0.1))
        np.testing.assert_array_equal(params.tok_emb, before)

    def test_identical_runs_are_bit_identical(self):
        results = []
        for _ in range(2):
            params = init_params(self.CONFIG, seed=0)
            grads = zeros_like_params(params)
            grads.score_w[:] = np.arange(4, dtype=np.float64)
            state = init_adam_state(params)
            for _ in range(3):
                adam_step(params, grads, state, TrainConfig(lr=0.01))
            results.append(params.score_w.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_non_finite_gradient_aborts_without_side_effects(self):
        params = init_params(self.CONFIG, seed=0)
        snapshot = params.copy()
        grads = zeros_like_params(params)
        grads.pos_emb[1, 2] = np.nan
        state = init_adam_state(params)
        with pytest.raises(NonFiniteError, match="^non-finite gradient in parameter group 'pos_emb'$"):
            adam_step(params, grads, state, TrainConfig(lr=0.1))
        assert state.step == 0
        for (name, a), (_, b) in zip(params.named_arrays(), snapshot.named_arrays()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_non_finite_gradient_names_its_parameter_and_leaves_state(self):
        """One NaN deep in the flat gradient names the array holding it, and
        the parameters, both moments and the step count stay as they were."""
        params = init_params(self.TWO_LAYERS, seed=0)
        state = init_adam_state(params)
        grads = zeros_like_params(params)
        grads.flat[:] = 0.5
        adam_step(params, grads, state, TrainConfig(lr=0.1))
        before = params.flat.copy(), state.m.copy(), state.v.copy()
        grads.layers[1].b_ffn2[2] = np.nan
        with pytest.raises(NonFiniteError, match=r"^non-finite gradient in parameter group 'layer1\.b_ffn2'$"):
            adam_step(params, grads, state, TrainConfig(lr=0.1))
        assert state.step == 1
        for got, want in zip((params.flat, state.m, state.v), before):
            np.testing.assert_array_equal(got, want)

    def test_flat_update_equals_per_array_update_bit_for_bit(self):
        """Adam is elementwise, so two steps over the flat vector give the
        same bits as the update applied to each array on its own."""
        config = TrainConfig(lr=0.01)
        params = init_params(self.TWO_LAYERS, seed=0)
        state = init_adam_state(params)
        expected = {name: a.copy() for name, a in params.named_arrays()}
        m = {name: np.zeros_like(a) for name, a in expected.items()}
        v = {name: np.zeros_like(a) for name, a in expected.items()}
        rng = np.random.default_rng(11)
        for t in (1, 2):
            grads = zeros_like_params(params)
            for name, g in grads.named_arrays():
                g[...] = rng.normal(size=g.shape)
                m[name] *= config.beta1
                m[name] += (1.0 - config.beta1) * g
                v[name] *= config.beta2
                v[name] += (1.0 - config.beta2) * (g * g)
                expected[name] -= config.lr * (m[name] / (1.0 - config.beta1**t)) / (
                    np.sqrt(v[name] / (1.0 - config.beta2**t)) + config.adam_eps)
            adam_step(params, grads, state, config)
        for name, a in params.named_arrays():
            np.testing.assert_array_equal(a.view(np.int64), expected[name].view(np.int64), err_msg=name)


class TestCheckpointFiles:
    CONFIG = EncoderConfig(n_layers=1, n_heads=2, model_dim=8, ffn_dim=16,
                           vocab_size=20, max_len=5)

    def fresh(self):
        ckpt = init_checkpoint(self.CONFIG, seed=4, tokenizer_hash="abc123")
        ckpt.loss_name = "listnet"
        ckpt.epoch = 7
        return ckpt

    def test_roundtrip_metadata_and_quantized_params(self, tmp_path):
        """Parameters are stored as float32, so the loaded values equal the
        originals after one float32 round trip, exactly."""
        ckpt = self.fresh()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.config == ckpt.config
        assert loaded.loss_name == "listnet"
        assert loaded.seed == 4
        assert loaded.epoch == 7
        assert loaded.tokenizer_hash == "abc123"
        for (name, a), (_, b) in zip(loaded.params.named_arrays(), ckpt.params.named_arrays()):
            np.testing.assert_array_equal(
                a, b.astype("<f4").astype(np.float64), err_msg=name
            )
            assert a.dtype == np.float64

    def test_save_then_save_is_byte_identical(self, tmp_path):
        ckpt = self.fresh()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, a)
        save_checkpoint(ckpt, b)
        assert a.read_bytes() == b.read_bytes()

    def test_no_temp_files_left_behind(self, tmp_path):
        save_checkpoint(self.fresh(), tmp_path / "model.ckpt")
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_fingerprint_tracks_stored_precision(self, tmp_path):
        """The fingerprint hashes the float32 payload: a sub-resolution
        perturbation keeps it, a visible one changes it."""
        ckpt = self.fresh()
        base = checkpoint_fingerprint(ckpt)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        assert checkpoint_fingerprint(load_checkpoint(path)) == base
        ckpt.params.score_w[0] += 0.25
        assert checkpoint_fingerprint(ckpt) != base

    def corrupt(self, tmp_path, mutate):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.fresh(), path)
        blob = bytearray(path.read_bytes())
        mutate(blob)
        path.write_bytes(bytes(blob))
        return path

    def test_bad_magic_raises_header_error(self, tmp_path):
        path = self.corrupt(tmp_path, lambda b: b.__setitem__(0, b[0] ^ 0xFF))
        with pytest.raises(CheckpointError, match=r"not a checkpoint file \(bad magic\)$"):
            load_checkpoint(path)

    def test_unsupported_version_raises_version_error(self, tmp_path):
        def bump(b):
            b[8:12] = struct.pack("<I", 99)

        path = self.corrupt(tmp_path, bump)
        with pytest.raises(CheckpointError, match=r"unsupported checkpoint version 99 \(reader supports 4\)$"):
            load_checkpoint(path)

    def test_truncation_raises_truncated_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.fresh(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match=f"{len(blob) // 2} bytes, the header implies {len(blob)}$"):
            load_checkpoint(path)

    def test_header_corruption_raises_header_error(self, tmp_path):
        def garble(b):
            b[20] = 0xFF  # inside the JSON header region

        path = self.corrupt(tmp_path, garble)
        with pytest.raises(CheckpointError, match="header is not valid JSON"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [("n_layers", 1.5), ("n_heads", 3), ("pooling", "max")])
    def test_bad_encoder_config_raises_header_error(self, tmp_path, field, value):
        """A crafted config with a valid hash is a header error, never a raw
        exception; a ``pooling`` key, which version 2 wrote, is unknown."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.fresh(), path)
        rewrite_header(path, lambda h: dict(h, encoder_config=dict(h["encoder_config"], **{field: value})))
        with pytest.raises(CheckpointError, match="bad encoder config"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [("loss_name", 1), ("seed", "0"), ("seed", True), ("epoch", "x"),
                                              ("epoch", 7.0), ("tokenizer_hash", None)])
    def test_mistyped_header_field_raises_header_error(self, tmp_path, field, value):
        """A re-sealed header with a mistyped training field does not load."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.fresh(), path)
        rewrite_header(path, lambda h: dict(h, **{field: value}))
        with pytest.raises(CheckpointError, match=f"header field '{field}' must be"):
            load_checkpoint(path)

    def test_payload_corruption_raises_integrity_error(self, tmp_path):
        def flip(b):
            b[-12] ^= 0xFF  # inside the parameter payload, before the 8-byte hash

        path = self.corrupt(tmp_path, flip)
        with pytest.raises(CheckpointError, match="content hash mismatch$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new", [(b'"loss_name":"listnet"', b'"loss_name":"listmle"'),
                                          (b'"epoch":7', b'"epoch":8')])
    def test_edited_header_field_raises_integrity_error(self, tmp_path, old, new):
        """The hash covers the header too: ``loss_name`` picks the scorer
        ``eval`` uses, so an edit of it must not load."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.fresh(), path)
        blob = path.read_bytes()
        assert old in blob
        path.write_bytes(blob.replace(old, new, 1))
        with pytest.raises(CheckpointError, match="content hash mismatch$"):
            load_checkpoint(path)

    def test_trailing_bytes_raise_truncated_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.fresh(), path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointError, match="the header implies"):
            load_checkpoint(path)

    @pytest.mark.parametrize("with_manifest", [False, True])
    def test_shape_past_the_address_space_is_refused_without_allocating(self, tmp_path, with_manifest):
        """A re-sealed header that asks for ``max_len`` 10**15 (64 PB of
        float64 position embeddings) is refused by the file's length, with
        or without a manifest to match, before the manifest is compared; the
        parameters were built before those checks and failed with a numpy
        allocation error."""
        max_len = 10**15

        def grow(header):
            header["encoder_config"]["max_len"] = max_len
            if with_manifest:
                pos = header["manifest"][1]
                extra = 4 * (max_len - pos["shape"][0]) * pos["shape"][1]
                pos["shape"][0] = max_len
                pos["size"] += extra
                for entry in header["manifest"][2:]:
                    entry["offset"] += extra
            return header

        path = tmp_path / "model.ckpt"
        save_checkpoint(self.fresh(), path)
        rewrite_header(path, grow)
        with pytest.raises(CheckpointError, match=r"bad encoder config \(the encoder shape holds \d+ parameters"):
            load_checkpoint(path)

    def test_layer_count_past_the_file_is_refused_before_any_manifest(self, tmp_path, monkeypatch):
        """A re-sealed header that asks for a million layers is refused by
        the file's length, sized in closed form, before any manifest is
        built: building one from that header ran for 18 s and ran out of
        memory."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.fresh(), path)
        rewrite_header(path, lambda h: dict(h, encoder_config=dict(h["encoder_config"], n_layers=10**6)))

        def refuse(config):
            raise AssertionError(f"manifest built for {config.n_layers} layers")

        monkeypatch.setattr(training, "_manifest", refuse)
        size = path.stat().st_size
        with pytest.raises(CheckpointError, match=r"bad encoder config \(the encoder shape holds \d+ parameters"):
            load_checkpoint(path)

    def test_layer_count_within_the_bound_is_refused_by_the_length(self, tmp_path, monkeypatch):
        """Ten thousand layers pass the parameter bound; the file's length,
        sized in closed form, refuses them before any manifest is built."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.fresh(), path)
        rewrite_header(path, lambda h: dict(h, encoder_config=dict(h["encoder_config"], n_layers=10**4)))
        monkeypatch.setattr(training, "_manifest", lambda config: pytest.fail("manifest built"))
        with pytest.raises(CheckpointError, match=fr"{path.stat().st_size} bytes, the header implies \d+$"):
            load_checkpoint(path)

    def test_version_1_file_is_refused_by_name(self, tmp_path):
        """Version 1 files, whose hash covered the payload only, version 2
        files, whose encoder config named a pooling, and version 3 files,
        sealed with blake2b, are refused."""
        for version in (1, 2, 3):
            def downgrade(b):
                b[8:12] = struct.pack("<I", version)

            path = self.corrupt(tmp_path, downgrade)
            message = fr"unsupported checkpoint version {version} \(reader supports 4\)$"
            with pytest.raises(CheckpointError, match=message):
                load_checkpoint(path)


class TestCheckpointManifest:
    """The manifest must be exactly the one the encoder config implies: a list
    of integer-valued entries that tile the payload in order. Anything else is
    a header error, never a raw exception or a silent load of wrong bytes."""

    CONFIG = TestCheckpointFiles.CONFIG

    def rewrite(self, tmp_path, edit):
        """Save a checkpoint, then replace its manifest by ``edit(manifest)``,
        keeping the payload and re-sealing the hash, so that only the manifest
        check stands between the crafted file and a load."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_checkpoint(self.CONFIG, seed=4, tokenizer_hash="abc123"), path)
        rewrite_header(path, lambda header: dict(header, manifest=edit(header["manifest"])))
        return path

    def assert_rejected(self, path, phrase):
        with pytest.raises(CheckpointError, match=phrase) as info:
            load_checkpoint(path)
        assert "\n" not in str(info.value)

    def test_unedited_manifest_loads(self, tmp_path):
        path = self.rewrite(tmp_path, lambda m: m)
        assert load_checkpoint(path).epoch == 0

    def test_manifest_entries_are_the_flat_layout_in_order(self):
        """Entry k names the k-th view of ``flat`` and starts at 4 bytes per
        value before it, so the float32 payload is ``flat`` cast as a whole."""
        params = init_params(self.CONFIG, seed=4)
        start = params.flat.__array_interface__["data"][0]
        end = 0
        for entry, (name, a) in zip(_manifest(params.config), params.named_arrays(), strict=True):
            value_offset = (a.__array_interface__["data"][0] - start) // 8
            assert entry == {"name": name, "shape": list(a.shape), "offset": 4 * value_offset, "size": 4 * a.size}
            assert value_offset == end, name
            end += a.size
        assert end == params.flat.size

    def test_manifest_that_is_not_a_list_rejected(self, tmp_path):
        path = self.rewrite(tmp_path, lambda m: {e["name"]: e for e in m})
        self.assert_rejected(path, "manifest is not a list")

    def test_entry_without_offset_rejected(self, tmp_path):
        def drop_offset(m):
            del m[1]["offset"]
            return m

        self.assert_rejected(self.rewrite(tmp_path, drop_offset), "manifest entry")

    @pytest.mark.parametrize("field, value", [("offset", 0.0), ("size", "640"), ("shape", [20.0, 8]),
                                              ("name", 7), ("offset", False)])
    def test_entry_field_of_wrong_type_rejected(self, tmp_path, field, value):
        def retype(m):
            m[0][field] = value
            return m

        self.assert_rejected(self.rewrite(tmp_path, retype), "manifest entry")

    def test_size_that_disagrees_with_shape_rejected(self, tmp_path):
        """Moving four bytes from tok_emb to pos_emb keeps the payload tiled
        but gives both entries a size their shape does not hold."""
        def shift(m):
            m[0]["size"] -= 4
            m[1]["offset"] -= 4
            m[1]["size"] += 4
            return m

        self.assert_rejected(self.rewrite(tmp_path, shift), "manifest entry")

    def test_offset_aliasing_another_entry_rejected(self, tmp_path):
        """pos_emb pointed at tok_emb's bytes would load tok_emb's values."""
        def alias(m):
            assert (m[0]["name"], m[1]["name"]) == ("tok_emb", "pos_emb")
            m[1]["offset"] = m[0]["offset"]
            return m

        self.assert_rejected(self.rewrite(tmp_path, alias), "manifest entry")

    def test_extra_entry_rejected(self, tmp_path):
        def extend(m):
            return m + [dict(m[-1], offset=m[-1]["offset"] + m[-1]["size"])]

        self.assert_rejected(self.rewrite(tmp_path, extend), "manifest entry")

    def test_gap_between_entries_rejected(self, tmp_path):
        def gap(m):
            m[1]["offset"] += 4
            return m

        self.assert_rejected(self.rewrite(tmp_path, gap), "manifest entry")


class TestPretrainMlm:
    def test_zero_epochs_returns_untouched_init(self, tiny_world):
        """An epochs=0 run must hand back exactly the seeded initialization
        plus a single before-training held-out row."""
        dataset, tokenizer, config = tiny_world
        tc = TrainConfig(lr=1e-3, epochs=0, batch_size=4, seed=0)
        ckpt, history = pretrain_mlm(corpus_lines(dataset), tokenizer, config, tc)
        reference = init_params(config, 0)
        for (name, a), (_, b) in zip(ckpt.params.named_arrays(), reference.named_arrays()):
            np.testing.assert_array_equal(a, b, err_msg=name)
        assert [(r.epoch, r.split) for r in history] == [(0, "heldout")]
        assert ckpt.loss_name == "mlm"

    def test_mask_rate_zero_skips_every_batch(self, tiny_world):
        """With nothing masked every batch is skipped: no Adam step runs,
        every train row reads 0.0 and the weights stay the seeded init."""
        dataset, tokenizer, config = tiny_world
        tc = TrainConfig(lr=1e-3, epochs=2, batch_size=4, seed=3, mask_rate=0.0)
        ckpt, history = pretrain_mlm(corpus_lines(dataset), tokenizer, config, tc)
        reference = init_params(config, 3)
        for (name, a), (_, b) in zip(ckpt.params.named_arrays(), reference.named_arrays()):
            np.testing.assert_array_equal(a, b, err_msg=name)
        assert [r.loss_value for r in history if r.split == "train"] == [0.0, 0.0]
        assert [(r.epoch, r.split) for r in history] == [
            (0, "heldout"), (1, "train"), (1, "heldout"), (2, "train"), (2, "heldout"),
        ]

    def test_untrained_loss_is_log_vocab(self, tiny_world):
        """Near-zero initial logits make every prediction uniform, so the
        starting cross-entropy sits at log(vocab)."""
        dataset, tokenizer, config = tiny_world
        tc = TrainConfig(lr=1e-3, epochs=0, batch_size=4, seed=0)
        _, history = pretrain_mlm(corpus_lines(dataset), tokenizer, config, tc)
        ratio = history[0].loss_value / math.log(tokenizer.vocab_size)
        assert 0.9 < ratio < 1.1

    def test_history_interleaves_train_and_heldout(self, tiny_world):
        dataset, tokenizer, config = tiny_world
        tc = TrainConfig(lr=1e-3, epochs=2, batch_size=4, seed=0)
        _, history = pretrain_mlm(corpus_lines(dataset), tokenizer, config, tc)
        assert [(r.epoch, r.split) for r in history] == [
            (0, "heldout"), (1, "train"), (1, "heldout"), (2, "train"), (2, "heldout"),
        ]
        assert all(r.loss_name == "mlm" for r in history)

    def test_training_reduces_heldout_loss(self, tiny_world):
        dataset, tokenizer, config = tiny_world
        tc = TrainConfig(lr=1e-3, epochs=2, batch_size=4, seed=0)
        _, history = pretrain_mlm(corpus_lines(dataset), tokenizer, config, tc)
        heldout = [r.loss_value for r in history if r.split == "heldout"]
        assert heldout[-1] < heldout[0]

    def test_same_seed_saves_byte_identical_checkpoints(self, tiny_world, tmp_path):
        dataset, tokenizer, config = tiny_world
        tc = TrainConfig(lr=1e-3, epochs=1, batch_size=4, seed=0)
        paths = []
        for tag in ("a", "b"):
            ckpt, _ = pretrain_mlm(corpus_lines(dataset), tokenizer, config, tc)
            path = tmp_path / f"{tag}.ckpt"
            save_checkpoint(ckpt, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_empty_corpus_raises(self, tiny_world):
        _, tokenizer, config = tiny_world
        with pytest.raises(EmptyInputError):
            pretrain_mlm([], tokenizer, config, TrainConfig())


class TestEvaluateMlm:
    def test_rate_zero_falls_back_to_one_forced_mask(self, tiny_world):
        """A mask rate of zero draws no masked positions; evaluation then
        masks the first maskable token so the value is still defined."""
        dataset, tokenizer, config = tiny_world
        params = init_params(config, seed=0)
        seqs = [tokenizer.encode_single(line, config.max_len) for line in corpus_lines(dataset)[:4]]
        value = evaluate_mlm(params, seqs, mask_rate=0.0, mask_seed_base=[0, 1])
        assert np.isfinite(value) and value > 0.0

    def test_no_maskable_tokens_raises(self, tiny_world):
        _, tokenizer, config = tiny_world
        params = init_params(config, seed=0)
        seqs = [TokenSequence(ids=[CLS_ID])]
        with pytest.raises(EmptyInputError):
            evaluate_mlm(params, seqs, mask_rate=0.5, mask_seed_base=[0, 1])

    def test_same_inputs_same_value(self, tiny_world):
        dataset, tokenizer, config = tiny_world
        params = init_params(config, seed=0)
        seqs = [tokenizer.encode_single(line, config.max_len) for line in corpus_lines(dataset)[:6]]
        a = evaluate_mlm(params, seqs, mask_rate=0.3, mask_seed_base=[0, 5])
        b = evaluate_mlm(params, seqs, mask_rate=0.3, mask_seed_base=[0, 5])
        assert a == b


class TestFinetuneLtr:
    def test_unknown_loss_rejected(self, tiny_world):
        dataset, tokenizer, config = tiny_world
        ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
        with pytest.raises(ConfigurationError):
            finetune_ltr(dataset, ckpt, "hinge", TrainConfig(), tokenizer)

    def test_unknown_loss_is_named_before_the_dataset_is_checked(self, tiny_world):
        _, tokenizer, config = tiny_world
        ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
        with pytest.raises(ConfigurationError) as excinfo:
            finetune_ltr(Dataset([]), ckpt, "hinge", TrainConfig(), tokenizer)
        assert str(excinfo.value) == (
            "unknown loss 'hinge'; choose one of ('ranknet', 'listnet', 'listmle', 'approxndcg')"
        )

    def test_empty_dataset_rejected(self, tiny_world):
        _, tokenizer, config = tiny_world
        ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
        with pytest.raises(EmptyInputError):
            finetune_ltr(Dataset([]), ckpt, "listnet", TrainConfig(), tokenizer)

    def test_tokenizer_mismatch_rejected(self, tiny_world):
        dataset, tokenizer, config = tiny_world
        ckpt = init_checkpoint(config, 0, "0000000000000000")
        with pytest.raises(ContractError):
            finetune_ltr(dataset, ckpt, "listnet", TrainConfig(), tokenizer)

    def test_input_checkpoint_is_not_mutated(self, tiny_world):
        dataset, tokenizer, config = tiny_world
        ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
        snapshot = ckpt.params.copy()
        finetune_ltr(dataset, ckpt, "listnet",
                     TrainConfig(lr=1e-3, epochs=1, batch_size=4, seed=0), tokenizer)
        for (name, a), (_, b) in zip(ckpt.params.named_arrays(), snapshot.named_arrays()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_noise_free_training_loss_decreases(self, tiny_world):
        """On clean synthetic data every surrogate should descend over the
        first three epochs."""
        dataset, tokenizer, config = tiny_world
        for loss_name in LOSS_NAMES:
            ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
            tc = TrainConfig(lr=1e-3, epochs=3, batch_size=4, seed=0)
            _, history = finetune_ltr(dataset, ckpt, loss_name, tc, tokenizer)
            train = [r.loss_value for r in history if r.split == "train"]
            assert len(train) == 3
            assert train[1] < train[0] and train[2] < train[1], loss_name

    def test_one_step_separates_a_graded_pair(self, tiny_world):
        """Starting from a zeroed scoring head (all scores exactly equal),
        one optimizer step must open a positive score gap in favor of the
        grade-4 document, for every surrogate."""
        _, tokenizer, config = tiny_world
        group = QueryGroup(
            "g", "alpha beta",
            [Document("d0", "alpha beta"), Document("d1", "gamma delta")],
            [4, 0],
        )
        data = Dataset([group])
        for loss_name in LOSS_NAMES:
            ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
            ckpt.params.score_w[:] = 0.0
            before = make_cross_encoder_scorer(ckpt, tokenizer)(group)
            assert before[0] == before[1]
            out, _ = finetune_ltr(
                data, ckpt, loss_name,
                TrainConfig(lr=3e-4, epochs=1, batch_size=1, seed=0), tokenizer,
            )
            after = make_cross_encoder_scorer(out, tokenizer)(group)
            assert after[0] > after[1], loss_name

    def test_batched_gradient_is_mean_of_group_gradients(self, tiny_world):
        """The training loop divides each group's score gradient by the
        batch size before one shared backward pass; by linearity that
        equals averaging per-group parameter gradients."""
        dataset, tokenizer, config = tiny_world
        from listrank.losses import ListTarget, listnet_loss

        params = init_params(config, seed=1)
        groups = dataset.groups[:2]
        per_group = []
        for group in groups:
            rows = [tokenizer.encode_pair(group.query_text, d.text, config.max_len).ids
                    for d in group.docs]
            ids, mask = pad_token_rows(rows)
            scores, trace = score_cls_batch(params, config, ids, mask)
            out = listnet_loss(scores, ListTarget(np.asarray(group.grades)))
            per_group.append(score_cls_backward(params, config, trace, out.grad))
        rows = [tokenizer.encode_pair(g.query_text, d.text, config.max_len).ids
                for g in groups for d in g.docs]
        ids, mask = pad_token_rows(rows)
        scores, trace = score_cls_batch(params, config, ids, mask)
        d_scores = np.zeros_like(scores)
        offset = 0
        for group in groups:
            size = len(group.docs)
            out = listnet_loss(
                scores[offset : offset + size], ListTarget(np.asarray(group.grades))
            )
            d_scores[offset : offset + size] = out.grad / 2.0
            offset += size
        batched = score_cls_backward(params, config, trace, d_scores)
        mean = per_group[0]
        mean.flat += per_group[1].flat
        for (name, b), (_, m) in zip(batched.named_arrays(), mean.named_arrays()):
            np.testing.assert_allclose(b, m / 2.0, rtol=1e-9, atol=1e-12, err_msg=name)

    def test_single_doc_group_trains_without_error(self, tiny_world):
        _, tokenizer, config = tiny_world
        data = Dataset([QueryGroup("g", "alpha", [Document("d0", "alpha")], [2])])
        ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
        out, history = finetune_ltr(
            data, ckpt, "ranknet", TrainConfig(epochs=1, batch_size=1), tokenizer
        )
        assert out.loss_name == "ranknet"
        assert history[0].loss_value == 0.0

    def test_eval_rows_report_ndcg(self, tiny_world):
        dataset, tokenizer, config = tiny_world
        ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
        tc = TrainConfig(lr=1e-3, epochs=2, batch_size=4, seed=0)
        _, history = finetune_ltr(dataset, ckpt, "listnet", tc, tokenizer, dataset)
        evals = [r for r in history if r.split == "eval"]
        assert [r.epoch for r in evals] == [1, 2]
        assert all(r.mean_ndcg is not None and r.loss_value is None for r in evals)

    def test_output_checkpoint_metadata(self, tiny_world):
        dataset, tokenizer, config = tiny_world
        ckpt = init_checkpoint(config, 5, tokenizer.content_hash())
        tc = TrainConfig(lr=1e-3, epochs=2, batch_size=4, seed=5)
        out, _ = finetune_ltr(dataset, ckpt, "approxndcg", tc, tokenizer)
        assert out.loss_name == "approxndcg"
        assert out.epoch == 2
        assert out.seed == 5
        assert out.tokenizer_hash == tokenizer.content_hash()


class TestScorers:
    def test_cross_encoder_scorer_matches_direct_batch(self, tiny_world):
        dataset, tokenizer, config = tiny_world
        ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
        group = dataset.groups[0]
        texts = [d.text for d in group.docs]
        distinct = list(dict.fromkeys(texts))
        ids, mask = pad_token_rows([tokenizer.encode_pair(group.query_text, t, config.max_len).ids for t in distinct])
        expected, _ = score_cls_batch(ckpt.params, config, ids, mask)
        got = make_cross_encoder_scorer(ckpt, tokenizer)(group)
        assert len(distinct) < len(texts)
        np.testing.assert_array_equal(got, expected[[distinct.index(t) for t in texts]])

    def test_bi_encoder_scorer_is_query_document_dot_product(self, tiny_world):
        dataset, tokenizer, config = tiny_world
        from listrank.encoder import embed_batch

        ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
        group = dataset.groups[1]
        rows = [tokenizer.encode_single(group.query_text, config.max_len).ids]
        rows += [tokenizer.encode_single(d.text, config.max_len).ids for d in group.docs]
        ids, mask = pad_token_rows(rows)
        emb, _ = embed_batch(ckpt.params, config, ids, mask)
        got = make_bi_encoder_scorer(ckpt, tokenizer)(group)
        np.testing.assert_allclose(got, emb[1:] @ emb[0], rtol=1e-12)

    @pytest.mark.parametrize("loss_name, expected", [
        ("margin_mse", make_bi_encoder_scorer),
        ("listnet", make_cross_encoder_scorer),
        ("approxndcg", make_cross_encoder_scorer),
        ("mlm", make_cross_encoder_scorer),
        ("init", make_cross_encoder_scorer),
    ])
    def test_make_scorer_serves_a_distilled_checkpoint_as_a_bi_encoder(self, tiny_world, loss_name, expected):
        dataset, tokenizer, config = tiny_world
        ckpt = dataclasses.replace(init_checkpoint(config, 0, tokenizer.content_hash()), loss_name=loss_name)
        group = dataset.groups[2]
        got = training.make_scorer(ckpt, tokenizer)(group)
        np.testing.assert_array_equal(got, expected(ckpt, tokenizer)(group))
        other = make_cross_encoder_scorer if expected is make_bi_encoder_scorer else make_bi_encoder_scorer
        assert not np.array_equal(got, other(ckpt, tokenizer)(group))

    @pytest.mark.parametrize("make_scorer", [make_cross_encoder_scorer, make_bi_encoder_scorer])
    def test_foreign_tokenizer_rejected(self, tiny_world, make_scorer):
        dataset, tokenizer, config = tiny_world
        foreign = train_bpe(corpus_lines(dataset), vocab_size=290)
        ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
        with pytest.raises(ContractError):
            make_scorer(ckpt, foreign)

    @pytest.mark.parametrize("make_scorer", [make_cross_encoder_scorer, make_bi_encoder_scorer])
    def test_checkpoint_without_tokenizer_hash_accepts_any(self, tiny_world, make_scorer):
        dataset, tokenizer, config = tiny_world
        ckpt = init_checkpoint(config, 0, "")
        assert make_scorer(ckpt, tokenizer)(dataset.groups[0]).shape == (len(dataset.groups[0].docs),)


class TestInferenceForwards:
    """``score_pairs``, ``embed_texts`` and ``evaluate_mlm`` run the rows-only
    inference forward and return exactly what the training heads compute."""

    @pytest.mark.parametrize("n_docs", [1, 2, 8])
    def test_score_pairs_equals_score_cls_batch(self, tiny_world, n_docs):
        dataset, tokenizer, config = tiny_world
        ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
        group = dataset.groups[2]
        texts = [d.text for d in group.docs[:n_docs]]
        ids, mask = pad_token_rows([tokenizer.encode_pair(group.query_text, t, config.max_len).ids for t in texts])
        expected, _ = score_cls_batch(ckpt.params, config, ids, mask)
        assert bits_equal(training.score_pairs(ckpt, tokenizer, group.query_text, texts), expected)

    @pytest.mark.parametrize("n_texts", [1, 2, 9])
    def test_embed_texts_equals_embed_batch(self, tiny_world, monkeypatch, n_texts):
        """The inference forward reads the [CLS] rows and keeps no trace."""
        dataset, tokenizer, config = tiny_world
        ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
        group = dataset.groups[3]
        texts = ([group.query_text] + [d.text for d in group.docs])[:n_texts]
        ids, mask = pad_token_rows([tokenizer.encode_single(t, config.max_len).ids for t in texts])
        expected, _ = encoder.embed_batch(ckpt.params, config, ids, mask)
        kwargs, forward = [], encoder.forward_batch
        monkeypatch.setattr(encoder, "forward_batch", lambda *a, **kw: kwargs.append(kw) or forward(*a, **kw))
        assert bits_equal(training.embed_texts(ckpt, tokenizer, texts), expected)
        assert [set(kw) for kw in kwargs] == [{"rows"}]

    def test_embed_texts_of_one_token_texts(self, tiny_world):
        """Empty texts encode to ``[CLS]`` alone: the batch has length one,
        and the three equal texts run as its one row."""
        _, tokenizer, config = tiny_world
        ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
        ids, mask = pad_token_rows([[CLS_ID]])
        expected, _ = encoder.embed_batch(ckpt.params, config, ids, mask)
        assert bits_equal(training.embed_texts(ckpt, tokenizer, ["", "", ""]), expected[[0, 0, 0]])

    @staticmethod
    def evaluate_mlm_lines(monkeypatch, params, seqs, mask_rate):
        """``evaluate_mlm``'s value, and the lines it forwarded with the flat
        labels the head scored, as ``_mlm_loss`` takes them: one label per
        [MASK] position of the lines, in row-major order."""
        lines, scored = [], []
        forward, nll = encoder.forward_batch, training.mlm_token_nll
        with monkeypatch.context() as patch:  # records evaluate_mlm's forwards only
            patch.setattr(encoder, "forward_batch", lambda p, c, ids, mask, **kw: lines.extend(
                row[keep == 1].tolist() for row, keep in zip(ids, mask)) or forward(p, c, ids, mask, **kw))
            patch.setattr(training, "mlm_token_nll", lambda logits, labels: scored.append(labels)
                          or nll(logits, labels))
            value = evaluate_mlm(params, seqs, mask_rate=mask_rate, mask_seed_base=[0, 5])
        labels = [lab for chunk in scored for lab in chunk]
        assert len(labels) == sum(row.count(MASK_ID) for row in lines)
        return value, lines, labels

    @pytest.mark.parametrize("mask_rate", [0.0, 0.3])
    def test_evaluate_mlm_equals_mlm_loss(self, tiny_world, monkeypatch, mask_rate):
        """Rate 0 forces exactly one masked position, which keeps the full
        last layer; rate 0.3 masks many."""
        dataset, tokenizer, config = tiny_world
        params = init_params(config, seed=0)
        seqs = [tokenizer.encode_single(line, config.max_len) for line in corpus_lines(dataset)[:20]]
        value, rows, labels = self.evaluate_mlm_lines(monkeypatch, params, seqs, mask_rate)
        assert (len(labels) == 1) == (mask_rate == 0.0)
        assert bits_equal(value, training._mlm_loss(params, rows, labels)[0].value)

    @pytest.mark.parametrize("infer", [
        lambda ckpt, tokenizer: training.score_pairs(ckpt, tokenizer, "q", []),
        lambda ckpt, tokenizer: training.embed_texts(ckpt, tokenizer, []),
    ], ids=["score_pairs", "embed_texts"])
    def test_empty_batch_refused(self, tiny_world, infer):
        """Both raised the bare ValueError of ``max`` over no rows."""
        _, tokenizer, config = tiny_world
        with pytest.raises(EmptyInputError):
            infer(init_checkpoint(config, 0, tokenizer.content_hash()), tokenizer)

    def test_non_cls_pair_rejected_before_any_layer(self, tiny_world, monkeypatch):
        _, tokenizer, config = tiny_world
        ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
        calls, affine = [], encoder._affine
        monkeypatch.setattr(encoder, "_affine", lambda *a: calls.append(1) or affine(*a))
        monkeypatch.setattr(tokenizer, "encode_pairs", lambda query, texts, max_len: [[7, 8, 9] for _ in texts])
        with pytest.raises(ContractError, match=r"\[CLS\]"):
            training.score_pairs(ckpt, tokenizer, "q", ["a", "b"])
        assert calls == []

    @pytest.mark.parametrize("bad", ["out_of_vocab", "mask"])
    def test_bad_batch_rejected_before_any_layer(self, tiny_world, monkeypatch, bad):
        _, tokenizer, config = tiny_world
        ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
        calls, affine = [], encoder._affine
        monkeypatch.setattr(encoder, "_affine", lambda *a: calls.append(1) or affine(*a))
        if bad == "out_of_vocab":
            monkeypatch.setattr(tokenizer, "encode_pairs",
                                lambda query, texts, max_len: [[CLS_ID, config.vocab_size] for _ in texts])
        else:
            pad = encoder.pad_token_rows
            monkeypatch.setattr(encoder, "pad_token_rows", lambda rows: (pad(rows)[0], 2 * pad(rows)[1]))
        with pytest.raises(ValidationError, match="out" if bad == "out_of_vocab" else "0 or 1"):
            training.score_pairs(ckpt, tokenizer, "q", ["a", "b"])
        assert calls == []


class TestDistinctTexts:
    """``score_pairs`` and ``embed_texts`` encode and forward each distinct
    text once, in first-occurrence order, and give every text its text's
    score or [CLS] state. The result is bit for bit the distinct-row forward
    and head, expanded, so a repeat shares its first occurrence's bits
    wherever it lies; a forward of every text gives the same states within
    1e-12 of the largest state. With the score head run over the expanded
    states, BLAS scored the last ``len % 4`` rows on a path of their own, and
    ``tail_repeats``' repeat at row 4 read one ulp off its first occurrence."""

    PATTERNS = {"repeats": [0, 1, 0, 2, 1, 3, 0, 4], "all_identical": [2, 2, 2, 2],
                "tail_repeats": [4, 5, 6, 7, 6, 4, 5]}

    @staticmethod
    def case(tiny_world, pattern):
        dataset, tokenizer, config = tiny_world
        pool = list(dict.fromkeys(d.text for g in dataset.groups for d in g.docs))
        texts = [pool[i] for i in pattern]
        distinct = list(dict.fromkeys(texts))
        first = [distinct.index(t) for t in texts]
        return tokenizer, config, init_checkpoint(config, 0, tokenizer.content_hash()), texts, distinct, first

    @staticmethod
    def spy(monkeypatch, tokenizer):
        """Record the texts ``Tokenizer.encode`` sees and the ids of every forward."""
        encoded, forwarded = [], []
        encode, forward = tokenizer.encode, encoder.forward_batch
        monkeypatch.setattr(tokenizer, "encode", lambda text: encoded.append(text) or encode(text))
        monkeypatch.setattr(encoder, "forward_batch", lambda p, c, ids, *a, **kw: forwarded.append(ids.copy())
                            or forward(p, c, ids, *a, **kw))
        return encoded, forwarded

    @pytest.mark.parametrize("pattern", PATTERNS.values(), ids=PATTERNS)
    def test_score_pairs(self, tiny_world, monkeypatch, pattern):
        tokenizer, config, ckpt, texts, distinct, first = self.case(tiny_world, pattern)
        query = "attr1 attr2"
        rows = [tokenizer.encode_pair(query, t, config.max_len).ids for t in distinct]
        ids, mask = pad_token_rows(rows)
        distinct_scores, trace = score_cls_batch(ckpt.params, config, ids, mask)
        full_ids, full_mask = pad_token_rows([tokenizer.encode_pair(query, t, config.max_len).ids for t in texts])
        full_scores, full_trace = score_cls_batch(ckpt.params, config, full_ids, full_mask)
        encoded, forwarded = self.spy(monkeypatch, tokenizer)

        scores = training.score_pairs(ckpt, tokenizer, query, texts)

        assert encoded == [query] + distinct
        assert len(forwarded) == 1 and np.array_equal(forwarded[0], ids)
        assert bits_equal(scores, distinct_scores[first])
        for i in range(len(texts)):
            assert scores[i].tobytes() == scores[texts.index(texts[i])].tobytes()
        states = full_trace.hidden
        assert np.abs(trace.hidden[first] - states).max() <= 1e-12 * np.abs(states).max()
        assert np.abs(scores - full_scores).max() <= 1e-12 * np.abs(states).max() * np.abs(ckpt.params.score_w).sum()

    @pytest.mark.parametrize("pattern", PATTERNS.values(), ids=PATTERNS)
    def test_embed_texts(self, tiny_world, monkeypatch, pattern):
        tokenizer, config, ckpt, texts, distinct, first = self.case(tiny_world, pattern)
        ids, mask = pad_token_rows([tokenizer.encode_single(t, config.max_len).ids for t in distinct])
        expected, _ = encoder.embed_batch(ckpt.params, config, ids, mask)
        full_ids, full_mask = pad_token_rows([tokenizer.encode_single(t, config.max_len).ids for t in texts])
        full, _ = encoder.embed_batch(ckpt.params, config, full_ids, full_mask)
        encoded, forwarded = self.spy(monkeypatch, tokenizer)

        emb = training.embed_texts(ckpt, tokenizer, texts)

        assert encoded == distinct
        assert len(forwarded) == 1 and np.array_equal(forwarded[0], ids)
        assert bits_equal(emb, expected[first])
        for i in range(len(texts)):
            assert emb[i].tobytes() == emb[texts.index(texts[i])].tobytes()
        assert np.abs(emb - full).max() <= 1e-12 * np.abs(full).max()

    def test_evaluation_and_distill_targets_forward_the_distinct_texts(self, tiny_world, monkeypatch):
        """Both evaluation scorers and distillation's teacher scores run
        through ``score_pairs`` or ``embed_texts``: a group with a repeated
        text forwards one row per distinct text, and the repeat gets its
        first occurrence's score."""
        dataset, tokenizer, config = tiny_world
        teacher = dataclasses.replace(init_checkpoint(config, 0, tokenizer.content_hash()), loss_name="listmle")
        group = dataset.groups[0]
        group = QueryGroup(group.query_id, group.query_text, group.docs[:7] + [Document("again", group.docs[1].text)],
                           group.grades[:7] + [group.grades[1]])
        texts = [d.text for d in group.docs]
        _, forwarded = self.spy(monkeypatch, tokenizer)
        scores = make_cross_encoder_scorer(teacher, tokenizer)(group)
        dots = make_bi_encoder_scorer(teacher, tokenizer)(group)
        distill(teacher, Dataset([group]), TrainConfig(epochs=0), tokenizer)
        n_distinct = len(set(texts))
        assert n_distinct < len(texts)
        assert [len(ids) for ids in forwarded] == [n_distinct, len({group.query_text, *texts}), n_distinct]
        assert scores[-1].tobytes() == scores[1].tobytes()
        assert dots[-1].tobytes() == dots[1].tobytes()


class TestInferenceChunks:
    """``score_pairs`` and ``embed_texts`` run their distinct rows, and
    ``evaluate_mlm`` its masked lines, in order as forwards of at most
    ``(1 << 20) // (8 * ffn_dim)`` padded tokens, 512 at the default ffn_dim
    of 256: a forward is cut before the row that would take ``rows × longest
    row`` past the budget. Rows of one length give the bits of one forward;
    mixed lengths pad to other widths and agree within rounding. (At ffn_dim
    512 and above, OpenBLAS rounds a product with few rows by another path
    than one with many, so chunks of one length there agree with one forward
    only within rounding too.)"""

    BUDGET = 512

    @staticmethod
    def run(tiny_world, monkeypatch, infer, max_len):
        """The chunked result, the one-forward result over the distinct rows
        expanded to every text, the rounding bound between them, the distinct
        rows and the shape of every forward."""
        dataset, tokenizer, config = tiny_world
        ckpt = init_checkpoint(dataclasses.replace(config, ffn_dim=256, max_len=max_len), 0,
                               tokenizer.content_hash())
        pool = list(dict.fromkeys(d.text for g in dataset.groups for d in g.docs))
        texts = pool + pool[::7]
        query = "laku"
        first = [pool.index(t) for t in texts]
        if infer == "score_pairs":
            rows = tokenizer.encode_pairs(query, pool, max_len)
            ids, mask = pad_token_rows(rows)
            scores, trace = score_cls_batch(ckpt.params, ckpt.config, ids, mask)
            one_forward = scores[first]
            bound = 1e-12 * np.abs(trace.hidden).max() * np.abs(ckpt.params.score_w).sum()
        else:
            rows = [tokenizer.encode_single(t, max_len).ids for t in pool]
            ids, mask = pad_token_rows(rows)
            states, _ = encoder.embed_batch(ckpt.params, ckpt.config, ids, mask)
            one_forward = states[first]
            bound = 1e-12 * np.abs(states).max()
        shapes, forward = [], encoder.forward_batch
        monkeypatch.setattr(encoder, "forward_batch", lambda p, c, ids, *a, **kw: shapes.append(ids.shape)
                            or forward(p, c, ids, *a, **kw))
        if infer == "score_pairs":
            got = training.score_pairs(ckpt, tokenizer, query, texts)
        else:
            got = training.embed_texts(ckpt, tokenizer, texts)
        return got, one_forward, bound, rows, shapes

    def assert_budget_cuts(self, rows, shapes):
        assert len(shapes) > 1 and sum(b for b, _ in shapes) == len(rows)
        start = 0
        for b, length in shapes:
            assert length == max(map(len, rows[start:start + b]))
            assert b * length <= self.BUDGET or b == 1
            start += b
            if start < len(rows):
                assert (b + 1) * max(length, len(rows[start])) > self.BUDGET

    @pytest.mark.parametrize("infer, max_len", [("score_pairs", 12), ("embed_texts", 8)])
    def test_uniform_lengths_match_one_forward_bit_for_bit(self, tiny_world, monkeypatch, infer, max_len):
        got, one_forward, _, rows, shapes = self.run(tiny_world, monkeypatch, infer, max_len)
        assert {len(row) for row in rows} == {max_len} and len({tuple(row) for row in rows}) > 1
        self.assert_budget_cuts(rows, shapes)
        assert bits_equal(got, one_forward)

    @pytest.mark.parametrize("infer", ["score_pairs", "embed_texts"])
    def test_mixed_lengths_match_one_forward_up_to_rounding(self, tiny_world, monkeypatch, infer):
        got, one_forward, bound, rows, shapes = self.run(tiny_world, monkeypatch, infer, max_len=32)
        assert len({len(row) for row in rows}) > 1
        self.assert_budget_cuts(rows, shapes)
        assert np.abs(got - one_forward).max() <= bound

    @pytest.mark.parametrize("max_len", [8, 32], ids=["uniform", "mixed"])
    def test_evaluate_mlm_matches_mlm_loss_over_one_forward(self, tiny_world, monkeypatch, max_len):
        """The held-out loss needs no forward past the budget: its chunks give
        ``_mlm_loss``'s value over one forward of the same lines, bit for bit
        for lines of one length and within 1e-12 relative for mixed lengths."""
        dataset, tokenizer, config = tiny_world
        params = init_params(dataclasses.replace(config, ffn_dim=256, max_len=max_len), seed=0)
        seqs = [tokenizer.encode_single(line, max_len) for line in corpus_lines(dataset) * 2]
        shapes, forward = [], encoder.forward_batch
        monkeypatch.setattr(encoder, "forward_batch", lambda p, c, ids, *a, **kw: shapes.append(ids.shape)
                            or forward(p, c, ids, *a, **kw))
        value, rows, labels = TestInferenceForwards.evaluate_mlm_lines(monkeypatch, params, seqs, 0.3)
        assert (len({len(row) for row in rows}) == 1) == (max_len == 8)
        self.assert_budget_cuts(rows, shapes)
        one_forward = training._mlm_loss(params, rows, labels)[0].value
        if max_len == 8:
            assert bits_equal(value, one_forward)
        else:
            assert abs(value - one_forward) <= 1e-12 * abs(one_forward)

    def test_evaluate_mlm_runs_the_tied_head_per_chunk(self, tiny_world, monkeypatch):
        """No logits span more than one chunk: the held-out loss scored every
        masked row in one ``[masked, vocab]`` product, whose memory grew with
        the held-out set (88 MB above the start at 7,440 lines)."""
        dataset, tokenizer, config = tiny_world
        params = init_params(dataclasses.replace(config, ffn_dim=256, max_len=32), seed=0)
        seqs = [tokenizer.encode_single(line, 32) for line in corpus_lines(dataset) * 2]
        counts, logits = [], encoder.mlm_logits_batch
        monkeypatch.setattr(encoder, "mlm_logits_batch", lambda p, states: counts.append(len(states))
                            or logits(p, states))
        evaluate_mlm(params, seqs, mask_rate=0.3, mask_seed_base=[0, 5])
        masked = sum(mask_for_mlm(seq, rate=0.3, seed=[0, 5, li])[0].ids.count(MASK_ID) for li, seq in enumerate(seqs))
        assert len(counts) > 1 and sum(counts) == masked and max(counts) < masked

    def test_evaluate_mlm_refuses_a_label_outside_the_vocabulary(self, tiny_world):
        """At rate 1.0 every text token is [MASK], so the forward sees only
        [CLS] and [MASK] and only the head's label check can refuse the
        lines' ids past ``vocab_size``."""
        dataset, tokenizer, config = tiny_world
        seqs = [tokenizer.encode_single(line, config.max_len) for line in corpus_lines(dataset)[:20]]
        params = init_params(dataclasses.replace(config, vocab_size=MASK_ID + 1), seed=0)
        with pytest.raises(ValidationError, match="label id outside vocabulary"):
            evaluate_mlm(params, seqs, mask_rate=1.0, mask_seed_base=[0, 5])


class TestDistill:
    def finetuned_teacher(self, tiny_world):
        dataset, tokenizer, config = tiny_world
        ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
        tc = TrainConfig(lr=1e-3, epochs=1, batch_size=4, seed=0)
        teacher, _ = finetune_ltr(dataset, ckpt, "listnet", tc, tokenizer)
        return teacher

    def test_every_checkpoint_reads_its_config_from_its_params(self, tiny_world, tmp_path):
        """The architecture has one owner: a checkpoint's ``config`` is its
        parameters' config after a load, a fine-tune and a distillation."""
        dataset, tokenizer, config = tiny_world
        teacher = self.finetuned_teacher(tiny_world)
        student, _ = distill(teacher, dataset, TrainConfig(lr=1e-3, epochs=1, batch_size=4), tokenizer)
        save_checkpoint(student, tmp_path / "s.ckpt")
        for ckpt in (teacher, student, load_checkpoint(tmp_path / "s.ckpt")):
            assert ckpt.config is ckpt.params.config
            assert ckpt.config == config

    def test_pair_selection_worked_example(self):
        """Grades (2, 0, 1, 2): gap-2 pairs come first in index order, then
        gap-1 pairs, truncated by the cap."""
        group = QueryGroup(
            "q", "words",
            [Document(f"d{i}", "x") for i in range(4)],
            [2, 0, 1, 2],
        )
        assert distill_pairs(group, cap=10) == [(0, 1), (3, 1), (0, 2), (2, 1), (3, 2)]
        assert distill_pairs(group, cap=3) == [(0, 1), (3, 1), (0, 2)]

    def test_all_equal_grades_yield_no_pairs(self):
        group = QueryGroup("q", "w", [Document("a", "x"), Document("b", "y")], [2, 2])
        assert distill_pairs(group, cap=5) == []

    def test_dataset_without_any_pairs_raises(self, tiny_world):
        _, tokenizer, config = tiny_world
        teacher = self.finetuned_teacher(tiny_world)
        flat = Dataset([
            QueryGroup("q", "w", [Document("a", "x"), Document("b", "y")], [1, 1])
        ])
        with pytest.raises(EmptyInputError):
            distill(teacher, flat, TrainConfig(epochs=1), tokenizer)

    def test_unfinetuned_teacher_rejected(self, tiny_world):
        dataset, tokenizer, config = tiny_world
        raw = init_checkpoint(config, 0, tokenizer.content_hash())
        with pytest.raises(ValidationError):
            distill(raw, dataset, TrainConfig(epochs=1), tokenizer)

    def test_tokenizer_mismatch_rejected(self, tiny_world):
        dataset, tokenizer, _ = tiny_world
        teacher = self.finetuned_teacher(tiny_world)
        teacher.tokenizer_hash = "0000000000000000"
        with pytest.raises(ContractError):
            distill(teacher, dataset, TrainConfig(epochs=1), tokenizer)

    def test_zero_epochs_student_starts_from_teacher(self, tiny_world):
        dataset, tokenizer, _ = tiny_world
        teacher = self.finetuned_teacher(tiny_world)
        student, history = distill(teacher, dataset, TrainConfig(epochs=0), tokenizer)
        assert history == []
        for (name, a), (_, b) in zip(student.params.named_arrays(), teacher.params.named_arrays()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_zero_epochs_from_scratch_starts_fresh(self, tiny_world):
        dataset, tokenizer, config = tiny_world
        teacher = self.finetuned_teacher(tiny_world)
        tc = TrainConfig(epochs=0, seed=9, init_from_teacher=False)
        student, _ = distill(teacher, dataset, tc, tokenizer)
        reference = init_params(config, 9)
        for (name, a), (_, b) in zip(student.params.named_arrays(), reference.named_arrays()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_distillation_reduces_margin_error(self, tiny_world):
        dataset, tokenizer, _ = tiny_world
        teacher = self.finetuned_teacher(tiny_world)
        tc = TrainConfig(lr=1e-3, epochs=3, batch_size=4, seed=0)
        student, history = distill(teacher, dataset, tc, tokenizer)
        train = [r.loss_value for r in history if r.split == "train"]
        assert train[-1] < train[0]
        assert student.loss_name == "margin_mse"
        assert student.tokenizer_hash == teacher.tokenizer_hash


class TestDivergence:
    """``_train`` stops at the step where a run diverges, naming its epoch,
    its step and the first non-finite group, with numpy's warnings off in
    the steps and on in evaluation."""

    CONFIG = EncoderConfig(n_layers=1, n_heads=1, model_dim=4, ffn_dim=4, vocab_size=8, max_len=4)

    def train(self, bad_step, fill, lr):
        """Two epochs of two steps; step number ``bad_step`` (from 1, over the
        run) fills its gradient with ``fill(grads)``, the others are zero."""
        params = init_params(self.CONFIG, seed=0)
        calls = []

        def step(batch, epoch):
            calls.append(epoch)
            grads = zeros_like_params(params)
            if len(calls) == bad_step:
                fill(grads)
            return None, lambda: (grads, [0.0], 1)

        training._train(params, TrainConfig(lr=lr, epochs=2, batch_size=2), 4, 0, "listnet", step, lambda e: [])

    def test_an_overflowing_update_is_named_with_its_epoch_and_step(self):
        def fill(grads):
            grads.layers[0].b_ffn2[1] = 10.0  # lr * 10 overflows to inf

        with pytest.raises(NonFiniteError, match="the Adam update made parameter group") as excinfo:
            self.train(3, fill, lr=1e308)
        assert str(excinfo.value) == (
            "epoch 2, step 1: the Adam update made parameter group 'layer0.b_ffn2' non-finite")

    def test_a_non_finite_gradient_is_named_with_its_epoch_and_step(self):
        def fill(grads):
            grads.pos_emb[0, 0] = np.inf

        with pytest.raises(NonFiniteError, match="non-finite gradient") as excinfo:
            self.train(4, fill, lr=0.1)
        assert str(excinfo.value) == "epoch 2, step 2: non-finite gradient in parameter group 'pos_emb'"

    def test_numpy_warnings_stay_off_inside_the_loop(self):
        def fill(grads):
            grads.pos_emb[0, 0] = np.float64(1e308) * 10.0  # overflows: numpy would warn

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^epoch 1, step 1: non-finite gradient in parameter group 'pos_emb'"):
                self.train(1, fill, lr=0.1)

    def test_evaluation_keeps_numpy_warnings(self):
        """A diverging evaluation forward still warns: only the steps run
        with numpy's warnings off."""
        params = init_params(self.CONFIG, seed=0)

        def step(batch, epoch):
            return None, lambda: (zeros_like_params(params), [0.0], 1)

        def evaluate(epoch):
            np.float64(1e308) * 10.0
            return []

        with pytest.warns(RuntimeWarning, match="overflow"):
            training._train(params, TrainConfig(epochs=1, batch_size=2), 4, 0, "listnet", step, evaluate)


class TestTraceLifetime:
    """``_train`` drops each step's forward trace once the next step's
    forward has run and before its backward, as an inline loop would: every
    training forward after the first starts while the previous step's trace
    is alive, so its pages are reused rather than returned to the operating
    system and faulted in again, and every backward starts with only its own
    trace alive, so the backward reuses the previous trace's pages."""

    EPOCHS, BATCH = 2, 4

    @pytest.fixture
    def lifetimes(self, monkeypatch):
        """Wrap the encoder's forward and backward. Each forward records
        whether the trace made before it is still alive, each backward
        whether every trace made before its own has been freed."""
        traces, forwards, backwards = [], [], []
        real_forward, real_backward = encoder.forward_batch, encoder.backward_batch

        def forward_batch(*args, **kwargs):
            forwards.append(bool(traces) and traces[-1]() is not None)
            out = real_forward(*args, **kwargs)
            if isinstance(out, tuple):  # a training forward; an inference forward keeps no trace
                traces.append(weakref.ref(out[1]))
            return out

        def backward_batch(*args):
            backwards.append(all(ref() is None for ref in traces[:-1]))
            return real_backward(*args)

        monkeypatch.setattr(encoder, "forward_batch", forward_batch)
        monkeypatch.setattr(encoder, "backward_batch", backward_batch)
        return forwards, backwards

    def steps(self, n_items):
        return self.EPOCHS * math.ceil(n_items / self.BATCH)

    def test_finetune(self, tiny_world, lifetimes):
        dataset, tokenizer, config = tiny_world
        forwards, backwards = lifetimes
        ckpt = init_checkpoint(config, 0, tokenizer.content_hash())
        finetune_ltr(dataset, ckpt, "listnet", TrainConfig(epochs=self.EPOCHS, batch_size=self.BATCH), tokenizer)
        n = self.steps(len(dataset.groups))
        assert forwards == [False] + [True] * (n - 1)
        assert backwards == [True] * n

    def test_distill(self, tiny_world, lifetimes):
        """The teacher's scoring forwards come first and keep no trace."""
        dataset, tokenizer, config = tiny_world
        forwards, backwards = lifetimes
        teacher = dataclasses.replace(init_checkpoint(config, 0, tokenizer.content_hash()), loss_name="listnet")
        tc = TrainConfig(epochs=self.EPOCHS, batch_size=self.BATCH)
        distill(teacher, dataset, tc, tokenizer)
        n = self.steps(sum(1 for g in dataset.groups if distill_pairs(g, tc.distill_pair_cap)))
        assert len(forwards) == len(dataset.groups) + n
        assert forwards[-n:] == [False] + [True] * (n - 1)
        assert backwards == [True] * n

    def test_pretrain_without_heldout_forwards(self, tiny_world, lifetimes, monkeypatch):
        """One line per step: many lines draw no mask and their steps are
        skipped without a forward, and the trace outlives those steps too.
        A step's loss gradient is freed before the next step's loss."""
        dataset, tokenizer, config = tiny_world
        forwards, backwards = lifetimes
        monkeypatch.setattr(training, "evaluate_mlm", lambda *args: 0.0)
        loss_grads, real_loss = [], training.mlm_cross_entropy

        def mlm_cross_entropy(*args):
            assert not loss_grads or loss_grads[-1]() is None
            out = real_loss(*args)
            loss_grads.append(weakref.ref(out.grad))
            return out

        monkeypatch.setattr(training, "mlm_cross_entropy", mlm_cross_entropy)
        corpus = corpus_lines(dataset)
        tc = TrainConfig(epochs=1, batch_size=1)
        pretrain_mlm(corpus, tokenizer, config, tc)
        n_train = len(corpus) - round(tc.heldout_fraction * len(corpus))
        assert n_train // 2 < len(forwards) < n_train
        assert forwards == [False] + [True] * (len(forwards) - 1)
        assert backwards == [True] * len(forwards) == [True] * len(loss_grads)
