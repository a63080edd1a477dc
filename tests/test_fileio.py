"""Unit tests for the shared atomic writer, content hash and binary frame,
through every file format that uses them."""

import hashlib
import os
import random
import stat

import numpy as np
import pytest

from listrank import fileio
from listrank.dataset import Dataset, Document, QueryGroup, save_dataset
from listrank.encoder import EncoderConfig
from listrank.errors import CheckpointError, StoreError
from listrank.serve import EmbeddingStore, load_store, save_store
from listrank.tokenizer import train_bpe
from listrank.training import init_checkpoint, load_checkpoint, save_checkpoint

CONFIG = EncoderConfig(n_layers=1, n_heads=2, model_dim=8, ffn_dim=16, vocab_size=20, max_len=5)


def write_checkpoint(path, version):
    save_checkpoint(init_checkpoint(CONFIG, seed=version, tokenizer_hash="abc123"), path)


def write_store(path, version):
    save_store(EmbeddingStore(fingerprint="f", doc_ids=["a", "b"],
                              vectors=np.full((2, 2), float(version))), path)


def write_dataset(path, version):
    group = QueryGroup("q", "query", [Document("d", f"text {version}")], [version])
    save_dataset(Dataset([group]), path)


def write_tokenizer(path, version):
    train_bpe(["alpha beta gamma"] * (version + 2), 262 + version).save(path)


WRITERS = [write_checkpoint, write_store, write_dataset, write_tokenizer]


@pytest.mark.parametrize("write", WRITERS, ids=lambda w: w.__name__)
class TestWriters:
    def test_failed_replace_keeps_previous_file_and_leaves_no_temp(self, write, tmp_path, monkeypatch):
        path = tmp_path / "out"
        write(path, 1)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            write(path, 2)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out"]

    def test_rewrite_replaces_content(self, write, tmp_path):
        """Versions 1 and 2 differ, so the failure test above would notice
        a write that went through."""
        path = tmp_path / "out"
        write(path, 1)
        first = path.read_bytes()
        write(path, 2)
        assert path.read_bytes() != first
        assert os.listdir(tmp_path) == ["out"]


def test_every_format_is_written_with_one_mode(tmp_path):
    modes = set()
    for write in WRITERS:
        path = tmp_path / write.__name__
        write(path, 1)
        modes.add(stat.S_IMODE(path.stat().st_mode))
    assert modes == {0o600}


def test_digest_is_eight_byte_sha256_prefix():
    assert fileio.digest(b"listrank") == hashlib.sha256(b"listrank").digest()[:8]
    assert len(fileio.digest(b"")) == fileio.DIGEST_BYTES == 8


@pytest.mark.parametrize("write, load, error", [(write_checkpoint, load_checkpoint, CheckpointError),
                                                (write_store, load_store, StoreError)],
                         ids=["checkpoint", "store"])
def test_truncated_or_bit_flipped_frames_raise_only_format_errors(write, load, error, tmp_path):
    """Seeded truncations and single-bit flips anywhere in a framed file,
    magic to hash, are refused with the format's own error: never loaded,
    never a raw exception."""
    path = tmp_path / "framed"
    write(path, 1)
    good = path.read_bytes()
    load(path)
    rng = random.Random(5)
    damaged = [good[:n] for n in rng.sample(range(len(good)), 48)]
    for bit in rng.sample(range(8 * len(good)), 256):
        flipped = bytearray(good)
        flipped[bit // 8] ^= 1 << (bit % 8)
        damaged.append(bytes(flipped))
    for blob in damaged:
        path.write_bytes(blob)
        with pytest.raises(error):
            load(path)
