"""Unit tests for the embedding store, the two serving paths, and the
latency benchmark.

Score oracles recompute the dot products and cross-encoder forwards
directly through the encoder API, so the serving paths are checked
against independent arithmetic rather than against themselves.
"""

import dataclasses
import gc
import os
import random
import struct

import numpy as np
import pytest
from conftest import rewrite_header

from listrank import encoder, metrics, serve, training
from listrank.dataset import Document, SyntheticSpec, corpus_lines, generate_synthetic
from listrank.encoder import (
    EncoderConfig,
    embed_batch,
    pad_token_rows,
    score_cls_batch,
)
from listrank.errors import (
    ConfigurationError,
    ContractError,
    EmptyInputError,
    MissingIdError,
    StoreError,
    ValidationError,
)
from listrank.serve import (
    BenchmarkReport,
    EmbeddingStore,
    LatencyStats,
    RankResult,
    _sorted_ranking,
    benchmark_latency,
    benchmark_workload,
    load_store,
    precompute_embeddings,
    rank_with_student,
    rank_with_teacher,
    save_store,
)
from listrank.metrics import score_order, str_rank
from listrank.tokenizer import N_SPECIAL, train_bpe
from listrank.training import checkpoint_fingerprint, init_checkpoint, make_cross_encoder_scorer

TINY_ENC = dict(n_layers=1, n_heads=2, model_dim=16, ffn_dim=32, max_len=16)


def embed_alone(ckpt, tokenizer, text):
    """The encoder's embedding of ``text`` run as a one-row batch."""
    ids, mask = pad_token_rows([tokenizer.encode_single(text, ckpt.config.max_len).ids])
    return embed_batch(ckpt.params, ckpt.config, ids, mask)[0][0]


@pytest.fixture(scope="module")
def world():
    """Small synthetic dataset, tokenizer, and two untrained checkpoints."""
    spec = SyntheticSpec(
        n_queries=8, list_size=6, attribute_vocab_size=40,
        query_token_count=4, noise_std=0.0, seed=11,
    )
    dataset = generate_synthetic(spec)
    tokenizer = train_bpe(corpus_lines(dataset), vocab_size=300)
    config = EncoderConfig(vocab_size=tokenizer.vocab_size, **TINY_ENC)
    teacher = init_checkpoint(config, seed=0, tokenizer_hash=tokenizer.content_hash())
    student = init_checkpoint(config, seed=1, tokenizer_hash=tokenizer.content_hash())
    catalog = [doc for group in dataset.groups for doc in group.docs]
    return dataset, tokenizer, teacher, student, catalog


@pytest.fixture(scope="module")
def store(world):
    _, tokenizer, _, student, catalog = world
    return precompute_embeddings(student, catalog, tokenizer)


def tiny_store(n=3, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingStore(
        fingerprint="feedbeeffeedbeef",
        doc_ids=[f"doc{i}" for i in range(n)],
        vectors=rng.standard_normal((n, dim)),
    )


class TestEmbeddingStore:
    def test_vectors_are_float32(self):
        assert tiny_store().vectors.dtype == np.float32

    def test_len_counts_the_ids(self):
        assert len(tiny_store(n=3)) == 3

    def test_vector_lookup(self):
        store = tiny_store(n=3)
        np.testing.assert_array_equal(store.gather(["doc2"])[1][0], store.vectors[2])

    def test_vector_missing_id_raises(self):
        with pytest.raises(MissingIdError, match="^doc ids missing from the store: ghost$"):
            tiny_store().gather(["ghost"])

    def test_gather_preserves_request_order(self):
        store = tiny_store(n=4)
        rows, got = store.gather(["doc2", "doc0", "doc2"])
        np.testing.assert_array_equal(rows, [2, 0, 2])
        np.testing.assert_array_equal(got, store.vectors[[2, 0, 2]])

    def test_gather_reports_missing_ids_sorted(self):
        with pytest.raises(MissingIdError, match="^doc ids missing from the store: abba, zed$"):
            tiny_store().gather(["doc0", "zed", "abba"])

    def test_id_rank_is_str_order_built_on_first_use(self, tmp_path):
        ids = ["b", "a\x00", "a", "é", "Z", "a\x00\x00"]
        path = tmp_path / "x.store"
        save_store(EmbeddingStore(fingerprint="f", doc_ids=ids, vectors=np.zeros((6, 2))), path)
        store = load_store(path)
        assert store._id_tables is None
        tables = store.id_tables()
        rank, id_array = tables
        assert [ids[k] for k in np.argsort(rank)] == sorted(ids)
        assert id_array.dtype == object and id_array.tolist() == ids
        assert store.id_tables() is tables

    def test_shape_mismatch_rejected(self):
        """Vectors must be one row per id; the width is theirs."""
        for shape in [(2, 3), (0, 3), (1,), (1, 1, 3)]:
            with pytest.raises(ValidationError):
                EmbeddingStore(fingerprint="f", doc_ids=["a"], vectors=np.zeros(shape))

    @pytest.mark.parametrize("bad", ["a,b", "c\nd", "e\u2028f", "", 7, None])
    def test_an_id_load_store_refuses_is_refused(self, bad):
        """A store holding such an id could be built and saved, and only
        ``load_store`` refused the file."""
        with pytest.raises(ValidationError) as excinfo:
            EmbeddingStore(fingerprint="f", doc_ids=["a", bad], vectors=np.zeros((2, 1)))
        assert str(excinfo.value) == "store doc ids must be non-empty strings without a comma or a line break"

    def test_each_store_path_checks_the_ids_once(self, world, tmp_path, monkeypatch):
        _, tokenizer, _, student, catalog = world
        calls, check = [], serve.valid_doc_ids
        monkeypatch.setattr(serve, "valid_doc_ids", lambda ids: calls.append("check") or check(ids))
        store = precompute_embeddings(student, catalog, tokenizer)
        assert calls == ["check"]
        save_store(store, tmp_path / "x.store")
        assert calls == ["check"]
        load_store(tmp_path / "x.store")
        assert calls == ["check", "check"]

    def test_duplicate_ids_rejected(self):
        """Every repeated id is named, sorted."""
        ids = ["z", "b", "a", "z", "c", "b", "z"]
        with pytest.raises(ValidationError) as excinfo:
            EmbeddingStore(fingerprint="f", doc_ids=ids, vectors=np.zeros((7, 1)))
        assert str(excinfo.value) == "duplicate store doc ids: ['b', 'z']"


class TestPrecomputeEmbeddings:
    def test_vectors_match_direct_embedding(self, world, store):
        """Each stored vector equals the float32 cast of the encoder's own
        embedding of that document."""
        _, tokenizer, _, student, catalog = world
        for doc in catalog[:5]:
            expected = embed_alone(student, tokenizer, doc.text).astype(np.float32)
            np.testing.assert_array_equal(store.gather([doc.doc_id])[1][0], expected)

    def test_store_metadata(self, world, store):
        _, _, _, student, catalog = world
        assert store.dim == student.config.model_dim
        assert store.fingerprint == checkpoint_fingerprint(student)
        assert store.doc_ids == [d.doc_id for d in catalog]

    def test_chunked_embedding_matches_unchunked(self, world):
        """A catalog larger than one chunk must produce the same vectors as
        embedding each document alone. Every doc is 12 tokens and ffn_dim 32
        gives a budget of 4,096 tokens, so chunks hold 341 docs."""
        _, tokenizer, _, student, _ = world
        catalog = [Document(f"c{i:04d}", f"attr{i % 7} attr{i % 5}") for i in range(700)]
        assert {len(tokenizer.encode_single(d.text, student.config.max_len).ids) for d in catalog} == {12}
        big = precompute_embeddings(student, catalog, tokenizer)
        assert len(big) == 700
        for i in (0, 340, 341, 681, 682, 699):
            expected = embed_alone(student, tokenizer, catalog[i].text).astype(np.float32)
            np.testing.assert_array_equal(big.gather([catalog[i].doc_id])[1][0], expected)

    def test_empty_catalog_raises(self, world):
        _, tokenizer, _, student, _ = world
        with pytest.raises(EmptyInputError):
            precompute_embeddings(student, [], tokenizer)

    def test_duplicate_catalog_ids_raise(self, world, monkeypatch):
        """A repeated id past the first chunk is refused before any forward."""
        _, tokenizer, _, student, _ = world
        calls = []
        forward = encoder.forward_batch
        monkeypatch.setattr(encoder, "forward_batch", lambda *args, **kw: calls.append(1) or forward(*args, **kw))
        catalog = [Document(f"c{i:04d}", "attr") for i in range(600)] + [Document("c0300", "late")]
        with pytest.raises(ValidationError) as excinfo:
            precompute_embeddings(student, catalog, tokenizer)
        assert str(excinfo.value) == "duplicate store doc ids: ['c0300']"
        assert calls == []
        assert len(precompute_embeddings(student, catalog[:3], tokenizer)) == 3
        assert len(calls) == 1


def record_chunks(monkeypatch):
    """Wrap ``encoder.forward_batch``; returns the list that each forward
    appends its float64 [CLS] states to."""
    chunks, forward = [], encoder.forward_batch
    monkeypatch.setattr(encoder, "forward_batch", lambda *a, **kw: chunks.append(forward(*a, **kw)) or chunks[-1])
    return chunks


def one_forward(ckpt, tokenizer, catalog):
    """The embeddings of the catalog's distinct texts, run as one padded batch."""
    texts, _ = distinct_texts(catalog)
    ids, mask = pad_token_rows([tokenizer.encode_single(text, ckpt.config.max_len).ids for text in texts])
    return embed_batch(ckpt.params, ckpt.config, ids, mask)[0]


def record_forwards(monkeypatch):
    """Wrap ``encoder.forward_batch``; returns the list of the token id
    shapes it is called with."""
    shapes, forward = [], encoder.forward_batch
    monkeypatch.setattr(encoder, "forward_batch", lambda p, c, ids, *a, **kw: shapes.append(ids.shape)
                        or forward(p, c, ids, *a, **kw))
    return shapes


def distinct_texts(catalog):
    """The catalog's texts once each in first-occurrence order, and each
    doc's position among them."""
    texts = {}
    doc_rows = [texts.setdefault(d.text, len(texts)) for d in catalog]
    return list(texts), doc_rows


class TestEmbeddingChunks:
    """The store build tokenizes and embeds each distinct catalog text once,
    in first-occurrence order, through ``training._embed_rows``: in forwards
    of at most ``(1 << 20) // (8 * ffn_dim)`` padded tokens."""

    @pytest.fixture(scope="class")
    def wide(self, world):
        """A student at the default feed-forward width (a 512-token budget)."""
        _, tokenizer, _, _, _ = world
        config = EncoderConfig(vocab_size=tokenizer.vocab_size, n_layers=1, n_heads=2, model_dim=16,
                               ffn_dim=256, max_len=64)
        return init_checkpoint(config, seed=2, tokenizer_hash=tokenizer.content_hash())

    @staticmethod
    def mixed_catalog(n):
        rng = random.Random(5)
        return [Document(f"m{i:04d}", " ".join(f"attr{rng.randrange(40)}" for _ in range(rng.randrange(1, 30))))
                for i in range(n)]

    @pytest.mark.parametrize("catalog, batches", [
        (mixed_catalog(300), None),
        ([Document(f"l{i:02d}", " ".join(f"attr{i % 9} attr{k}" for k in range(40))) for i in range(20)],
         [8, 1]),
    ], ids=["mixed", "64-token"])
    def test_every_forward_stays_within_the_budget(self, world, wide, monkeypatch, catalog, batches):
        """Each chunk is cut just before the text that would take it past the
        budget, so it is as large as the budget allows."""
        _, tokenizer, _, _, _ = world
        budget = (1 << 20) // (8 * wide.config.ffn_dim)
        shapes = record_forwards(monkeypatch)
        precompute_embeddings(wide, catalog, tokenizer)
        texts, _ = distinct_texts(catalog)
        lengths = [len(tokenizer.encode_single(text, wide.config.max_len).ids) for text in texts]
        assert budget == 512 and max(lengths) > 12 and len(texts) < len(catalog)
        assert sum(b for b, _ in shapes) == len(texts)
        start = 0
        for b, length in shapes:
            assert b * length <= budget
            assert length == max(lengths[start:start + b])
            start += b
            if start < len(texts):
                assert (b + 1) * max(length, lengths[start]) > budget
        if batches is not None:
            assert shapes == [(b, 64) for b in batches]

    def test_a_doc_longer_than_the_budget_is_a_chunk_of_its_own(self, world, monkeypatch):
        _, tokenizer, _, _, _ = world
        config = EncoderConfig(vocab_size=tokenizer.vocab_size, n_layers=1, n_heads=2, model_dim=16,
                               ffn_dim=8192, max_len=32)  # a budget of 16 tokens, docs of 32
        student = init_checkpoint(config, seed=2, tokenizer_hash=tokenizer.content_hash())
        catalog = [Document(f"l{i:02d}", " ".join(f"attr{i % 9} attr{k}" for k in range(40))) for i in range(5)]
        chunks = record_chunks(monkeypatch)
        store = precompute_embeddings(student, catalog, tokenizer)
        assert [len(emb) for emb in chunks] == [1] * 5
        for doc, vector in zip(catalog, store.vectors):
            np.testing.assert_array_equal(vector, embed_alone(student, tokenizer, doc.text).astype(np.float32))

    def test_uniform_lengths_match_one_batch_bit_for_bit(self, world, wide, monkeypatch):
        _, tokenizer, _, _, _ = world
        catalog = [Document(f"u{i:04d}", f"attr{i % 7} attr{i % 5} attr{i % 3}") for i in range(400)]
        _, doc_rows = distinct_texts(catalog)
        one_batch = one_forward(wide, tokenizer, catalog)[doc_rows]
        chunks = record_chunks(monkeypatch)
        store = precompute_embeddings(wide, catalog, tokenizer)
        assert [len(emb) for emb in chunks] == [28, 28, 28, 21]  # 105 texts of 18 tokens
        np.testing.assert_array_equal(np.concatenate(chunks)[doc_rows], one_batch)
        np.testing.assert_array_equal(store.vectors, one_batch.astype(np.float32))

    def test_mixed_lengths_match_one_batch_up_to_rounding(self, world, wide, monkeypatch):
        """Padding to another length changes the order of the softmax sums."""
        _, tokenizer, _, _, _ = world
        catalog = self.mixed_catalog(300)
        _, doc_rows = distinct_texts(catalog)
        one_batch = one_forward(wide, tokenizer, catalog)[doc_rows]
        chunks = record_chunks(monkeypatch)
        precompute_embeddings(wide, catalog, tokenizer)
        assert len(chunks) > 1
        np.testing.assert_allclose(np.concatenate(chunks)[doc_rows], one_batch, rtol=0, atol=1e-12)

    def test_repeats_across_chunks_are_embedded_once(self, world, wide, monkeypatch):
        """A text repeated next to its first occurrence or many chunks after
        it is tokenized once and goes through exactly one forward, and every
        repeat gets its first occurrence's float32 row."""
        _, tokenizer, _, _, _ = world
        pool, _ = distinct_texts(self.mixed_catalog(150))
        texts = pool + pool[::-1] + pool[:5]
        catalog = [Document(f"r{i:04d}", text) for i, text in enumerate(texts)]
        encoded, encode = [], tokenizer.encode_single
        monkeypatch.setattr(tokenizer, "encode_single", lambda text, *a: encoded.append(text) or encode(text, *a))
        forwarded, forward = [], encoder.forward_batch
        monkeypatch.setattr(encoder, "forward_batch", lambda p, c, ids, mask, **kw: forwarded.append((ids, mask))
                            or forward(p, c, ids, mask, **kw))
        store = precompute_embeddings(wide, catalog, tokenizer)
        assert encoded == pool
        assert len(forwarded) > 1
        assert [tuple(row[keep == 1]) for ids, mask in forwarded for row, keep in zip(ids, mask)] == [
            tuple(encode(t, 64).ids) for t in pool]
        first = {}
        for i, doc in enumerate(catalog):
            assert store.vectors[i].tobytes() == store.vectors[first.setdefault(doc.text, i)].tobytes()
        assert len(first) == len(pool) < len(catalog)

    def test_a_catalog_without_repeats_is_embedded_in_doc_order(self, world, wide, monkeypatch):
        """Without repeats the distinct texts are the docs: the forwards and
        the bytes are those of chunks cut over the catalog in order."""
        _, tokenizer, _, _, _ = world
        texts, _ = distinct_texts(self.mixed_catalog(300))
        catalog = [Document(f"n{i:04d}", text) for i, text in enumerate(texts)]
        rows = [tokenizer.encode_single(text, 64).ids for text in texts]
        cuts, start, longest = [], 0, 0
        for end, row in enumerate(rows):
            longest = max(longest, len(row))
            if end > start and (end + 1 - start) * longest > 512:
                cuts.append((start, end))
                start, longest = end, len(row)
        cuts.append((start, len(rows)))
        want = np.concatenate([states for a, b in cuts for states in training._embed_rows(wide.params, rows[a:b])])
        want = want.astype(np.float32)
        shapes = record_forwards(monkeypatch)
        store = precompute_embeddings(wide, catalog, tokenizer)
        assert len(cuts) > 1
        assert shapes == [(b - a, max(map(len, rows[a:b]))) for a, b in cuts]
        assert store.vectors.tobytes() == want.tobytes()


class TestStoreFiles:
    def test_roundtrip(self, tmp_path, store):
        path = tmp_path / "docs.store"
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.dim == store.dim
        assert loaded.fingerprint == store.fingerprint
        assert loaded.doc_ids == store.doc_ids
        np.testing.assert_array_equal(loaded.vectors, store.vectors)
        assert loaded.vectors.dtype == np.float32

    def test_save_is_deterministic_and_leaves_no_temp_files(self, tmp_path, store):
        a, b = tmp_path / "a.store", tmp_path / "b.store"
        save_store(store, a)
        save_store(store, b)
        assert a.read_bytes() == b.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["a.store", "b.store"]

    def test_bad_magic_raises_format_error(self, tmp_path):
        path = tmp_path / "x.store"
        save_store(tiny_store(), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreError, match=r"not a store file \(bad magic\)$"):
            load_store(path)

    def test_unsupported_version_raises_format_error(self, tmp_path):
        """Version 1 files, whose hash covered the vectors only, and version 3
        files, sealed with blake2b, are refused too."""
        path = tmp_path / "x.store"
        for version in (1, 3, 42):
            save_store(tiny_store(), path)
            blob = bytearray(path.read_bytes())
            struct.pack_into("<I", blob, 8, version)
            path.write_bytes(bytes(blob))
            with pytest.raises(StoreError, match=fr"unsupported store version {version} \(reader supports 4\)$"):
                load_store(path)

    def test_truncated_payload_raises_format_error(self, tmp_path):
        path = tmp_path / "x.store"
        save_store(tiny_store(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(StoreError, match=f"{len(blob) - 10} bytes, the header implies {len(blob)}$"):
            load_store(path)

    def test_trailing_bytes_raise_format_error(self, tmp_path):
        path = tmp_path / "x.store"
        save_store(tiny_store(), path)
        path.write_bytes(path.read_bytes() + b"trailing")
        with pytest.raises(StoreError, match="the header implies"):
            load_store(path)

    def test_flipped_payload_byte_raises_integrity_error(self, tmp_path):
        path = tmp_path / "x.store"
        save_store(tiny_store(), path)
        blob = bytearray(path.read_bytes())
        blob[-12] ^= 0xFF  # inside the vector payload, before the digest
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreError, match="content hash mismatch$"):
            load_store(path)

    @pytest.mark.parametrize("old, new", [(b"doc1", b"doc9"), (b"feedbeef", b"feedbeee")])
    def test_edited_id_or_fingerprint_raises_integrity_error(self, tmp_path, old, new):
        """The hash covers the id table and the fingerprint, not only the vectors."""
        path = tmp_path / "x.store"
        save_store(tiny_store(), path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(old, new, 1))
        with pytest.raises(StoreError, match="content hash mismatch$"):
            load_store(path)

    @pytest.mark.parametrize("field, value", [("dim", "4"), ("dim", True), ("fingerprint", 7),
                                              ("doc_ids", ["doc0", 1, "doc2"]), ("doc_ids", ["doc0", "a,b", "doc2"]),
                                              ("doc_ids", ["doc0", "c\nd", "doc2"]), ("doc_ids", ["doc0", "", "doc2"])])
    def test_header_field_of_wrong_type_raises_format_error(self, tmp_path, field, value):
        """A crafted header with a valid hash is refused by its fields' types."""
        path = tmp_path / "x.store"
        save_store(tiny_store(), path)
        rewrite_header(path, lambda header: dict(header, **{field: value}))
        with pytest.raises(StoreError, match="header needs"):
            load_store(path)

    def test_repeated_id_raises_format_error(self, tmp_path):
        path = tmp_path / "x.store"
        save_store(tiny_store(), path)
        rewrite_header(path, lambda header: dict(header, doc_ids=["doc0", "doc2", "doc2"]))
        with pytest.raises(StoreError, match="header needs valid doc ids") as excinfo:
            load_store(path)
        assert str(excinfo.value) == f"{path}: header needs valid doc ids: duplicate store doc ids: ['doc2']"


def python_sorted(doc_ids, scores):
    """The ranking order by a plain Python sort on (-score, doc_id)."""
    paired = sorted(zip(doc_ids, scores), key=lambda t: (-t[1], t[0]))
    return [(doc_id, float(score)) for doc_id, score in paired]


def same_bytes(got, expected):
    """Equal ids, and scores equal to the bit (so 0.0 and -0.0 differ)."""
    return [(d, s.hex()) for d, s in got] == [(d, s.hex()) for d, s in expected]


class TestSortedRanking:
    """``_sorted_ranking`` and ``metrics.score_order`` against Python's
    sort on (-score, doc_id)."""

    @staticmethod
    def check(doc_ids, scores):
        """The full ranking, and with ``k`` (every small one, and around
        the list's middle and end) its first ``k`` rows."""
        scores = np.asarray(scores, dtype=np.float64)
        expected = python_sorted(doc_ids, scores)
        got = _sorted_ranking(doc_ids, str_rank(doc_ids), scores)
        assert same_bytes(got, expected)
        assert [doc_ids[i] for i in score_order(scores, str_rank(doc_ids))] == [d for d, _ in expected]
        n = len(doc_ids)
        for k in sorted({*range(1, 11), n // 3 + 1, n // 2 + 1, max(n - 1, 1), n, n + 1, n + 2}):
            assert same_bytes(_sorted_ranking(doc_ids, str_rank(doc_ids), scores, k), expected[:k])

    @pytest.mark.parametrize("seed", range(20))
    def test_random_lists_with_many_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        doc_ids = [f"d{k}" for k in rng.permutation(n)]
        self.check(doc_ids, rng.integers(-3, 4, size=n) * 0.25)

    def test_all_equal_scores_order_by_id(self):
        doc_ids = ["m", "b", "z", "a", "b0", "B"]
        self.check(doc_ids, [1.5] * len(doc_ids))

    def test_zero_and_negative_zero_tie(self):
        doc_ids = ["c", "a", "d", "b", "e"]
        scores = [0.0, -0.0, 0.0, -0.0, 1.0]
        self.check(doc_ids, scores)
        got = _sorted_ranking(doc_ids, str_rank(doc_ids), np.asarray(scores))
        assert [d for d, _ in got] == ["e", "a", "b", "c", "d"]

    def test_non_ascii_and_nul_ids(self):
        doc_ids = ["é", "e", "z", "日本", "a\x00", "a", "Ω", "ñ"]
        rng = np.random.default_rng(5)
        self.check(doc_ids, rng.integers(0, 2, size=len(doc_ids)).astype(float))

    @pytest.mark.parametrize("n", [1, 2, 40, 256, 257, 300, 700, 3000])
    def test_score_order_equals_the_two_key_sort(self, n):
        """Against ``np.lexsort`` on (-score, id rank), with NaNs, infinities,
        0.0 and -0.0 among tied runs, for the full order and for ``k``."""
        rng = np.random.default_rng(n)
        values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.25, 3.0])
        scores = values[rng.integers(0, len(values), size=n)]
        distinct = rng.random(n) < 0.3
        scores[distinct] = rng.standard_normal(int(distinct.sum()))
        id_rank = rng.permutation(n)
        want = np.lexsort((id_rank, -scores))
        assert score_order(scores, id_rank).tolist() == want.tolist()
        for k in sorted({*range(1, min(n, 300) + 2), n // 2 + 1, n - 1, n, n + 1} - {0}):
            assert score_order(scores, id_rank, k).tolist() == want[:k].tolist()

    @pytest.mark.parametrize("n_max", [40, 1000])
    def test_short_lists_sort_as_long_ones(self, monkeypatch, n_max):
        """A list of at most ``LEXSORT_MAX`` scores is sorted by one
        ``lexsort``; the sort-then-runs path of longer lists gives the same
        order on lists made of NaN, 0.0, -0.0, ±inf and a few finite values,
        with id ranks drawn from a store's wider range, and both give the
        order of Python's sort on (NaN last, -score, id rank)."""
        rng = np.random.default_rng(n_max)
        values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.25])
        for _ in range(2000 if n_max == 40 else 20):
            n = int(rng.integers(1, n_max))
            scores = values[rng.integers(0, len(values), size=n)]
            id_rank = rng.choice(10 * n, size=n, replace=False)
            monkeypatch.setattr(metrics, "LEXSORT_MAX", n_max)
            short = score_order(scores, id_rank)
            monkeypatch.setattr(metrics, "LEXSORT_MAX", 0)
            long = score_order(scores, id_rank)
            want = sorted(range(n), key=lambda i: (bool(np.isnan(scores[i])), 0.0 if np.isnan(scores[i])
                                                   else -scores[i], id_rank[i]))
            assert short.tolist() == long.tolist() == want

    @pytest.mark.parametrize("seed", range(10))
    def test_store_subsets_out_of_id_order(self, seed):
        rng = np.random.default_rng(seed)
        pool = ["a", "é", "b\x00", "b", "日", "Z"] + [f"x{k}" for k in range(200)]
        ids = [pool[k] for k in rng.permutation(len(pool))]
        store = EmbeddingStore(fingerprint="f", doc_ids=ids, vectors=np.zeros((len(ids), 2)))
        wanted = [ids[k] for k in rng.choice(len(ids), size=int(rng.integers(1, len(ids))), replace=False)]
        rows, _ = store.gather(wanted)
        scores = rng.integers(0, 3, size=len(wanted)).astype(np.float64)
        got = _sorted_ranking(wanted, store.id_tables()[0][rows], scores)
        assert same_bytes(got, python_sorted(wanted, scores))


class TestRankWithStudent:
    def test_scores_are_store_dot_products(self, world, store):
        _, tokenizer, _, student, catalog = world
        ids = [d.doc_id for d in catalog[:6]]
        result = rank_with_student(student, store, "attr7 attr8", ids, tokenizer)
        q_emb = embed_alone(student, tokenizer, "attr7 attr8")
        _, vectors = store.gather(ids)
        expected = {
            doc_id: float(vector.astype(np.float64) @ q_emb)
            for doc_id, vector in zip(ids, vectors)
        }
        assert {d: s for d, s in result.ranking} == pytest.approx(expected)

    def test_ranking_sorted_by_descending_score(self, world, store):
        _, tokenizer, _, student, catalog = world
        ids = [d.doc_id for d in catalog[:10]]
        result = rank_with_student(student, store, "attr1", ids, tokenizer)
        scores = [s for _, s in result.ranking]
        assert scores == sorted(scores, reverse=True)
        assert sorted(d for d, _ in result.ranking) == sorted(ids)
        assert result.latency_ms > 0.0

    def test_tied_scores_break_by_ascending_doc_id(self, world):
        """Two documents with identical text embed identically, so their
        tie must resolve alphabetically."""
        _, tokenizer, _, student, _ = world
        twins = [Document("zz", "same words"), Document("aa", "same words")]
        twin_store = precompute_embeddings(student, twins, tokenizer)
        result = rank_with_student(student, twin_store, "same", ["zz", "aa"], tokenizer)
        assert [d for d, _ in result.ranking] == ["aa", "zz"]

    def test_full_store_with_duplicate_texts_matches_python_sort(self, world):
        """Documents that share a text embed identically, so the full-store
        ranking is full of tied runs; each resolves by ascending doc_id."""
        _, tokenizer, _, student, _ = world
        rng = random.Random(7)
        texts = [f"attr{k} attr{k + 1}" for k in range(6)]
        catalog = [Document(f"d{k:03d}", rng.choice(texts)) for k in rng.sample(range(300), 120)]
        dup_store = precompute_embeddings(student, catalog, tokenizer)
        ids = list(dup_store.doc_ids)
        result = rank_with_student(student, dup_store, "attr2 attr3", ids, tokenizer)
        scores = dup_store.vectors.astype(np.float64) @ embed_alone(student, tokenizer, "attr2 attr3")
        assert same_bytes(result.ranking, python_sorted(ids, scores))
        assert len({s for _, s in result.ranking}) <= len(texts)

    @pytest.fixture
    def exact_store(self, world):
        """A store whose ids are not in ``str`` order (NUL-suffixed ids
        included) and whose rows are ``c * e_j`` for a few ``c`` (0 among
        them) and ``j``: every score is one product, so it has the same bits
        whatever the rows around it, and most scores are tied."""
        _, _, _, student, _ = world
        rng = np.random.default_rng(4)
        pool = ["b", "b\x00", "a\x00\x00", "a", "a\x00", "é", "Z"] + [f"x{k}" for k in range(593)]
        ids = [pool[k] for k in rng.permutation(len(pool))]
        vectors = np.zeros((len(ids), student.config.model_dim), dtype=np.float32)
        vectors[np.arange(len(ids)), rng.integers(0, 3, size=len(ids))] = rng.choice([-1.0, 0.0, 1.0, 2.0], len(ids))
        return EmbeddingStore(fingerprint=checkpoint_fingerprint(student), doc_ids=ids, vectors=vectors)

    @pytest.fixture
    def gathers(self, monkeypatch):
        calls = []
        real = EmbeddingStore.gather

        def gather(store, doc_ids):
            calls.append(len(doc_ids))
            return real(store, doc_ids)

        monkeypatch.setattr(EmbeddingStore, "gather", gather)
        return calls

    def test_whole_store_path_equals_the_gather_path(self, world, exact_store, gathers):
        """The store's own id list (or an equal copy) takes the whole-store
        path; a permutation of it is gathered. Both give the Python sort, and
        with every ``k`` its first ``k`` rows."""
        _, tokenizer, _, student, _ = world
        ids = exact_store.doc_ids
        permuted = [ids[k] for k in np.random.default_rng(5).permutation(len(ids))]
        q_emb = embed_alone(student, tokenizer, "attr2 attr3")
        expected = python_sorted(ids, exact_store.vectors.astype(np.float64) @ q_emb)
        assert len({s for _, s in expected}) <= 10
        for k in (None, 1, 2, 9, len(ids) - 1, len(ids), len(ids) + 7):
            want = expected[:k]
            for candidates, n_gathers in ((ids, 0), (list(ids), 0), (permuted, 1)):
                gathers.clear()
                result = rank_with_student(student, exact_store, "attr2 attr3", candidates, tokenizer, k)
                assert same_bytes(result.ranking, want)
                assert len(gathers) == n_gathers

    @pytest.mark.parametrize("k", [0, -1, 1.0, True, "3"])
    def test_cutoff_that_is_not_a_positive_integer_rejected(self, world, store, k):
        _, tokenizer, teacher, student, catalog = world
        with pytest.raises(ConfigurationError, match="rank cutoff k must be a positive integer"):
            rank_with_student(student, store, "q", [catalog[0].doc_id], tokenizer, k)
        with pytest.raises(ConfigurationError, match="rank cutoff k must be a positive integer"):
            rank_with_teacher(teacher, "q", catalog[:2], tokenizer, k)

    @pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 2047, 2048, 2049, 3 * 1024 + 672, 4 * 1024 + 1])
    @pytest.mark.parametrize("dim", [16, 64])
    def test_block_upcast_keeps_the_bits_of_one_product(self, n, dim):
        """``_scores`` upcasts ``SCORE_BLOCK`` rows at a time (the last block
        takes the remainder) and matches the single product bit for bit."""
        assert serve.SCORE_BLOCK == 1024
        rng = np.random.default_rng([n, dim])
        vectors = (rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))).astype(np.float32)
        query_vec = rng.standard_normal(dim)
        want = vectors.astype(np.float64) @ query_vec
        assert serve._scores(vectors, query_vec).tobytes() == want.tobytes()

    def test_empty_candidates_return_empty_result(self, world, store):
        _, tokenizer, _, student, _ = world
        result = rank_with_student(student, store, "anything", [], tokenizer)
        assert result == RankResult([], 0.0)

    def test_duplicate_candidates_rejected(self, world, store):
        _, tokenizer, _, student, catalog = world
        doc_id = catalog[0].doc_id
        with pytest.raises(ValidationError):
            rank_with_student(student, store, "q", [doc_id, doc_id], tokenizer)

    def test_duplicate_is_reported_before_a_missing_id(self, world, store):
        """The gather stops at the missing id, which comes first; the duplicate
        after it is still the error raised."""
        _, tokenizer, _, student, catalog = world
        a, b = catalog[0].doc_id, catalog[1].doc_id
        with pytest.raises(ValidationError) as excinfo:
            rank_with_student(student, store, "q", [a, "nonexistent", b, a], tokenizer)
        assert str(excinfo.value) == f"duplicate candidate ids: [{a!r}]"

    def test_many_duplicates_in_a_large_list_reported_sorted(self, world, store):
        _, tokenizer, _, student, _ = world
        ids = [f"c{k:05d}" for k in range(20000)] + ["c00007", "c19999", "c00007", "c00500"]
        with pytest.raises(ValidationError) as excinfo:
            rank_with_student(student, store, "q", ids + ["nonexistent"], tokenizer)
        assert str(excinfo.value) == "duplicate candidate ids: ['c00007', 'c00500', 'c19999']"

    def test_unknown_candidate_rejected(self, world, store):
        _, tokenizer, _, student, _ = world
        with pytest.raises(MissingIdError):
            rank_with_student(student, store, "q", ["nonexistent"], tokenizer)

    def test_vocab_below_the_tokenizer_ids_refused_before_any_layer(self, world, monkeypatch):
        """A checkpoint whose vocabulary is smaller than its tokenizer's ids
        is refused by the batch checks of the query's one-row forward."""
        _, tokenizer, _, student, catalog = world
        query = catalog[0].text
        config = dataclasses.replace(student.config, vocab_size=N_SPECIAL + 1)
        small = init_checkpoint(config, seed=1, tokenizer_hash=tokenizer.content_hash())
        assert max(tokenizer.encode_single(query, config.max_len).ids) >= config.vocab_size
        small_store = EmbeddingStore(fingerprint=checkpoint_fingerprint(small), doc_ids=[d.doc_id for d in catalog],
                                     vectors=np.zeros((len(catalog), config.model_dim)))
        calls, affine = [], encoder._affine
        monkeypatch.setattr(encoder, "_affine", lambda *a: calls.append(1) or affine(*a))
        with pytest.raises(ValidationError, match="token id outside vocabulary range"):
            training.embed_texts(small, tokenizer, [query])
        with pytest.raises(ValidationError, match="token id outside vocabulary range"):
            rank_with_student(small, small_store, query, [d.doc_id for d in catalog[:5]], tokenizer)
        assert calls == []

    def test_store_of_another_width_rejected(self, world):
        _, tokenizer, _, student, catalog = world
        wide = EmbeddingStore(
            fingerprint=checkpoint_fingerprint(student),
            doc_ids=[d.doc_id for d in catalog],
            vectors=np.zeros((len(catalog), student.config.model_dim + 1)),
        )
        with pytest.raises(ValidationError, match="width"):
            rank_with_student(student, wide, "q", [catalog[0].doc_id], tokenizer)


class TestRankWithTeacher:
    def test_scores_match_direct_cross_encoder(self, world):
        _, tokenizer, teacher, _, catalog = world
        docs = catalog[:5]
        query = "attr2 attr9"
        result = rank_with_teacher(teacher, query, docs, tokenizer)
        rows = [tokenizer.encode_pair(query, d.text, teacher.config.max_len).ids for d in docs]
        ids, mask = pad_token_rows(rows)
        scores, _ = score_cls_batch(teacher.params, teacher.config, ids, mask)
        expected = {d.doc_id: float(s) for d, s in zip(docs, scores)}
        assert {d: s for d, s in result.ranking} == pytest.approx(expected)
        ranked_scores = [s for _, s in result.ranking]
        assert ranked_scores == sorted(ranked_scores, reverse=True)

    def test_scores_equal_the_eval_scorer_bit_for_bit(self, world):
        """Serving and offline evaluation score a group through one path."""
        dataset, tokenizer, teacher, _, _ = world
        group = dataset.groups[0]
        result = rank_with_teacher(teacher, group.query_text, group.docs, tokenizer)
        scores = make_cross_encoder_scorer(teacher, tokenizer)(group)
        expected = {d.doc_id: float(s).hex() for d, s in zip(group.docs, scores)}
        assert {d: s.hex() for d, s in result.ranking} == expected

    def test_repeated_texts_run_once_and_share_a_score(self, world, monkeypatch):
        """One forward holds the query's pair with each distinct text once, in
        first-occurrence order; candidates with one text get its first
        occurrence's score bit for bit (8 rows leave no ``len % 4`` tail for
        BLAS to score apart), and a forward of every pair agrees within
        rounding."""
        _, tokenizer, teacher, _, catalog = world
        query, config = "attr2 attr9", teacher.config
        pool = list(dict.fromkeys(d.text for d in catalog))[:4]
        texts = [pool[i] for i in (0, 1, 0, 2, 3, 1, 0, 2)]
        docs = [Document(f"r{i}", text) for i, text in enumerate(texts)]
        shapes = record_forwards(monkeypatch)
        scores = dict(rank_with_teacher(teacher, query, docs, tokenizer).ranking)
        pairs = [tokenizer.encode_pair(query, text, config.max_len).ids for text in pool]
        assert shapes == [(4, max(map(len, pairs)))]
        for doc in docs:
            assert scores[doc.doc_id].hex() == scores[f"r{texts.index(doc.text)}"].hex()
        ids, mask = pad_token_rows([tokenizer.encode_pair(query, text, config.max_len).ids for text in texts])
        full, trace = score_cls_batch(teacher.params, config, ids, mask)
        bound = 1e-12 * np.abs(trace.hidden).max() * np.abs(teacher.params.score_w).sum()
        assert max(abs(scores[d.doc_id] - s) for d, s in zip(docs, full)) <= bound

    def test_k_keeps_the_first_rows(self, world):
        dataset, tokenizer, teacher, _, _ = world
        group = dataset.groups[1]
        full = rank_with_teacher(teacher, group.query_text, group.docs, tokenizer).ranking
        for k in (1, 3, len(full), len(full) + 1):
            assert rank_with_teacher(teacher, group.query_text, group.docs, tokenizer, k).ranking == full[:k]

    def test_empty_candidates_return_empty_result(self, world):
        _, tokenizer, teacher, _, _ = world
        assert rank_with_teacher(teacher, "q", [], tokenizer) == RankResult([], 0.0)

    def test_duplicate_candidates_rejected(self, world):
        _, tokenizer, teacher, _, _ = world
        docs = [Document("d", "a"), Document("d", "b")]
        with pytest.raises(ValidationError):
            rank_with_teacher(teacher, "q", docs, tokenizer)


class TestForeignTokenizer:
    """Serving refuses a tokenizer other than the one the checkpoint records."""

    @pytest.fixture(scope="class")
    def foreign(self, world):
        dataset = world[0]
        return train_bpe(corpus_lines(dataset), vocab_size=290)

    def test_rank_with_student_refuses(self, world, store, foreign):
        _, _, _, student, catalog = world
        with pytest.raises(ContractError, match="does not match"):
            rank_with_student(student, store, "q", [catalog[0].doc_id], foreign)

    def test_rank_with_teacher_refuses(self, world, foreign):
        _, _, teacher, _, catalog = world
        with pytest.raises(ContractError, match="does not match"):
            rank_with_teacher(teacher, "q", catalog[:2], foreign)

    def test_precompute_embeddings_refuses(self, world, foreign):
        _, _, _, student, catalog = world
        with pytest.raises(ContractError, match="does not match"):
            precompute_embeddings(student, catalog, foreign)


class TestBenchmarkWorkload:
    def test_length_and_list_cap(self, world):
        dataset, *_ = world
        workload = benchmark_workload(dataset, n_queries=7, list_size=4, seed=0, warmup=2)
        assert len(workload) == 9
        assert all(len(docs) == 4 for _, docs in workload)

    def test_same_seed_same_workload(self, world):
        dataset, *_ = world
        a = benchmark_workload(dataset, n_queries=5, list_size=3, seed=3, warmup=1)
        b = benchmark_workload(dataset, n_queries=5, list_size=3, seed=3, warmup=1)
        assert [(q, [d.doc_id for d in docs]) for q, docs in a] == [
            (q, [d.doc_id for d in docs]) for q, docs in b
        ]

    def test_different_seeds_differ(self, world):
        dataset, *_ = world
        a = benchmark_workload(dataset, n_queries=20, list_size=3, seed=0, warmup=0)
        b = benchmark_workload(dataset, n_queries=20, list_size=3, seed=1, warmup=0)
        assert [q for q, _ in a] != [q for q, _ in b]

    def test_empty_dataset_raises(self):
        from listrank.dataset import Dataset

        with pytest.raises(EmptyInputError):
            benchmark_workload(Dataset([]), n_queries=5, list_size=3, seed=0, warmup=0)


class TestBenchmarkLatency:
    def test_small_run_produces_positive_stats(self, world, store):
        dataset, tokenizer, teacher, student, _ = world
        report = benchmark_latency(
            teacher, student, store, dataset, tokenizer,
            n_queries=30, list_size=4, seed=0, warmup=2,
        )
        for stats in (report.teacher, report.student):
            assert stats.mean_ms > 0.0
            assert 0.0 < stats.p10_ms <= stats.median_ms <= stats.p90_ms
            assert 0.0 <= stats.iqr_ms <= stats.p90_ms - stats.p10_ms
            assert stats.per_second == 1000.0 / stats.mean_ms
        assert report.speedup == pytest.approx(report.teacher.mean_ms / report.student.mean_ms)

    def test_each_system_ranks_the_workload_in_its_own_loop(self, world, store, monkeypatch):
        """The teacher ranks every query of the workload, then the student
        ranks the same queries, and only the queries after the warmup count."""
        dataset, tokenizer, teacher, student, _ = world
        calls, latency = [], iter(range(1, 1000))

        def timed(name):
            def rank(checkpoint, *args):
                query = args[1] if name == "student" else args[0]
                calls.append((name, query))
                return RankResult([], float(next(latency)))
            return rank

        monkeypatch.setattr(serve, "rank_with_teacher", timed("teacher"))
        monkeypatch.setattr(serve, "rank_with_student", timed("student"))
        report = benchmark_latency(teacher, student, store, dataset, tokenizer,
                                   n_queries=30, list_size=4, seed=0, warmup=2)
        queries = [q for q, _ in benchmark_workload(dataset, n_queries=30, list_size=4, seed=0, warmup=2)]
        assert calls == [(name, q) for name in ("teacher", "student") for q in queries]
        # timed latencies 3, 4, ..., 32 for the teacher and 35, 36, ..., 64 for the student
        assert (report.teacher.mean_ms, report.student.mean_ms) == (17.5, 49.5)
        assert (report.teacher.p10_ms, report.teacher.median_ms, report.teacher.p90_ms) == (5.0, 17.0, 29.0)
        assert report.teacher.iqr_ms == 25.0 - 10.0

    def test_gc_collections_counted_over_the_measured_ranks_only(self, world, store, monkeypatch):
        """Each rank runs one full collection, so each system counts one
        generation-2 collection per measured rank and none for the warmup."""
        dataset, tokenizer, teacher, student, _ = world

        def rank(*args):
            gc.collect()
            return RankResult([], 1.0)

        monkeypatch.setattr(serve, "rank_with_teacher", rank)
        monkeypatch.setattr(serve, "rank_with_student", rank)
        enabled = gc.isenabled()
        gc.disable()  # no automatic collection between the counted ones
        try:
            report = benchmark_latency(teacher, student, store, dataset, tokenizer,
                                       n_queries=30, list_size=4, seed=0, warmup=3)
        finally:
            if enabled:
                gc.enable()
        assert report.teacher.gc_collections == report.student.gc_collections == (0, 0, 30)

    def test_too_few_queries_rejected(self, world, store):
        dataset, tokenizer, teacher, student, _ = world
        with pytest.raises(ConfigurationError):
            benchmark_latency(
                teacher, student, store, dataset, tokenizer,
                n_queries=29, list_size=4, seed=0, warmup=0,
            )

    def test_zero_list_size_rejected(self, world, store):
        dataset, tokenizer, teacher, student, _ = world
        with pytest.raises(ConfigurationError):
            benchmark_latency(
                teacher, student, store, dataset, tokenizer,
                n_queries=30, list_size=0, seed=0, warmup=0,
            )

    @pytest.mark.parametrize("n_queries, warmup", [(10**20, 10), (serve.MAX_BENCH_QUERIES, 1)])
    def test_workload_past_the_bound_rejected_before_the_draw(self, world, store, monkeypatch, n_queries, warmup):
        """10**20 queries ended in numpy's dimension error, 3·10**9 in an
        allocation error, both inside the draw; the warmup counts too."""
        dataset, tokenizer, teacher, student, _ = world
        monkeypatch.setattr(serve, "benchmark_workload", lambda *args: pytest.fail("workload drawn"))
        with pytest.raises(ConfigurationError, match=f"at most {serve.MAX_BENCH_QUERIES}, got {n_queries + warmup}$"):
            benchmark_latency(teacher, student, store, dataset, tokenizer,
                              n_queries=n_queries, list_size=4, seed=0, warmup=warmup)


class TestBenchmarkReport:
    def test_csv_layout_is_exact(self):
        report = BenchmarkReport(
            teacher=LatencyStats(mean_ms=10.0, median_ms=9.5, p90_ms=12.25, p10_ms=8.0, iqr_ms=2.0),
            student=LatencyStats(mean_ms=2.0, median_ms=1.5, p90_ms=3.0, p10_ms=1.0, iqr_ms=0.5),
        )
        assert report.to_csv() == (
            "system,mean_ms,median_ms,p90_ms,speedup_vs_teacher\n"
            "teacher,10,9.5,12.25,1\n"
            "student,2,1.5,3,5\n"
        )
