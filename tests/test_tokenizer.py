"""Unit tests for the byte-level BPE tokenizer.

The round-trip property (decode after encode returns the input string,
byte for byte) is the backbone: it holds for any UTF-8 input including
text the tokenizer never saw, because unmerged bytes remain encodable.
"""

import itertools
import json
import random
from collections import Counter

import numpy as np
import pytest

from listrank.dataset import SyntheticSpec, corpus_lines, generate_synthetic
from listrank.errors import ConfigurationError, EmptyInputError, ParseError, ValidationError
from listrank.tokenizer import (
    _BYTE_TO_CHAR,
    _PIECE_RE,
    _text_to_symbols,
    CLS_ID,
    MASK_ID,
    N_SPECIAL,
    PAD_ID,
    SEP_ID,
    TokenSequence,
    Tokenizer,
    UNK_ID,
    UNMASKED,
    load_tokenizer,
    mask_for_mlm,
    train_bpe,
)

CORPUS = [
    "red running shoes for the road",
    "blue walking shoes for the trail",
    "red wool winter hat",
    "waterproof hiking boots for winter",
    "running socks and running shorts",
]


@pytest.fixture(scope="module")
def tok():
    """One small trained tokenizer shared by the read-only tests."""
    return train_bpe(CORPUS, vocab_size=300)


class TestSpecialTokens:
    def test_reserved_ids(self):
        assert (PAD_ID, CLS_ID, SEP_ID, MASK_ID, UNK_ID) == (0, 1, 2, 3, 4)
        assert N_SPECIAL == 5

    def test_text_tokens_start_after_specials(self, tok):
        assert min(tok.token_to_id.values()) == N_SPECIAL

    def test_encode_never_yields_a_special_id(self, tok):
        """Texts that spell the specials, the control characters at their
        ids, and a character for each byte value UTF-8 text can hold (all 256
        but 0xC0, 0xC1 and 0xF5-0xFF, which none holds) encode to text ids
        alone. So ``ids == MASK_ID`` in a masked line marks exactly the
        positions ``mask_for_mlm`` labelled, the rule both masked-token heads
        read by."""
        carriers = {}
        for cp in itertools.chain(range(0x800), range(0x800, 0x10000, 0x40), range(0x10000, 0x110000, 0x1000)):
            if not 0xD800 <= cp < 0xE000:
                for b in chr(cp).encode("utf-8"):
                    carriers.setdefault(b, chr(cp))
        assert set(range(256)) - set(carriers) == {0xC0, 0xC1, *range(0xF5, 0x100)}
        texts = ["".join(carriers.values()), *carriers.values(), "[MASK] [CLS]", "[PAD][SEP][UNK] <mask>",
                 "".join(map(chr, range(N_SPECIAL)))]
        assert all(min(tok.encode(text).ids) >= N_SPECIAL for text in texts)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "red running shoes",
            "never seen words qwxzygh",
            "héllo wörld café",
            "emoji \U0001f389 and \U0001f600 glyphs",
            "  leading, double  and trailing spaces  ",
            "tabs\tand\nnewlines",
            "",
        ],
    )
    def test_decode_inverts_encode(self, tok, text):
        assert tok.decode(tok.encode(text)) == text

    def test_decode_skips_special_ids(self, tok):
        seq = tok.encode("winter hat")
        padded = [CLS_ID] + seq.ids + [SEP_ID, PAD_ID]
        assert tok.decode(padded) == "winter hat"

    def test_decode_unknown_id_raises(self, tok):
        with pytest.raises(ValidationError):
            tok.decode([tok.vocab_size + 10])


class TestEncodePair:
    def test_layout_is_cls_query_sep_doc(self, tok):
        q_ids = tok.encode("red shoes").ids
        d_ids = tok.encode("red running shoes").ids
        seq = tok.encode_pair("red shoes", "red running shoes", max_len=64)
        assert seq.ids == [CLS_ID] + q_ids + [SEP_ID] + d_ids

    def test_doc_is_truncated_first(self, tok):
        q_ids = tok.encode("red shoes").ids
        max_len = len(q_ids) + 2 + 3
        seq = tok.encode_pair("red shoes", "a very long document " * 10, max_len)
        assert len(seq.ids) == max_len
        assert seq.ids[: len(q_ids) + 2] == [CLS_ID] + q_ids + [SEP_ID]

    def test_oversized_query_is_truncated_too(self, tok):
        seq = tok.encode_pair("word " * 50, "doc", max_len=10)
        assert len(seq.ids) <= 10
        assert seq.ids[0] == CLS_ID

    def test_max_len_under_four_raises(self, tok):
        with pytest.raises(ConfigurationError):
            tok.encode_pair("q", "d", max_len=3)
        with pytest.raises(ConfigurationError):
            tok.encode_pairs("q", ["d"], max_len=3)


def _pair_reference(tok, query, doc_text, max_len):
    """The pair layout written out per pair: both texts encoded, the doc cut
    first, then the query if it alone exceeds the budget."""
    q_ids, d_ids = tok.encode(query).ids, tok.encode(doc_text).ids
    budget = max_len - 2
    if len(q_ids) + len(d_ids) > budget:
        d_ids = d_ids[: max(0, budget - len(q_ids))]
    if len(q_ids) + len(d_ids) > budget:
        q_ids = q_ids[:budget]
    return [CLS_ID] + q_ids + [SEP_ID] + d_ids


class TestEncodePairs:
    DOCS = ["red running shoes", "", "a very long document " * 10, "blue walking shoes for the trail"]

    @pytest.mark.parametrize("query", ["red shoes", "", "word " * 50], ids=["short", "empty", "past-budget"])
    def test_rows_equal_the_pair_layout_of_each_doc(self, tok, query):
        for max_len in range(4, 65):
            want = [_pair_reference(tok, query, doc, max_len) for doc in self.DOCS]
            assert tok.encode_pairs(query, self.DOCS, max_len) == want
            assert [tok.encode_pair(query, doc, max_len).ids for doc in self.DOCS] == want

    def test_query_is_encoded_once(self, tok, monkeypatch):
        texts, encode = [], tok.encode
        monkeypatch.setattr(tok, "encode", lambda text: texts.append(text) or encode(text))
        tok.encode_pairs("red shoes", self.DOCS, 16)
        assert texts == ["red shoes"] + self.DOCS


class TestEncodeSingle:
    def test_starts_with_cls(self, tok):
        seq = tok.encode_single("winter boots", max_len=32)
        assert seq.ids[0] == CLS_ID
        assert seq.ids[1:] == tok.encode("winter boots").ids

    def test_truncates_to_max_len(self, tok):
        seq = tok.encode_single("running " * 30, max_len=8)
        assert len(seq.ids) == 8

    def test_max_len_one_is_just_cls(self, tok):
        assert tok.encode_single("anything", max_len=1).ids == [CLS_ID]

    def test_max_len_under_one_raises(self, tok):
        with pytest.raises(ConfigurationError):
            tok.encode_single("x", max_len=0)


class TestTrainBpe:
    def test_training_is_deterministic(self):
        a = train_bpe(CORPUS, vocab_size=300)
        b = train_bpe(CORPUS, vocab_size=300)
        assert a.token_to_id == b.token_to_id
        assert a.merges == b.merges
        assert a.content_hash() == b.content_hash()

    def test_equality_ignores_the_encoding_cache(self):
        """Two identically trained tokenizers stay equal after one of them
        has encoded text, as their content hashes do."""
        a = train_bpe(CORPUS, vocab_size=300)
        b = train_bpe(CORPUS, vocab_size=300)
        assert a == b
        a.encode("red running shoes")
        assert a == b and a.content_hash() == b.content_hash()
        assert a != train_bpe(CORPUS[:2], vocab_size=300)

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyInputError):
            train_bpe([], vocab_size=300)

    def test_vocab_budget_must_exceed_base_symbols(self):
        with pytest.raises(ConfigurationError):
            train_bpe(CORPUS, vocab_size=261)

    def test_vocab_budget_is_respected(self):
        tok = train_bpe(CORPUS, vocab_size=270)
        assert tok.vocab_size <= 270
        assert len(tok.merges) == 270 - 261

    def test_stops_when_no_pair_repeats(self):
        """A corpus where every adjacent pair occurs once cannot support
        any merge, whatever the budget."""
        tok = train_bpe(["abcdefg"], vocab_size=500)
        assert tok.merges == []
        assert tok.vocab_size == 261

    def test_most_frequent_pair_merges_first(self):
        """In 'zz zz zz' the pair (z, z) occurs three times and the
        space-z pair only twice."""
        tok = train_bpe(["zz zz zz"], vocab_size=262)
        assert tok.merges[0] == ("z", "z")

    def test_frequency_ties_break_lexicographically(self):
        tok = train_bpe(["ab", "cd", "ab", "cd"], vocab_size=262)
        assert tok.merges[0] == ("a", "b")

    def test_merges_never_cross_word_boundaries(self):
        """However large the budget, two space-separated words never
        collapse into one token."""
        tok = train_bpe(["a b a b a b a b"], vocab_size=400)
        assert len(tok.encode("a b").ids) >= 2
        assert tok.decode(tok.encode("a b")) == "a b"

    @pytest.mark.parametrize("vocab_size", [300.5, float("nan"), float("inf"), 300.0, "300", None, True],
                             ids=repr)
    def test_vocab_size_must_be_an_integer(self, vocab_size):
        """Each one trained or failed on the size comparison: 300.5 trained
        301 tokens, nan none, inf until no pair repeated and 300.0 as 300;
        '300' and None raised TypeError, and True was refused as too small."""
        with pytest.raises(ConfigurationError, match="^vocab_size must be an integer"):
            train_bpe(CORPUS, vocab_size)

    def test_numpy_integer_vocab_size_is_an_integer(self):
        assert train_bpe(CORPUS, np.int64(300)) == train_bpe(CORPUS, 300)

    def test_str_corpus_raises(self):
        """A str trained on its characters, one line each."""
        with pytest.raises(ValidationError, match="not one str"):
            train_bpe("ab ab", 300)

    @pytest.mark.parametrize("line", [None, b"ab ab", 7, ["ab"]], ids=repr)
    def test_line_that_is_not_a_str_raises(self, line):
        """None ended in a TypeError traceback from the piece regex."""
        with pytest.raises(ValidationError, match="^corpus line 2 is a .*, not a str$"):
            train_bpe(["ab ab", line], 300)

    def test_empty_iterator_raises(self):
        """``iter([])`` is truthy, so it trained a tokenizer with no merges."""
        with pytest.raises(EmptyInputError):
            train_bpe(iter([]), vocab_size=300)

    def test_any_iterable_of_lines_trains(self):
        want = train_bpe(CORPUS, 300)
        assert train_bpe(iter(CORPUS), 300) == want
        assert train_bpe((line for line in CORPUS), 300) == want
        assert train_bpe(tuple(CORPUS), 300) == want


def _recount_bpe(corpus, vocab_size):
    """The merge loop written as a full recount: every pair of every piece
    counted again before each merge, and every piece rewritten after it."""
    token_to_id = {_BYTE_TO_CHAR[b]: N_SPECIAL + b for b in range(256)}
    pieces = Counter(piece for line in corpus for piece in _PIECE_RE.findall(line))
    words = [(list(_text_to_symbols(piece)), count) for piece, count in sorted(pieces.items())]
    merges = []
    while N_SPECIAL + len(token_to_id) < vocab_size:
        pair_counts = Counter()
        for word, count in words:
            for pair in zip(word, word[1:]):
                pair_counts[pair] += count
        if not pair_counts:
            break
        best = min(pair_counts, key=lambda p: (-pair_counts[p], p))
        if pair_counts[best] < 2:
            break
        merges.append(best)
        token_to_id[best[0] + best[1]] = N_SPECIAL + len(token_to_id)
        for word, _ in words:
            i = 0
            while i < len(word) - 1:
                if (word[i], word[i + 1]) == best:
                    word[i : i + 2] = [best[0] + best[1]]
                else:
                    i += 1
    return Tokenizer(token_to_id=token_to_id, merges=merges)


def _random_corpus(seed):
    """Lines over two to four letters, in runs such as 'aaaa' whose pairs
    overlap, with a multi-byte letter, whitespace-only pieces (an ideographic
    space among them), and lines written twice so that counts tie."""
    rng = random.Random(seed)
    letters = rng.sample("abcd", rng.randint(2, 4)) + rng.choice([[], ["é"], ["中"], ["\U0001f600"]])
    lines = []
    for _ in range(rng.randint(1, 25)):
        words = ["".join(rng.choice(letters) * rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(0, 5))]
        line = rng.choice([" ", "  ", "\t", " \n "]).join(words) + rng.choice(["", " ", "\u3000"])
        lines.extend([line] * rng.choice([1, 2]))
    return lines


def _assert_matches_recount(corpus, vocab_size):
    got, want = train_bpe(corpus, vocab_size), _recount_bpe(corpus, vocab_size)
    assert got.merges == want.merges
    assert got.token_to_id == want.token_to_id
    assert got.content_hash() == want.content_hash()
    return len(got.merges) == vocab_size - N_SPECIAL - 256  # stopped at the budget


class TestIncrementalCountsMatchRecount:
    """``train_bpe`` keeps its pair counts up to date across merges; the
    merges, the vocabulary and the saved bytes are those of ``_recount_bpe``."""

    def test_seeded_random_corpora(self):
        stops = Counter()
        for seed in range(60):
            corpus = _random_corpus(seed)
            for vocab_size in (262, 263, 270, 290, 5000):
                stops[_assert_matches_recount(corpus, vocab_size)] += 1
        assert stops[True] > 30 and stops[False] > 30  # both the budget and the pairs ran out

    @pytest.mark.parametrize("vocab_size, at_budget", [(262, True), (400, True), (5000, False)])
    def test_synthetic_catalog(self, vocab_size, at_budget):
        corpus = corpus_lines(generate_synthetic(SyntheticSpec(n_queries=6, list_size=10, seed=2)))
        assert _assert_matches_recount(corpus, vocab_size) == at_budget


class TestPersistence:
    def test_roundtrip_preserves_behaviour(self, tok, tmp_path):
        path = tmp_path / "tok.json"
        tok.save(path)
        loaded = load_tokenizer(path)
        assert loaded.token_to_id == tok.token_to_id
        assert loaded.merges == tok.merges
        assert loaded.content_hash() == tok.content_hash()
        sample = "red running shoes for winter"
        assert loaded.encode(sample).ids == tok.encode(sample).ids

    def test_content_hash_distinguishes_tokenizers(self):
        a = train_bpe(CORPUS, vocab_size=300)
        b = train_bpe(CORPUS[:2], vocab_size=300)
        assert a.content_hash() != b.content_hash()

    def test_invalid_json_raises(self, tmp_path):
        """A byte that is not UTF-8 and nesting past the recursion limit
        raised UnicodeDecodeError and RecursionError tracebacks."""
        path = tmp_path / "tok.json"
        for content in (b"{broken", b'{"vocab": "\xff"}', b"[" * 100_000):
            path.write_bytes(content)
            with pytest.raises(ParseError, match="^tokenizer file is not valid JSON: "):
                load_tokenizer(path)

    def test_missing_vocab_raises(self, tmp_path):
        path = tmp_path / "tok.json"
        path.write_text(json.dumps({"version": 1, "merges": []}), encoding="utf-8")
        with pytest.raises(ParseError):
            load_tokenizer(path)

    def test_wrong_version_raises(self, tok, tmp_path):
        path = tmp_path / "tok.json"
        payload = json.loads(tok.to_json_bytes())
        payload["version"] = 2
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError):
            load_tokenizer(path)

    def test_wrong_special_table_raises(self, tok, tmp_path):
        path = tmp_path / "tok.json"
        payload = json.loads(tok.to_json_bytes())
        payload["special_tokens"]["CLS"] = 9
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError):
            load_tokenizer(path)


def _renumbered(vocab):
    return {token: N_SPECIAL + i for i, token in enumerate(vocab)}


def _drop_first(vocab):
    return _renumbered(list(vocab)[1:])


def _with_id(vocab, index, new_id):
    token = list(vocab)[index]
    return dict(vocab, **{token: new_id})


# Each case edits the vocab or the merges of a trained tokenizer's file.
MALFORMED_TABLES = {
    "vocab-list": ("vocab", lambda v: [1, 2]),
    "vocab-without-bytes": ("vocab", lambda v: {"a": 5}),
    "string-id": ("vocab", lambda v: {"a": "x"}),
    "bool-id": ("vocab", lambda v: _with_id(v, 0, True)),
    "float-id": ("vocab", lambda v: _with_id(v, 0, 5.0)),
    "repeated-id": ("vocab", lambda v: _with_id(v, -1, N_SPECIAL)),
    "gap-in-ids": ("vocab", lambda v: _with_id(v, -1, N_SPECIAL + len(v))),
    "ids-from-zero": ("vocab", lambda v: {t: i - N_SPECIAL for t, i in v.items()}),
    "missing-byte-symbol": ("vocab", _drop_first),
    "merges-not-a-list": ("merges", lambda m: {"a": "b"}),
    "merge-int": ("merges", lambda m: [1]),
    "merge-string": ("merges", lambda m: ["ab"]),
    "merge-triple": ("merges", lambda m: [m[0] + ["s"]]),
    "merge-int-part": ("merges", lambda m: [[m[0][0], 7]]),
    "merge-not-in-vocab": ("merges", lambda m: m + [["~", "~"]]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_load_refuses_tables_train_bpe_cannot_write(tok, tmp_path, case):
    """Such tables ended in a TypeError traceback on load, or loaded and
    failed later with a KeyError or ValueError on the first encode."""
    key, edit = MALFORMED_TABLES[case]
    payload = json.loads(tok.to_json_bytes())
    payload[key] = edit(payload[key])
    path = tmp_path / "tok.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_tokenizer(path)
    assert str(excinfo.value).startswith("tokenizer ") and "\n" not in str(excinfo.value)


def test_load_accepts_a_renumbered_file_train_bpe_could_write(tok, tmp_path):
    payload = json.loads(tok.to_json_bytes())
    assert _renumbered(payload["vocab"]) == payload["vocab"]
    path = tmp_path / "tok.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert load_tokenizer(path) == tok


class TestMaskForMlm:
    def seq_with_specials(self, tok):
        inner = tok.encode("red running shoes for the road").ids
        ids = [CLS_ID] + inner + [SEP_ID]
        return TokenSequence(ids=ids)

    def test_rate_zero_masks_nothing(self, tok):
        seq = self.seq_with_specials(tok)
        masked, labels = mask_for_mlm(seq, rate=0.0, seed=1)
        assert masked.ids == seq.ids
        assert labels == [UNMASKED] * len(seq.ids)

    def test_rate_one_masks_every_text_token(self, tok):
        seq = self.seq_with_specials(tok)
        masked, labels = mask_for_mlm(seq, rate=1.0, seed=1)
        for pos, original in enumerate(seq.ids):
            if original < N_SPECIAL:
                assert masked.ids[pos] == original
                assert labels[pos] == UNMASKED
            else:
                assert masked.ids[pos] == MASK_ID
                assert labels[pos] == original

    def test_labels_carry_original_ids_at_masked_positions(self, tok):
        seq = self.seq_with_specials(tok)
        masked, labels = mask_for_mlm(seq, rate=0.5, seed=3)
        for pos in range(len(seq.ids)):
            if labels[pos] != UNMASKED:
                assert masked.ids[pos] == MASK_ID
                assert labels[pos] == seq.ids[pos]
            else:
                assert masked.ids[pos] == seq.ids[pos]

    def test_same_seed_is_identical(self, tok):
        seq = self.seq_with_specials(tok)
        a = mask_for_mlm(seq, rate=0.5, seed=7)
        b = mask_for_mlm(seq, rate=0.5, seed=7)
        assert a[0].ids == b[0].ids and a[1] == b[1]

    def test_different_seeds_differ(self, tok):
        ids = tok.encode("running socks and running shorts for the winter road " * 4).ids
        seq = TokenSequence(ids=ids)
        a = mask_for_mlm(seq, rate=0.5, seed=0)
        b = mask_for_mlm(seq, rate=0.5, seed=1)
        assert a[0].ids != b[0].ids

    def test_rate_out_of_range_raises(self, tok):
        seq = self.seq_with_specials(tok)
        with pytest.raises(ConfigurationError):
            mask_for_mlm(seq, rate=1.5)
        with pytest.raises(ConfigurationError):
            mask_for_mlm(seq, rate=-0.1)

    @pytest.mark.parametrize("rate", [0.0, 0.15, 0.5, 1.0])
    def test_matches_the_per_position_loop(self, rate):
        """The same draws as a written-out loop over positions, lengths 0-40,
        with special ids mixed in; plain int ids and labels come back."""
        ids_rng = np.random.default_rng(17)
        for length in range(41):
            ids = ids_rng.integers(0, 3 * N_SPECIAL, size=length).tolist()
            seed = [23, length]
            draws = np.random.default_rng(seed).random(length)
            want_ids, want_labels = list(ids), [UNMASKED] * length
            for pos, token_id in enumerate(ids):
                if token_id >= N_SPECIAL and draws[pos] < rate:
                    want_ids[pos], want_labels[pos] = MASK_ID, token_id
            masked, labels = mask_for_mlm(TokenSequence(ids=ids), rate=rate, seed=seed)
            assert (masked.ids, labels) == (want_ids, want_labels)
            assert all(type(v) is int for v in masked.ids + labels)
