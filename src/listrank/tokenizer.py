"""Byte-level BPE tokenizer with the special tokens the ranking encoders need.

Training greedily merges the most frequent adjacent symbol pair, starting from
the 256 byte values, until the vocabulary budget is exhausted or no pair
repeats. Merges never cross whitespace-delimited piece boundaries; a single
leading space is kept attached to the following word so that encoding is
lossless and decode(encode(s)) == s for any UTF-8 string.

Training counts the pairs of the distinct pieces once and keeps the counts up
to date: a merge recounts only the pieces that hold its pair, so its cost
follows those pieces rather than the corpus. The merge order, the tie-break to
the smallest pair and the stops are those of recounting every pair per merge.
"""

from __future__ import annotations

import heapq
import json
import re
from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, EmptyInputError, ParseError, ValidationError
from .fileio import atomic_write, digest

PAD_ID = 0
CLS_ID = 1
SEP_ID = 2
MASK_ID = 3
UNK_ID = 4

SPECIAL_TOKENS = {"PAD": PAD_ID, "CLS": CLS_ID, "SEP": SEP_ID, "MASK": MASK_ID, "UNK": UNK_ID}
N_SPECIAL = len(SPECIAL_TOKENS)
N_BYTE_SYMBOLS = 256

# label value for positions mask_for_mlm left untouched
UNMASKED = -1

_PIECE_RE = re.compile(r" ?\S+|\s+")

_FILE_VERSION = 1


def _bytes_to_unicode() -> dict[int, str]:
    """Bijection byte value -> printable unicode char (GPT-2 convention)."""
    printable = (
        list(range(ord("!"), ord("~") + 1))
        + list(range(ord("\xa1"), ord("\xac") + 1))
        + list(range(ord("\xae"), ord("\xff") + 1))
    )
    chars = printable[:]
    n = 0
    for b in range(256):
        if b not in printable:
            printable.append(b)
            chars.append(256 + n)
            n += 1
    return dict(zip(printable, (chr(c) for c in chars)))


_BYTE_TO_CHAR = _bytes_to_unicode()
_CHAR_TO_BYTE = {c: b for b, c in _BYTE_TO_CHAR.items()}


def _text_to_symbols(piece: str) -> tuple[str, ...]:
    return tuple(_BYTE_TO_CHAR[b] for b in piece.encode("utf-8"))


@dataclass
class TokenSequence:
    """Token ids of one encoded text; ``encoder.pad_token_rows`` builds the
    attention mask of a batch."""

    ids: list[int]


@dataclass
class Tokenizer:
    """A trained byte-level BPE tokenizer.

    ``token_to_id`` maps text-token strings (in the byte-to-unicode alphabet)
    to ids; ids 0..4 are reserved for the special tokens and text tokens start
    at 5. ``merges`` is the ordered merge table learned during training.
    """

    token_to_id: dict[str, int]
    merges: list[tuple[str, str]]
    _merge_ranks: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)
    _id_to_token: dict[int, str] = field(init=False, repr=False, compare=False)
    _piece_cache: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    _content_hash: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._merge_ranks = {pair: rank for rank, pair in enumerate(self.merges)}
        self._id_to_token = {i: tok for tok, i in self.token_to_id.items()}
        self._piece_cache = {}
        self._content_hash = digest(self.to_json_bytes()).hex()

    @property
    def vocab_size(self) -> int:
        return N_SPECIAL + len(self.token_to_id)

    # -- encoding -----------------------------------------------------------

    def _bpe_piece(self, piece: str) -> tuple[int, ...]:
        cached = self._piece_cache.get(piece)
        if cached is not None:
            return cached
        symbols = list(_text_to_symbols(piece))
        while len(symbols) > 1:
            best_rank = None
            best_idx = -1
            for i in range(len(symbols) - 1):
                rank = self._merge_ranks.get((symbols[i], symbols[i + 1]))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
                    best_idx = i
            if best_rank is None:
                break
            merged = symbols[best_idx] + symbols[best_idx + 1]
            symbols[best_idx : best_idx + 2] = [merged]
        ids = tuple(self.token_to_id[s] for s in symbols)
        self._piece_cache[piece] = ids
        return ids

    def encode(self, text: str) -> TokenSequence:
        """Encode plain text; byte-level fallback means there is never an OOV."""
        ids: list[int] = []
        for piece in _PIECE_RE.findall(text):
            ids.extend(self._bpe_piece(piece))
        return TokenSequence(ids=ids)

    def decode(self, seq: TokenSequence | list[int]) -> str:
        """Inverse of encode; special-token ids are skipped."""
        ids = seq.ids if isinstance(seq, TokenSequence) else seq
        data = bytearray()
        for i in ids:
            if i < N_SPECIAL:
                continue
            token = self._id_to_token.get(i)
            if token is None:
                raise ValidationError(f"unknown token id {i} (vocab size {self.vocab_size})")
            data.extend(_CHAR_TO_BYTE[c] for c in token)
        return data.decode("utf-8", errors="replace")

    def encode_pair(self, query: str, doc_text: str, max_len: int) -> TokenSequence:
        """[CLS] query-ids [SEP] doc-ids, truncated doc-first to max_len."""
        return TokenSequence(ids=self.encode_pairs(query, [doc_text], max_len)[0])

    def encode_pairs(self, query: str, doc_texts, max_len: int) -> list[list[int]]:
        """``encode_pair``'s id row for ``query`` with each of ``doc_texts``,
        encoding the query once: ``[CLS] query-ids [SEP] doc-ids`` in at most
        ``max_len`` ids. The doc is cut first, to the room the query leaves;
        a query that alone exceeds ``max_len - 2`` ids is cut to that, and
        its rows hold no doc ids."""
        if max_len < 4:
            raise ConfigurationError(f"max_len must be >= 4 for pair encoding, got {max_len}")
        q_ids = self.encode(query).ids
        budget = max_len - 2
        head = [CLS_ID] + q_ids[:budget] + [SEP_ID]
        room = max(0, budget - len(q_ids))
        return [head + self.encode(text).ids[:room] for text in doc_texts]

    def encode_single(self, text: str, max_len: int) -> TokenSequence:
        """[CLS] text-ids, truncated to max_len; the bi-encoder input layout."""
        if max_len < 1:
            raise ConfigurationError(f"max_len must be >= 1, got {max_len}")
        ids = [CLS_ID] + self.encode(text).ids[: max_len - 1]
        return TokenSequence(ids=ids)

    # -- persistence --------------------------------------------------------

    def to_json_bytes(self) -> bytes:
        payload = {
            "version": _FILE_VERSION,
            "special_tokens": SPECIAL_TOKENS,
            "vocab": self.token_to_id,
            "merges": [list(pair) for pair in self.merges],
        }
        return (json.dumps(payload, ensure_ascii=True, separators=(",", ":")) + "\n").encode("ascii")

    def content_hash(self) -> str:
        """Hash of the saved form, computed at construction: the tables never change."""
        return self._content_hash

    def save(self, path) -> None:
        atomic_write(path, self.to_json_bytes())


def load_tokenizer(path) -> Tokenizer:
    try:
        with open(path, "rb") as fh:
            payload = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested past the recursion limit
        raise ParseError(f"tokenizer file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "vocab" not in payload or "merges" not in payload:
        raise ParseError("tokenizer file missing 'vocab' or 'merges'")
    if payload.get("version") != _FILE_VERSION:
        raise ParseError(f"unsupported tokenizer file version {payload.get('version')!r}")
    if payload.get("special_tokens") != SPECIAL_TOKENS:
        raise ParseError("tokenizer file special_tokens table does not match this build")
    vocab, merges = payload["vocab"], payload["merges"]
    _check_tables(vocab, merges)
    return Tokenizer(token_to_id=vocab, merges=[tuple(pair) for pair in merges])


def _check_tables(vocab, merges) -> None:
    """Refuse tables ``train_bpe`` cannot write: ids other than the distinct
    integers right after the specials, a missing byte symbol, or a merge that
    is not two strings whose concatenation is a token."""
    if not isinstance(vocab, dict) or any(type(i) is not int for i in vocab.values()):
        raise ParseError("tokenizer vocab must map tokens to integer ids")
    if sorted(vocab.values()) != list(range(N_SPECIAL, N_SPECIAL + len(vocab))):
        raise ParseError(f"tokenizer vocab ids must be distinct and run from {N_SPECIAL} without gaps")
    if not all(c in vocab for c in _CHAR_TO_BYTE):
        raise ParseError(f"tokenizer vocab lacks some of the {N_BYTE_SYMBOLS} byte symbols")
    if not isinstance(merges, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(isinstance(t, str) for t in pair)
        and pair[0] + pair[1] in vocab
        for pair in merges
    ):
        raise ParseError("tokenizer merges must be pairs of strings that join to a vocab token")


def _piece_counts(corpus: Iterable[str]) -> Counter:
    """How often each whitespace-delimited piece occurs in ``corpus``: an
    iterable, not itself a ``str``, of at least one ``str`` line."""
    if isinstance(corpus, str):
        raise ValidationError("corpus must be an iterable of lines, not one str")
    counts = Counter()
    n_lines = 0
    for n_lines, line in enumerate(corpus, 1):
        if not isinstance(line, str):
            raise ValidationError(f"corpus line {n_lines} is a {type(line).__name__}, not a str")
        counts.update(_PIECE_RE.findall(line))
    if not n_lines:
        raise EmptyInputError("cannot train a tokenizer on an empty corpus")
    return counts


def train_bpe(corpus: Iterable[str], vocab_size: int) -> Tokenizer:
    """Train a byte-level BPE tokenizer on ``corpus``, an iterable of lines.

    Greedy most-frequent-pair merging over whitespace-delimited pieces;
    equal-frequency ties break to the lexicographically smallest pair so
    retraining is reproducible. Stops once the vocabulary reaches
    ``vocab_size``, no pair is left, or the most frequent pair occurs once.

    The pair counts are counted once and then kept up to date. Each pair
    knows the pieces that hold it; a merge subtracts the pairs of only those
    pieces, merges each of them left to right and adds their new pairs back.
    The next pair is the top of a max-heap keyed ``(-count, pair)``, where an
    entry whose count is stale is dropped when it reaches the top. So a merge
    costs the pieces that hold its pair, not the corpus, and the merges, their
    order and the vocabulary are those of recounting every pair per merge.
    """
    piece_counts = _piece_counts(corpus)
    if isinstance(vocab_size, bool) or not isinstance(vocab_size, (int, np.integer)):
        raise ConfigurationError(f"vocab_size must be an integer, got {vocab_size!r}")
    min_size = N_SPECIAL + N_BYTE_SYMBOLS
    if vocab_size <= min_size:
        raise ConfigurationError(
            f"vocab_size must exceed {min_size} (256 byte symbols + {N_SPECIAL} specials), got {vocab_size}"
        )

    token_to_id: dict[str, int] = {}
    for b in range(N_BYTE_SYMBOLS):
        token_to_id[_BYTE_TO_CHAR[b]] = N_SPECIAL + b

    pieces = sorted(piece_counts)
    words = [list(_text_to_symbols(piece)) for piece in pieces]
    freqs = [piece_counts[piece] for piece in pieces]
    pair_counts: dict[tuple[str, str], int] = defaultdict(int)
    # the pieces that hold each pair; a piece that no longer holds it is
    # merged to the same symbols and gives back the pairs it took away
    holders: dict[tuple[str, str], set[int]] = defaultdict(set)
    for w, symbols in enumerate(words):
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] += freqs[w]
            holders[pair].add(w)
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    while N_SPECIAL + len(token_to_id) < vocab_size:
        while heap and pair_counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)  # a count that has changed since the push
        if not heap or -heap[0][0] < 2:
            break
        # lexicographically smallest among the most frequent pairs
        best_pair = heapq.heappop(heap)[1]
        left, right = best_pair
        merged = left + right
        merges.append(best_pair)
        token_to_id[merged] = N_SPECIAL + len(token_to_id)
        before: dict[tuple[str, str], int] = {}
        for w in holders.pop(best_pair):
            symbols, count = words[w], freqs[w]
            for pair in zip(symbols, symbols[1:]):
                before.setdefault(pair, pair_counts[pair])
                pair_counts[pair] -= count
            i = 0
            while i < len(symbols) - 1:
                if symbols[i] == left and symbols[i + 1] == right:
                    symbols[i : i + 2] = [merged]
                else:
                    i += 1
            for pair in zip(symbols, symbols[1:]):
                before.setdefault(pair, pair_counts[pair])
                pair_counts[pair] += count
                holders[pair].add(w)
        for pair, old in before.items():
            count = pair_counts[pair]
            if not count:
                del pair_counts[pair]
            elif count != old:
                heapq.heappush(heap, (-count, pair))
    return Tokenizer(token_to_id=token_to_id, merges=merges)


def mask_for_mlm(
    seq: TokenSequence, rate: float = 0.15, seed: int = 0
) -> tuple[TokenSequence, list[int]]:
    """Replace each non-special position by MASK independently with prob ``rate``.

    Returns the masked sequence and a label list carrying the original id at
    masked positions and ``UNMASKED`` (-1) elsewhere. Deterministic given seed.
    """
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"mask rate must lie in [0, 1], got {rate}")
    ids = np.asarray(seq.ids, dtype=np.int64)
    chosen = (ids >= N_SPECIAL) & (np.random.default_rng(seed).random(ids.size) < rate)
    return TokenSequence(ids=np.where(chosen, MASK_ID, ids).tolist()), np.where(chosen, ids, UNMASKED).tolist()
