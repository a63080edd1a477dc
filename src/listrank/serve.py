"""Serving paths and latency measurement.

The teacher serves a query by running the cross-encoder once per distinct
candidate text. The student embeds documents ahead of time into an
EmbeddingStore (float32 on disk), so serving a query costs one encoder
forward for the query plus dot products against precomputed vectors.
``benchmark_latency`` runs both systems over the identical workload and
reports the speedup.

Store files use the shared ``fileio`` frame: a JSON header with the width,
the fingerprint of the checkpoint that built the vectors and the doc id
table, then the float32 vectors, then a hash of every byte before it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _refuse_duplicates, valid_doc_ids
from .errors import ConfigurationError, EmptyInputError, MissingIdError, StoreError, ValidationError
from .fileio import FrameFormat, read_framed, write_framed
from .metrics import nearest_rank_percentile, score_order, str_rank
from .tokenizer import Tokenizer
from .training import (
    Checkpoint,
    _check_tokenizer,
    checkpoint_fingerprint,
    embed_texts,
    score_pairs,
)

STORE_FORMAT = FrameFormat("store", b"LREMB001", 4, StoreError)


@dataclass
class EmbeddingStore:
    """Document embeddings plus the id table used to look them up."""

    fingerprint: str
    doc_ids: list
    vectors: np.ndarray

    def __post_init__(self):
        """Refuse what ``load_store`` would refuse to read back: ids that are
        not distinct ``valid_doc_ids``, or vectors that are not one row per id."""
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2 or len(self.vectors) != len(self.doc_ids):
            raise ValidationError(
                f"vectors shape {self.vectors.shape} is not one row for each of {len(self.doc_ids)} ids"
            )
        if not valid_doc_ids(self.doc_ids):
            raise ValidationError("store doc ids must be non-empty strings without a comma or a line break")
        self._index = dict(zip(self.doc_ids, range(len(self.doc_ids))))
        if len(self._index) != len(self.doc_ids):
            _refuse_duplicates(self.doc_ids, "store doc ids")
        self._id_tables = None

    @property
    def dim(self) -> int:
        """Width of the vectors."""
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.doc_ids)

    def gather(self, doc_ids) -> tuple[np.ndarray, np.ndarray]:
        """Store rows of a sequence of ids and their vectors, in request order."""
        try:
            rows = np.fromiter(map(self._index.__getitem__, doc_ids), dtype=np.intp, count=len(doc_ids))
        except KeyError:
            missing = sorted({d for d in doc_ids if d not in self._index})
            raise MissingIdError(f"doc ids missing from the store: {', '.join(missing)}") from None
        return rows, self.vectors[rows]

    def id_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(id_rank, id_array)``: the position of each stored doc_id in
        ascending ``str`` order, and the ids as an object array.

        Built on first use, so loading a store does not pay for them.
        """
        if self._id_tables is None:
            self._id_tables = str_rank(self.doc_ids), np.array(self.doc_ids, dtype=object)
        return self._id_tables


def precompute_embeddings(student: Checkpoint, catalog, tokenizer: Tokenizer) -> EmbeddingStore:
    """The store of ``embed_texts`` over the catalog's texts, as float32 rows
    under the student's fingerprint. The catalog's ids are checked before
    any forward runs."""
    _check_tokenizer(student, tokenizer)
    catalog = list(catalog)
    if not catalog:
        raise EmptyInputError("catalog is empty")
    store = EmbeddingStore(fingerprint=checkpoint_fingerprint(student), doc_ids=[d.doc_id for d in catalog],
                           vectors=np.empty((len(catalog), student.config.model_dim), dtype=np.float32))
    store.vectors[:] = embed_texts(student, tokenizer, [d.text for d in catalog])
    return store


def save_store(store: EmbeddingStore, path: str) -> None:
    """Write width, fingerprint and doc ids, then the float32 vectors."""
    header = {"dim": store.dim, "fingerprint": store.fingerprint, "doc_ids": store.doc_ids}
    # bytes.join reads the array's buffer, so no tobytes copy is needed
    write_framed(path, STORE_FORMAT, header, np.ascontiguousarray(store.vectors, dtype="<f4"))


def load_store(path: str) -> EmbeddingStore:
    """Read a store file; ``EmbeddingStore`` checks its ids once, after the hash."""
    def payload_bytes(header):
        dim, fingerprint, doc_ids = (header.get(k) for k in ("dim", "fingerprint", "doc_ids"))
        if not (type(dim) is int and dim >= 0 and isinstance(fingerprint, str) and isinstance(doc_ids, list)):
            raise StoreError(f"{path}: header needs an integer dim, a fingerprint and a doc id list")
        return 4 * dim * len(doc_ids)

    header, payload = read_framed(path, STORE_FORMAT, payload_bytes)
    doc_ids, dim = header["doc_ids"], header["dim"]
    vectors = np.frombuffer(payload, dtype="<f4").reshape(len(doc_ids), dim).copy()
    try:
        return EmbeddingStore(fingerprint=header["fingerprint"], doc_ids=doc_ids, vectors=vectors)
    except ValidationError as exc:
        raise StoreError(f"{path}: header needs valid doc ids: {exc}") from None


# -- ranking ----------------------------------------------------------------


@dataclass
class RankResult:
    """Candidates ordered by descending score (ties by ascending doc_id)."""

    ranking: list
    latency_ms: float


#: Rows upcast to float64 at a time when documents are scored: 512 KiB at the
#: default width, so the float64 rows stay in cache.
SCORE_BLOCK = 1024


def _check_k(k):
    if k is not None and (isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1):
        raise ConfigurationError(f"rank cutoff k must be a positive integer, got {k!r}")


def _scores(vectors: np.ndarray, query_vec: np.ndarray) -> np.ndarray:
    """``vectors.astype(np.float64) @ query_vec``, upcast ``SCORE_BLOCK`` rows
    at a time. The last block takes the remainder, so fewer than
    ``2 * SCORE_BLOCK`` rows are one product, taken without the block loop,
    and no block holds fewer than ``SCORE_BLOCK``.

    The blocks give the single product's bits (``test_serve``) because of
    how the product rounds. BLAS's matrix-vector kernel scores the last
    ``len % 4`` rows of a product on a separate path, and numpy scores a
    one-row product with its own dot; every other row gets the same bits in
    any product (OpenBLAS 0.3.31, Haswell, one thread). ``SCORE_BLOCK`` is a
    multiple of 4, so only the last block has such a tail, and it is the
    whole product's tail. A gathered candidate list has a tail of its own:
    its last ``len % 4`` scores can differ in their low bits from the same
    documents' scores in a whole-store rank."""
    n = len(vectors)
    if n < 2 * SCORE_BLOCK:
        return vectors.astype(np.float64) @ query_vec
    scores = np.empty(n)
    start = 0
    for end in [*range(SCORE_BLOCK, n - SCORE_BLOCK + 1, SCORE_BLOCK), n]:
        np.matmul(vectors[start:end].astype(np.float64), query_vec, out=scores[start:end])
        start = end
    return scores


def _sorted_ranking(doc_ids, id_rank, scores, k=None):
    """(doc_id, score) pairs by descending score, ties by ascending doc_id;
    the first ``k`` pairs only, when ``k`` is given.

    ``id_rank[i]`` orders ``doc_ids[i]`` among the candidates by ``str``
    order. ``doc_ids`` is a sequence or an object array.
    """
    order = score_order(scores, id_rank, k)
    return list(zip(np.asarray(doc_ids, dtype=object)[order].tolist(), scores[order].tolist()))


def rank_with_student(
    student: Checkpoint,
    store: EmbeddingStore,
    query: str,
    candidate_ids,
    tokenizer: Tokenizer,
    k: int | None = None,
) -> RankResult:
    """Rank candidates by dot product of the query embedding with stored
    document vectors; with ``k``, return the first ``k`` rows of that ranking.

    A candidate list equal to ``store.doc_ids`` is the whole store: its rows
    are every row in order and its ids are distinct, so it skips the gather
    and the duplicate check. Any other list is checked for duplicate ids,
    which are reported before missing ones, and then gathered.

    The timed window covers that choice, the duplicate check and the gather
    of the candidates' vectors, query encoding, the float64 upcast and
    scoring, the sort (or top-k selection) and building the ``(doc_id,
    score)`` list. It excludes the input checks, store loading, and building
    the store's id tables, which its first rank does."""
    _check_k(k)
    _check_tokenizer(student, tokenizer)
    if store.dim != student.config.model_dim:
        raise ValidationError(
            f"store vectors have width {store.dim}, but the student embeds "
            f"to width {student.config.model_dim}"
        )
    candidate_ids = list(candidate_ids)
    if not candidate_ids:
        return RankResult([], 0.0)
    id_rank, id_array = store.id_tables()
    start = time.perf_counter()
    if candidate_ids == store.doc_ids:  # list equality is O(1) when the lengths differ
        rows, vectors, doc_ids = slice(None), store.vectors, id_array
    else:
        _refuse_duplicates(candidate_ids, "candidate ids")
        (rows, vectors), doc_ids = store.gather(candidate_ids), candidate_ids
    scores = _scores(vectors, embed_texts(student, tokenizer, [query])[0])
    ranking = _sorted_ranking(doc_ids, id_rank[rows], scores, k)
    latency_ms = (time.perf_counter() - start) * 1000.0
    return RankResult(ranking, latency_ms)


def rank_with_teacher(
    teacher: Checkpoint,
    query: str,
    candidates,
    tokenizer: Tokenizer,
    k: int | None = None,
) -> RankResult:
    """Rank candidate documents with the cross-encoder, run over the query's
    pair with each distinct candidate text (``score_pairs``); with ``k``,
    return the first ``k`` rows of that ranking. Candidates with identical
    texts share one [CLS] state.

    The timed window covers pair encoding, the forward, and the sort.
    """
    _check_k(k)
    _check_tokenizer(teacher, tokenizer)
    candidates = list(candidates)
    doc_ids = [d.doc_id for d in candidates]
    _refuse_duplicates(doc_ids, "candidate ids")
    if not candidates:
        return RankResult([], 0.0)
    start = time.perf_counter()
    scores = score_pairs(teacher, tokenizer, query, [d.text for d in candidates])
    ranking = _sorted_ranking(doc_ids, str_rank(doc_ids), scores, k)
    latency_ms = (time.perf_counter() - start) * 1000.0
    return RankResult(ranking, latency_ms)


# -- benchmarking -----------------------------------------------------------


@dataclass
class LatencyStats:
    """Per-query latency of one system; percentiles are nearest-rank."""

    mean_ms: float
    median_ms: float
    p90_ms: float
    p10_ms: float
    iqr_ms: float
    #: Collections the garbage collector ran during the measured ranks, one
    #: count per generation (``gc.get_stats()`` after less before).
    gc_collections: tuple = ()

    @property
    def per_second(self) -> float:
        """Queries per second at the mean latency."""
        return 1000.0 / self.mean_ms


@dataclass
class BenchmarkReport:
    teacher: LatencyStats
    student: LatencyStats

    @property
    def speedup(self) -> float:
        """Teacher mean latency over student mean latency."""
        return self.teacher.mean_ms / self.student.mean_ms

    def to_csv(self) -> str:
        lines = ["system,mean_ms,median_ms,p90_ms,speedup_vs_teacher"]
        for name, stats, speedup in (
            ("teacher", self.teacher, 1.0),
            ("student", self.student, self.speedup),
        ):
            lines.append(
                f"{name},{stats.mean_ms:.6g},{stats.median_ms:.6g},{stats.p90_ms:.6g},{speedup:.6g}"
            )
        return "\n".join(lines) + "\n"


def _stats(latencies, gc_collections) -> LatencyStats:
    return LatencyStats(
        mean_ms=float(np.mean(latencies)),
        median_ms=nearest_rank_percentile(latencies, 50.0),
        p90_ms=nearest_rank_percentile(latencies, 90.0),
        p10_ms=nearest_rank_percentile(latencies, 10.0),
        iqr_ms=nearest_rank_percentile(latencies, 75.0) - nearest_rank_percentile(latencies, 25.0),
        gc_collections=gc_collections,
    )


def _measure(rank, workload, warmup: int) -> LatencyStats:
    """``rank(query, docs)`` over the workload; the stats of its measured
    ranks, the ones after the first ``warmup``, and the garbage collections
    run during them."""
    latencies = []
    for i, (query, docs) in enumerate(workload):
        if i == warmup:
            before = gc.get_stats()
        latency_ms = rank(query, docs).latency_ms
        if i >= warmup:
            latencies.append(latency_ms)
    collections = tuple(a["collections"] - b["collections"] for a, b in zip(gc.get_stats(), before))
    return _stats(latencies, collections)


#: The most queries, warmup included, one ``benchmark_latency`` run draws.
MAX_BENCH_QUERIES = 100_000


def benchmark_workload(dataset: Dataset, n_queries: int, list_size: int, seed: int, warmup: int):
    """Deterministic query sample: (query_text, documents) tuples, warmup
    items first. Groups are drawn with replacement so any n_queries works."""
    if not dataset.groups:
        raise EmptyInputError("benchmark dataset has no query groups")
    rng = np.random.default_rng([seed, 4001])
    picks = rng.integers(0, len(dataset.groups), size=warmup + n_queries)
    workload = []
    for gi in picks:
        group = dataset.groups[int(gi)]
        docs = list(group.docs[:list_size])
        workload.append((group.query_text, docs))
    return workload


def benchmark_latency(
    teacher: Checkpoint,
    student: Checkpoint,
    store: EmbeddingStore,
    dataset: Dataset,
    tokenizer: Tokenizer,
    n_queries: int = 100,
    list_size: int = 30,
    seed: int = 0,
    warmup: int = 10,
) -> BenchmarkReport:
    """Measure per-query latency of both systems over the same workload.

    The teacher ranks the whole workload, then the student does, each in a
    loop of its own, as a server running one model would. The first
    ``warmup`` queries are run but excluded from statistics. The workload is
    drawn whole before any query runs, and both systems rank every query, so
    ``warmup + n_queries`` past ``MAX_BENCH_QUERIES`` is refused: at about
    3 ms per teacher rank of 30 (2-vCPU x86-64), 100,000 queries already
    take the teacher five minutes, and at 3·10**9 the draw alone asked for
    22.4 GiB.
    """
    if n_queries < 30:
        raise ConfigurationError("n_queries must be >= 30 for stable statistics")
    if list_size < 1:
        raise ConfigurationError("list_size must be >= 1")
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    if warmup < 0:
        raise ConfigurationError(f"warmup must be non-negative, got {warmup}")
    if warmup + n_queries > MAX_BENCH_QUERIES:
        raise ConfigurationError(f"warmup + n_queries must be at most {MAX_BENCH_QUERIES}, got {warmup + n_queries}")
    workload = benchmark_workload(dataset, n_queries, list_size, seed, warmup)

    return BenchmarkReport(
        teacher=_measure(lambda query, docs: rank_with_teacher(teacher, query, docs, tokenizer), workload, warmup),
        student=_measure(lambda query, docs: rank_with_student(student, store, query, [d.doc_id for d in docs],
                                                               tokenizer), workload, warmup),
    )
