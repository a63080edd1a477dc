#!/usr/bin/env python3
"""Time student and teacher ranking and the store build, and record them in a BENCH file.

    python3 scripts/bench_rank.py [--src DIR] [--label NAME] [--out FILE]

Three calls of ``serve.rank_with_student`` and two of
``serve.rank_with_teacher`` are timed, each from the call to its return (wall
time, so the part outside the library's own timed window counts too):

- ``full_21000``: the whole of a 21,000-doc store ranked (the store size of
  the benchmark's ``query_stream`` full-catalog rank);
- ``top10_100000``: the first 10 rows of a whole 100,000-doc store. Code
  without a ``k`` argument ranks the whole store and keeps the first 10;
- ``gather_30``: 30 candidates out of the 21,000-doc store, in request order;
- ``teacher_30``: the cross-encoder over 30 candidates whose pairs with the
  query are 8 to 13 tokens long (10 on average), the serving shape of a
  teacher rank. They hold 22 distinct texts, so eight rows repeat a text;
- ``teacher_30_distinct``: the cross-encoder over 30 distinct texts of the
  same kind, a list in which no row repeats a text.

One call of ``serve.precompute_embeddings`` is timed the same way:

- ``build_10500``: the store build for the 10,500 documents of a 350-query
  ``generate_synthetic`` catalog (the catalog size of the benchmark's
  ``catalog_index`` store build), with a tokenizer trained on that catalog.
  It runs after the rank calls have freed their stores, so it times builds
  that take few page faults, not a fresh process's first build.

The store it builds is then written and read back through one file:

- ``save_store_10500``: ``serve.save_store`` of that store, with the size
  and a digest of the file it writes;
- ``load_store_10500``: ``serve.load_store`` of that file, with a digest of
  the vectors it reads, which must agree with the build's.

The student and the teacher are untrained checkpoints at the default encoder
shape (d=64, 2 layers, FFN 256); the ranked store vectors are seeded float32
normals, under ids in the synthetic dataset's ``qNNNNN_dNN`` form and in its
order. ``--src`` names the directory holding the ``listrank`` package to
time (default: this checkout's ``src``), so two versions can be timed with
one script. BLAS threads are pinned to one.

The record stamps the environment and the CPU. For each rank call it holds
the median and quartiles of the wall time and of the library's
``latency_ms`` over clean repetitions after a warmup, and a digest of the
ranking, which must agree between versions that compute the same scores. The
build holds the wall time, its document and distinct text counts, and a
digest of the store vectors, which must agree between versions that embed
the same bytes; the store writes and reads hold the wall time and the
digests named above. Without ``--out`` the record is printed. With it, the
record is appended to the runs kept under ``--label`` in ``FILE`` (other
labels are kept), and ``across_runs`` is recomputed: for each call, the
median and range over the runs of their wall and latency medians, and every
digest seen. A record whose ``code_digest`` differs from that of the label's
runs starts a new list of runs, so one label never mixes two versions of the
code. Each run is one process, and the same code's medians can differ by 2x
between processes on a shared machine, so compare versions by runs taken in
alternating order, not by one run each. The ``across_runs`` of every label
is then printed.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
QUERY = "tademibe bimu tofu kesuna"
WORDS = QUERY.split()
WARMUP = 3
REPS = 41
BUILD_REPS = 11


def _quartiles(values_ms) -> dict:
    q1, median, q3 = statistics.quantiles(values_ms, n=4, method="inclusive")
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3}


def _store(serve, fingerprint: str, n_docs: int, dim: int):
    ids = [f"q{k // 30:05d}_d{k % 30:02d}" for k in range(n_docs)]
    vectors = np.random.default_rng([n_docs, dim]).standard_normal((n_docs, dim)).astype(np.float32)
    return serve.EmbeddingStore(fingerprint=fingerprint, doc_ids=ids, vectors=vectors)


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _timed(call, reps: int, read):
    """Run ``call`` ``WARMUP`` times, then ``reps`` times timed; returns the
    wall times in ms, ``read`` of each timed result, and the last result."""
    for _ in range(WARMUP):
        call()
    wall, reads = [], []
    for _ in range(reps):
        t = time.perf_counter()
        result = call()
        wall.append((time.perf_counter() - t) * 1000.0)
        reads.append(read(result))
    return wall, reads, result


def bench_call(rank, k, native_k: bool) -> dict:
    """Time ``rank(k)``, or ``rank()`` cut to its first ``k`` rows without ``native_k``."""
    def call():
        if native_k:
            return rank(k)
        result = rank()
        result.ranking = result.ranking[:k]
        return result

    wall, latency, result = _timed(call, REPS, lambda r: r.latency_ms)
    return {
        "rows": len(result.ranking),
        "ranking_digest": _digest(repr(result.ranking).encode()),
        "repetitions": REPS,
        "wall": _quartiles(wall),
        "latency": _quartiles(latency),
    }


def bench_build(build, docs) -> tuple[dict, object]:
    """Time ``build(docs)``, a store build; returns the record and the store."""
    wall, _, store = _timed(lambda: build(docs), BUILD_REPS, lambda s: None)
    return {
        "rows": len(store),
        "texts": len({d.text for d in docs}),
        "store_digest": _digest(store.vectors.tobytes()),
        "repetitions": BUILD_REPS,
        "wall": _quartiles(wall),
    }, store


def bench_store_io(serve, store) -> dict:
    """Time ``save_store`` of ``store`` and ``load_store`` of the file it writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "docs.store")
        save_wall, _, _ = _timed(lambda: serve.save_store(store, path), REPS, lambda r: None)
        load_wall, _, loaded = _timed(lambda: serve.load_store(path), REPS, lambda r: None)
        blob = Path(path).read_bytes()
    return {
        "save_store_10500": {"rows": len(store), "bytes": len(blob), "file_digest": _digest(blob),
                             "repetitions": REPS, "wall": _quartiles(save_wall)},
        "load_store_10500": {"rows": len(loaded), "store_digest": _digest(loaded.vectors.tobytes()),
                             "repetitions": REPS, "wall": _quartiles(load_wall)},
    }


def _cpu() -> str:
    """The CPU model, and whether it has the SHA extensions that the file
    hash runs on (Linux), else ``platform.processor()``."""
    try:
        info = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor()
    model = next((line.split(":", 1)[1].strip() for line in info.splitlines() if line.startswith("model name")), "")
    return f"{model}, {'with' if ' sha_ni' in info else 'without'} sha_ni"


def _random_text(rng) -> str:
    """1 to 4 of ``WORDS``, drawn with replacement."""
    return " ".join(rng.choice(WORDS, size=rng.integers(1, 5)))


def _spread(values) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def across_runs(runs) -> dict:
    """Per call: the median and range of the runs' wall and latency medians,
    and the sorted distinct ranking, store or file digests the runs recorded."""
    summary = {}
    for name in runs[-1]["calls"]:
        done = [run["calls"][name] for run in runs if name in run["calls"]]
        summary[name] = {
            "wall_median_ms": _spread([call["wall"]["median_ms"] for call in done]),
            "digests": sorted({next(v for k, v in call.items() if k.endswith("_digest")) for call in done}),
        }
        if all("latency" in call for call in done):
            summary[name]["latency_median_ms"] = _spread([call["latency"]["median_ms"] for call in done])
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the listrank package")
    p.add_argument("--label", default="change", help="key of the record in --out")
    p.add_argument("--out", type=Path, help="BENCH JSON file to store the record in")
    args = p.parse_args(argv)
    src = args.src.resolve()
    if not (src / "listrank" / "__init__.py").is_file():
        p.error(f"{src} holds no listrank package")
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from checks import environment
    from listrank import encoder as enc, serve, training
    from listrank.dataset import Document, SyntheticSpec, corpus_lines, generate_synthetic
    from listrank.tokenizer import train_bpe

    tokenizer = train_bpe([QUERY, "bimu kesuna tofu", "tademibe tofu"], 300)
    config = enc.EncoderConfig(vocab_size=tokenizer.vocab_size)
    student = training.init_checkpoint(config, seed=0, tokenizer_hash=tokenizer.content_hash())
    fingerprint = training.checkpoint_fingerprint(student)
    native_k = "k" in inspect.signature(serve.rank_with_student).parameters

    def ranker(store, candidates):
        def rank(*k):
            return serve.rank_with_student(student, store, QUERY, candidates, tokenizer, *k)
        return rank

    calls = {}
    store = _store(serve, fingerprint, 21000, config.model_dim)
    calls["full_21000"] = bench_call(ranker(store, store.doc_ids), None, native_k)
    picks = np.random.default_rng(30).choice(len(store), size=30, replace=False)
    calls["gather_30"] = bench_call(ranker(store, [store.doc_ids[i] for i in picks]), None, native_k)
    del store
    store = _store(serve, fingerprint, 100000, config.model_dim)
    calls["top10_100000"] = bench_call(ranker(store, store.doc_ids), 10, native_k)
    del store

    teacher = training.init_checkpoint(config, seed=1, tokenizer_hash=tokenizer.content_hash())
    rng = np.random.default_rng(10)
    texts = [_random_text(rng) for _ in range(30)]
    distinct, rng = {}, np.random.default_rng(30)
    while len(distinct) < 30:
        distinct.setdefault(_random_text(rng), None)
    for name, listed in (("teacher_30", texts), ("teacher_30_distinct", list(distinct))):
        docs = [Document(f"d{i:02d}", text) for i, text in enumerate(listed)]
        calls[name] = bench_call(lambda *k, docs=docs: serve.rank_with_teacher(teacher, QUERY, docs, tokenizer, *k),
                                 None, native_k)

    catalog = generate_synthetic(SyntheticSpec(n_queries=350))
    catalog_tokenizer = train_bpe(corpus_lines(catalog), 1200)
    indexer = training.init_checkpoint(enc.EncoderConfig(vocab_size=catalog_tokenizer.vocab_size), seed=0,
                                       tokenizer_hash=catalog_tokenizer.content_hash())
    calls["build_10500"], store = bench_build(
        lambda docs: serve.precompute_embeddings(indexer, docs, catalog_tokenizer),
        [d for g in catalog.groups for d in g.docs])
    calls.update(bench_store_io(serve, store))

    record = {
        "code_digest": _digest(b"".join(f.read_bytes() for f in sorted((src / "listrank").glob("*.py")))),
        "environment": environment(THREAD_VARS),
        "cpu": _cpu(),
        "native_k": native_k,
        "calls": calls,
    }
    if args.out is None:
        print(json.dumps(record, indent=1, sort_keys=True))
        return 0
    known = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs = [run for run in known.get(args.label, {}).get("runs", []) if run["code_digest"] == record["code_digest"]]
    runs.append(record)
    known[args.label] = {"runs": runs, "across_runs": across_runs(runs)}
    args.out.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    for label, kept in sorted(known.items()):
        if "across_runs" not in kept:
            continue
        for name, summary in sorted(kept["across_runs"].items()):
            wall = summary["wall_median_ms"]
            print(f"{label:>8} {name:<20} {len(kept['runs'])} runs: wall median {wall['median']:.4g} ms "
                  f"[{wall['min']:.4g}, {wall['max']:.4g}], digests {', '.join(summary['digests'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
