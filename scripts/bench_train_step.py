#!/usr/bin/env python3
"""Time one fine-tune step of the encoder and BPE training; record both in a BENCH file.

    python3 scripts/bench_train_step.py [--src DIR] [--label NAME] [--out FILE]

One step is what ``finetune_ltr`` does per batch: ``score_cls_batch``, then
``score_cls_backward`` and ``adam_step``, at the default encoder shape (d=64,
2 layers, FFN 256) over 240 sequences of 10 tokens (the benchmark's
fine-tune batch) and of 40 tokens. ``--src`` names the directory holding the
``listrank`` package to time (default: this checkout's ``src``), so two
versions can be timed with one script. BLAS threads are pinned to one.

For each shape the record holds the median and quartiles of the forward,
backward, Adam and whole-step times over clean repetitions, the minor page
faults per step, and the GELU and layer-norm share of the step, timed in
separate repetitions by wrapping the encoder's ``_gelu``, ``_gelu_grad``,
``_layer_norm`` and ``_layer_norm_backward``. As in ``training._train``,
each step's trace is freed once the next step's forward has run.

``train_bpe`` is timed on two synthetic corpora: the benchmark's
``train_pipeline`` training part at seed 1 (32 queries, 992 lines) at a
vocabulary of 1,200, and a 700-query catalog with 4,000 attribute words
(21,700 lines) at 1,200 and 4,000. Each case records the median and
quartiles of a few repetitions, the number of merges and the tokenizer's
content hash, which two versions that train the same tokenizer share.

Without ``--out`` the record is printed; with it, the record is stored under
``--label`` in ``FILE`` (other labels are kept).
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SHAPES = ((240, 10, 40), (240, 40, 15))  # sequences, tokens, clean repetitions
KERNELS = ("_gelu", "_gelu_grad", "_layer_norm", "_layer_norm_backward")
WARMUP = 3
TRAIN_PIPELINE_CORPUS = dict(n_queries=32, list_size=30, seed=3)  # perfbench's _data(1, 32, 0)
CATALOG_CORPUS = dict(n_queries=700, list_size=30, attribute_vocab_size=4000, seed=0)
BPE_CASES = ((TRAIN_PIPELINE_CORPUS, 1200, 9), (CATALOG_CORPUS, 1200, 3), (CATALOG_CORPUS, 4000, 3))


def _quartiles(values_s) -> dict:
    q1, median, q3 = statistics.quantiles([v * 1000.0 for v in values_s], n=4, method="inclusive")
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3}


def bench_shape(enc, training, n_seqs: int, length: int, reps: int) -> dict:
    config = enc.EncoderConfig()
    rng = np.random.default_rng([n_seqs, length])
    ids = rng.integers(5, config.vocab_size, size=(n_seqs, length))
    ids[:, 0] = enc.CLS_ID
    mask = np.ones_like(ids)
    d_scores = rng.normal(size=n_seqs) / n_seqs
    params = enc.init_params(config, seed=0)
    state = training.init_adam_state(params)
    train_config = training.TrainConfig()
    held = [None]  # the last step's trace, freed once the next forward has run, as in training._train

    def step(times):
        t0 = time.perf_counter()
        _, held[0] = enc.score_cls_batch(params, config, ids, mask)
        t1 = time.perf_counter()
        grads = enc.score_cls_backward(params, config, held[0], d_scores)
        t2 = time.perf_counter()
        training.adam_step(params, grads, state, train_config)
        t3 = time.perf_counter()
        if times is not None:
            for key, value in zip(("forward", "backward", "adam", "step"), (t1 - t0, t2 - t1, t3 - t2, t3 - t0)):
                times[key].append(value)

    for _ in range(WARMUP):
        step(None)
    times = {k: [] for k in ("forward", "backward", "adam", "step")}
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(reps):
        step(times)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

    spent = {k: 0.0 for k in KERNELS}
    originals = {k: getattr(enc, k) for k in KERNELS}

    def timed(name, fn):
        def wrapper(*args):
            t = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[name] += time.perf_counter() - t
        return wrapper

    for name, fn in originals.items():
        setattr(enc, name, timed(name, fn))
    try:
        wrapped = {k: [] for k in ("forward", "backward", "adam", "step")}
        for _ in range(reps):
            step(wrapped)
    finally:
        for name, fn in originals.items():
            setattr(enc, name, fn)
    del held
    wrapped_step = sum(wrapped["step"])
    return {
        "sequences": n_seqs,
        "tokens": length,
        "repetitions": reps,
        **{k: _quartiles(v) for k, v in times.items()},
        "minor_faults_per_step": faults / reps,
        "kernels_ms_per_step": {k: 1000.0 * v / reps for k, v in spent.items()},
        "share_of_step": {
            "gelu": (spent["_gelu"] + spent["_gelu_grad"]) / wrapped_step,
            "layer_norm": (spent["_layer_norm"] + spent["_layer_norm_backward"]) / wrapped_step,
        },
    }


def bench_train_bpe(dataset, tokenizer, spec: dict, vocab_size: int, reps: int) -> dict:
    lines = dataset.corpus_lines(dataset.generate_synthetic(dataset.SyntheticSpec(**spec)))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        trained = tokenizer.train_bpe(lines, vocab_size)
        times.append(time.perf_counter() - t0)
    return {
        "corpus": spec,
        "lines": len(lines),
        "vocab_size": vocab_size,
        "repetitions": reps,
        "merges": len(trained.merges),
        "content_hash": trained.content_hash(),
        "train_bpe": _quartiles(times),
    }


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
    from listrank import dataset, encoder as enc, tokenizer, training

    record = {
        "code_digest": hashlib.blake2b(b"".join(f.read_bytes() for f in sorted((src / "listrank").glob("*.py"))),
                                       digest_size=16).hexdigest(),
        "environment": environment(THREAD_VARS),
        "shapes": [bench_shape(enc, training, *shape) for shape in SHAPES],
        "train_bpe": [bench_train_bpe(dataset, tokenizer, *case) for case in BPE_CASES],
    }
    if args.out is None:
        print(json.dumps(record, indent=1, sort_keys=True))
        return 0
    known = json.loads(args.out.read_text()) if args.out.exists() else {}
    known[args.label] = record
    args.out.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
