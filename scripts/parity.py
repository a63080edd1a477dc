#!/usr/bin/env python3
"""Parity record: the bytes and floats of a tiny end-to-end run.

    python3 scripts/parity.py            # print this environment's record
    python3 scripts/parity.py --write    # fold it into tests/parity.json

The run takes about a second: a synthetic dataset (24 queries x 8 docs) and
its BPE tokenizer (vocab 300), masked-token pretraining at mask rates 0.15, 0
and 1, the held-out loss and the embeddings of every corpus line (more than
one forward's budget, so both run in chunks), fine-tuning with each of the
four list losses with per-epoch eval, distillation from the teacher and from
scratch, a store build, and a student and a teacher ranking. BLAS threads are
pinned to one before numpy loads.

The record holds the environment stamp (the fields of perfbench's
``environment()`` that decide floating-point results), the blake2 digest of
every file, history and ranking, and the float values (history losses, NDCG,
ranking scores). ``tests/test_parity.py`` compares the digests exactly on a
matching stamp and the floats within ``RTOL``/``ATOL`` on any stamp.
``--write`` replaces the digests of this stamp, keeps those of other stamps,
and replaces the floats; on stderr it names every digest of this stamp that
changed and every float list that moved outside the tolerance.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from checks import environment  # noqa: E402
from listrank import dataset, encoder as enc, serve, training  # noqa: E402
from listrank.tokenizer import train_bpe  # noqa: E402

RECORD = ROOT / "tests" / "parity.json"
#: Relative and absolute tolerance of the floats on another environment: a
#: one-ulp change of one constant moves them by far less than this in a
#: run this short, a wrong kernel or loop by far more.
RTOL, ATOL = 1e-6, 1e-9
STAMP_FIELDS = ("python", "numpy", "scipy", "blas", "threads", "machine")
CONFIG = enc.EncoderConfig(n_layers=2, n_heads=2, model_dim=16, ffn_dim=32, vocab_size=300, max_len=32)


def _digest(data) -> str:
    return hashlib.blake2b(data if isinstance(data, bytes) else repr(data).encode(), digest_size=16).hexdigest()


def _file_digest(save, obj, path: Path) -> str:
    save(obj, str(path))
    return _digest(path.read_bytes())


def stamp() -> dict:
    env = environment(THREAD_VARS)
    return {k: env[k] for k in STAMP_FIELDS}


def run(workdir: Path) -> dict:
    """Digests and float values of every phase, keyed by name."""
    digests, values = {}, {}

    def record(name, ckpt, history):
        digests[f"{name}.checkpoint"] = _file_digest(training.save_checkpoint, ckpt, workdir / f"{name}.ckpt")
        rows = [tuple(r.__dict__.values()) for r in history]
        digests[f"{name}.history"] = _digest(rows)
        values[f"{name}.history"] = [v for r in history for v in (r.loss_value, r.mean_ndcg) if v is not None]

    def ranking(name, result):
        digests[f"{name}.ranking"] = _digest(result.ranking)
        values[f"{name}.scores"] = [score for _, score in result.ranking]

    train = dataset.generate_synthetic(dataset.SyntheticSpec(n_queries=24, list_size=8, seed=11))
    evaluation = dataset.generate_synthetic(dataset.SyntheticSpec(n_queries=8, list_size=8, seed=12))
    digests["dataset"] = _file_digest(dataset.save_dataset, train, workdir / "train.jsonl")
    tokenizer = train_bpe(dataset.corpus_lines(train), CONFIG.vocab_size)
    digests["tokenizer"] = _file_digest(lambda t, p: t.save(p), tokenizer, workdir / "tokenizer.json")
    config = dataclasses.replace(CONFIG, vocab_size=tokenizer.vocab_size)

    corpus = dataset.corpus_lines(train)
    pretrained = None
    for rate in (0.15, 0.0, 1.0):
        ckpt, history = training.pretrain_mlm(
            corpus, tokenizer, config, training.TrainConfig(epochs=2, mask_rate=rate, seed=3))
        record(f"pretrain_mask{rate}", ckpt, history)
        pretrained = pretrained or ckpt

    # Forward only, over lines past CONFIG's budget of 4,096 padded tokens, so
    # both heads' inference forwards run in chunks.
    lines = corpus + dataset.corpus_lines(evaluation)
    heldout = training.evaluate_mlm(pretrained.params, [tokenizer.encode_single(line, config.max_len) for line in lines],
                                    0.15, [3, 7202])
    digests["chunked.evaluate_mlm"] = _digest(heldout.hex())
    values["chunked.evaluate_mlm"] = [heldout]
    digests["chunked.embed_texts"] = _digest(training.embed_texts(pretrained, tokenizer, lines).tobytes())

    teacher = None
    for loss in training.LOSS_NAMES:
        ckpt, history = training.finetune_ltr(
            train, pretrained, loss, training.TrainConfig(epochs=2, lr=1e-3, seed=4, approx_alpha=10.0),
            tokenizer, evaluation)
        record(f"finetune_{loss}", ckpt, history)
        if loss == "listmle":
            teacher = ckpt

    student = None
    for init_from_teacher in (True, False):
        ckpt, history = training.distill(
            teacher, train, training.TrainConfig(epochs=2, lr=1e-3, seed=5, init_from_teacher=init_from_teacher),
            tokenizer, evaluation)
        record("distill_teacher" if init_from_teacher else "distill_scratch", ckpt, history)
        student = student or ckpt

    store = serve.precompute_embeddings(student, [d for g in evaluation.groups for d in g.docs], tokenizer)
    digests["store"] = _file_digest(serve.save_store, store, workdir / "store.bin")
    group = evaluation.groups[0]
    ranking("rank_student", serve.rank_with_student(student, store, group.query_text, store.doc_ids, tokenizer))
    ranking("rank_teacher", serve.rank_with_teacher(teacher, group.query_text, group.docs, tokenizer))
    return {"environment": stamp(), "digests": digests, "values": values}


def merged(current: dict, known: dict) -> dict:
    """``known`` with ``current``'s floats and its stamp's digests."""
    entries = [e for e in known.get("digests", []) if e["environment"] != current["environment"]]
    entries.append({"environment": current["environment"], "digests": current["digests"]})
    return {"rtol": RTOL, "atol": ATOL, "values": current["values"], "digests": entries}


def changes(current: dict, known: dict) -> list:
    """One line per digest of ``current``'s stamp that differs from ``known``
    and per float list of ``current`` outside ``known``'s tolerance."""
    same = [e["digests"] for e in known.get("digests", []) if e["environment"] == current["environment"]]
    if not same:
        lines = ["digests: this environment had no entry; one is added"]
    else:
        old, new = same[0], current["digests"]
        lines = [f"digest changed: {k}" for k in sorted(old.keys() | new.keys()) if old.get(k) != new.get(k)]
    old_values, rtol, atol = known.get("values", {}), known.get("rtol", RTOL), known.get("atol", ATOL)
    for name in sorted(old_values.keys() | current["values"].keys()):
        was, now = old_values.get(name), current["values"].get(name)
        same_length = was is not None and now is not None and len(was) == len(now)
        if not (same_length and np.allclose(now, was, rtol=rtol, atol=atol, equal_nan=True)):
            lines.append(f"values changed: {name}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true", help=f"fold the record into {RECORD.relative_to(ROOT)}")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        current = run(Path(tmp))
    if args.write:
        known = json.loads(RECORD.read_text()) if RECORD.exists() else {}
        RECORD.write_text(json.dumps(merged(current, known), indent=1, sort_keys=True) + "\n")
        for line in changes(current, known) or ["nothing changed"]:
            print(f"parity: {line}", file=sys.stderr)
    else:
        print(json.dumps(current, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
