"""The benchmark's workloads.

Every workload is a closed loop with one caller in one process, because that is
how listrank is used: there is no server or queue, and ``listrank rank`` runs
one process per query. Each workload generates all of its inputs from the seed
with ``listrank.dataset.generate_synthetic``; the program only sees those.

A workload has a set-up (timed as ``setup_s``), then repeats a unit of work
until the run's seconds are spent. Each unit times four operations, the
workload's ``ops``; ``op1_p50_ms`` .. ``op4_p50_ms`` are their medians. Every
operation's output is checked against an independent reference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from listrank import dataset, metrics, serve, tokenizer as tokenization, training
from listrank import encoder as enc

import checks
from tracing import Tracer

VOCAB_SIZE = 1200
LIST_SIZE = 30
LEARNING_RATE = 1e-3
LOSS = "listmle"


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``FULL`` is what the benchmark runs; ``TINY`` is for the self-test."""

    train_queries: int = 32  # train_pipeline: lists of 30 documents
    eval_queries: int = 12
    pretrain_epochs: int = 1
    finetune_epochs: int = 2
    distill_epochs: int = 2
    serve_train_queries: int = 24  # short fine-tune and distill giving serving checkpoints
    catalog_queries: int = 700  # x 30 documents in query_stream's store
    index_queries: int = 350  # x 30 documents that catalog_index embeds per unit
    stream_queries: int = 48  # distinct queries that query_stream cycles through
    catalog_every: int = 4  # every k-th query also ranks the full catalog
    store_io_repeats: int = 6  # save_store / load_store pairs per catalog_index unit
    cli_per_unit: int = 2  # cold `listrank rank` processes per catalog_index unit
    setup_repeats: int = 3


FULL = Scale()
TINY = Scale(train_queries=6, eval_queries=3, serve_train_queries=4, catalog_queries=12, index_queries=12,
             stream_queries=8, store_io_repeats=1, cli_per_unit=1, setup_repeats=1)


def _data(seed: int, n_queries: int, part: int):
    """Part 0 trains, part 1 evaluates, part 2 is the catalog; all from one seed."""
    spec = dataset.SyntheticSpec(n_queries=n_queries, list_size=LIST_SIZE, seed=3 * seed + part)
    return dataset.generate_synthetic(spec)


def _tokenizer(train):
    return tokenization.train_bpe(dataset.corpus_lines(train), VOCAB_SIZE)


def _train_config(seed: int, epochs: int):
    return training.TrainConfig(epochs=epochs, lr=LEARNING_RATE, seed=seed)


def _serving_models(seed: int, scale: Scale):
    """Tokenizer, teacher and student from a short fine-tune and distill."""
    train = _data(seed, scale.serve_train_queries, 0)
    tokenizer = _tokenizer(train)
    init = training.init_checkpoint(enc.EncoderConfig(vocab_size=tokenizer.vocab_size), seed,
                                    tokenizer.content_hash())
    teacher, _ = training.finetune_ltr(train, init, LOSS, _train_config(seed, 1), tokenizer)
    student, _ = training.distill(teacher, train, _train_config(seed, 1), tokenizer)
    return tokenizer, teacher, student


def _fingerprints(state) -> dict:
    return {"teacher": training.checkpoint_fingerprint(state.teacher),
            "student": training.checkpoint_fingerprint(state.student)}


def _remember(state, key, ranking) -> list[str]:
    """Record the digest of a ranking; a repeat of the same input must agree."""
    d = checks.digest(ranking)
    earlier = state.digests.setdefault(key, d)
    return [] if earlier == d else [f"{key} ranked differently than earlier in this run"]


class TrainPipeline:
    """MLM pretrain, then a listmle cross-encoder fine-tune with per-epoch eval,
    then margin-MSE distillation with eval, then evaluation of both models.

    Why: almost all of the ``encoder`` backward, ``training`` (Adam, loop
    overhead), ``losses`` and ``metrics`` work happens here.
    Should load: encoder forward and backward, training, losses, metrics,
    tokenizer (pre-tokenizing once per call).
    Should not load: serve. A serving-side change should show no effect here.
    """

    name = "train_pipeline"
    ops = ("pretrain", "finetune", "distill", "evaluate")

    def setup(self, seed, scale, workdir):
        train = _data(seed, scale.train_queries, 0)
        evaluation = _data(seed, scale.eval_queries, 1)
        tokenizer = _tokenizer(train)
        return SimpleNamespace(seed=seed, scale=scale, train=train, evaluation=evaluation,
                               tokenizer=tokenizer, outputs=None, ndcg=None)

    def fingerprint(self, state):
        return checks.digest(state.tokenizer.content_hash(), len(state.train.groups))

    def prepare(self, state):
        pass

    def min_units(self, scale):
        return 2

    def warmup(self, state, rec):
        pass

    def unit(self, state, i, rec):
        s, sc = state, state.scale
        corpus = dataset.corpus_lines(s.train)
        config = enc.EncoderConfig(vocab_size=s.tokenizer.vocab_size)
        out = rec.call("pretrain", training.pretrain_mlm, corpus, s.tokenizer, config,
                       _train_config(s.seed, sc.pretrain_epochs))
        if out is None:
            return
        pre, pre_hist = out
        rec.expect("pretrain", _history_problems(pre_hist, 1 + 2 * sc.pretrain_epochs, "loss"))
        out = rec.call("finetune", training.finetune_ltr, s.train, pre, LOSS,
                       _train_config(s.seed, sc.finetune_epochs), s.tokenizer, s.evaluation)
        if out is None:
            return
        teacher, ft_hist = out
        rec.expect("finetune", _history_problems(ft_hist, 2 * sc.finetune_epochs, "both"))
        out = rec.call("distill", training.distill, teacher, s.train,
                       _train_config(s.seed, sc.distill_epochs), s.tokenizer, s.evaluation)
        if out is None:
            return
        student, di_hist = out
        rec.expect("distill", _history_problems(di_hist, 2 * sc.distill_epochs, "both"))

        def evaluate():
            return (metrics.mean_ndcg(s.evaluation, training.make_cross_encoder_scorer(teacher, s.tokenizer)),
                    metrics.mean_ndcg(s.evaluation, training.make_bi_encoder_scorer(student, s.tokenizer)))

        ndcg = rec.call("evaluate", evaluate)
        last_eval = (ft_hist[-1].mean_ndcg, di_hist[-1].mean_ndcg)
        if ndcg is not None and ndcg != last_eval:
            rec.expect("evaluate", [f"evaluation {ndcg} differs from the last eval rows {last_eval}"])
        outputs = {
            "pretrained": training.checkpoint_fingerprint(pre),
            "teacher": training.checkpoint_fingerprint(teacher),
            "student": training.checkpoint_fingerprint(student),
            "histories": checks.digest([tuple(r.__dict__.values()) for r in pre_hist + ft_hist + di_hist]),
        }
        if s.outputs is None:
            s.outputs, s.ndcg = outputs, ndcg
            group = s.evaluation.groups[0]
            rec.check("gradient", checks.gradient_check(teacher, student, s.tokenizer, group))
            rec.check("loss_gradients", checks.loss_gradient_check(group, s.seed))
            rec.check("adam", checks.adam_check(student, _train_config(s.seed, 1), s.seed))
        else:
            rec.check("repeat", [] if outputs == s.outputs else ["a repeat of the pipeline trained different weights"])

    def finish(self, state, rec, traced):
        sc, times = state.scale, rec.times
        n_lines = len(dataset.corpus_lines(state.train))
        held_out = max(1, round(training.TrainConfig().heldout_fraction * n_lines))
        cap = training.TrainConfig().distill_pair_cap
        pair_sets = [training.distill_pairs(g, cap) for g in state.train.groups]
        distilled = sum(1 + len({i for pair in pairs for i in pair}) for pairs in pair_sets if pairs)
        seqs = {
            "pretrain": sc.pretrain_epochs * (n_lines - held_out),
            "finetune": sc.finetune_epochs * sum(len(g.docs) for g in state.train.groups),
            "distill": sc.distill_epochs * distilled,
        }
        return {
            "seqs_per_s": {k: v / _median(times[k]) for k, v in seqs.items() if times[k]},
            "teacher_ndcg": state.ndcg[0] if state.ndcg else None,
            "student_ndcg": state.ndcg[1] if state.ndcg else None,
            "outputs": state.outputs,
        }


def _history_problems(history, rows, kind) -> list[str]:
    if len(history) != rows:
        return [f"history has {len(history)} rows, expected {rows}"]
    for r in history:
        if r.loss_value is not None and not np.isfinite(r.loss_value):
            return [f"epoch {r.epoch} {r.split} loss is {r.loss_value}"]
        if r.mean_ndcg is not None and not 0.0 <= r.mean_ndcg <= 1.0:
            return [f"epoch {r.epoch} NDCG {r.mean_ndcg} outside [0, 1]"]
    if kind == "both" and not all(r.mean_ndcg is not None for r in history[1::2]):
        return ["an epoch has no eval row"]
    return []


class QueryStream:
    """A stream of queries drawn from a generated catalog. Each query is ranked
    by ``rank_with_student`` and ``rank_with_teacher`` over the same 30
    candidates; every k-th query also gets a student rank over the full store,
    and the teacher reranks the student's top 30 from it.

    Why: this is the paper's serving comparison. The full-catalog rank is the
    one place where the gather and sort dominate.
    Should load: encoder forward only (batch 1 for the student, batch 30 for
    the teacher), tokenizer encoding, serve gather and sort.
    Should not load: encoder backward, Adam, losses. A training-side change
    should show no effect here (set-up trains briefly, outside the ops).
    """

    name = "query_stream"
    ops = ("student", "teacher", "catalog", "rerank")

    def setup(self, seed, scale, workdir):
        tokenizer, teacher, student = _serving_models(seed, scale)
        catalog = _data(seed, scale.catalog_queries, 2)
        docs = [d for g in catalog.groups for d in g.docs]
        store = serve.precompute_embeddings(student, docs, tokenizer)
        return SimpleNamespace(seed=seed, scale=scale, tokenizer=tokenizer, teacher=teacher,
                               student=student, catalog=catalog, docs=docs, store=store)

    def fingerprint(self, state):
        return checks.digest(_fingerprints(state), state.store.vectors.tobytes())

    def prepare(self, state):
        rng = np.random.default_rng([state.seed, 5501])
        picks = rng.choice(len(state.catalog.groups), size=state.scale.stream_queries, replace=False)
        state.queries = [state.catalog.groups[int(k)] for k in picks]
        state.doc_by_id = {d.doc_id: d for d in state.docs}
        state.all_ids = list(state.store.doc_ids)
        state.reference = checks.StudentReference(state.store)
        state.query_vectors = {g.query_id: checks.embed_one(state.student, state.tokenizer, g.query_text)
                               for g in state.queries}
        state.digests = {}

    def min_units(self, scale):
        return scale.stream_queries

    def warmup(self, state, rec):
        for i in range(state.scale.catalog_every):
            self.unit(state, i, rec)

    def unit(self, state, i, rec):
        s = state
        group = s.queries[i % len(s.queries)]
        query, ids = group.query_text, [d.doc_id for d in group.docs]
        q_vec = s.query_vectors[group.query_id]

        res = rec.call("student", serve.rank_with_student, s.student, s.store, query, ids, s.tokenizer)
        if res is not None:
            rec.notes["student_untimed_ms"].append(rec.last_seconds * 1000.0 - res.latency_ms)
            rec.expect("student", checks.compare_ranking(res.ranking, s.reference.rank(q_vec, ids))
                       + _remember(s, ("student", group.query_id), res.ranking))
        res = rec.call("teacher", serve.rank_with_teacher, s.teacher, query, group.docs, s.tokenizer)
        if res is not None:
            rec.expect("teacher", checks.check_teacher(res, ids)
                       + _remember(s, ("teacher", group.query_id), res.ranking))
        if i % s.scale.catalog_every:
            return
        res = rec.call("catalog", serve.rank_with_student, s.student, s.store, query, s.all_ids, s.tokenizer)
        if res is None:
            return
        rec.notes["catalog_untimed_ms"].append(rec.last_seconds * 1000.0 - res.latency_ms)
        rec.expect("catalog", checks.compare_ranking(res.ranking, s.reference.rank(q_vec, s.all_ids))
                   + _remember(s, ("catalog", group.query_id), res.ranking))
        top = [s.doc_by_id[d] for d, _ in res.ranking[:LIST_SIZE]]
        res = rec.call("rerank", serve.rank_with_teacher, s.teacher, query, top, s.tokenizer)
        if res is not None:
            rec.expect("rerank", checks.check_teacher(res, [d.doc_id for d in top])
                       + _remember(s, ("rerank", group.query_id), res.ranking))

    def finish(self, state, rec, traced):
        t, st = rec.times["teacher"], rec.times["student"]
        return {
            "teacher_over_student_p50": _median(t) / _median(st) if t and st else None,
            "store_docs": len(state.store),
            "outputs": {**_fingerprints(state), "rankings": checks.digest(sorted(state.digests.items()))},
        }


class CatalogIndex:
    """Writes beside reads: build the store for a large catalog with
    ``precompute_embeddings`` (encoder forward at batch 256), ``save_store``
    and ``load_store`` it, round-trip the student checkpoint, then run cold
    ``listrank rank --student`` processes against the saved store.

    Why: it uses the encoder differently (bulk forward with padding), and it is
    the only workload that exercises the serve and training file formats
    (write and read, blake2 hashing) and CLI start-up. A change that speeds up
    reads at the cost of writes shows up here, as save and load are timed apart.
    Should load: encoder forward, tokenizer, serve and training file formats,
    cli import. Should not load: encoder backward, Adam, losses, metrics.
    """

    name = "catalog_index"
    ops = ("build", "save_store", "load_store", "cold_rank")

    def setup(self, seed, scale, workdir):
        tokenizer, teacher, student = _serving_models(seed, scale)
        catalog = _data(seed, scale.index_queries, 2)
        paths = SimpleNamespace(tokenizer=workdir / "tok.json", student=workdir / "student.ckpt",
                                store=workdir / "docs.store", ckpt_copy=workdir / "copy.ckpt")
        tokenizer.save(paths.tokenizer)
        training.save_checkpoint(student, str(paths.student))
        return SimpleNamespace(seed=seed, scale=scale, tokenizer=tokenizer, teacher=teacher,
                               student=student, catalog=catalog,
                               docs=[d for g in catalog.groups for d in g.docs], paths=paths)

    def fingerprint(self, state):
        return checks.digest(_fingerprints(state), state.paths.tokenizer.read_bytes())

    def prepare(self, state):
        rng = np.random.default_rng([state.seed, 5502])
        picks = rng.choice(len(state.catalog.groups), size=state.scale.cli_per_unit, replace=False)
        state.cli_groups = [state.catalog.groups[int(k)] for k in picks]
        state.fingerprint = training.checkpoint_fingerprint(state.student)
        # The CLI serves the saved checkpoint, whose weights were rounded to float32.
        cli_student = training.load_checkpoint(str(state.paths.student))
        state.cli_query_vectors = [checks.embed_one(cli_student, state.tokenizer, g.query_text)
                                   for g in state.cli_groups]
        step = max(1, len(state.docs) // 7)
        # Every step-th document embedded in a batch of one, to compare with the store.
        state.alone = {k: checks.embed_one(state.student, state.tokenizer, state.docs[k].text)
                       for k in range(0, len(state.docs), step)}
        state.digests = {}

    def min_units(self, scale):
        return 2

    def warmup(self, state, rec):
        pass

    def unit(self, state, i, rec):
        s = state
        store = rec.call("build", serve.precompute_embeddings, s.student, s.docs, s.tokenizer)
        if store is None:
            return
        rec.expect("build", self._build_problems(s, store))
        for _ in range(s.scale.store_io_repeats):
            rec.call("save_store", serve.save_store, store, str(s.paths.store))
            loaded = rec.call("load_store", serve.load_store, str(s.paths.store))
            if loaded is not None:
                rec.expect("load_store", _store_problems(loaded, store))
        rec.call("save_checkpoint", training.save_checkpoint, s.student, str(s.paths.ckpt_copy))
        ckpt = rec.call("load_checkpoint", training.load_checkpoint, str(s.paths.ckpt_copy))
        if ckpt is not None:
            got = training.checkpoint_fingerprint(ckpt)
            rec.expect("load_checkpoint", [] if got == s.fingerprint else
                       [f"checkpoint round trip changed fingerprint {s.fingerprint} to {got}"])
        reference = checks.StudentReference(store)
        traced = isinstance(rec.tracer, Tracer)
        for j, (group, q_vec) in enumerate(zip(s.cli_groups, s.cli_query_vectors)):
            ids = [d.doc_id for d in group.docs]
            spans_file = s.workdir / f"cli-spans-{i}-{j}.json"
            proc = rec.call("cold_rank", _cold_rank, s, group.query_text, ids,
                            spans_file if traced else None)
            if proc is None:
                continue
            if traced and spans_file.exists():
                rec.tracer.adopt(json.loads(spans_file.read_text()))
            expected = checks.cli_rows(reference.rank(q_vec, ids))
            problems = [] if proc.returncode == 0 else [f"exit {proc.returncode}: {proc.stderr[-300:]}"]
            if proc.stdout != expected:
                problems.append("printed rows differ from the reference ranking")
            rec.expect("cold_rank", problems + _remember(s, ("cli", group.query_id), proc.stdout))

    def _build_problems(self, s, store) -> list[str]:
        if store.doc_ids != [d.doc_id for d in s.docs]:
            return ["store ids differ from the catalog"]
        if store.fingerprint != s.fingerprint:
            return ["store fingerprint differs from the student's"]
        problems = _remember(s, ("store", "all"), store.vectors.tobytes())
        for k, alone in s.alone.items():
            if not np.allclose(store.vectors[k], alone, rtol=1e-5, atol=1e-6):
                problems.append(f"{s.docs[k].doc_id} embedded in a batch differs from alone")
                break
        return problems

    def finish(self, state, rec, traced):
        out = {
            "build_docs_per_s": len(state.docs) / _median(rec.times["build"]) if rec.times["build"] else None,
            "store_bytes": state.paths.store.stat().st_size if state.paths.store.exists() else None,
            "outputs": {**_fingerprints(state), "rankings": checks.digest(sorted(state.digests.items()))},
        }
        if traced:
            out["cli_import_s"] = _median([_import_seconds(state.root) for _ in range(3)])
        return out


def _store_problems(loaded, store) -> list[str]:
    if loaded.doc_ids != store.doc_ids or loaded.fingerprint != store.fingerprint or loaded.dim != store.dim:
        return ["store header changed in a save/load round trip"]
    if loaded.vectors.dtype != store.vectors.dtype or not np.array_equal(loaded.vectors, store.vectors):
        return ["store vectors changed in a save/load round trip"]
    return []


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _cold_rank(state, query, ids, spans_file):
    """One ``listrank rank --student`` process; traced through cli_child.py."""
    args = ["rank", "--query", query, "--tokenizer", str(state.paths.tokenizer),
            "--student", str(state.paths.student), "--store", str(state.paths.store),
            "--candidates", ",".join(ids)]
    if spans_file is None:
        cmd = [sys.executable, "-m", "listrank.cli", *args]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(spans_file), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=state.root, env=_child_env(state.root))


def _import_seconds(root: Path) -> float:
    """Seconds to import ``listrank.cli`` in a fresh process."""
    code = "import time; t = time.perf_counter(); import listrank.cli; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          cwd=root, env=_child_env(root), check=True)
    return float(proc.stdout.strip())


def _median(values):
    return float(np.median(values))


WORKLOADS = {w.name: w for w in (TrainPipeline, QueryStream, CatalogIndex)}
