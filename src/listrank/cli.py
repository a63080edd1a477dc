"""Command-line interface.

Every subcommand reads options from flags, an optional JSON config file
(``--config``), and built-in defaults, in that precedence order. Unknown or
mistyped config keys are rejected. The resolved configuration is echoed to
stderr before work starts, progress goes to stderr, and machine-readable
output (CSV) goes to stdout, so redirecting stdout captures exactly the
product of the run.

Exit codes: 0 on success, 1 for invalid input (bad flags, unreadable or
malformed files, contract violations), 2 for runtime failures.
"""

from __future__ import annotations

import os

# BLAS splits a product among its threads in ways that change the rounding, so
# one thread, set before numpy loads, keeps every output byte independent of
# the machine's core count.
os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"), "1"))

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from .dataset import (  # noqa: E402
    Dataset,
    SyntheticSpec,
    corpus_lines,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .encoder import EncoderConfig  # noqa: E402
from .errors import (  # noqa: E402
    VALUE_TYPES, ConfigurationError, InvalidInputError, ListRankError, MissingIdError, StoreError)
from .metrics import mean_ndcg, metrics_to_csv, MetricRow  # noqa: E402
from .serve import (  # noqa: E402
    benchmark_latency,
    load_store,
    precompute_embeddings,
    rank_with_student,
    rank_with_teacher,
    save_store,
)
from .tokenizer import _piece_counts, load_tokenizer, train_bpe  # noqa: E402
from .training import (  # noqa: E402
    Checkpoint,
    LOSS_NAMES,
    TrainConfig,
    checkpoint_fingerprint,
    distill,
    finetune_ltr,
    init_checkpoint,
    load_checkpoint,
    make_scorer,
    pretrain_mlm,
    save_checkpoint,
)

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class _Opt:
    """One resolvable option: flag, config-file key, type, default."""

    name: str
    kind: type
    default: object = None
    required: bool = False
    help: str = ""
    choices: tuple = None

    @property
    def flag(self):
        return "--" + self.name.replace("_", "-")


def _add_opts(parser, opts):
    for o in opts:
        if o.kind is bool:
            parser.add_argument(o.flag, action="store_const", const=True, default=None, help=o.help)
        else:
            parser.add_argument(o.flag, type=o.kind, default=None, choices=o.choices, help=o.help)


_KIND_NAMES = {"bool": "a boolean", "int": "an integer", "float": "a number", "str": "a string"}


def _config_value(key, value, kind):
    if type(value) not in VALUE_TYPES[kind.__name__]:
        raise ConfigurationError(f"config key {key!r} must be {_KIND_NAMES[kind.__name__]}")
    return float(value) if kind is float else value


def _resolve(args, opts):
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested past the recursion limit
            raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigurationError("config file must hold a JSON object")
    known = {o.name: o for o in opts}
    unknown = sorted(set(file_cfg) - set(known))
    if unknown:
        raise ConfigurationError(f"unknown config keys: {unknown}")
    resolved = {}
    for o in opts:
        flag_value = getattr(args, o.name)
        if flag_value is not None:
            resolved[o.name] = flag_value
        elif o.name in file_cfg:
            value = _config_value(o.name, file_cfg[o.name], o.kind)
            if o.choices and value not in o.choices:
                raise ConfigurationError(f"config key {o.name!r} must be one of {list(o.choices)}")
            resolved[o.name] = value
        else:
            resolved[o.name] = o.default
        if o.required and resolved[o.name] is None:
            raise ConfigurationError(f"missing required option {o.flag}")
    if resolved.get("init"):  # the checkpoint fixes the shape, so an encoder option would go unused
        for o in _ENCODER_OPTS:
            if getattr(args, o.name) is not None or o.name in file_cfg:
                raise ConfigurationError(f"{o.flag} cannot be combined with --init, whose checkpoint sets the shape")
    return resolved


def _progress(cmd, message):
    print(f"[{cmd}] {message}", file=sys.stderr)


def _load_corpus(resolved):
    lines = []
    if resolved.get("data"):
        lines.extend(corpus_lines(load_dataset(resolved["data"])))
    if resolved.get("corpus"):
        try:
            with open(resolved["corpus"], "r", encoding="utf-8") as fh:
                lines.extend(line.strip() for line in fh if line.strip())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read corpus file: {exc}") from exc
    if not lines:
        raise ConfigurationError("provide --data and/or --corpus with at least one line")
    return lines


#: Each encoder flag, the ``EncoderConfig`` field it sets, and its help.
_ENCODER_FLAGS = (
    ("layers", "n_layers", "number of residual blocks"),
    ("heads", "n_heads", "attention heads"),
    ("dim", "model_dim", "model width"),
    ("ffn_dim", "ffn_dim", "feed-forward width"),
    ("max_len", "max_len", "maximum sequence length"),
)
_ENCODER_OPTS = [
    _Opt(flag, int, getattr(EncoderConfig, name), help=text)
    for flag, name, text in _ENCODER_FLAGS
]


def _encoder_config(resolved, vocab_size):
    return EncoderConfig(vocab_size=vocab_size, **{name: resolved[flag] for flag, name, _ in _ENCODER_FLAGS})


# -- subcommands ------------------------------------------------------------


def _cmd_synth_data(resolved):
    spec = SyntheticSpec(
        n_queries=resolved["n_queries"],
        list_size=resolved["list_size"],
        attribute_vocab_size=resolved["attribute_vocab"],
        query_token_count=resolved["query_tokens"],
        noise_std=resolved["noise_std"],
        seed=resolved["seed"],
    )
    dataset = generate_synthetic(spec)
    save_dataset(dataset, resolved["out"])
    # the generator makes every group exactly the spec's size
    _progress(
        "synth-data",
        f"wrote {spec.n_queries} queries to {resolved['out']} "
        f"(median list {spec.list_size}, median query tokens {spec.query_token_count})",
    )
    return 0


def _cmd_tokenize_train(resolved):
    lines = _load_corpus(resolved)
    start = time.perf_counter()
    tokenizer = train_bpe(lines, resolved["vocab_size"])
    seconds = time.perf_counter() - start
    tokenizer.save(resolved["out"])
    _progress(
        "tokenize-train",
        f"trained vocab of {tokenizer.vocab_size} tokens "
        f"({len(tokenizer.merges)} merges, hash {tokenizer.content_hash()}) to {resolved['out']} "
        f"from {len(lines)} lines of {len(_piece_counts(lines))} distinct pieces in {seconds:.3f} s",
    )
    return 0


def _train_config(resolved, **overrides):
    base = dict(
        lr=resolved["lr"],
        epochs=resolved["epochs"],
        batch_size=resolved["batch_size"],
        seed=resolved["seed"],
    )
    base.update(overrides)
    return TrainConfig(**base)


def _cmd_pretrain(resolved):
    tokenizer = load_tokenizer(resolved["tokenizer"])
    lines = _load_corpus(resolved)
    config = _encoder_config(resolved, tokenizer.vocab_size)
    train_config = _train_config(
        resolved,
        mask_rate=resolved["mask_rate"],
        heldout_fraction=resolved["heldout_fraction"],
    )
    _progress("pretrain", f"corpus of {len(lines)} lines, {train_config.epochs} epochs")
    ckpt, history = pretrain_mlm(lines, tokenizer, config, train_config)
    save_checkpoint(ckpt, resolved["out"])
    _progress("pretrain", f"saved checkpoint to {resolved['out']}")
    sys.stdout.write(metrics_to_csv(history))
    return 0


def _cmd_train(resolved):
    tokenizer = load_tokenizer(resolved["tokenizer"])
    dataset = load_dataset(resolved["data"])
    eval_dataset = load_dataset(resolved["eval_data"]) if resolved["eval_data"] else None
    train_config = _train_config(resolved, approx_alpha=resolved["alpha"])
    if resolved["init"]:
        ckpt_in = load_checkpoint(resolved["init"])
    else:
        config = _encoder_config(resolved, tokenizer.vocab_size)
        ckpt_in = init_checkpoint(config, resolved["seed"], tokenizer.content_hash())
    _progress(
        "train",
        f"{len(dataset.groups)} query groups, loss {resolved['loss']}, "
        f"{train_config.epochs} epochs",
    )
    ckpt, history = finetune_ltr(
        dataset, ckpt_in, resolved["loss"], train_config, tokenizer, eval_dataset
    )
    save_checkpoint(ckpt, resolved["out"])
    _progress("train", f"saved checkpoint to {resolved['out']}")
    sys.stdout.write(metrics_to_csv(history))
    return 0


def _cmd_eval(resolved):
    tokenizer = load_tokenizer(resolved["tokenizer"])
    ckpt = load_checkpoint(resolved["model"])
    dataset = load_dataset(resolved["data"])
    ndcg = mean_ndcg(dataset, make_scorer(ckpt, tokenizer), k=resolved["k"])
    row = MetricRow(ckpt.epoch, "eval", ckpt.loss_name, None, ndcg)
    sys.stdout.write(metrics_to_csv([row]))
    return 0


def _cmd_distill(resolved):
    tokenizer = load_tokenizer(resolved["tokenizer"])
    teacher = load_checkpoint(resolved["teacher"])
    dataset = load_dataset(resolved["data"])
    eval_dataset = load_dataset(resolved["eval_data"]) if resolved["eval_data"] else None
    train_config = _train_config(
        resolved,
        distill_pair_cap=resolved["pair_cap"],
        init_from_teacher=not resolved["from_scratch"],
    )
    _progress("distill", f"{len(dataset.groups)} query groups, {train_config.epochs} epochs")
    student, history = distill(teacher, dataset, train_config, tokenizer, eval_dataset)
    save_checkpoint(student, resolved["out"])
    _progress("distill", f"saved student checkpoint to {resolved['out']}")
    if resolved["store_out"]:
        docs = _candidate_docs(dataset, None)
        store = precompute_embeddings(student, docs, tokenizer)
        save_store(store, resolved["store_out"])
        texts = len({d.text for d in docs})
        _progress("distill", f"saved {len(store)} embeddings of {texts} distinct texts to {resolved['store_out']}")
    sys.stdout.write(metrics_to_csv(history))
    return 0


def _load_student_store(path: str, student: Checkpoint):
    """Load an embedding store and check that ``student`` built it."""
    store = load_store(path)
    expected = checkpoint_fingerprint(student)
    if store.fingerprint != expected:
        raise StoreError(
            f"{path}: built by checkpoint {store.fingerprint}, not by the student ({expected})"
        )
    return store


def _candidate_docs(dataset: Dataset, wanted):
    """The documents with the ``wanted`` ids, in that order, or every doc id
    once when ``wanted`` is None; a repeated id keeps its first occurrence."""
    by_id = {}
    for group in dataset.groups:
        for doc in group.docs:
            by_id.setdefault(doc.doc_id, doc)
    if wanted is None:
        return list(by_id.values())
    missing = sorted(set(wanted) - set(by_id))
    if missing:
        raise MissingIdError(f"doc ids not in the dataset: {', '.join(missing)}")
    return [by_id[d] for d in wanted]


def _cmd_rank(resolved):
    if bool(resolved["student"]) == bool(resolved["teacher"]):
        raise ConfigurationError("provide exactly one of --student or --teacher")
    if resolved["candidates"] == "":
        raise ConfigurationError("--candidates is empty: name at least one doc id, or omit it to rank every document")
    tokenizer = load_tokenizer(resolved["tokenizer"])
    wanted = resolved["candidates"].split(",") if resolved["candidates"] is not None else None
    k = resolved["k"]
    if resolved["student"]:
        if not resolved["store"]:
            raise ConfigurationError("--student mode requires --store")
        student = load_checkpoint(resolved["student"])
        store = _load_student_store(resolved["store"], student)
        candidates = wanted if wanted is not None else store.doc_ids  # the whole store skips the gather
        result = rank_with_student(student, store, resolved["query"], candidates, tokenizer, k)
    else:
        if not resolved["data"]:
            raise ConfigurationError("--teacher mode requires --data")
        teacher = load_checkpoint(resolved["teacher"])
        candidates = _candidate_docs(load_dataset(resolved["data"]), wanted)
        result = rank_with_teacher(teacher, resolved["query"], candidates, tokenizer, k)
    _progress("rank", f"ranked {len(candidates)} candidates in {result.latency_ms:.3f} ms")
    out = ["doc_id,score"]
    out.extend(f"{doc_id},{score:.6g}" for doc_id, score in result.ranking)
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def _cmd_bench(resolved):
    tokenizer = load_tokenizer(resolved["tokenizer"])
    teacher = load_checkpoint(resolved["teacher"])
    student = load_checkpoint(resolved["student"])
    dataset = load_dataset(resolved["data"])
    if resolved["store"]:
        store = _load_student_store(resolved["store"], student)
    else:
        store = precompute_embeddings(student, _candidate_docs(dataset, None), tokenizer)
    report = benchmark_latency(
        teacher,
        student,
        store,
        dataset,
        tokenizer,
        n_queries=resolved["n_queries"],
        list_size=resolved["list_size"],
        seed=resolved["seed"],
        warmup=resolved["warmup"],
    )
    for name, stats in (("teacher", report.teacher), ("student", report.student)):
        _progress("bench", f"{name}: p10 {stats.p10_ms:.3f} ms, p50 {stats.median_ms:.3f} ms, "
                           f"p90 {stats.p90_ms:.3f} ms, IQR {stats.iqr_ms:.3f} ms, "
                           f"{stats.per_second:.1f} queries/s")
    _progress("bench", f"environment: BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}, numpy {np.__version__}, "
                       f"scipy {scipy.__version__}, CPUs {os.cpu_count()}")
    _progress("bench", f"speedup x{report.speedup:.2f} over {resolved['n_queries']} queries")
    sys.stdout.write(report.to_csv())
    return 0


# -- wiring -----------------------------------------------------------------


def _command_table():
    seed = _Opt("seed", int, 0, help="random seed")
    return {
        "synth-data": (
            _cmd_synth_data,
            "Generate a synthetic graded ranking dataset.",
            [
                _Opt("out", str, required=True, help="output dataset path (JSONL)"),
                _Opt("n_queries", int, required=True, help="number of query groups"),
                _Opt("list_size", int, SyntheticSpec.list_size, help="documents per query"),
                _Opt("attribute_vocab", int, SyntheticSpec.attribute_vocab_size, help="attribute vocabulary size"),
                _Opt("query_tokens", int, SyntheticSpec.query_token_count, help="attribute words per query"),
                _Opt("noise_std", float, SyntheticSpec.noise_std, help="grade noise standard deviation"),
                seed,
            ],
        ),
        "tokenize-train": (
            _cmd_tokenize_train,
            "Learn a byte-level BPE vocabulary from text.",
            [
                _Opt("data", str, help="dataset (JSONL) whose text forms the corpus"),
                _Opt("corpus", str, help="plain text file, one line per document"),
                _Opt("vocab_size", int, 1200, help="total vocabulary size"),
                _Opt("out", str, required=True, help="output tokenizer path (JSON)"),
            ],
        ),
        "pretrain": (
            _cmd_pretrain,
            "Pre-train the encoder on masked-token prediction.",
            [
                _Opt("data", str, help="dataset (JSONL) whose text forms the corpus"),
                _Opt("corpus", str, help="plain text file, one line per document"),
                _Opt("tokenizer", str, required=True, help="tokenizer path"),
                _Opt("out", str, required=True, help="output checkpoint path"),
                _Opt("epochs", int, 4, help="training epochs"),
                _Opt("lr", float, 1e-3, help="learning rate"),
                _Opt("batch_size", int, 64, help="lines per optimizer step"),
                _Opt("mask_rate", float, TrainConfig.mask_rate, help="fraction of tokens masked"),
                _Opt("heldout_fraction", float, TrainConfig.heldout_fraction, help="corpus fraction held out"),
                seed,
            ]
            + _ENCODER_OPTS,
        ),
        "train": (
            _cmd_train,
            "Fine-tune the cross-encoder on graded lists.",
            [
                _Opt("data", str, required=True, help="training dataset (JSONL)"),
                _Opt("eval_data", str, help="evaluation dataset (JSONL)"),
                _Opt("tokenizer", str, required=True, help="tokenizer path"),
                _Opt("init", str, help="starting checkpoint (default: fresh init)"),
                _Opt("loss", str, "approxndcg", choices=LOSS_NAMES, help="surrogate loss"),
                _Opt("alpha", float, TrainConfig.approx_alpha, help="smooth-rank sharpness (approxndcg)"),
                _Opt("out", str, required=True, help="output checkpoint path"),
                _Opt("epochs", int, 10, help="training epochs"),
                _Opt("lr", float, 3e-4, help="learning rate"),
                _Opt("batch_size", int, 8, help="query groups per optimizer step"),
                seed,
            ]
            + _ENCODER_OPTS,
        ),
        "eval": (
            _cmd_eval,
            "Report mean NDCG of a checkpoint on a dataset.",
            [
                _Opt("model", str, required=True, help="checkpoint path"),
                _Opt("tokenizer", str, required=True, help="tokenizer path"),
                _Opt("data", str, required=True, help="evaluation dataset (JSONL)"),
                _Opt("k", int, help="NDCG cutoff (default: full list)"),
            ],
        ),
        "distill": (
            _cmd_distill,
            "Distill the cross-encoder into a bi-encoder student.",
            [
                _Opt("teacher", str, required=True, help="teacher checkpoint path"),
                _Opt("data", str, required=True, help="training dataset (JSONL)"),
                _Opt("eval_data", str, help="evaluation dataset (JSONL)"),
                _Opt("tokenizer", str, required=True, help="tokenizer path"),
                _Opt("out", str, required=True, help="output student checkpoint path"),
                _Opt("store_out", str, help="also write an embedding store here"),
                _Opt("pair_cap", int, TrainConfig.distill_pair_cap, help="max distillation pairs per query"),
                _Opt("from_scratch", bool, False, help="initialize the student fresh instead of from the teacher"),
                _Opt("epochs", int, 4, help="training epochs"),
                _Opt("lr", float, 3e-4, help="learning rate"),
                _Opt("batch_size", int, 8, help="query groups per optimizer step"),
                seed,
            ],
        ),
        "rank": (
            _cmd_rank,
            "Rank candidate documents for one query.",
            [
                _Opt("query", str, required=True, help="query text"),
                _Opt("tokenizer", str, required=True, help="tokenizer path"),
                _Opt("student", str, help="student checkpoint (needs --store)"),
                _Opt("store", str, help="embedding store path"),
                _Opt("teacher", str, help="teacher checkpoint (needs --data)"),
                _Opt("data", str, help="dataset holding the candidate documents"),
                _Opt("candidates", str, help="comma-separated doc ids (default: all)"),
                _Opt("k", int, help="print only the first k rows (default: all)"),
            ],
        ),
        "bench": (
            _cmd_bench,
            "Compare serving latency of teacher and student.",
            [
                _Opt("teacher", str, required=True, help="teacher checkpoint path"),
                _Opt("student", str, required=True, help="student checkpoint path"),
                _Opt("tokenizer", str, required=True, help="tokenizer path"),
                _Opt("data", str, required=True, help="dataset providing the workload"),
                _Opt("store", str, help="embedding store (default: build from --data)"),
                _Opt("n_queries", int, 100, help="measured queries"),
                _Opt("list_size", int, 30, help="candidates per query"),
                _Opt("warmup", int, 10, help="untimed warmup queries"),
                seed,
            ],
        ),
    }


def build_parser():
    table = _command_table()
    parser = _Parser(prog="listrank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (func, help_text, opts) in table.items():
        p = sub.add_parser(name, help=help_text, description=help_text, parents=[])
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        _add_opts(p, opts)
        p.set_defaults(_func=func, _opts=opts)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return 1
        resolved = _resolve(args, args._opts)
        _progress(args.command, f"config {json.dumps(resolved, sort_keys=True)}")
        return args._func(resolved)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        # a named path that cannot be opened is invalid input; a rename names its target second
        reason = "file not found" if isinstance(exc, FileNotFoundError) else f"{exc.strerror or exc}".lower()
        print(f"error: {reason}: {exc.filename2 or exc.filename or exc}", file=sys.stderr)
        return 1
    except (_UsageError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ListRankError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the allocation; Python's own carries no message
        print(f"runtime failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
