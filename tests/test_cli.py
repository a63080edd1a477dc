"""Unit tests for the command-line interface.

All commands run in process through ``main(argv)`` with stdout and stderr
captured, so exit codes, stream separation, and option resolution are
checked without spawning subprocesses. Only the BLAS thread-count test
starts fresh processes, since the thread count is fixed when numpy loads.
"""

import contextlib
import io
import json
import os
import random
import re
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import rewrite_header

from listrank import cli, errors
from listrank.cli import _encoder_config, main
from listrank.dataset import load_dataset
from listrank.encoder import EncoderConfig
from listrank.metrics import METRIC_CSV_HEADER
from listrank.serve import EmbeddingStore, load_store, save_store
from listrank.tokenizer import train_bpe
from listrank.training import checkpoint_fingerprint, load_checkpoint


def run_cli(argv):
    """Invoke the CLI in process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def error_lines(stderr):
    """stderr with the config echo and progress lines removed."""
    return [line for line in stderr.splitlines() if not line.startswith("[")]


def echoed_config(stderr, command):
    """Parse the resolved-configuration line the command echoes to stderr."""
    prefix = f"[{command}] config "
    for line in stderr.splitlines():
        if line.startswith(prefix):
            return json.loads(line[len(prefix):])
    raise AssertionError(f"no config echo for {command!r} in: {stderr!r}")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Artifacts from one tiny end-to-end CLI run: dataset, tokenizer,
    cross-encoder checkpoint, distilled student, embedding store."""
    root = tmp_path_factory.mktemp("cli-pipeline")
    paths = {
        "data": str(root / "data.jsonl"),
        "tokenizer": str(root / "tok.json"),
        "model": str(root / "model.ckpt"),
        "student": str(root / "student.ckpt"),
        "store": str(root / "docs.store"),
    }
    steps = [
        ["synth-data", "--out", paths["data"], "--n-queries", "8",
         "--list-size", "6", "--attribute-vocab", "40", "--query-tokens", "4",
         "--noise-std", "0.0", "--seed", "3"],
        ["tokenize-train", "--data", paths["data"], "--vocab-size", "300",
         "--out", paths["tokenizer"]],
        ["train", "--data", paths["data"], "--tokenizer", paths["tokenizer"],
         "--loss", "listnet", "--out", paths["model"], "--epochs", "1",
         "--lr", "0.001", "--batch-size", "4", "--layers", "1", "--heads", "2",
         "--dim", "16", "--ffn-dim", "32", "--max-len", "16"],
        ["distill", "--teacher", paths["model"], "--data", paths["data"],
         "--tokenizer", paths["tokenizer"], "--out", paths["student"],
         "--store-out", paths["store"], "--epochs", "1", "--lr", "0.001",
         "--batch-size", "4"],
    ]
    for argv in steps:
        code, _, err = run_cli(argv)
        assert code == 0, f"{argv[0]} failed: {err}"
    return paths


class TestArgumentHandling:
    def test_no_arguments_prints_help_and_fails(self):
        code, _, err = run_cli([])
        assert code == 1
        assert "COMMAND" in err

    def test_unknown_subcommand_fails(self):
        code, _, err = run_cli(["frobnicate"])
        assert code == 1
        assert "error:" in err

    def test_unknown_flag_fails(self):
        code, _, err = run_cli(["eval", "--bogus", "x"])
        assert code == 1
        assert "error:" in err

    def test_bad_loss_choice_fails(self):
        code, _, err = run_cli(["train", "--loss", "hinge"])
        assert code == 1
        assert "invalid choice" in err

    def test_missing_required_option_names_its_flag(self):
        code, _, err = run_cli(["synth-data", "--n-queries", "4"])
        assert code == 1
        assert "--out" in err

    def test_missing_input_file_fails_cleanly(self, tmp_path):
        code, _, err = run_cli([
            "eval", "--model", str(tmp_path / "no.ckpt"),
            "--tokenizer", str(tmp_path / "no.json"),
            "--data", str(tmp_path / "no.jsonl"),
        ])
        assert code == 1
        assert "file not found" in err

    @pytest.mark.parametrize("command", ["tokenize-train", "pretrain"])
    def test_directory_as_input_file_fails_cleanly(self, pipeline, tmp_path, command):
        """A directory given as ``--data`` or ``--tokenizer`` exited 2 with
        ``runtime failure: [Errno 21] Is a directory``."""
        argv = {
            "tokenize-train": ["tokenize-train", "--data", str(tmp_path)],
            "pretrain": ["pretrain", "--data", pipeline["data"], "--tokenizer", str(tmp_path)],
        }[command]
        out = tmp_path / "out"
        code, stdout, err = run_cli(argv + ["--out", str(out)])
        assert code == 1
        assert stdout == ""
        assert error_lines(err) == [f"error: is a directory: {tmp_path}"]
        assert not out.exists()

    def test_corpus_that_is_not_utf8_fails_cleanly(self, tmp_path):
        """The byte 0xff raised a UnicodeDecodeError traceback."""
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"red shoe\n\xff\n")
        code, _, err = run_cli(["tokenize-train", "--corpus", str(corpus), "--out", str(tmp_path / "tok.json")])
        assert code == 1
        [line] = error_lines(err)
        assert line.startswith("error: cannot read corpus file: ")


class TestConfigResolution:
    def test_flag_beats_config_file_beats_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_queries": 4, "seed": 9, "list_size": 5}))
        code, _, err = run_cli([
            "synth-data", "--config", str(cfg),
            "--out", str(tmp_path / "d.jsonl"), "--seed", "2",
            "--attribute-vocab", "40",
        ])
        assert code == 0
        resolved = echoed_config(err, "synth-data")
        assert resolved["n_queries"] == 4      # from the config file
        assert resolved["seed"] == 2           # flag overrides the file
        assert resolved["list_size"] == 5      # file overrides the default
        assert resolved["noise_std"] == 0.2    # built-in default

    def test_encoder_defaults_are_those_of_encoder_config(self, tmp_path):
        """The encoder flags take their defaults from ``EncoderConfig``, so a
        checkpoint trained without them has the library's default shape."""
        code, _, err = run_cli(["train", "--data", "d.jsonl", "--tokenizer", "t.json", "--out", "o.ckpt"])
        assert code == 1  # the files do not exist; the config echo comes first
        resolved = echoed_config(err, "train")
        config = _encoder_config(resolved, EncoderConfig().vocab_size)
        assert config == EncoderConfig()

    def test_unknown_config_key_fails(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_querys": 4}))
        code, _, err = run_cli([
            "synth-data", "--config", str(cfg),
            "--out", str(tmp_path / "d.jsonl"), "--n-queries", "4",
        ])
        assert code == 1
        assert "unknown config keys" in err and "n_querys" in err

    def test_mistyped_config_value_fails(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_queries": "four"}))
        code, _, err = run_cli([
            "synth-data", "--config", str(cfg), "--out", str(tmp_path / "d.jsonl"),
        ])
        assert code == 1
        assert "must be an integer" in err

    def test_flag_option_in_config_must_be_boolean(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"from_scratch": 1}))
        code, _, err = run_cli([
            "distill", "--config", str(cfg), "--teacher", "t", "--data", "d",
            "--tokenizer", "k", "--out", "o",
        ])
        assert code == 1
        assert "must be a boolean" in err

    def test_config_file_with_invalid_json_fails(self, tmp_path):
        """A byte that is not UTF-8 and nesting past the recursion limit
        raised UnicodeDecodeError and RecursionError tracebacks."""
        cfg = tmp_path / "cfg.json"
        for content in (b"not json at all", b'{"seed": "\xff"}', b"[" * 100_000):
            cfg.write_bytes(content)
            code, _, err = run_cli([
                "synth-data", "--config", str(cfg), "--out", str(tmp_path / "d.jsonl"),
            ])
            assert code == 1
            [line] = error_lines(err)
            assert line.startswith("error: config file is not valid JSON: ")


class TestSynthData:
    def test_rerun_is_byte_identical(self, tmp_path):
        argv = ["synth-data", "--n-queries", "4", "--list-size", "5",
                "--attribute-vocab", "40", "--seed", "7"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli(argv + ["--out", str(a)])[0] == 0
        assert run_cli(argv + ["--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_loads_with_expected_shape(self, tmp_path):
        out = tmp_path / "d.jsonl"
        code, stdout, _ = run_cli([
            "synth-data", "--n-queries", "4", "--list-size", "5",
            "--attribute-vocab", "40", "--out", str(out),
        ])
        assert code == 0
        assert stdout == ""  # progress goes to stderr, stdout stays clean
        dataset = load_dataset(out)
        assert len(dataset.groups) == 4
        assert all(len(g.docs) == 5 for g in dataset.groups)

    def test_progress_line_names_the_spec(self, tmp_path):
        """The count and sizes come from the spec; every group is that size."""
        out = tmp_path / "d.jsonl"
        code, _, err = run_cli(["synth-data", "--n-queries", "3", "--list-size", "7",
                                "--query-tokens", "5", "--attribute-vocab", "40", "--out", str(out)])
        assert code == 0
        assert err.splitlines()[-1] == (f"[synth-data] wrote 3 queries to {out} "
                                        "(median list 7, median query tokens 5)")
        groups = load_dataset(out).groups
        assert [(len(g.docs), len(g.query_text.split())) for g in groups] == [(7, 5)] * 3


class TestTokenizeTrain:
    def test_progress_line_names_lines_pieces_and_time(self, tmp_path):
        """Three lines hold the pieces 'red', ' shoe', ' red', 'blue' and
        ' boot'; stdout stays empty and the file is the library's tokenizer."""
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("red shoe\nblue shoe red\n\nred boot\n", encoding="utf-8")
        out = tmp_path / "tok.json"
        code, stdout, err = run_cli(["tokenize-train", "--corpus", str(corpus), "--vocab-size", "270",
                                     "--out", str(out)])
        assert code == 0
        assert stdout == ""
        tok = train_bpe(["red shoe", "blue shoe red", "red boot"], 270)
        assert out.read_bytes() == tok.to_json_bytes()
        head = (f"[tokenize-train] trained vocab of {tok.vocab_size} tokens ({len(tok.merges)} merges, "
                f"hash {tok.content_hash()}) to {out} from 3 lines of 5 distinct pieces in ")
        last = err.splitlines()[-1]
        assert last.startswith(head) and re.fullmatch(r"\d+\.\d{3} s", last[len(head):])


class TestPipelineCommands:
    def test_train_writes_metric_csv_to_stdout(self, pipeline, tmp_path):
        code, stdout, _ = run_cli([
            "train", "--data", pipeline["data"], "--tokenizer", pipeline["tokenizer"],
            "--loss", "ranknet", "--out", str(tmp_path / "m.ckpt"), "--epochs", "2",
            "--lr", "0.001", "--batch-size", "4", "--layers", "1", "--heads", "2",
            "--dim", "16", "--ffn-dim", "32", "--max-len", "16",
            "--eval-data", pipeline["data"],
        ])
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == METRIC_CSV_HEADER
        assert len(lines) == 5  # 2 epochs x (train + eval)
        assert lines[1].startswith("1,train,ranknet,")

    def test_distill_store_out_names_distinct_texts_on_stderr_only(self, pipeline, tmp_path):
        """The progress line counts the store's docs and their distinct
        texts; stdout is the same as without ``--store-out``."""
        store = str(tmp_path / "docs.store")
        argv = ["distill", "--teacher", pipeline["model"], "--data", pipeline["data"],
                "--tokenizer", pipeline["tokenizer"], "--out", str(tmp_path / "s.ckpt"),
                "--epochs", "1", "--lr", "0.001", "--batch-size", "4"]
        code_a, out_a, _ = run_cli(argv)
        code_b, out_b, err = run_cli([*argv, "--store-out", store])
        assert code_a == code_b == 0
        assert out_a == out_b
        docs = [d for g in load_dataset(pipeline["data"]).groups for d in g.docs]
        n_docs, n_texts = len({d.doc_id for d in docs}), len({d.text for d in docs})
        assert n_texts < n_docs == len(load_store(store))
        assert f"[distill] saved {n_docs} embeddings of {n_texts} distinct texts to {store}\n" in err

    def test_eval_is_repeatable_and_reports_one_row(self, pipeline):
        argv = ["eval", "--model", pipeline["model"],
                "--tokenizer", pipeline["tokenizer"], "--data", pipeline["data"]]
        code_a, out_a, _ = run_cli(argv)
        code_b, out_b, _ = run_cli(argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        lines = out_a.splitlines()
        assert lines[0] == METRIC_CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("1,eval,listnet,,")

    def test_eval_accepts_cutoff(self, pipeline):
        code, stdout, _ = run_cli([
            "eval", "--model", pipeline["model"], "--tokenizer", pipeline["tokenizer"],
            "--data", pipeline["data"], "--k", "3",
        ])
        assert code == 0
        assert len(stdout.splitlines()) == 2

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_eval_rejects_a_cutoff_below_one(self, pipeline, k):
        """``--k 0`` is an invalid cutoff like ``--k -1``, not "no cutoff"."""
        code, stdout, err = run_cli([
            "eval", "--model", pipeline["model"], "--tokenizer", pipeline["tokenizer"],
            "--data", pipeline["data"], "--k", k,
        ])
        assert code == 1 and stdout == ""
        assert error_lines(err) == [f"error: NDCG cutoff k must be positive, got {k}"]

    def test_rank_with_student_lists_all_store_documents(self, pipeline):
        code, stdout, err = run_cli([
            "rank", "--query", "attr1 attr2", "--tokenizer", pipeline["tokenizer"],
            "--student", pipeline["student"], "--store", pipeline["store"],
        ])
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "doc_id,score"
        store = load_store(pipeline["store"])
        assert len(lines) == 1 + len(store)
        assert sorted(line.split(",")[0] for line in lines[1:]) == sorted(store.doc_ids)
        assert "ranked" in err  # latency stays on stderr

    def test_rank_with_teacher_and_candidate_subset(self, pipeline):
        dataset = load_dataset(pipeline["data"])
        wanted = [dataset.groups[0].docs[0].doc_id, dataset.groups[1].docs[2].doc_id]
        code, stdout, _ = run_cli([
            "rank", "--query", "attr3", "--tokenizer", pipeline["tokenizer"],
            "--teacher", pipeline["model"], "--data", pipeline["data"],
            "--candidates", ",".join(wanted),
        ])
        assert code == 0
        lines = stdout.splitlines()
        assert len(lines) == 3
        assert sorted(line.split(",")[0] for line in lines[1:]) == sorted(wanted)

    def test_rank_unknown_candidate_fails(self, pipeline):
        code, _, err = run_cli([
            "rank", "--query", "q", "--tokenizer", pipeline["tokenizer"],
            "--teacher", pipeline["model"], "--data", pipeline["data"],
            "--candidates", "ghost_doc",
        ])
        assert code == 1
        assert "ghost_doc" in err

    def test_rank_requires_exactly_one_mode(self, pipeline):
        both = run_cli([
            "rank", "--query", "q", "--tokenizer", pipeline["tokenizer"],
            "--student", pipeline["student"], "--store", pipeline["store"],
            "--teacher", pipeline["model"], "--data", pipeline["data"],
        ])
        neither = run_cli(["rank", "--query", "q", "--tokenizer", pipeline["tokenizer"]])
        assert both[0] == 1 and "exactly one" in both[2]
        assert neither[0] == 1 and "exactly one" in neither[2]

    def test_rank_student_mode_requires_store(self, pipeline):
        code, _, err = run_cli([
            "rank", "--query", "q", "--tokenizer", pipeline["tokenizer"],
            "--student", pipeline["student"],
        ])
        assert code == 1
        assert "--store" in err

    def test_rank_rejects_store_of_another_student(self, pipeline):
        """The teacher has the student's width, so only the fingerprint
        shows that the store was not built by it."""
        code, stdout, err = run_cli([
            "rank", "--query", "attr1", "--tokenizer", pipeline["tokenizer"],
            "--student", pipeline["model"], "--store", pipeline["store"],
        ])
        assert code == 1
        assert stdout == ""
        [line] = error_lines(err)
        assert line.startswith("error: ") and "built by checkpoint" in line

    def test_rank_rejects_store_of_another_width(self, pipeline, tmp_path):
        student = load_checkpoint(pipeline["student"])
        dim = student.config.model_dim + 2
        path = str(tmp_path / "wide.store")
        save_store(EmbeddingStore(fingerprint=checkpoint_fingerprint(student),
                                  doc_ids=["a", "b"], vectors=np.ones((2, dim))), path)
        code, stdout, err = run_cli([
            "rank", "--query", "attr1", "--tokenizer", pipeline["tokenizer"],
            "--student", pipeline["student"], "--store", path,
        ])
        assert code == 1
        assert stdout == ""
        [line] = error_lines(err)
        assert line.startswith("error: ") and "width" in line

    def test_rank_rejects_store_with_an_edited_id(self, pipeline, tmp_path):
        first = load_store(pipeline["store"]).doc_ids[0].encode("utf-8")
        with open(pipeline["store"], "rb") as fh:
            blob = fh.read()
        path = tmp_path / "edited.store"
        path.write_bytes(blob.replace(first, first[:-1] + b"~", 1))
        code, stdout, err = run_cli([
            "rank", "--query", "attr1", "--tokenizer", pipeline["tokenizer"],
            "--student", pipeline["student"], "--store", str(path),
        ])
        assert code == 1
        assert stdout == ""
        assert error_lines(err) == [f"error: {path}: content hash mismatch"]

    @staticmethod
    def rank_argv(pipeline, mode):
        models = {"student": ["--student", pipeline["student"], "--store", pipeline["store"]],
                  "teacher": ["--teacher", pipeline["model"], "--data", pipeline["data"]]}
        return ["rank", "--query", "attr1 attr2", "--tokenizer", pipeline["tokenizer"]] + models[mode]

    @pytest.mark.parametrize("mode", ["student", "teacher"])
    def test_rank_without_candidates_ranks_every_document(self, pipeline, mode):
        code, stdout, err = run_cli(self.rank_argv(pipeline, mode))
        assert code == 0
        every = {d.doc_id for g in load_dataset(pipeline["data"]).groups for d in g.docs}
        assert sorted(line.split(",")[0] for line in stdout.splitlines()[1:]) == sorted(every)
        assert f"[rank] ranked {len(every)} candidates in " in err

    @pytest.mark.parametrize("mode", ["student", "teacher"])
    def test_rank_k_prints_the_first_rows_of_the_full_output(self, pipeline, mode):
        _, full, _ = run_cli(self.rank_argv(pipeline, mode))
        lines = full.splitlines()
        n = len(lines) - 1
        for k in (1, 2, n - 1, n, n + 5):
            code, stdout, err = run_cli(self.rank_argv(pipeline, mode) + ["--k", str(k)])
            assert code == 0
            assert stdout.splitlines() == lines[: 1 + k]
            assert f"[rank] ranked {n} candidates in " in err

    @pytest.mark.parametrize("mode", ["student", "teacher"])
    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_rank_rejects_a_cutoff_below_one(self, pipeline, mode, k):
        code, stdout, err = run_cli(self.rank_argv(pipeline, mode) + ["--k", k])
        assert code == 1 and stdout == ""
        assert error_lines(err) == [f"error: rank cutoff k must be a positive integer, got {k}"]

    @pytest.mark.parametrize("mode", ["student", "teacher"])
    def test_rank_refuses_an_empty_candidate_list(self, pipeline, mode):
        """An empty ``--candidates`` ranked every document, as if the option
        were absent."""
        code, stdout, err = run_cli(self.rank_argv(pipeline, mode) + ["--candidates", ""])
        assert code == 1 and stdout == ""
        [line] = error_lines(err)
        assert line.startswith("error: --candidates is empty")

    def test_bench_rejects_store_of_another_student(self, pipeline):
        code, stdout, err = run_cli([
            "bench", "--teacher", pipeline["model"], "--student", pipeline["model"],
            "--tokenizer", pipeline["tokenizer"], "--data", pipeline["data"],
            "--store", pipeline["store"], "--n-queries", "30", "--list-size", "4",
        ])
        assert code == 1
        assert stdout == ""
        [line] = error_lines(err)
        assert line.startswith("error: ") and "built by checkpoint" in line

    def test_bench_writes_latency_csv(self, pipeline):
        """The CSV goes to stdout; the spread of each system's latencies and
        the environment go to stderr."""
        code, stdout, stderr = run_cli([
            "bench", "--teacher", pipeline["model"], "--student", pipeline["student"],
            "--tokenizer", pipeline["tokenizer"], "--data", pipeline["data"],
            "--store", pipeline["store"], "--n-queries", "30", "--list-size", "4",
            "--warmup", "2",
        ])
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "system,mean_ms,median_ms,p90_ms,speedup_vs_teacher"
        assert len(lines) == 3
        assert lines[1].startswith("teacher,") and lines[1].endswith(",1")
        assert lines[2].startswith("student,")
        spread = r"p10 \S+ ms, p50 \S+ ms, p90 \S+ ms, IQR \S+ ms, \S+ queries/s"
        assert re.search(rf"^\[bench\] teacher: {spread}$", stderr, re.M)
        assert re.search(rf"^\[bench\] student: {spread}$", stderr, re.M)
        assert re.search(r"^\[bench\] environment: BLAS threads 1, numpy \S+, scipy \S+, CPUs \d+$", stderr, re.M)


class TestSharedDocuments:
    """A doc listed under two queries, as a dataset file may hold when two
    queries share a product: every store holds each doc id once."""

    @pytest.fixture(scope="class")
    def shared(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("shared")
        paths = {name: str(root / name) for name in ("data.jsonl", "tok.json", "model.ckpt", "student.ckpt")}
        groups = [
            ("q1", "red shoe", [("a", "red shoe", 3), ("b", "blue shoe", 1), ("c", "red hat", 2)]),
            ("q2", "blue shoe", [("b", "blue shoe", 3), ("d", "green sock", 0)]),
        ]
        with open(paths["data.jsonl"], "w", encoding="utf-8") as fh:
            for query_id, query, docs in groups:
                docs = [{"doc_id": d, "text": text, "grade": grade} for d, text, grade in docs]
                fh.write(json.dumps({"query_id": query_id, "query": query, "docs": docs}) + "\n")
        common = ["--data", paths["data.jsonl"], "--tokenizer", paths["tok.json"], "--epochs", "1"]
        steps = [
            ["tokenize-train", "--data", paths["data.jsonl"], "--vocab-size", "300", "--out", paths["tok.json"]],
            ["train", *common, "--loss", "listnet", "--out", paths["model.ckpt"], "--layers", "1",
             "--heads", "2", "--dim", "16", "--ffn-dim", "32", "--max-len", "16"],
            ["distill", *common, "--teacher", paths["model.ckpt"], "--out", paths["student.ckpt"]],
        ]
        for argv in steps:
            code, _, err = run_cli(argv)
            assert code == 0, f"{argv[0]} failed: {err}"
        return paths

    def test_distill_store_holds_each_doc_once(self, shared, tmp_path):
        store = str(tmp_path / "docs.store")
        code, _, err = run_cli([
            "distill", "--teacher", shared["model.ckpt"], "--data", shared["data.jsonl"],
            "--tokenizer", shared["tok.json"], "--out", str(tmp_path / "s.ckpt"),
            "--store-out", store, "--epochs", "1",
        ])
        assert code == 0, err
        assert load_store(store).doc_ids == ["a", "b", "c", "d"]

    def test_bench_without_store_builds_one(self, shared):
        code, stdout, err = run_cli([
            "bench", "--teacher", shared["model.ckpt"], "--student", shared["student.ckpt"],
            "--tokenizer", shared["tok.json"], "--data", shared["data.jsonl"],
            "--n-queries", "30", "--list-size", "3", "--warmup", "1",
        ])
        assert code == 0, err
        assert [line.split(",")[0] for line in stdout.splitlines()] == ["system", "teacher", "student"]


class TestTokenizerContract:
    """Every command that combines a checkpoint with a tokenizer refuses one
    other than the tokenizer the checkpoint was trained with."""

    @pytest.fixture(scope="class")
    def foreign(self, pipeline, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("foreign") / "tok.json")
        code, _, err = run_cli(["tokenize-train", "--data", pipeline["data"], "--vocab-size", "290",
                                "--out", path])
        assert code == 0, err
        return path

    def assert_refused(self, argv):
        code, stdout, err = run_cli(argv)
        assert code == 1
        assert stdout == ""
        [line] = error_lines(err)
        assert line.startswith("error: tokenizer ") and "does not match" in line

    def test_eval_refuses_foreign_tokenizer(self, pipeline, foreign):
        self.assert_refused(["eval", "--model", pipeline["model"], "--tokenizer", foreign,
                             "--data", pipeline["data"]])

    def test_eval_of_student_refuses_foreign_tokenizer(self, pipeline, foreign):
        self.assert_refused(["eval", "--model", pipeline["student"], "--tokenizer", foreign,
                             "--data", pipeline["data"]])

    def test_rank_with_teacher_refuses_foreign_tokenizer(self, pipeline, foreign):
        self.assert_refused(["rank", "--query", "attr1", "--tokenizer", foreign,
                             "--teacher", pipeline["model"], "--data", pipeline["data"]])

    def test_rank_with_student_refuses_foreign_tokenizer(self, pipeline, foreign):
        self.assert_refused(["rank", "--query", "attr1", "--tokenizer", foreign,
                             "--student", pipeline["student"], "--store", pipeline["store"]])

    def test_bench_refuses_foreign_tokenizer(self, pipeline, foreign):
        self.assert_refused(["bench", "--teacher", pipeline["model"], "--student", pipeline["student"],
                             "--tokenizer", foreign, "--data", pipeline["data"],
                             "--store", pipeline["store"], "--n-queries", "30", "--list-size", "4"])

    def test_distill_refuses_foreign_tokenizer(self, pipeline, foreign, tmp_path):
        self.assert_refused(["distill", "--teacher", pipeline["model"], "--data", pipeline["data"],
                             "--tokenizer", foreign, "--out", str(tmp_path / "s.ckpt"), "--epochs", "1"])


def test_checkpoint_with_aliased_manifest_fails_with_one_line(pipeline, tmp_path):
    """A manifest whose pos_emb entry points at tok_emb's bytes is refused,
    even with a valid hash."""
    path = tmp_path / "aliased.ckpt"
    shutil.copyfile(pipeline["model"], path)

    def alias(header):
        header["manifest"][1]["offset"] = 0
        return header

    rewrite_header(path, alias)
    code, stdout, err = run_cli(["eval", "--model", str(path), "--tokenizer", pipeline["tokenizer"],
                                 "--data", pipeline["data"]])
    assert code == 1
    assert stdout == ""
    [line] = error_lines(err)
    assert line.startswith(f"error: {path}: manifest entry 1 is ") and "'offset': 0" in line


def test_checkpoint_with_a_mistyped_epoch_fails_with_one_line(pipeline, tmp_path):
    """``eval`` would print the epoch of a re-sealed header as it stands."""
    path = tmp_path / "mistyped.ckpt"
    shutil.copyfile(pipeline["model"], path)
    rewrite_header(path, lambda header: dict(header, epoch="x"))
    code, stdout, err = run_cli(["eval", "--model", str(path), "--tokenizer", pipeline["tokenizer"],
                                 "--data", pipeline["data"]])
    assert code == 1
    assert stdout == ""
    assert error_lines(err) == [f"error: {path}: header field 'epoch' must be int, got 'x'"]


def test_rank_with_a_version_3_student_fails_with_one_line(pipeline, tmp_path):
    """A checkpoint of the blake2b-sealed version 3 is refused by its version."""
    blob = bytearray(Path(pipeline["student"]).read_bytes())
    blob[8:12] = struct.pack("<I", 3)
    path = tmp_path / "v3.ckpt"
    path.write_bytes(bytes(blob))
    code, stdout, err = run_cli(["rank", "--query", "attr1", "--tokenizer", pipeline["tokenizer"],
                                 "--student", str(path), "--store", pipeline["store"]])
    assert code == 1
    assert stdout == ""
    assert error_lines(err) == [f"error: {path}: unsupported checkpoint version 3 (reader supports 4)"]


def test_checkpoint_with_an_edited_loss_name_fails_with_one_line(pipeline, tmp_path):
    """``eval`` picks its scorer by ``loss_name``, so an edited one must not load."""
    with open(pipeline["model"], "rb") as fh:
        blob = fh.read()
    assert b'"loss_name":"listnet"' in blob
    path = tmp_path / "edited.ckpt"
    path.write_bytes(blob.replace(b'"loss_name":"listnet"', b'"loss_name":"listmle"', 1))
    code, stdout, err = run_cli(["eval", "--model", str(path), "--tokenizer", pipeline["tokenizer"],
                                 "--data", pipeline["data"]])
    assert code == 1
    assert stdout == ""
    assert error_lines(err) == [f"error: {path}: content hash mismatch"]


@pytest.mark.parametrize("seed", range(4))
def test_rank_with_a_truncated_or_bit_flipped_store_fails_with_one_line(pipeline, tmp_path, seed):
    """Seeded damage to the store: one truncation and one bit flip per seed."""
    with open(pipeline["store"], "rb") as fh:
        blob = fh.read()
    rng = random.Random(seed)
    flipped = bytearray(blob)
    bit = rng.randrange(8 * len(blob))
    flipped[bit // 8] ^= 1 << (bit % 8)
    for damaged in (blob[: rng.randrange(len(blob))], bytes(flipped)):
        path = tmp_path / "damaged.store"
        path.write_bytes(damaged)
        code, stdout, err = run_cli([
            "rank", "--query", "attr1", "--tokenizer", pipeline["tokenizer"],
            "--student", pipeline["student"], "--store", str(path),
        ])
        assert code == 1
        assert stdout == ""
        [line] = error_lines(err)
        assert line.startswith(f"error: {path}: ")


def _seeded_commands(paths, out):
    return {
        "synth-data": ["synth-data", "--out", out, "--n-queries", "2"],
        "pretrain": ["pretrain", "--data", paths["data"], "--tokenizer", paths["tokenizer"], "--out", out],
        "train": ["train", "--data", paths["data"], "--tokenizer", paths["tokenizer"], "--out", out],
        "distill": ["distill", "--teacher", paths["model"], "--data", paths["data"],
                    "--tokenizer", paths["tokenizer"], "--out", out],
        "bench": ["bench", "--teacher", paths["model"], "--student", paths["student"],
                  "--tokenizer", paths["tokenizer"], "--data", paths["data"], "--store", paths["store"]],
    }


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["synth-data", "pretrain", "train", "distill", "bench"])
def test_negative_seed_fails_with_one_line(pipeline, tmp_path, command, source):
    """numpy refuses a negative seed with a traceback; every seeded command
    refuses it first, whether it comes from a flag or from the config file."""
    out = tmp_path / "out"
    argv = _seeded_commands(pipeline, str(out))[command]
    if source == "flag":
        argv.append("--seed=-1")
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(config)]
    code, stdout, err = run_cli(argv)
    assert code == 1
    assert stdout == ""
    assert error_lines(err) == ["error: seed must be non-negative, got -1"]
    assert not out.exists()


@pytest.mark.parametrize("warmup", ["-1", "-31"])
def test_negative_warmup_fails_with_one_line(pipeline, warmup):
    """-1 measured 29 queries, under the floor of 30; -31 ended in numpy's
    negative-dimension traceback."""
    argv = _seeded_commands(pipeline, "unused")["bench"]
    code, stdout, err = run_cli(argv + ["--n-queries", "30", "--list-size", "4", f"--warmup={warmup}"])
    assert code == 1
    assert stdout == ""
    assert error_lines(err) == [f"error: warmup must be non-negative, got {warmup}"]


@pytest.mark.parametrize("command, flag, pattern", [
    ("pretrain", "--dim", r"the encoder shape holds \d+ parameters, more than the 134217728 that training fits"
                          r" in 4 GiB"),
    ("bench", "--n-queries", r"warmup \+ n_queries must be at most 100000, got 100000000000000000010"),
], ids=["pretrain-dim", "bench-n-queries"])
def test_size_past_the_bound_fails_with_one_line(pipeline, tmp_path, command, flag, pattern):
    """Both ended in numpy's "maximum allowed dimension exceeded" traceback;
    each is refused before anything of that size is built."""
    out = tmp_path / "out"
    code, stdout, err = run_cli(_seeded_commands(pipeline, str(out))[command] + [flag, "100000000000000000000"])
    assert code == 1
    assert stdout == ""
    assert len(error_lines(err)) == 1 and re.fullmatch(f"error: {pattern}", error_lines(err)[0])
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("train", "--lr", "inf", "lr must be positive and finite, got inf"),
    ("train", "--alpha", "inf", "approx_alpha must be positive and finite, got inf"),
    ("pretrain", "--lr", "inf", "lr must be positive and finite, got inf"),
    ("distill", "--lr", "inf", "lr must be positive and finite, got inf"),
    ("synth-data", "--noise-std", "inf", "noise_std must be non-negative and finite, got inf"),
    ("synth-data", "--noise-std", "nan", "noise_std must be non-negative and finite, got nan"),
], ids=["train-lr", "train-alpha", "pretrain-lr", "distill-lr", "synth-data-noise-inf", "synth-data-noise-nan"])
def test_non_finite_option_fails_with_one_line(pipeline, tmp_path, command, flag, value, message):
    """An infinite rate failed as a non-finite gradient (exit 2), an infinite
    noise as an OverflowError traceback; a nan noise wrote noise-free grades."""
    out = tmp_path / "out"
    code, stdout, err = run_cli(_seeded_commands(pipeline, str(out))[command] + [flag, value])
    assert code == 1
    assert stdout == ""
    assert error_lines(err) == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--attribute-vocab", "100000000", "attribute_vocab_size must be at most 100000"),
    ("--list-size", "100000000000", "n_queries * list_size must be at most 1000000 documents"),
])
def test_synthetic_sizes_past_the_bounds_fail_with_one_line(tmp_path, flag, value, message):
    """The vocabulary draw never ended; the documents filled the memory."""
    out = tmp_path / "d.jsonl"
    code, stdout, err = run_cli(["synth-data", "--n-queries", "1", "--list-size", "1", "--out", str(out),
                                 flag, value])
    assert code == 1 and stdout == "" and not out.exists()
    lines = err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("[synth-data] config ")
    assert lines[1] == f"error: {message}"


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("flag, key, value", [("--dim", "dim", 32), ("--layers", "layers", 1),
                                              ("--max-len", "max_len", 16)])
def test_train_refuses_an_encoder_option_with_init(pipeline, tmp_path, source, flag, key, value):
    """The checkpoint fixes the shape: ``--init m.ckpt --dim 32`` exited 0
    and trained m.ckpt's width while the config echo said 32."""
    out = tmp_path / "out.ckpt"
    argv = _seeded_commands(pipeline, str(out))["train"] + ["--init", pipeline["model"]]
    if source == "flag":
        argv += [flag, str(value)]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        argv += ["--config", str(config)]
    code, stdout, err = run_cli(argv)
    assert code == 1 and stdout == "" and not out.exists()
    assert err.splitlines() == [f"error: {flag} cannot be combined with --init, whose checkpoint sets the shape"]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_pooling_is_no_longer_an_option(pipeline, tmp_path, source):
    """Every embedding is the [CLS] state; ``--pooling`` and its config key are gone."""
    out = tmp_path / "out.ckpt"
    argv = _seeded_commands(pipeline, str(out))["train"]
    if source == "flag":
        argv += ["--pooling", "mean"]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"pooling": "mean"}))
        argv += ["--config", str(config)]
    code, stdout, err = run_cli(argv)
    assert code == 1 and stdout == "" and not out.exists()
    expected = "unrecognized arguments: --pooling mean" if source == "flag" else "unknown config keys: ['pooling']"
    assert err.splitlines() == [f"error: {expected}"]


def test_a_diverging_train_stops_in_one_line(pipeline, tmp_path):
    """``train --lr 1e308`` printed numpy's RuntimeWarnings before a failure
    line that named no epoch or step."""
    out = tmp_path / "out.ckpt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_cli(_seeded_commands(pipeline, str(out))["train"] + ["--lr", "1e308"])
    assert code == 2 and stdout == "" and not out.exists()
    assert [str(w.message) for w in caught] == []
    lines = err.splitlines()
    assert all(line.startswith("[train] ") for line in lines[:-1])
    assert lines[-1] == "runtime failure: epoch 2, step 1: non-finite gradient in parameter group 'tok_emb'"


@pytest.mark.parametrize("clicks", ["x", None, [1], 1.7, True])
def test_non_integer_clicks_fail_with_one_line(tmp_path, clicks):
    """A dataset's counts are JSON integers; a traceback or a silent
    truncation was the outcome before."""
    data = tmp_path / "data.jsonl"
    doc = {"doc_id": "d", "text": "t", "clicks": clicks, "impressions": 3}
    data.write_text(json.dumps({"query_id": "q", "query": "x", "docs": [doc]}) + "\n", encoding="utf-8")
    out = tmp_path / "tok.json"
    code, stdout, err = run_cli(["tokenize-train", "--data", str(data), "--vocab-size", "300", "--out", str(out)])
    assert code == 1
    assert stdout == ""
    assert error_lines(err) == [f"error: line 1: 'clicks' must be an integer, got {clicks!r}"]
    assert not out.exists()


ERROR_CLASSES = sorted((c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)),
                       key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_exit_code_follows_the_error_tree(monkeypatch, cls):
    """Invalid input exits 1 and every other library error 2, decided by
    ``InvalidInputError`` alone."""

    def fail(resolved):
        raise cls.__new__(cls)

    monkeypatch.setattr(cli, "_cmd_rank", fail)
    code, stdout, err = run_cli(["rank", "--query", "q", "--tokenizer", "t"])
    invalid_input = issubclass(cls, errors.InvalidInputError)
    assert code == (1 if invalid_input else 2)
    assert stdout == ""
    assert error_lines(err) == ["error: " if invalid_input else "runtime failure: "]


def test_invalid_input_families_are_the_eight_that_exit_1():
    assert set(errors.InvalidInputError.__subclasses__()) == {
        errors.ConfigurationError, errors.ValidationError, errors.ParseError, errors.MissingIdError,
        errors.EmptyInputError, errors.ContractError, errors.CheckpointError, errors.StoreError,
    }
    assert errors.NonFiniteError.__bases__ == (errors.ListRankError,)


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 358. GiB for an array with shape (3000000000, 16) and data type float64"),
     "runtime failure: Unable to allocate 358. GiB for an array with shape (3000000000, 16) and data type float64"),
    (MemoryError(), "runtime failure: out of memory"),
], ids=["numpy", "bare"])
def test_out_of_memory_is_one_runtime_failure_line(monkeypatch, exc, line):
    """A shape the machine cannot hold (``pretrain --max-len 1000000000``)
    ended in a numpy allocation traceback."""

    def fail(resolved):
        raise exc

    monkeypatch.setattr(cli, "_cmd_pretrain", fail)
    code, stdout, err = run_cli(["pretrain", "--tokenizer", "t", "--corpus", "c", "--out", "o"])
    assert code == 2
    assert stdout == ""
    assert error_lines(err) == [line]


@pytest.mark.parametrize("vocab, merges", [([1, 2], [1]), ({"a": 5}, []), ({"a": "x"}, [])],
                         ids=["tables-as-lists", "no-byte-symbols", "string-id"])
def test_pretrain_refuses_a_malformed_tokenizer_with_one_line(tmp_path, vocab, merges):
    """Such files ended in a TypeError traceback, or loaded and then failed
    in ``pretrain`` with a KeyError or ValueError traceback."""
    tables = json.loads(train_bpe(["tiny corpus"], 262).to_json_bytes())
    tables.update(vocab=vocab, merges=merges)
    tok = tmp_path / "tok.json"
    tok.write_text(json.dumps(tables), encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("tiny corpus\n", encoding="utf-8")
    out = tmp_path / "out.ckpt"
    code, stdout, err = run_cli(["pretrain", "--tokenizer", str(tok), "--corpus", str(corpus),
                                 "--out", str(out), "--epochs", "1", "--layers", "1", "--dim", "8",
                                 "--heads", "1", "--ffn-dim", "8", "--max-len", "8"])
    assert code == 1
    assert stdout == ""
    assert len(error_lines(err)) == 1 and error_lines(err)[0].startswith("error: tokenizer ")
    assert not out.exists()


def test_train_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """``train`` at 8 groups x 30 docs in fresh processes asked for one BLAS
    thread and for two. Its backward rounds differently on two OpenBLAS
    threads, which changed 193 float32 weights when the CLI left the thread
    count to the environment."""
    data, tok = tmp_path / "data.jsonl", tmp_path / "tok.json"
    for argv in (["synth-data", "--out", str(data), "--n-queries", "8", "--list-size", "30", "--seed", "4"],
                 ["tokenize-train", "--data", str(data), "--vocab-size", "600", "--out", str(tok)]):
        assert run_cli(argv)[0] == 0
    src = str(Path(cli.__file__).resolve().parent.parent)
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"), threads))
        out = tmp_path / f"threads{threads}.ckpt"
        proc = subprocess.run([sys.executable, "-m", "listrank.cli", "train", "--data", str(data),
                               "--tokenizer", str(tok), "--loss", "listmle", "--out", str(out),
                               "--epochs", "2"], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, out.read_bytes()))
    assert runs[0] == runs[1]
