"""Acceptance gate for the ranking engine.

Each criterion prints one ``[criterion NN] name: PASS/FAIL (detail)``
line (repeated in the terminal summary) and then asserts. Criteria 6
through 9 share a session-scoped pipeline that trains the full system
once on synthetic data; the remaining criteria check kernels and tools
directly against independent oracles.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from listrank.dataset import (
    ClickRecord,
    SyntheticSpec,
    corpus_lines,
    generate_synthetic,
    grade_from_ctr,
    split_dataset,
)
from listrank.encoder import (
    EncoderConfig,
    backward_batch,
    forward_batch,
    init_params,
    mlm_logits_batch,
    pad_token_rows,
    score_cls_backward,
    score_cls_batch,
)
from listrank.losses import (
    ListTarget,
    approxndcg_loss,
    finite_diff_check,
    listmle_loss,
    listmle_loss_on_order,
    listmle_target_order,
    listnet_loss,
    margin_mse_loss,
    mlm_cross_entropy,
    ranknet_loss,
)
from listrank.metrics import mean_ndcg, ndcg_at_k, perplexity
from listrank.serve import benchmark_latency, precompute_embeddings
from listrank.tokenizer import train_bpe
from listrank.training import (
    TrainConfig,
    distill,
    finetune_ltr,
    make_bi_encoder_scorer,
    make_cross_encoder_scorer,
    pretrain_mlm,
)

FD_TOLERANCE = 1e-4

RANKING_KERNELS = {
    "ranknet": lambda s, t: ranknet_loss(s, t),
    "listnet": lambda s, t: listnet_loss(s, t),
    "listmle": lambda s, t: listmle_loss(s, t, tie_seed=0),
    "approxndcg": lambda s, t: approxndcg_loss(s, t, 10.0),
}


@pytest.fixture(scope="session")
def pipeline():
    """Train the full system once: pretrain, four fine-tunes, distillation,
    embedding store, latency benchmark. Shared by criteria 6 through 9."""
    spec = SyntheticSpec(n_queries=600, list_size=30, noise_std=0.2, seed=0)
    data = generate_synthetic(spec)
    train, test = split_dataset(data, 500)
    lines = corpus_lines(data)
    tokenizer = train_bpe(lines, vocab_size=1200)
    config = EncoderConfig(vocab_size=tokenizer.vocab_size, max_len=64)

    pre_ckpt, pre_history = pretrain_mlm(
        lines, tokenizer, config, TrainConfig(lr=1e-3, epochs=4, batch_size=64, seed=0)
    )

    finetuned = {}
    for loss_name, alpha, lr in (
        ("approxndcg", 10.0, 1e-3),
        ("ranknet", 1.0, 1.5e-3),
        ("listnet", 1.0, 1.5e-3),
        ("listmle", 1.0, 1.5e-3),
    ):
        tc = TrainConfig(lr=lr, epochs=10, batch_size=8, seed=0, approx_alpha=alpha)
        ckpt, history = finetune_ltr(train, pre_ckpt, loss_name, tc, tokenizer, test)
        finetuned[loss_name] = SimpleNamespace(
            checkpoint=ckpt,
            ndcg=[r.mean_ndcg for r in history if r.split == "eval"][-1],
        )

    teacher = finetuned["listmle"].checkpoint
    teacher_ndcg = mean_ndcg(test, make_cross_encoder_scorer(teacher, tokenizer))
    student, _ = distill(
        teacher, train, TrainConfig(lr=1e-3, epochs=8, batch_size=8, seed=0), tokenizer
    )
    student_ndcg = mean_ndcg(test, make_bi_encoder_scorer(student, tokenizer))

    catalog = [doc for group in test.groups for doc in group.docs]
    store = precompute_embeddings(student, catalog, tokenizer)
    report = benchmark_latency(
        teacher, student, store, test, tokenizer,
        n_queries=100, list_size=30, seed=0, warmup=10,
    )
    return SimpleNamespace(
        test=test,
        tokenizer=tokenizer,
        pre_history=pre_history,
        finetuned=finetuned,
        teacher_ndcg=teacher_ndcg,
        student_ndcg=student_ndcg,
        report=report,
    )


# -- criterion 1: gradient fidelity of every loss kernel --------------------


def tight_spread_scores(rng, n, alpha, spread):
    """Score draws for sharp sigmoids: alternately well separated relative
    to the 1/alpha transition width and packed within a few widths, the two
    regimes where the smooth rank stays numerically differentiable."""
    if spread:
        gaps = (50.0 / alpha) * (1.0 + np.abs(rng.standard_normal(n)))
        s = np.cumsum(gaps)
        s = s[rng.permutation(n)]
        return s - s.mean()
    center = rng.standard_normal()
    return center + rng.uniform(0.0, 6.0 / alpha, size=n)


def worst_fd_error(kernel, eps, scores_for, seed=0):
    """Worst finite-difference relative error over 100 random lists of
    length 1 to 30 with grades in {0..4}."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(1, 31))
        grades = rng.integers(0, 5, size=n)
        target = ListTarget(grades)
        scores = scores_for(rng, n, k)
        err = finite_diff_check(lambda s, t, k=k: kernel(s, t, k), scores, target, eps)
        worst = max(worst, err)
    return worst


def margin_mse_fd_worst():
    """Margin MSE differentiates only the student scores, so the check
    treats the stacked (positive, negative) student scores as the free
    variable with the teacher scores held fixed."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 31))
        tp, tn = rng.standard_normal(n), rng.standard_normal(n)
        student = rng.standard_normal((2, n))

        def kernel(stacked, _unused, tp=tp, tn=tn):
            return margin_mse_loss(tp, tn, stacked[0], stacked[1])

        worst = max(worst, finite_diff_check(kernel, student, None, 1e-5))
    return worst


def mlm_fd_worst():
    """Masked-token cross-entropy is differentiated in its logits."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 31))
        logits = rng.standard_normal((p, 20))
        labels = rng.integers(0, 20, size=p)

        def kernel(x, _unused, labels=labels):
            return mlm_cross_entropy(x, labels)

        worst = max(worst, finite_diff_check(kernel, logits, None, 1e-5))
    return worst


class TestCriterion01GradientFidelity:
    def test_all_kernels_match_finite_differences(self, criterion_report):
        normal = lambda rng, n, k: rng.standard_normal(n)
        checks = {
            "ranknet": worst_fd_error(lambda s, t, k: ranknet_loss(s, t), 1e-5, normal),
            "listnet": worst_fd_error(lambda s, t, k: listnet_loss(s, t), 1e-5, normal),
            "listmle": worst_fd_error(
                lambda s, t, k: listmle_loss(s, t, tie_seed=k), 1e-5, normal
            ),
            "approxndcg_a1": worst_fd_error(
                lambda s, t, k: approxndcg_loss(s, t, 1.0), 5e-5, normal
            ),
        }
        for alpha in (10.0, 100.0):
            cfg = alpha

            def scores_for(rng, n, k, a=alpha):
                return tight_spread_scores(rng, n, a, spread=(k % 2 == 1))

            checks[f"approxndcg_a{int(alpha)}"] = worst_fd_error(
                lambda s, t, k, c=cfg: approxndcg_loss(s, t, c), 1.5e-6, scores_for
            )
        checks["margin_mse"] = margin_mse_fd_worst()
        checks["mlm"] = mlm_fd_worst()
        worst = max(checks.values())
        worst_name = max(checks, key=checks.get)
        criterion_report(
            1, "gradient_fidelity", worst < FD_TOLERANCE,
            f"worst rel err {worst:.2e} ({worst_name}) over "
            f"{len(checks)} kernel configs x 100 instances, tolerance 1e-4",
        )


# -- criterion 2: encoder backpropagation against finite differences --------


class TestCriterion02EncoderBackprop:
    def test_every_parameter_group_matches_finite_differences(self, criterion_report):
        """One combined objective (upstream-weighted list scores plus
        masked-token cross-entropy) touches every parameter group,
        including the tied embedding and both heads."""
        config = EncoderConfig(
            n_layers=1, n_heads=2, model_dim=8, ffn_dim=16, vocab_size=20, max_len=5
        )
        params = init_params(config, seed=0)
        rng = np.random.default_rng(97)
        for name, arr in params.named_arrays():
            if name.endswith("scale"):
                arr[...] = 1.0 + 0.2 * rng.standard_normal(arr.shape)
            else:
                arr[...] = 0.5 * rng.standard_normal(arr.shape)
        ids, mask = pad_token_rows([[1, 7, 12, 3, 9], [1, 5, 18], [1, 2, 6, 11]])
        upstream = rng.standard_normal(3)
        positions = [(0, 1), (0, 3), (1, 2), (2, 1), (2, 3)]
        bs = np.array([b for b, _ in positions])
        ts = np.array([t for _, t in positions])
        labels = rng.integers(0, config.vocab_size, size=len(positions))

        def objective(p):
            scores, _ = score_cls_batch(p, config, ids, mask)
            hidden, _ = forward_batch(p, config, ids, mask)
            logits = mlm_logits_batch(p, hidden[bs, ts])
            return float(upstream @ scores) + mlm_cross_entropy(logits, labels).value

        def analytic(p):
            scores, trace = score_cls_batch(p, config, ids, mask)
            grads = score_cls_backward(p, config, trace, upstream)
            hidden, trace2 = forward_batch(p, config, ids, mask)
            states = hidden[bs, ts]
            out = mlm_cross_entropy(mlm_logits_batch(p, states), labels)
            d_hidden = np.zeros_like(hidden)
            np.add.at(d_hidden, (bs, ts), out.grad @ p.tok_emb)
            more = backward_batch(p, config, trace2, d_hidden)
            more.tok_emb += out.grad.T @ states
            more.mlm_bias += out.grad.sum(axis=0)
            grads.flat += more.flat
            return grads

        start = time.perf_counter()
        grads = dict(analytic(params).named_arrays())
        eps = 1e-5
        worst_name, worst = "", 0.0
        for name, arr in params.named_arrays():
            g = grads[name]
            for idx in np.ndindex(arr.shape):
                keep = arr[idx]
                arr[idx] = keep + eps
                hi = objective(params)
                arr[idx] = keep - eps
                lo = objective(params)
                arr[idx] = keep
                numeric = (hi - lo) / (2.0 * eps)
                rel = abs(g[idx] - numeric) / max(abs(g[idx]), abs(numeric), 1e-6)
                if rel > worst:
                    worst_name, worst = name, rel
        elapsed = time.perf_counter() - start
        ok = worst < FD_TOLERANCE and elapsed < 60.0
        criterion_report(
            2, "encoder_backprop", ok,
            f"worst rel err {worst:.2e} at {worst_name}, all parameter groups, "
            f"{elapsed:.1f}s (limit 60s)",
        )


# -- criterion 3: sharp smooth rank recovers exact NDCG ---------------------


class TestCriterion03SharpAlphaAgreement:
    def test_separated_scores_recover_exact_ndcg(self, criterion_report):
        """With every pairwise score gap at least 0.5, alpha=100 pushes each
        sigmoid within 2e-22 of a step, so the smooth NDCG must agree with
        the exact metric to 1e-3."""
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 31))
            grades = rng.integers(0, 5, size=n)
            s = np.cumsum(0.5 + rng.random(n))
            s = s[rng.permutation(n)]
            out = approxndcg_loss(s, ListTarget(grades), 100.0)
            exact = ndcg_at_k(list(grades[np.argsort(-s)]))
            worst = max(worst, abs(-out.value - exact))
        criterion_report(
            3, "sharp_alpha_matches_ndcg", worst < 1e-3,
            f"max |smooth - exact| {worst:.2e} over 200 lists with min gap 0.5, tolerance 1e-3",
        )


# -- criterion 4: likelihood identities of the listwise losses --------------


class TestCriterion04LikelihoodIdentities:
    def test_listmle_and_listnet_match_naive_probability_oracles(self, criterion_report):
        rng = np.random.default_rng(21)
        worst_mle = 0.0
        for k in range(100):
            n = int(rng.integers(1, 7))
            grades = rng.integers(0, 5, size=n)
            scores = rng.standard_normal(n)
            order = listmle_target_order(grades, tie_seed=k)
            prob = 1.0
            for j in range(n):
                rest = np.exp(scores[order[j:]])
                prob *= float(np.exp(scores[order[j]]) / rest.sum())
            out = listmle_loss(scores, ListTarget(grades), tie_seed=k)
            worst_mle = max(worst_mle, abs(math.exp(-out.value) - prob) / prob)

        rng = np.random.default_rng(22)
        worst_net = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 31))
            grades = rng.integers(0, 5, size=n)
            scores = rng.standard_normal(n)
            p = np.exp(grades.astype(float))
            p /= p.sum()
            q = np.exp(scores)
            q /= q.sum()
            expected = -float(p @ np.log(q))
            out = listnet_loss(scores, ListTarget(grades))
            worst_net = max(
                worst_net, abs(out.value - expected) / max(abs(expected), 1e-12)
            )
        ok = worst_mle < 1e-10 and worst_net < 1e-10
        criterion_report(
            4, "likelihood_identities", ok,
            f"exp(-listmle) vs sequential-choice product rel err {worst_mle:.1e} "
            f"(lists <= 6), listnet vs naive top-one CE rel err {worst_net:.1e}, "
            f"tolerance 1e-10",
        )


# -- criterion 5: click-through-rate grading contract -----------------------


class TestCriterion05CtrGrading:
    def test_grading_properties(self, criterion_report):
        worked = grade_from_ctr(
            [
                ClickRecord("q", "a", 50, 100),
                ClickRecord("q", "b", 25, 100),
                ClickRecord("q", "c", 10, 100),
            ],
            min_impressions=0,
        ) == [4, 2, 1]

        rng = np.random.default_rng(31)
        in_range = top_gets_four = scale_invariant = True
        for _ in range(100):
            n = int(rng.integers(1, 20))
            impressions = [int(v) for v in rng.integers(1, 1000, size=n)]
            clicks = [int(rng.integers(0, imp + 1)) for imp in impressions]
            records = [
                ClickRecord("q", f"d{i}", clicks[i], impressions[i]) for i in range(n)
            ]
            grades = grade_from_ctr(records, min_impressions=0)
            in_range &= all(g in range(5) for g in grades)
            ctrs = [c / i for c, i in zip(clicks, impressions)]
            if max(ctrs) > 0:
                top_gets_four &= grades[int(np.argmax(ctrs))] == 4
            scaled = [
                ClickRecord("q", r.doc_id, r.clicks * 7, r.impressions * 7)
                for r in records
            ]
            scale_invariant &= grade_from_ctr(scaled, min_impressions=0) == grades
        ok = worked and in_range and top_gets_four and scale_invariant
        criterion_report(
            5, "ctr_grading", ok,
            f"ctrs (.5,.25,.1)->(4,2,1) {worked}, grades in 0..4 {in_range}, "
            f"max ctr gets 4 {top_gets_four}, x7 scale invariant {scale_invariant}",
        )


# -- criteria 6-9: trained-system quality -----------------------------------


def random_ranking_baseline(dataset, n_trials, seed):
    """Mean NDCG of uniformly random orderings, averaged over many trials:
    the bar a trained ranker has to clear."""
    rng = np.random.default_rng(seed)
    grade_lists = [np.asarray(g.grades) for g in dataset.groups]
    totals = np.empty(n_trials)
    for t in range(n_trials):
        acc = 0.0
        for grades in grade_lists:
            acc += ndcg_at_k(list(grades[rng.permutation(grades.size)]))
        totals[t] = acc / len(grade_lists)
    return float(totals.mean())


class TestCriterion06EndToEndQuality:
    def test_heldout_ndcg_clears_bars(self, pipeline, criterion_report):
        baseline = random_ranking_baseline(pipeline.test, n_trials=1000, seed=2024)
        results = {name: f.ndcg for name, f in pipeline.finetuned.items()}
        approx_ok = results["approxndcg"] >= 0.85
        min_margin = min(v - baseline for v in results.values())
        ordering = " >= ".join(
            f"{name} {results[name]:.3f}"
            for name in sorted(results, key=results.get, reverse=True)
        )
        criterion_report(
            6, "end_to_end_quality", approx_ok and min_margin >= 0.10,
            f"approxndcg heldout NDCG {results['approxndcg']:.3f} (bar 0.85), "
            f"random baseline {baseline:.3f} over 1000 shuffles, min margin "
            f"{min_margin:.3f} (bar 0.10); ordering {ordering} (reported, not asserted)",
        )


class TestCriterion07DistillationQuality:
    def test_student_retains_teacher_quality(self, pipeline, criterion_report):
        ratio = pipeline.student_ndcg / pipeline.teacher_ndcg
        criterion_report(
            7, "distillation_quality", ratio >= 0.90,
            f"student NDCG {pipeline.student_ndcg:.3f} vs teacher "
            f"{pipeline.teacher_ndcg:.3f}, ratio {ratio:.3f} (bar 0.90)",
        )


class TestCriterion08ServingSpeedup:
    def test_student_serving_is_faster(self, pipeline, criterion_report):
        report = pipeline.report
        criterion_report(
            8, "serving_speedup", report.speedup >= 5.0,
            f"teacher {report.teacher.mean_ms:.2f} ms vs student "
            f"{report.student.mean_ms:.2f} ms mean over 100 queries of 30 "
            f"candidates, speedup {report.speedup:.1f}x (bar 5x)",
        )


class TestCriterion09PretrainingEffect:
    def test_perplexity_drops_and_is_calibrated(self, pipeline, criterion_report):
        heldout = [r.loss_value for r in pipeline.pre_history if r.split == "heldout"]
        ppl_before = perplexity(heldout[0])
        ppl_after = perplexity(heldout[-1])
        vocab = pipeline.tokenizer.vocab_size
        ratio = ppl_after / ppl_before
        near_vocab = 0.9 < ppl_before / vocab < 1.1
        exact_one = perplexity(0.0) == 1.0
        criterion_report(
            9, "pretraining_effect", ratio < 0.2 and near_vocab and exact_one,
            f"heldout perplexity {ppl_before:.0f} -> {ppl_after:.0f}, ratio "
            f"{ratio:.3f} (bar 0.2); untrained/vocab {ppl_before / vocab:.3f} "
            f"(vocab {vocab}); perplexity(0)==1 exactly {exact_one}",
        )


# -- criterion 10: byte-level determinism of every subcommand ---------------


def _determinism_commands(root):
    p = lambda name: str(root / name)
    return [
        ("synth-data", ["synth-data", "--out", p("data.jsonl"), "--n-queries", "8",
                        "--list-size", "6", "--attribute-vocab", "40",
                        "--noise-std", "0.0", "--seed", "3"]),
        ("tokenize-train", ["tokenize-train", "--data", p("data.jsonl"),
                            "--vocab-size", "300", "--out", p("tok.json")]),
        ("pretrain", ["pretrain", "--data", p("data.jsonl"), "--tokenizer",
                      p("tok.json"), "--out", p("pre.ckpt"), "--epochs", "1",
                      "--batch-size", "4", "--layers", "1", "--heads", "2",
                      "--dim", "16", "--ffn-dim", "32", "--max-len", "16"]),
        ("train", ["train", "--data", p("data.jsonl"), "--eval-data", p("data.jsonl"),
                   "--tokenizer", p("tok.json"), "--init", p("pre.ckpt"),
                   "--loss", "approxndcg", "--alpha", "10.0", "--out", p("model.ckpt"),
                   "--epochs", "1", "--lr", "0.001", "--batch-size", "4"]),
        ("eval", ["eval", "--model", p("model.ckpt"), "--tokenizer", p("tok.json"),
                  "--data", p("data.jsonl")]),
        ("distill", ["distill", "--teacher", p("model.ckpt"), "--data", p("data.jsonl"),
                     "--tokenizer", p("tok.json"), "--out", p("student.ckpt"),
                     "--store-out", p("docs.store"), "--epochs", "1", "--lr", "0.001",
                     "--batch-size", "4"]),
        ("rank-student", ["rank", "--query", "attr1 attr2", "--tokenizer", p("tok.json"),
                          "--student", p("student.ckpt"), "--store", p("docs.store")]),
        ("rank-teacher", ["rank", "--query", "attr1 attr2", "--tokenizer", p("tok.json"),
                          "--teacher", p("model.ckpt"), "--data", p("data.jsonl")]),
        ("bench", ["bench", "--teacher", p("model.ckpt"), "--student", p("student.ckpt"),
                   "--tokenizer", p("tok.json"), "--data", p("data.jsonl"),
                   "--store", p("docs.store"), "--n-queries", "30",
                   "--list-size", "4", "--warmup", "2", "--seed", "0"]),
    ]


ARTIFACT_FILES = ("data.jsonl", "tok.json", "pre.ckpt", "model.ckpt",
                  "student.ckpt", "docs.store")


class TestCriterion10Determinism:
    def test_reruns_are_byte_identical(self, tmp_path, criterion_report):
        """Every subcommand runs twice in fresh directories through the real
        CLI entry point; all written files and all stdout must match byte
        for byte. Benchmark timing values are wall-clock measurements, so
        for the bench command only the CSV layout is compared."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        stdouts, artifacts = [], []
        for run in ("first", "second"):
            root = tmp_path / run
            root.mkdir()
            outs = {}
            for name, argv in _determinism_commands(root):
                proc = subprocess.run(
                    [sys.executable, "-m", "listrank.cli", *argv],
                    capture_output=True,
                    text=True,
                    env=env,
                )
                assert proc.returncode == 0, f"{name} failed: {proc.stderr}"
                outs[name] = proc.stdout
            stdouts.append(outs)
            artifacts.append({f: (root / f).read_bytes() for f in ARTIFACT_FILES})

        mismatched = [
            f"stdout of {name}"
            for name in stdouts[0]
            if name != "bench" and stdouts[0][name] != stdouts[1][name]
        ]
        bench_layout = [
            [line.split(",")[0] for line in run["bench"].splitlines()]
            for run in stdouts
        ]
        if bench_layout[0] != bench_layout[1]:
            mismatched.append("bench CSV layout")
        mismatched += [f for f in ARTIFACT_FILES if artifacts[0][f] != artifacts[1][f]]
        if mismatched:
            detail = f"mismatches: {', '.join(mismatched)}"
        else:
            detail = (
                "9 subcommands rerun with identical seeds: checkpoints, stores, "
                "datasets, and CSV outputs byte-identical (bench timing values exempt)"
            )
        criterion_report(10, "determinism", not mismatched, detail)


# -- criterion 11: structural invariants of the ranking kernels -------------


class TestCriterion11KernelInvariants:
    def test_structural_invariants_hold(self, criterion_report):
        failures = []

        rng = np.random.default_rng(71)
        for name, kernel in RANKING_KERNELS.items():
            for _ in range(100):
                n = int(rng.integers(1, 31))
                target = ListTarget(rng.integers(0, 5, size=n))
                scores = rng.standard_normal(n)
                shift = float(rng.normal(0.0, 5.0))
                base = kernel(scores, target)
                moved = kernel(scores + shift, target)
                if not (
                    np.allclose(moved.value, base.value, rtol=1e-9, atol=1e-9)
                    and np.allclose(moved.grad, base.grad, rtol=1e-8, atol=1e-9)
                ):
                    failures.append(f"translation:{name}")
                    break

        rng = np.random.default_rng(72)
        for name in ("ranknet", "listnet", "approxndcg"):
            kernel = RANKING_KERNELS[name]
            for _ in range(100):
                n = int(rng.integers(1, 31))
                grades = rng.integers(0, 5, size=n)
                scores = rng.standard_normal(n)
                perm = rng.permutation(n)
                base = kernel(scores, ListTarget(grades))
                permuted = kernel(scores[perm], ListTarget(grades[perm]))
                if not (
                    np.allclose(permuted.value, base.value, rtol=1e-10, atol=1e-12)
                    and np.allclose(permuted.grad, base.grad[perm], rtol=1e-9, atol=1e-12)
                ):
                    failures.append(f"permutation:{name}")
                    break

        rng = np.random.default_rng(73)
        for _ in range(100):
            n = int(rng.integers(1, 31))
            grades = rng.integers(0, 5, size=n)
            scores = rng.standard_normal(n)
            target = ListTarget(grades)
            order = listmle_target_order(grades, tie_seed=9)
            perm = rng.permutation(n)
            inv = np.empty_like(perm)
            inv[perm] = np.arange(n)
            base = listmle_loss_on_order(scores, target, order)
            permuted = listmle_loss_on_order(
                scores[perm], ListTarget(grades[perm]), inv[order]
            )
            if not (
                np.allclose(permuted.value, base.value, rtol=1e-12)
                and np.allclose(permuted.grad, base.grad[perm], rtol=1e-10, atol=1e-12)
            ):
                failures.append("permutation:listmle")
                break

        rng = np.random.default_rng(74)
        for name, kernel in RANKING_KERNELS.items():
            for _ in range(100):
                n = int(rng.integers(3, 12))
                mask = rng.integers(0, 2, size=n)
                mask[int(rng.integers(0, n))] = 1
                target = ListTarget(rng.integers(0, 5, size=n), mask)
                scores = rng.standard_normal(n)
                tampered = scores.copy()
                tampered[mask == 0] = rng.normal(0.0, 100.0, size=int((mask == 0).sum()))
                base = kernel(scores, target)
                after = kernel(tampered, target)
                if not (
                    after.value == base.value
                    and np.array_equal(after.grad, base.grad)
                    and not np.any(base.grad[mask == 0])
                ):
                    failures.append(f"padding:{name}")
                    break

        rng = np.random.default_rng(75)
        for name, kernel in RANKING_KERNELS.items():
            for _ in range(100):
                hi = int(rng.integers(1, 5))
                lo = int(rng.integers(0, hi))
                better = int(rng.integers(0, 2))
                grades = np.array([hi, lo] if better == 0 else [lo, hi])
                scores = np.full(2, float(rng.standard_normal()))
                out = kernel(scores, ListTarget(grades))
                if not (out.grad[better] < 0.0 < out.grad[1 - better]):
                    failures.append(f"descent:{name}")
                    break

        criterion_report(
            11, "kernel_invariants", not failures,
            "translation invariance, permutation equivariance, padded-slot "
            "inertness, two-doc descent direction; 4 kernels x 100 instances each"
            + (f"; failures: {sorted(set(failures))}" if failures else ""),
        )
