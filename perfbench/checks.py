"""Independent references for the program's outputs, the environment stamp,
and the digests that make drift between runs visible.

Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

from listrank import encoder as enc, losses, training

#: Score agreement allowed between the program and a reference that does the
#: same float64 arithmetic, possibly summed in another order.
SCORE_RTOL = 1e-9

# -- rankings -----------------------------------------------------------------


def embed_one(student, tokenizer, text: str) -> np.ndarray:
    """The student's float64 vector of one text, from the library's ``embed_batch``."""
    seq = tokenizer.encode_single(text, student.config.max_len)
    ids, mask = enc.pad_token_rows([seq.ids])
    emb, _ = enc.embed_batch(student.params, student.config, ids, mask)
    return emb[0]


class StudentReference:
    """Ranks by float64 store vectors . query vector, ordered by (-score, doc_id).

    It keeps its own id index and float64 copy of the store, so it shares no
    gather, upcast or sort code with ``rank_with_student``.
    """

    def __init__(self, store):
        self.doc_ids = np.asarray(store.doc_ids)
        self.row_of = {d: i for i, d in enumerate(store.doc_ids)}
        self.vectors = np.asarray(store.vectors, dtype=np.float64)

    def rank(self, q_vec: np.ndarray, candidate_ids) -> list[tuple[str, float]]:
        rows = np.fromiter((self.row_of[d] for d in candidate_ids), dtype=np.int64, count=len(candidate_ids))
        scores = self.vectors[rows] @ q_vec
        ids = self.doc_ids[rows]
        order = np.lexsort((ids, -scores))
        return [(str(ids[k]), float(scores[k])) for k in order]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SCORE_RTOL * max(1.0, abs(a), abs(b))


def compare_ranking(got, expected) -> list[str]:
    """Problems with ``got`` (a list of (doc_id, score)) against a reference.

    Exact agreement is expected; a different summation order may move scores
    by rounding only, and then may reorder only documents whose reference
    scores agree within that rounding.
    """
    if got == expected:
        return []
    if got is None:
        return ["no ranking"]
    want = dict(expected)
    if len(got) != len(expected) or {d for d, _ in got} != set(want):
        return [f"ranking holds {len(got)} ids, not a permutation of the {len(expected)} candidates"]
    for doc_id, score in got:
        if not _close(score, want[doc_id]):
            return [f"{doc_id} scored {score!r}, reference {want[doc_id]!r}"]
    problems = check_order(got)
    for (a, _), (b, _) in zip(got, got[1:]):
        if want[a] < want[b] and not _close(want[a], want[b]):
            problems.append(f"{a} ranked above {b} with a lower reference score")
            break
    return problems


def check_order(ranking) -> list[str]:
    """Scores non-increasing and finite, equal scores ordered by ascending doc_id."""
    for doc_id, score in ranking:
        if not math.isfinite(score):
            return [f"{doc_id} has non-finite score {score!r}"]
    for (a, sa), (b, sb) in zip(ranking, ranking[1:]):
        if sa < sb:
            return [f"scores increase from {a} to {b}"]
        if sa == sb and a > b:
            return [f"tie between {a} and {b} not broken by doc_id"]
    return []


def check_teacher(result, candidate_ids) -> list[str]:
    """A teacher ranking is a permutation of its candidates in score order."""
    if result is None:
        return ["no ranking"]
    got = [d for d, _ in result.ranking]
    if sorted(got) != sorted(candidate_ids):
        return ["ranking is not a permutation of the candidates"]
    return check_order(result.ranking)


def cli_rows(ranking) -> str:
    """What ``listrank rank`` prints for a ranking."""
    return "\n".join(["doc_id,score"] + [f"{d},{s:.6g}" for d, s in ranking]) + "\n"


# -- gradients ----------------------------------------------------------------


def _named(params) -> dict:
    return dict(params.named_arrays())


def _encoder_check(params, forward, backward, ids, mask, eps) -> list[str]:
    """``backward`` of ``sum(w * forward(params))`` against central differences,
    for one entry of every parameter group."""
    out, trace = forward(params, ids, mask)
    weights = np.linspace(1.0, -0.5, out.size).reshape(out.shape)
    grads = _named(backward(params, trace, weights))
    problems = []
    for name, array in _named(params).items():
        if name == "tok_emb":
            pos = (int(ids[0, 1]), 3)
        else:
            pos = np.unravel_index((7 * len(name)) % array.size, array.shape)
        saved = float(array[pos])
        values = []
        for step in (eps, -eps):
            array[pos] = saved + step
            values.append(float(np.sum(weights * forward(params, ids, mask)[0])))
        array[pos] = saved
        numeric = (values[0] - values[1]) / (2 * eps)
        analytic = float(grads[name][pos])
        if abs(numeric - analytic) > 1e-4 * max(abs(numeric), abs(analytic)) + 1e-8:
            problems.append(f"d/d{name}{tuple(map(int, pos))}: analytic {analytic!r}, numeric {numeric!r}")
    return problems


def gradient_check(teacher, student, tokenizer, group, n_docs: int = 4, eps: float = 1e-5) -> list[str]:
    """The encoder backward against central differences, through the teacher's
    score head on a few (query, doc) pairs and through the student's
    embedding on the same docs."""
    docs = group.docs[:n_docs]
    tcfg, scfg = teacher.config, student.config
    pair_ids, pair_mask = enc.pad_token_rows(
        [tokenizer.encode_pair(group.query_text, d.text, tcfg.max_len).ids for d in docs])
    doc_ids, doc_mask = enc.pad_token_rows([tokenizer.encode_single(d.text, scfg.max_len).ids for d in docs])
    return (
        _encoder_check(teacher.params, lambda p, i, m: enc.score_cls_batch(p, tcfg, i, m),
                       lambda p, t, w: enc.score_cls_backward(p, tcfg, t, w), pair_ids, pair_mask, eps)
        + _encoder_check(student.params, lambda p, i, m: enc.embed_batch(p, scfg, i, m),
                         lambda p, t, w: enc.embed_backward(p, scfg, t, w), doc_ids, doc_mask, eps)
    )


def loss_gradient_check(group, seed: int, eps: float = 1e-6) -> list[str]:
    """Each training loss kernel's gradient against central differences, at
    random scores (listmle on the group's grades)."""
    rng = np.random.default_rng([seed, 7701])
    target = losses.ListTarget(np.asarray(group.grades))
    t_pos, t_neg = rng.normal(size=(2, 5))
    labels = rng.integers(0, 7, size=3)
    kernels = {
        "listmle_loss": (lambda x: losses.listmle_loss(x, target, tie_seed=seed), rng.normal(size=len(group.docs))),
        "margin_mse_loss": (lambda x: losses.margin_mse_loss(t_pos, t_neg, x[0], x[1]), rng.normal(size=(2, 5))),
        "mlm_cross_entropy": (lambda x: losses.mlm_cross_entropy(x, labels), rng.normal(size=(3, 7))),
    }
    problems = []
    for name, (kernel, x) in kernels.items():
        analytic = kernel(x).grad
        numeric = np.empty_like(x)
        for k in np.ndindex(x.shape):
            saved = x[k]
            x[k] = saved + eps
            up = kernel(x).value
            x[k] = saved - eps
            numeric[k] = (up - kernel(x).value) / (2 * eps)
            x[k] = saved
        if not np.allclose(analytic, numeric, rtol=1e-5, atol=1e-7):
            problems.append(f"{name} gradient is off central differences by up to {np.abs(analytic - numeric).max():.3g}")
    return problems


def adam_check(ckpt, config, seed: int) -> list[str]:
    """Two steps of the library's ``adam_step`` against the bias-corrected Adam
    update written out here, on a copy of ``ckpt``'s weights."""
    rng = np.random.default_rng([seed, 7702])
    params = ckpt.params.copy()
    state = training.init_adam_state(params)
    start = {n: a.copy() for n, a in params.named_arrays()}
    m = {n: np.zeros_like(a) for n, a in start.items()}
    v = {n: np.zeros_like(a) for n, a in start.items()}
    step = {n: np.zeros_like(a) for n, a in start.items()}
    b1, b2 = config.beta1, config.beta2
    for t in (1, 2):
        grads = enc.zeros_like_params(params)
        for name, g in grads.named_arrays():
            g[...] = rng.normal(size=g.shape)
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            step[name] += config.lr * (m[name] / (1.0 - b1**t)) / (np.sqrt(v[name] / (1.0 - b2**t)) + config.adam_eps)
        training.adam_step(params, grads, state, config)
    bad = [n for n, a in params.named_arrays() if not np.allclose(start[n] - a, step[n], rtol=1e-9, atol=1e-15)]
    return [f"adam_step moved {', '.join(bad[:3])} unlike the Adam update"] if bad else []


# -- environment and digests --------------------------------------------------


def environment(thread_vars) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: os.environ.get(v) for v in thread_vars},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def code_digest(root: Path) -> str:
    """Digest of the library and benchmark sources that a result depends on."""
    files = sorted((root / "src" / "listrank").rglob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    return digest(*[(str(f.relative_to(root)), f.read_bytes()) for f in files])


def compare_with_earlier(registry: Path, key: str, outputs: dict, env: dict) -> dict:
    """Record this run's output digests under ``key`` (workload, seed, code)
    and compare them with an earlier run recorded under the same key."""
    try:
        known = json.loads(registry.read_text())
    except (OSError, json.JSONDecodeError):
        known = {}
    earlier = known.get(key)
    verdict = {"earlier_runs": 0, "agree": True, "same_environment": True}
    if earlier is not None:
        verdict = {
            "earlier_runs": earlier["runs"],
            "agree": earlier["outputs"] == outputs,
            "same_environment": earlier["env"] == env,
        }
        if not verdict["agree"]:
            verdict["earlier_outputs"] = earlier["outputs"]
            verdict["earlier_env"] = earlier["env"]
        known[key]["runs"] += 1
    else:
        known[key] = {"outputs": outputs, "env": env, "runs": 1}
    registry.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=registry.parent, prefix=".digests-")
    with os.fdopen(fd, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, registry)
    return verdict
