"""Spans recorded from outside listrank, around the calls into each module.

The benchmark changes no library source. In a traced run it replaces the
module attributes that callers go through (``listrank.encoder.forward_batch``,
``listrank.training.adam_step``, ...) with wrappers that record a span per
call, and puts the originals back afterwards. A function imported by name into
another listrank module (``from .losses import listmle_loss``) is bound there
too, so every binding that is the original object is replaced.

Spans are kept in memory and written out by the caller at exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    """One call: ``root`` is the id of the outermost span of its request."""

    sid: int
    parent: int | None
    root: int
    name: str
    start: float
    end: float = 0.0
    failed: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans of a single thread."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._clock = clock

    def open(self, name: str, counts: dict | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(
            sid=sid,
            parent=parent.sid if parent else None,
            root=parent.root if parent else sid,
            name=name,
            start=self._clock(),
            counts=counts or {},
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, failed: bool = False) -> None:
        span.end = self._clock()
        span.failed = failed
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; an exception marks the span failed and propagates."""
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(span, failed=True)
            raise
        self.close(span)
        return result

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, count(*args, **kwargs) if count else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, failed=True)
                raise
            self.close(span)
            return result

        return traced

    def adopt(self, rows) -> None:
        """Add the spans another process recorded, under the span open now.

        ``perf_counter`` reads the system-wide monotonic clock on Linux, so
        the child's start and end times are comparable with this process's.
        """
        parent = self._stack[-1] if self._stack else None
        base = len(self.spans)
        for row in rows:
            span = Span(**row)
            span.sid += base
            if span.parent is None:
                span.parent = parent.sid if parent else None
            else:
                span.parent += base
            span.root = parent.root if parent else span.root + base
            self.spans.append(span)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


# -- arithmetic ---------------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    result = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children[s.sid]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        result[s.sid] = s.seconds - covered
    return result


@dataclass
class LayerTotals:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    counts: dict = field(default_factory=lambda: defaultdict(int))


def summarize(spans, under: str | None = None) -> dict[str, LayerTotals]:
    """Per span name: calls, busy seconds, self seconds, failures, summed counts.

    With ``under``, only spans that have an ancestor whose name starts with it
    are counted.
    """
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for s in spans:
        if under is not None and not _has_ancestor(s, by_id, under):
            continue
        t = totals[s.name]
        t.calls += 1
        t.s += s.seconds
        t.self_s += own[s.sid]
        t.failed += int(s.failed)
        for key, value in s.counts.items():
            t.counts[key] += value
    return totals


def _has_ancestor(span, by_id, prefix: str) -> bool:
    while span.parent is not None:
        span = by_id[span.parent]
        if span.name.startswith(prefix):
            return True
    return False


# -- where the spans go -------------------------------------------------------


def _forward_counts(*args, **kwargs):
    """Real tokens and padded positions of one ``forward_batch`` call."""
    mask = np.asarray(kwargs["attention_mask"] if "attention_mask" in kwargs else args[3])
    return {"tokens": int(mask.sum()), "positions": int(mask.size)}


#: (module, attribute, counter). The span is named after the module without
#: the package prefix and the function, e.g. ``encoder.forward_batch``.
LAYERS = (
    ("listrank.dataset", "generate_synthetic", None),
    ("listrank.tokenizer", "train_bpe", None),
    ("listrank.tokenizer", "load_tokenizer", None),
    ("listrank.tokenizer", "Tokenizer.encode", None),
    ("listrank.encoder", "forward_batch", _forward_counts),
    ("listrank.encoder", "backward_batch", None),
    ("listrank.losses", "listmle_loss", None),
    ("listrank.losses", "margin_mse_loss", None),
    ("listrank.losses", "mlm_cross_entropy", None),
    ("listrank.training", "adam_step", None),
    ("listrank.training", "pretrain_mlm", None),
    ("listrank.training", "finetune_ltr", None),
    ("listrank.training", "distill", None),
    ("listrank.training", "save_checkpoint", None),
    ("listrank.training", "load_checkpoint", None),
    ("listrank.metrics", "mean_ndcg", None),
    ("listrank.serve", "precompute_embeddings", None),
    ("listrank.serve", "save_store", None),
    ("listrank.serve", "load_store", None),
    ("listrank.serve", "EmbeddingStore.gather", None),
    ("listrank.serve", "rank_with_student", None),
    ("listrank.serve", "rank_with_teacher", None),
)


def span_name(module: str, attribute: str) -> str:
    return f"{module.removeprefix('listrank.')}.{attribute.split('.')[-1]}"


def install(tracer: Tracer):
    """Wrap every LAYERS entry wherever a listrank module binds it.

    Returns a function that restores the originals.
    """
    importlib.import_module("listrank.cli")  # binds library names of its own
    modules = [m for n, m in sorted(sys.modules.items()) if n == "listrank" or n.startswith("listrank.")]
    undo = []
    for module_name, attribute, count in LAYERS:
        owner = importlib.import_module(module_name)
        name = span_name(module_name, attribute)
        if "." in attribute:
            cls_name, fn_name = attribute.split(".")
            holder = getattr(owner, cls_name)
            original = holder.__dict__[fn_name]
            setattr(holder, fn_name, tracer.wrap(name, original, count))
            undo.append((holder, fn_name, original))
            continue
        original = getattr(owner, attribute)
        wrapper = tracer.wrap(name, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))

    def restore():
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)

    return restore
