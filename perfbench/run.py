#!/usr/bin/env python3
"""The listrank benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
``src/`` (nothing needs installing). Workloads, and why each was chosen, are
described in ``workloads.py``.

With ``--trace 0`` the run sets up several times (``setup_s`` is the median),
then repeats the workload's unit for ``--seconds`` and reports the median of
each of its four timed operations. With ``--trace 1`` it sets up once with
spans recorded, repeats the workload untraced for ``--seconds``, then repeats
the same units again with spans recorded around every listrank module call,
and reports per-module numbers plus the tracing overhead between the two.

Every operation's output is checked. The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The line before it
holds the details (environment, tails with their percentile and sample count,
fingerprints, ranking digests); a copy of both, and the spans of a traced run,
go to ``.perfbench/`` in the checkout.
"""

import os

#: BLAS/OpenMP thread variables, pinned to one thread (single core, as in the
#: paper) before numpy is imported by anything, and recorded in the details.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Metric names and units, as BENCHMARK.json defines them. A per-module metric
#: is ``<module>.<function>.<field>``; a module the workload does not call
#: reports 0. ``dataset.generate_synthetic`` and ``tokenizer.train_bpe`` run
#: only in set-up and are taken from there; all others cover the traced
#: repetitions.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

TRAINING_CALLS = ("training.pretrain_mlm", "training.finetune_ltr", "training.distill")
LOSS_KERNELS = ("losses.listmle_loss", "losses.margin_mse_loss", "losses.mlm_cross_entropy")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_library():
    """Import listrank from this checkout's ``src``; None if it is not there."""
    if not (SRC / "listrank" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import listrank

    if not Path(listrank.__file__).resolve().is_relative_to(SRC):
        return None
    return listrank


def layer_metrics(measured, setup, notes, extra) -> dict:
    """Values of PER_LAYER from span summaries of the traced repetitions and set-up."""
    values = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        source = setup if layer in ("dataset.generate_synthetic", "tokenizer.train_bpe") else measured
        if field in ("calls", "s", "self_s", "failed") and layer in source:
            values[name] = getattr(source[layer], field)
        elif field == "tokens":
            values[name] = measured[layer].counts.get("tokens", 0) if layer in measured else 0
        else:
            values[name] = 0
    fwd = measured.get("encoder.forward_batch")
    if fwd is not None and fwd.counts.get("positions"):
        values["encoder.pad_ratio"] = fwd.counts["tokens"] / fwd.counts["positions"]
    training_s = sum(measured[c].s for c in TRAINING_CALLS if c in measured)
    if training_s:
        values["losses.share_of_training"] = sum(measured[k].s for k in LOSS_KERNELS if k in measured) / training_s
    for call in TRAINING_CALLS:
        if call in measured and measured[call].s:
            values[f"{call}.child_share"] = 1.0 - measured[call].self_s / measured[call].s
    for key in ("student_untimed_ms", "catalog_untimed_ms"):
        if notes.get(key):
            values[f"serve.{key}"] = statistics.median(notes[key])
    values["cli.import_s"] = extra.get("cli_import_s", 0)
    values["trace.spans"] = sum(t.calls for t in measured.values())
    return values


def run(workload_name, seed, seconds, traced, scale=None) -> tuple[dict, dict, dict]:
    """One benchmark run; returns (result line, details, raw timings)."""
    import checks
    import workloads
    from measure import Calibration, Recorder, describe_ms
    from tracing import NullTracer, Tracer, install, summarize

    scale = scale or workloads.FULL
    wl = workloads.WORKLOADS[workload_name]()
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    calibration = Calibration()
    setup_rec = Recorder(NullTracer(), calibration)
    try:
        setup_tracer = Tracer()
        setup_times, setup_spans, prints = [], [], []
        while not setup_times or (not traced and not _enough_setups(setup_times, scale.setup_repeats)):
            restore = install(setup_tracer) if traced else None
            calibration.sample()
            start = time.perf_counter()
            try:
                state = wl.setup(seed, scale, workdir)
            finally:
                if restore:
                    restore()
            setup_spans.append((start, time.perf_counter()))
            setup_times.append(setup_spans[-1][1] - start)
            calibration.sample()
            prints.append(wl.fingerprint(state))
        setup_rec.check("setup_repeat", [] if len(set(prints)) == 1 else ["set-ups disagree"])
        state.root, state.workdir = ROOT, workdir
        wl.prepare(state)

        rec = Recorder(NullTracer(), calibration)
        calibration.take_baseline()
        units, _ = measure(wl, state, rec, seconds=seconds)
        passes = [rec]
        if traced:
            tracer = Tracer()
            restore = install(tracer)
            try:
                trec = Recorder(tracer, calibration)
                measure(wl, state, trec, units=units)
            finally:
                restore()
            passes.append(trec)
        details = wl.finish(state, rec, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = checks.environment(THREAD_VARS)
    key = f"{workload_name}|seed={seed}|{scale}|code={checks.code_digest(ROOT)}"
    drift = checks.compare_with_earlier(out_dir / "digests.json", key, details.get("outputs"), env)
    drift_problem = [] if drift["agree"] or not drift["same_environment"] else [
        "outputs differ from an earlier run of the same seed, code and environment"]
    setup_rec.check("drift", drift_problem)

    # Calibration divides out whatever slows the kernel too, so a change that
    # slows the whole process (a thread holding the GIL, a bigger heap) would
    # not show in the op times. Flag a run whose kernel got slower or faster
    # from just before the first operation to the ones after it by more than
    # the op bounds.
    kernel_drift = calibration.drift()
    drift_bound = max(m["bound"] for m in SPEC["end_to_end"] if m["unit"] == "ms")
    if abs(kernel_drift) > drift_bound:
        print(f"warning: the calibration kernel's median moved by {kernel_drift:+.0%} from before the first "
              f"operation to after it; op times may hide or show a whole-process change", file=sys.stderr)

    recs = [setup_rec, *passes]
    attempted = sum(r.attempted for r in recs)
    failures = [f for r in recs for f in r.failures]
    details.update({
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "units": units, "ops": dict(zip(("op1", "op2", "op3", "op4"), wl.ops)),
        "timings": {op: describe_ms(rec.times[op]) for op in sorted(rec.times)},
        "setup_runs_s": setup_times, "calibration": {
            "samples": len(calibration.samples), "median_ms": 1000.0 * statistics.median(calibration.samples),
            "reference_ms": 1000.0 * calibration.REFERENCE_S, "kernel_drift": kernel_drift,
            "kernel_drift_over_bound": abs(kernel_drift) > drift_bound}, "env": env, "drift": drift, "failures": failures[:20],
    })
    if traced:
        # Only spans under an operation: the benchmark's own reference work
        # between operations may call listrank too, and is not the program's.
        measured, setup = summarize(trec.tracer.spans, under="op."), summarize(setup_tracer.spans)
        plain = sum(sum(rec.times[op]) for op in wl.ops)
        with_spans = sum(sum(trec.times[op]) for op in wl.ops)
        metrics = layer_metrics(measured, setup, rec.notes, details)
        metrics["trace.overhead_share"] = with_spans / plain - 1.0 if plain else 0
        details["traced_timings"] = {op: describe_ms(trec.times[op]) for op in wl.ops}
        if measured:
            details["child_share"] = {c: metrics[f"{c}.child_share"] for c in TRAINING_CALLS}
        units_of = PER_LAYER
        spans_file = out_dir / f"{workload_name}-seed{seed}-spans.json"
        spans_file.write_text(json.dumps({"setup": setup_tracer.dump(), "measured": trec.tracer.dump()}))
        details["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics = {"setup_s": statistics.median((b - a) * calibration.scale_at(a, b) for a, b in setup_spans)}
        for k, op in enumerate(wl.ops, start=1):
            if rec.times[op]:
                metrics[f"op{k}_p50_ms"] = statistics.median(rec.scaled(op)) * 1000.0
        units_of = END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units_of[name]}
                    for name in units_of if name in metrics},
    }
    raw = {"calibration": {"at": calibration.at, "seconds": calibration.samples},
           "setup": setup_spans, "ops": {op: rec.spans[op] for op in wl.ops}}
    return result, details, raw


def _enough_setups(times, at_least) -> bool:
    """At least ``at_least`` set-ups, and more while they add up to under two
    seconds (up to 15), so that a quick set-up is still timed steadily."""
    return len(times) >= at_least and (sum(times) >= 2.0 or len(times) >= 15)


def measure(wl, state, rec, seconds=None, units=None):
    """Warm up, then repeat the workload's unit for ``seconds`` (at least its
    minimum count) or exactly ``units`` times. Returns (units, wall seconds)."""
    wl.warmup(state, rec)
    rec.times.clear()
    rec.notes.clear()
    rec.spans.clear()
    if hasattr(rec.tracer, "spans"):
        rec.tracer.spans.clear()
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if units is not None and i >= units:
            break
        if units is None and i >= wl.min_units(state.scale) and elapsed >= seconds:
            break
        rec.tracer.call(f"unit.{wl.name}", wl.unit, state, i, rec)
        i += 1
    return i, time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_library() is None:
        print(f"error: no listrank sources under {SRC}; run from a listrank checkout", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, details, raw = run(args.workload, args.seed, args.seconds, bool(args.trace))
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [n for n in wanted if n not in result["metrics"]]
    report = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"result": result, "details": details, "raw": raw}, default=str))
    print(json.dumps(details, default=str))
    if missing:
        print(f"error: no measurement for {missing}; failures: {details['failures']}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
