#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]

Runs the benchmark once per seed, one run at a time, untraced and for
BENCHMARK.json's ``run_seconds``, and prints for each
end-to-end metric its median over the runs and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of that
median, next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if share < bound / 3 else "WIDE" if share >= bound else "over-third")
        print(f"{name:>14}: median {med:.6g}  iqr/median {share:.3f}  bound {bound}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
