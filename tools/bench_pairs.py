"""Compare two locact trees on one benchmark workload in alternating pairs.

    python tools/bench_pairs.py PARENT CHANGE --workload W [--seeds 1 8]
        [--pairs 10] [--seconds 20]

Each pair runs ``bench/run.py --trace 0`` of both trees, each in its own
checkout and unmodified, with the same workload, seed and run length.  The
first pair runs PARENT first and every later pair flips the order; pair k
uses seed ``seeds[k % len(seeds)]``.  Each run is printed as it finishes.

Then, for every end-to-end metric of CHANGE's ``BENCHMARK.json``, one line
gives each side's median [lower quartile, upper quartile], the change's
median over the parent's, the pairs the change wins (ties count for
neither) and a verdict:

- ``gain``: the change wins at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range;
- ``unresolved``: the interquartile range of either side, over its median,
  exceeds the metric's bound, and not every change run beats every parent
  run;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``within bound`` otherwise.

The exit code is 1 when a run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def run_bench(tree, workload, seed, seconds):
    """The last stdout line of one untraced benchmark run, as JSON."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: bench/run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def verdict(parent, change, better, bound):
    """The change's wins and the verdict word of one metric, from each
    side's values in pair order."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = quartiles(parent), quartiles(change)
    if wins >= math.ceil(0.9 * len(parent)) and sign * (c_med - p_med) > p_q3 - p_q1:
        return wins, "gain"
    spread = max((q3 - q1) / abs(med) if med else math.inf
                 for q1, med, q3 in ((p_q1, p_med, p_q3), (c_q1, c_med, c_q3)))
    all_better = min(change) > max(parent) if better == "higher" \
        else max(change) < min(parent)
    if spread > bound and not all_better:
        return wins, "unresolved"
    if p_med and -sign * (c_med - p_med) / abs(p_med) > bound:
        return wins, "worse"
    return wins, "within bound"


def quartiles(values):
    return np.percentile(values, [25, 50, 75])


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    ok = True
    for k in range(args.pairs):
        seed = args.seeds[k % len(args.seeds)]
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            result = run_bench(trees[side], args.workload, seed, args.seconds)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            runs[side].append(values)
            ok &= bool(result["correct"]) and result["failed"] == 0
            print(f"pair {k + 1} seed {seed} {side}: correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}, " + ", ".join(
                      f"{name} {value:.4g}" for name, value in values.items()),
                  flush=True)
    print(f"\n{args.workload}, {args.pairs} pairs, seeds {args.seeds}, "
          f"--seconds {args.seconds:g}: median [quartiles], parent -> change")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins, word = verdict(parent, change, metric["better"], metric["bound"])
        (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = quartiles(parent), quartiles(change)
        ratio = f"{c_med / p_med:.3f}x" if p_med else "n/a"
        print(f"  {name:18s} {metric['unit']:4s} {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}] -> "
              f"{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]  {ratio}  wins {wins}/{args.pairs}  "
              f"{word} (bound {metric['bound']:.0%}, {metric['better']} is better)")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
