#!/usr/bin/env python3
"""Alternating pairs of benchmark runs: a parent checkout against a change.

    python3 scripts/pairs.py --parent DIR --change DIR --workload W --seeds 101-110

For each seed, runs ``python3 lcbench/run.py --workload W --seed S
--seconds 20 --trace 0`` from the root of each checkout, one after the
other (20 s is ``scripts/bench.py``'s run length): the parent first on
even seeds and the change first on odd seeds, so that a drift in the
machine's speed falls on both sides alike.  Then prints, per end-to-end
metric of ``BENCHMARK.json``, each side's median and quartiles, the ratio
of the medians (change / parent) and the number of pairs the change wins:
better in the metric's direction, a tie being no win.  Nothing of this
script's own is written under ``lcbench/``; each run writes its details to
its checkout's ``lcbench/out/``, as ``run.py`` always does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from bench import SECONDS, quartiles

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout, workload, seed):
    """The last JSON line of one untraced ``lcbench/run.py`` run."""
    cmd = [sys.executable, "lcbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s in %s exited %d:\n%s" % (" ".join(cmd), checkout, proc.returncode,
                                                     proc.stderr[-3000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(parent, change, better):
    """Per metric in ``better`` (name -> "higher" or "lower"): each side's
    median and quartiles over its runs, the ratio of the medians, and the
    change's wins over the pairs; ``parent`` and ``change`` are paired lists
    of {metric: value}."""
    out = {}
    for name, direction in better.items():
        a, b = [r[name] for r in parent], [r[name] for r in change]
        sign = 1 if direction == "higher" else -1
        ma, mb = statistics.median(a), statistics.median(b)
        out[name] = {"parent": {"median": ma, "quartiles": quartiles(a), "runs": a},
                     "change": {"median": mb, "quartiles": quartiles(b), "runs": b},
                     "ratio": mb / ma if ma else None,
                     "wins": sum(sign * (y - x) > 0 for x, y in zip(a, b)), "pairs": len(a)}
    return out


def render(summary):
    lines = []
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        lines.append("%-14s parent %.5g [%.5g, %.5g]  change %.5g [%.5g, %.5g]  ratio %s"
                     "  change wins %d of %d" % (
                         name, p["median"], *p["quartiles"], c["median"], *c["quartiles"],
                         "-" if s["ratio"] is None else "%.3f" % s["ratio"],
                         s["wins"], s["pairs"]))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="a range A-B")
    args = ap.parse_args()
    lo, hi = args.seeds.split("-")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    runs = {"parent": [], "change": []}
    correct = True
    for seed in range(int(lo), int(hi) + 1):
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(getattr(args, side), args.workload, seed)
            correct = correct and res["correct"]
            runs[side].append({k: v["value"] for k, v in res["metrics"].items()})
        print("seed %d: ops_per_s parent %.5g, change %.5g" % (
            seed, runs["parent"][-1]["ops_per_s"], runs["change"][-1]["ops_per_s"]),
            file=sys.stderr)
    summary = summarize(runs["parent"], runs["change"], better)
    print("%s, seeds %s, %g s runs%s" % (args.workload, args.seeds, SECONDS,
                                        "" if correct else ", SOME ANSWERS WRONG"))
    print("\n".join(render(summary)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
