"""Record the benchmark matrix in one BENCH_<n>.json file.

    python3 scripts/bench.py --out BENCH_<n>.json

Runs the benchmark's own command, ``python3 lcbench/run.py --seconds 20``,
on each of its four workloads: three untraced runs (seeds 1, 2, 3) and one
traced run (seed 1).  The file holds, per workload, the median, quartiles
and run values of every end-to-end metric, the traced per-layer metrics
(self time, share and counters), and a digest of the report fingerprints of
the first 100 operations of each untraced run (operation i depends only on
the workload, the seed and i, so digests compare across commits; they are
empty for the library workloads, which render no report); plus the
environment that ``lcbench`` records, whose ``src_lines`` is the line count
of ``src/lcivt``.  Run it from anywhere; it runs ``lcbench`` from the root
of this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("lift", "residue", "cli-lc", "cli-hahn")
FINGERPRINT_OPS = 100  # lcbench runs at least this many operations
RUNS, SECONDS, SEED = 3, 20, 1


def run(workload, seed, trace):
    cmd = [sys.executable, "lcbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                               proc.stderr[-3000:]))
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((ROOT / "lcbench" / "out" / (
        "%s-seed%d-trace%d.json" % (workload, seed, trace))).read_text())
    return summary, details


def fingerprint_digest(details):
    prints = details.get("fingerprints", {})
    first = [prints.get(str(i)) for i in range(FINGERPRINT_OPS)]
    if not any(first):
        return None
    return hashlib.sha256(json.dumps(first).encode()).hexdigest()


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def workload_record(workload):
    untraced = [run(workload, SEED + r, 0) for r in range(RUNS)]
    end_to_end = {}
    for name, entry in untraced[0][0]["metrics"].items():
        values = [s["metrics"][name]["value"] for s, _ in untraced]
        end_to_end[name] = {"unit": entry["unit"], "median": statistics.median(values),
                            "quartiles": quartiles(values), "runs": values}
    traced, _ = run(workload, SEED, 1)
    return {
        "seeds": [SEED + r for r in range(RUNS)],
        "correct": all(s["correct"] for s, _ in untraced) and traced["correct"],
        "attempted": [s["attempted"] for s, _ in untraced],
        "failed": [s["failed"] for s, _ in untraced],
        "end_to_end": end_to_end,
        "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        "fingerprints_sha256": [fingerprint_digest(d) for _, d in untraced],
    }, untraced[0][1]["environment"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="file to write, BENCH_<n>.json")
    args = ap.parse_args()
    record = {"command": "python3 lcbench/run.py", "seconds": SECONDS, "runs": RUNS,
              "workloads": {}}
    for workload in WORKLOADS:
        record["workloads"][workload], env = workload_record(workload)
        record["environment"] = env
        print("%s: ops_per_s median %.4g" % (
            workload, record["workloads"][workload]["end_to_end"]["ops_per_s"]["median"]),
            file=sys.stderr)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
