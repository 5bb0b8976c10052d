"""The lcivt benchmark: one workload, one seed, one run.

    python3 lcbench/run.py --workload lift --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; lcivt is imported from ``src/``.  With
``--trace 0`` the run measures set-up (several fresh interpreters) and an
untraced closed-loop stream, and reports the end-to-end metrics.  With
``--trace 1`` it runs a short untraced stream, then the same operations
traced in a fresh interpreter, and reports the per-layer metrics.  Times
are in reference seconds (see calib.py).  Every answer is checked by the
benchmark's own oracle.  The last line of standard output is one JSON
object; details go to ``lcbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("lift", "residue", "cli-lc", "cli-hahn")
SETUP_SAMPLES = 5
# p90 needs at least ten samples beyond it.
MIN_OPS = 100
# Share of --seconds spent on the untraced reference stream of a traced run.
TRACE_REFERENCE = 0.4
RUN_BUDGET_S = 170.0


class RunError(Exception):
    pass


def _worker(args, deadline):
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("worker timed out: %s" % " ".join(args))
    if proc.returncode != 0:
        raise RunError("worker %s exited %d:\n%s" % (" ".join(args), proc.returncode,
                                                    proc.stderr[-3000:]))
    return proc.stdout


def _worker_json(args, deadline):
    return json.loads(_worker(args, deadline).strip().splitlines()[-1])


def _rank(values, q):
    """Nearest-rank q-quantile; failed operations sort last as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _environment():
    return {
        "python": platform.python_version(),
        "sympy": metadata.version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "lcivt").glob("*.py"))),
    }


def _scaled(res):
    """Latencies in reference seconds (see calib.py)."""
    return [dt * f for dt, f in zip(res["latencies"], res["scales"])]


def _stream_metrics(lat, failures):
    failed_ops = {f["op"] for f in failures}
    timed = [math.inf if i in failed_ops else dt for i, dt in enumerate(lat)]
    certified = len(lat) - len(failed_ops)
    return {
        "ops_per_s": (certified / sum(lat), "1/s"),
        "latency_p50_s": (_rank(timed, 0.5), "s"),
        "latency_p90_s": (_rank(timed, 0.9), "s"),
        "success_ratio": (certified / len(lat), "ratio"),
    }


def end_to_end(workload, seed, seconds, deadline):
    _worker(["--workload", workload, "--setup"], deadline)  # writes .pyc files
    samples = [_worker_json(["--workload", workload, "--setup"], deadline)
               for _ in range(SETUP_SAMPLES)]
    setup_raw = [x["setup_s"] for x in samples]
    setup = [x["setup_s"] * x["scale"] for x in samples]
    res = _worker_json(["--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--min-ops", str(MIN_OPS)], deadline)
    metrics = _stream_metrics(_scaled(res), res["failures"])
    metrics["setup_s"] = (statistics.median(setup), "s")
    metrics["peak_rss_mb"] = (res["peak_rss_kb"] / 1024, "MB")
    raw = _stream_metrics(res["latencies"], res["failures"])
    raw["setup_s"] = (statistics.median(setup_raw), "s")
    details = {
        "samples": len(res["latencies"]), "setup_samples_s": setup,
        "raw_wall_metrics": {k: v for k, (v, _) in raw.items()},
        "cache_before": res["cache_before"], "cache_after": res["cache_after"],
        "fingerprints": res["fingerprints"], "report_bytes": res["report_bytes"],
        "per_kind": _per_kind(res["kinds"], _scaled(res)),
        "latencies_s": _scaled(res), "kinds": res["kinds"],
    }
    return metrics, res, details


def _per_kind(kinds, lat):
    out = {}
    for kind, dt in zip(kinds, lat):
        entry = out.setdefault(kind, {"n": 0, "s": 0.0})
        entry["n"] += 1
        entry["s"] += dt
    return out


def per_layer(workload, seed, seconds, deadline):
    ref = _worker_json(["--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds * TRACE_REFERENCE)], deadline)
    done, cycle = len(ref["latencies"]), ref["cycle"]
    ops = max(1, done - done % cycle if done >= cycle else done)
    OUT.mkdir(exist_ok=True)
    spans = OUT / ("spans-%s-seed%d.jsonl.gz" % (workload, seed))
    res = _worker_json(["--workload", workload, "--seed", str(seed), "--ops", str(ops),
                        "--trace", str(spans)], deadline)
    raw_wall = sum(res["latencies"])
    wall = sum(_scaled(res))
    untraced = sum(_scaled(ref)[:ops])
    # span times are raw; scale them like the latencies they add up to
    scale = wall / raw_wall
    counts = res["counts"]
    inclusive = {}
    by_kind = {}
    for kind, name, s in res["inclusive"]:
        inclusive[name] = inclusive.get(name, 0.0) + s
        by_kind.setdefault(kind, {})[name] = s
    hits = res["cache_after"]["hits"] - res["cache_before"]["hits"]
    misses = res["cache_after"]["misses"] - res["cache_before"]["misses"]

    def per_op(key):
        return counts.get(key, 0) / ops

    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".self_s"] = (res["self_s"][layer] * scale / ops, "s/op")
        metrics[layer + ".share"] = (res["self_s"][layer] / raw_wall, "ratio")
    metrics.update({
        "hensel.factor_calls": (per_op("hensel.factor_calls"), "count/op"),
        "hensel.poly_mul_calls": (per_op("hensel.poly_mul_calls"), "count/op"),
        "hensel.weierstrass_factor_share": (
            inclusive.get("weierstrass_factor", 0.0) / raw_wall, "ratio"),
        "lcnum.mul_calls": (per_op("lcnum.mul_calls"), "count/op"),
        "lcnum.add_calls": (per_op("lcnum.add_calls"), "count/op"),
        "lcnum.invert_calls": (per_op("lcnum.invert_calls"), "count/op"),
        "lcnum.terms_p50": (res["terms_p50"], "count"),
        "lcnum.terms_max": (res["terms_max"], "count"),
        "realalg.mul_calls": (per_op("realalg.mul_calls"), "count/op"),
        "realalg.sympy_s": (inclusive.get("factor_list", 0.0) * scale / ops, "s/op"),
        "realalg.sympy_factor_misses": (per_op("realalg.sympy_factor_misses"), "count/op"),
        "realalg.sympy_factor_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                                           "ratio"),
        "rootfind.poly_roots_calls": (per_op("rootfind.poly_roots_calls"), "count/op"),
        "rootfind.algebraic_roots_calls": (per_op("rootfind.algebraic_roots_calls"),
                                           "count/op"),
        "rootfind.poly_roots_share": (inclusive.get("poly_roots", 0.0) / raw_wall, "ratio"),
        "pseries.normalize_calls": (per_op("pseries.normalize_calls"), "count/op"),
        "pseries.evaluate_calls": (per_op("pseries.evaluate_calls"), "count/op"),
        "cli.report_bytes": (res["report_bytes"] / ops, "bytes/op"),
        "trace.overhead_ratio": (wall / untraced, "ratio"),
    })
    walls = _per_kind(res["kinds"], res["latencies"])
    split = {kind: {name: s / walls[kind]["s"] for name, s in names.items()}
             for kind, names in by_kind.items()}
    details = {"ops": ops, "traced_s": wall, "untraced_s": untraced, "spans": res["spans"],
               "spans_file": str(spans.relative_to(ROOT)), "inclusive_share_by_kind": split,
               "per_kind": walls, "cache_before": res["cache_before"],
               "cache_after": res["cache_after"]}
    return metrics, res, details


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "lcivt" / "__init__.py").is_file():
        print("lcbench: no lcivt sources under %s" % SRC, file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    run = per_layer if args.trace else end_to_end
    try:
        metrics, res, details = run(args.workload, args.seed, args.seconds, deadline)
    except RunError as exc:
        print("lcbench: %s" % exc, file=sys.stderr)
        return 1
    wrong = [f for f in res["failures"] if f["wrong"]]
    problems = [res["wrapper_check"]] if res["wrapper_check"] else []
    attempted = len(res["latencies"])

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment(),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "attempted": attempted, "failures": res["failures"], "problems": problems,
              "known_defects": res["known_defects"],
              **details}
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("lcbench %s seed=%d trace=%d: %d operations, %d failed, %d wrong answers"
          % (args.workload, args.seed, args.trace, attempted, len(res["failures"]),
             len(wrong)))
    for f in res["failures"][:10]:
        print("  failed op %d (%s): %s" % (f["op"], f["kind"], f["error"][:300]))
    for p in problems:
        print("  problem: %s" % p)
    for d in res["known_defects"]:
        print("  known defect %s (untimed, not in attempted): %s" % (
            d["kind"], d["error"][:300] if d["reproduced"] else "no longer reproduces"))
    for key, (value, unit) in metrics.items():
        print("  %-34s %14.6g %s" % (key, value, unit))
    if args.trace:
        for kind, shares in sorted(details["inclusive_share_by_kind"].items()):
            print("  inclusive share in %-14s %s" % (kind, ", ".join(
                "%s %.1f%%" % (n, 100 * s) for n, s in sorted(shares.items()))))
    print("  details: %s" % (OUT / name).relative_to(ROOT))
    print(json.dumps({
        "correct": not wrong and not problems,
        "attempted": attempted,
        "failed": len(res["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
