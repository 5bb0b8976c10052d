"""One workload in one fresh interpreter; prints one JSON line.

    worker.py --workload W --setup
        import lcivt and finish the workload's warm-up operation, nothing
        else; prints that time and the calibration scale around it
    worker.py --workload W --seed N --seconds S [--min-ops M]
        untraced stream: operations 0, 1, ... until S seconds have passed
        and at least M operations are done
    worker.py --workload W --seed N --ops K --trace SPANS.jsonl.gz
        operations 0 .. K-1 with every layer wrapped; writes the spans

Each stream starts with the warm-up operation, untimed, so lazy imports
(sympy) are done before timing; their cost is what set-up measures.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from calib import REFERENCE_S, Calibrator, snippet_seconds  # noqa: E402
from oracle import Unanswered  # noqa: E402

HARD_CAP_S = 120.0


def _cache():
    from lcivt.realalg import _factor_int_poly

    info = _factor_int_poly.cache_info()
    return {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}


def _one(wl, spec):
    """(latency seconds, error or None, output or None) of one operation."""
    arg = wl.prepare(spec)
    t0 = time.perf_counter()
    try:
        out = wl.call(arg)
    except (Exception, SystemExit) as exc:  # every raise is a failed operation
        err = Unanswered("raised %s: %s" % (type(exc).__name__, exc))
        return time.perf_counter() - t0, err, None
    dt = time.perf_counter() - t0
    return dt, wl.check(spec, out), out


def _warmup(wl):
    _, err, _ = _one(wl, wl.warmup())
    if err is not None:
        raise SystemExit("warm-up operation failed: %s" % err)


def _known_defects(wl, seed):
    """Each known-defect request, run once after the stream: still failing?"""
    out = []
    for spec in getattr(wl, "defect_specs", lambda seed: [])(seed):
        _, err, _ = _one(wl, spec)
        out.append({"kind": spec["kind"], "reproduced": err is not None,
                    "error": None if err is None else str(err),
                    "input": repr(wl.prepare(spec))[:2000]})
    return out


def _originals_in_place():
    import tracing

    wrapped = [attr for _, attr, fn in tracing.traced_targets() if tracing.is_wrapper(fn)]
    return "wrapped functions in an untraced run: %s" % wrapped if wrapped else None


def _stream(wl, seed, ops=None, seconds=None, min_ops=0, tracer=None):
    lat, marks, kinds, failures, prints, report_bytes = [], [], [], [], {}, 0
    cal = Calibrator()
    start = time.perf_counter()
    i = 0
    while True:
        if ops is not None:
            if i >= ops:
                break
        else:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and i >= min_ops) or elapsed >= HARD_CAP_S:
                break
        spec = wl.spec(seed, i)
        marks.append(cal.mark())
        if tracer is not None:
            tracer.request, tracer.kind = i, spec["kind"]
        dt, err, out = _one(wl, spec)
        lat.append(dt)
        kinds.append(spec["kind"])
        if err is not None:
            failures.append({"op": i, "kind": spec["kind"], "error": str(err),
                             "wrong": not isinstance(err, Unanswered),
                             "input": repr(wl.prepare(spec))[:2000]})
        elif wl.name.startswith("cli-"):
            from workloads import fingerprint

            prints[str(i)] = fingerprint(out[1])
            report_bytes += len(out[1].encode())
        i += 1
    cal.finish()
    return {"latencies": lat, "scales": [cal.scale(m) for m in marks], "kinds": kinds,
            "failures": failures, "fingerprints": prints, "report_bytes": report_bytes}


def _quantile(counter, q):
    """Nearest-rank quantile of the values counted in ``counter``."""
    total, seen = sum(counter.values()), 0
    for value in sorted(counter):
        seen += counter[value]
        if seen >= q * total:
            return value
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--min-ops", type=int, default=0)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--trace")
    args = ap.parse_args()

    before = snippet_seconds()
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    import lcivt

    wl = WORKLOADS[args.workload]
    _warmup(wl)
    setup_s = time.perf_counter() - t0
    if Path(lcivt.__file__).resolve().parent != SRC / "lcivt":
        raise SystemExit("imported lcivt from %s, not from %s" % (lcivt.__file__, SRC))
    if args.setup:
        scale = REFERENCE_S / ((before + snippet_seconds()) / 2)
        sys.stdout.write(json.dumps({"setup_s": setup_s, "scale": scale}) + "\n")
        return 0

    result = {"cycle": wl.cycle, "cache_before": _cache()}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            result.update(_stream(wl, args.seed, ops=args.ops, tracer=tracer))
        finally:
            tracer.uninstall()
        result["wrapper_check"] = _originals_in_place()
        tracer.dump(args.trace)
        result.update(
            self_s=tracer.self_s,
            counts=dict(tracer.counts),
            inclusive=[[k, n, s] for (k, n), s in tracer.inclusive.items()],
            terms_p50=_quantile(tracer.terms, 0.5),
            terms_max=max(tracer.terms, default=0),
            spans=sum(1 for s in tracer.spans if s is not None),
        )
    else:
        result["wrapper_check"] = _originals_in_place()
        result.update(_stream(wl, args.seed, ops=args.ops, seconds=args.seconds,
                              min_ops=args.min_ops))
    result["cache_after"] = _cache()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["known_defects"] = _known_defects(wl, args.seed)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
