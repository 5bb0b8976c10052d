"""Self-test of the benchmark: every oracle rejects a corrupted answer, and
the tracer leaves every wrapped function as it found it.

    python3 lcbench/selftest.py

Exit code 0 when every corrupted answer was counted as a failure.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracing  # noqa: E402
from oracle import Unanswered  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from lcivt.hensel import Factorization  # noqa: E402
from lcivt.lcnum import Exponent, LcNumber  # noqa: E402


def _run(wl, spec):
    out = wl.call(wl.prepare(spec))
    err = wl.check(spec, out)
    if isinstance(err, Unanswered):
        return None  # a known failing request: nothing to corrupt
    if err is not None:
        raise SystemExit("%s: uncorrupted answer rejected: %s" % (wl.name, err))
    return out


def _lift_cases():
    wl = WORKLOADS["lift"]
    spec = next(s for s in (wl.spec(0, i) for i in range(wl.cycle)) if s["pivot"] >= 2)
    ns, fact = _run(wl, spec)
    small = LcNumber.monomial(Exponent.lc(Fraction(5)), 1)

    def with_p(i, delta):
        p = list(fact.p_coeffs)
        p[i] = p[i] + delta
        return ns, Factorization(p, fact.b_coeffs, fact.achieved_cutoff, fact.degree_cap)

    def with_b(j, delta):
        b = list(fact.b_coeffs)
        b[j] = b[j] + delta
        return ns, Factorization(fact.p_coeffs, b, fact.achieved_cutoff, fact.degree_cap)

    yield wl, spec, "P[0] + eps^5", with_p(0, small), False
    yield wl, spec, "st(P[1]) + 1", with_p(1, LcNumber.one(small.mode)), False
    yield wl, spec, "B[1] + eps^5", with_b(1, small), False
    yield wl, spec, "P not monic", with_p(spec["pivot"], small), False
    yield wl, spec, "P truncated below the cutoff", with_p(0, LcNumber(
        small.mode, [], Exponent.lc(Fraction(3)))), False
    yield wl, dict(spec, pivot=spec["pivot"] + 1), "other pivot", (ns, fact), False


def _residue_cases():
    wl = WORKLOADS["residue"]
    spec = wl.spec(0, 0)
    count, reports = _run(wl, spec)
    yield wl, spec, "count + 1", (count + 1, reports), False
    yield wl, spec, "count - 1", (count - 1, reports), False


def _edit(text, change):
    report = json.loads(text)
    change(report)
    return json.dumps(report)


def _cli_cases(name):
    wl = WORKLOADS[name]
    seen = set()
    for i in range(wl.cycle):
        spec = wl.spec(0, i)
        if spec["kind"] in seen:
            continue
        out = _run(wl, spec)
        if out is None:
            print("skipped  %-9s %s: the program fails on it" % (wl.name, spec["kind"]))
            continue
        seen.add(spec["kind"])
        rc, text = out
        res = "results"
        corruptions = {
            "eval": [("sign flipped",
                      lambda r: r[res].update(sign=-r[res]["sign"]))],
            "factor": [("pivot + 1", lambda r: r[res].update(pivot=r[res]["pivot"] + 1)),
                       ("P not monic",
                        lambda r: r[res]["factorization"]["p_coeffs"].__setitem__(-1, "2"))],
            "ivt-planted": [("root moved", lambda r: r[res]["root"].update(root="100"))],
            "ivt-gappy": [("root outside", lambda r: r[res]["root"].update(
                root="eps^(-7) + O(eps)"))],
            "zeros": [("count + 1", lambda r: r[res].update(count=r[res]["count"] + 1))],
            "mult": [("multiplicity + 1", lambda r: r[res].update(
                multiplicity=r[res]["multiplicity"] + 1))],
            "track-zeros": [("record dropped", lambda r: r[res].pop()),
                            ("target moved", lambda r: r["certificates"]["target"].update(
                                root="100"))],
            "track-extremes": [("kind swapped", lambda r: r["certificates"].update(
                target_kind={"min": "max", "max": "min"}[r["certificates"]["target_kind"]]))],
        }[spec["kind"].replace("-at-0", "")]
        for label, change in corruptions:
            yield wl, spec, "%s %s" % (spec["kind"], label), (rc, _edit(text, change)), False
        yield wl, spec, spec["kind"] + " ok false", (rc, _edit(
            text, lambda r: r.update(ok=False))), True
        yield wl, spec, spec["kind"] + " exit 4", (4, text), True
        yield wl, spec, spec["kind"] + " not JSON", (rc, text[:-5]), False


def _tracer_restores():
    import lcivt.lcnum

    before = [(owner, attr, fn) for owner, attr, fn in tracing.traced_targets()]
    mul = lcivt.lcnum.LcNumber.__mul__
    tracer = tracing.Tracer()
    tracer.install()
    wrapped = tracing.is_wrapper(lcivt.lcnum.LcNumber.__mul__)
    tracer.uninstall()
    after = tracing.traced_targets()
    same = all(vars(o)[a] is f if isinstance(o, type) else getattr(o, a) is f
               for (o, a, f) in before)
    return wrapped and lcivt.lcnum.LcNumber.__mul__ is mul and same and \
        not any(tracing.is_wrapper(f) for _, _, f in after)


def main():
    missed = 0
    total = 0
    cases = [_lift_cases(), _residue_cases(), _cli_cases("cli-lc"), _cli_cases("cli-hahn")]
    for gen in cases:
        for wl, spec, label, out, unanswered in gen:
            total += 1
            err = wl.check(spec, out)
            ok = err is not None and isinstance(err, Unanswered) == unanswered
            missed += not ok
            print("%-8s %-9s %-40s -> %s" % ("counted" if ok else "MISSED", wl.name, label,
                                            err))
    restored = _tracer_restores()
    print("tracer restores every original: %s" % restored)
    print("%d of %d corrupted answers counted as failures" % (total - missed, total))
    return 0 if missed == 0 and restored else 1


if __name__ == "__main__":
    sys.exit(main())
