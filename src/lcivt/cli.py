"""Command-line front end: parse series sources, run the pipeline, and emit
JSON/CSV/text reports.

Commands: eval, factor, ivt, zeros, mult, track-zeros, track-extremes, and
``example`` (named experiment fixtures: nilpotent-signs, nilpotent-roots,
hahn-signs, double-zero).  Exit code 0 means every asserted property held;
1 means an assertion failed (a machine-readable failure record is in the
report); 4 means the run raised an error of any kind, I/O and a malformed
``LCIVT_MAX_TERMS`` included.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

from .dsl import parse_exponent, parse_literal, parse_series
from .errors import LcivtError
from .hensel import Factorization, poly_eval, weierstrass_factor
from .lcnum import HAHN, LC, Exponent, LcNumber, eps, eps_n
from .pseries import (
    PolyMulSeries,
    RatFunSeries,
    TermRuleSeries,
    evaluate,
    normalize,
    partial_sum,
    transform_interval,
)
from .realalg import RealAlgebraic
from .rootfind import (
    RootReport,
    TrackRecord,
    count_zeros,
    default_exponent,
    ivt_root,
    multiplicity_at,
    poly_roots,
    target_extreme_kind,
    track_extremes,
    track_partial_sum_zeros,
)

EXAMPLES = ("nilpotent-signs", "nilpotent-roots", "hahn-signs", "double-zero")


@dataclass
class RunConfig:
    command: str
    mode: str = LC
    cutoff: str | None = None
    degree_cap: int | None = None
    series_source: str | None = None
    inline: str | None = None
    interval: str | None = None
    at: str | None = None
    target: str | None = None
    n_list: str | None = None
    window: str | None = None
    example: str | None = None
    l_max: int = 3
    h_max: int = 6
    n_cap: int = 20
    output: str = "json"

    def resolved_cutoff(self, default_depth):
        if self.cutoff is None:
            return default_exponent(self.mode, default_depth)
        return parse_exponent(self.cutoff, self.mode)

    def load_series(self):
        if self.inline is not None:
            return parse_series(self.inline, self.mode)
        if self.series_source is not None:
            with open(self.series_source) as fh:
                return parse_series(fh.read(), self.mode)
        raise LcivtError("no series given: use --series FILE or --inline DSL")

    def parse_pair(self, text, what):
        parts = [p for p in text.split(",") if p.strip()]
        if len(parts) != 2:
            raise LcivtError("%s needs two comma-separated literals" % what)
        return (parse_literal(parts[0], self.mode), parse_literal(parts[1], self.mode))

    def echo(self):
        keys = ("command", "mode", "cutoff", "degree_cap", "series_source",
                "inline", "interval", "at", "target", "n_list", "window",
                "example", "output")
        return {k: getattr(self, k) for k in keys if getattr(self, k) is not None}


@dataclass
class Report:
    config: dict
    results: object
    certificates: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    timing_seconds: float = 0.0

    @property
    def ok(self):
        return not self.failures


def jsonable(value):
    if isinstance(value, LcNumber):
        return value.render()
    if isinstance(value, Exponent):
        return str(value)
    if isinstance(value, RealAlgebraic):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, RootReport):
        return {
            "root": jsonable(value.root),
            "multiplicity": value.multiplicity,
            "residual_valuation": "inf" if value.residual_valuation is None
                                  else str(value.residual_valuation),
            "interval": [jsonable(value.interval[0]), jsonable(value.interval[1])],
            "certificate": jsonable(value.certificate),
            "unresolved": value.unresolved,
            "exact": value.exact,
        }
    if isinstance(value, TrackRecord):
        return {
            "n": value.n,
            "items": [
                {"kind": k, "location": jsonable(loc),
                 "distance_valuation": "inf" if dv is None else str(dv)}
                for k, loc, dv in value.items
            ],
        }
    if isinstance(value, Factorization):
        return {
            "p_coeffs": [jsonable(c) for c in value.p_coeffs],
            "b_coeffs": [jsonable(c) for c in value.b_coeffs],
            "achieved_cutoff": str(value.achieved_cutoff),
            "degree_cap": value.degree_cap,
        }
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def emit_report(report, fmt, stream=None):
    stream = stream if stream is not None else sys.stdout
    payload = {
        "config": jsonable(report.config),
        "results": jsonable(report.results),
        "certificates": jsonable(report.certificates),
        "failures": jsonable(report.failures),
        "ok": report.ok,
        "timing_seconds": report.timing_seconds,
    }
    if fmt == "json":
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    elif fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(["n", "kind", "location", "distance_valuation"])
        rows = report.results if isinstance(report.results, list) else []
        for rec in rows:
            rec = jsonable(rec)
            if isinstance(rec, dict) and "items" in rec:
                for item in rec["items"]:
                    writer.writerow([rec["n"], item["kind"], item["location"],
                                     item["distance_valuation"]])
    elif fmt == "text":
        def walk(obj, indent=0):
            pad = "  " * indent
            if isinstance(obj, dict):
                for k, v in obj.items():
                    if isinstance(v, (dict, list)):
                        stream.write("%s%s:\n" % (pad, k))
                        walk(v, indent + 1)
                    else:
                        stream.write("%s%s: %s\n" % (pad, k, v))
            elif isinstance(obj, list):
                for v in obj:
                    walk(v, indent)
                    if isinstance(v, (dict, list)):
                        stream.write("\n")
            else:
                stream.write("%s%s\n" % (pad, obj))
        walk(payload)
    else:
        raise LcivtError("unknown output format %r" % fmt)


# ------------------------------------------------------------------- commands


def cmd_eval(cfg):
    s = cfg.load_series()
    if cfg.at is None:
        raise LcivtError("eval needs --at <literal>")
    x = parse_literal(cfg.at, cfg.mode)
    cut = cfg.resolved_cutoff(1)
    value = evaluate(s, x, cut)
    try:
        sign = value.sign()
    except LcivtError:
        sign = None
    return {"value": value, "sign": sign, "cutoff": cut}, {}, []


def cmd_factor(cfg):
    s = cfg.load_series()
    cut = cfg.resolved_cutoff(50)
    if cfg.interval is not None:
        a, b = cfg.parse_pair(cfg.interval, "--interval")
        s = transform_interval(s, a, b)
    zero = Exponent.zero(cfg.mode)
    cap = cfg.degree_cap
    if cap is None:
        cap = max(s.tail_index(zero, cut), 4)
    ns = normalize(s, cap, cut)
    fact = weierstrass_factor(ns, cap, cut)
    results = {
        "pivot": ns.N,
        "scale": ns.d,
        "factorization": fact,
    }
    return results, {"achieved_cutoff": fact.achieved_cutoff}, []


def cmd_ivt(cfg):
    s = cfg.load_series()
    if cfg.interval is None:
        raise LcivtError("ivt needs --interval a,b")
    a, b = cfg.parse_pair(cfg.interval, "--interval")
    cut = cfg.resolved_cutoff(50)
    rep = ivt_root(s, a, b, cut, cfg.degree_cap)
    return {"root": rep}, {"residual_valuation": rep.residual_valuation}, []


def cmd_zeros(cfg):
    s = cfg.load_series()
    if cfg.interval is None:
        raise LcivtError("zeros needs --interval a,b")
    a, b = cfg.parse_pair(cfg.interval, "--interval")
    cut = cfg.resolved_cutoff(50)
    count, reports = count_zeros(s, a, b, cut, cfg.degree_cap)
    return {"count": count, "roots": reports}, {}, []


def cmd_mult(cfg):
    s = cfg.load_series()
    if cfg.at is None:
        raise LcivtError("mult needs --at <literal>")
    c = parse_literal(cfg.at, cfg.mode)
    cut = cfg.resolved_cutoff(50)
    m = multiplicity_at(s, c, cut)
    return {"multiplicity": m, "at": c}, {}, []


def _parse_n_list(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def cmd_track_zeros(cfg):
    s = cfg.load_series()
    if cfg.interval is None or cfg.n_list is None:
        raise LcivtError("track-zeros needs --interval a,b and --n-list")
    a, b = cfg.parse_pair(cfg.interval, "--interval")
    cut = cfg.resolved_cutoff(50)
    target = ivt_root(s, a, b, cut, cfg.degree_cap)
    window = cfg.parse_pair(cfg.window, "--window") if cfg.window else (a, b)
    records = track_partial_sum_zeros(s, target, _parse_n_list(cfg.n_list), window)
    return records, {"target": target}, []


def cmd_track_extremes(cfg):
    s = cfg.load_series()
    if cfg.target is None or cfg.n_list is None or cfg.window is None:
        raise LcivtError("track-extremes needs --target, --n-list and --window")
    c = parse_literal(cfg.target, cfg.mode)
    cut = cfg.resolved_cutoff(50)
    mult = multiplicity_at(s, c, cut)
    target = RootReport(root=c, multiplicity=mult, residual_valuation=cut,
                        interval=(c, c))
    window = cfg.parse_pair(cfg.window, "--window")
    records = track_extremes(s, target, _parse_n_list(cfg.n_list), window)
    kind = target_extreme_kind(s, target)
    return records, {"target": target, "target_kind": kind}, []


# ---------------------------------------------------------------- experiments


def nilpotent_series():
    """Alternating eps^(n^2) coefficients; defined on the whole field."""
    return TermRuleSeries(LC, -1, [1], ("poly", [0, 0, 1]))


def hahn_series():
    """Alternating eps_n coefficients in hahn mode."""
    return TermRuleSeries(HAHN, -1, [1], ("seq", 0))


def double_zero_series():
    """(X-1)^2 * F with F = 2 - sum_{n>=1} eps^(n+1) X^n."""
    one = LcNumber.one(LC)
    num = [LcNumber.from_scalar(LC, 2), -(eps() * 2) - eps(2)]
    den = [one, -eps()]
    f = RatFunSeries(LC, num, den)
    return PolyMulSeries([1, -2, 1], f)


def example_nilpotent_signs(cfg):
    if not 1 <= cfg.l_max <= 5:
        raise LcivtError("l out of the documented range (1..5)")
    s = nilpotent_series()
    cut = cfg.resolved_cutoff(1)
    rows, failures = [], []
    for l in range(1, cfg.l_max + 1):
        for m, expected in ((-4 * l, 1), (-4 * l - 2, -1)):
            value = evaluate(s, eps(m), cut)
            sign = value.sign()
            rows.append({"l": l, "at": "eps^(%d)" % m, "sign": sign,
                         "expected": expected, "value": value})
            if sign != expected:
                failures.append({"l": l, "at": "eps^(%d)" % m,
                                 "got": sign, "expected": expected})
    return rows, {"cutoff": cut}, failures


def example_nilpotent_roots(cfg):
    if not 1 <= cfg.l_max <= 5:
        raise LcivtError("l out of the documented range (1..5)")
    s = nilpotent_series()
    cut = cfg.resolved_cutoff(25)
    rows, failures = [], []
    for l in range(1, min(cfg.l_max, 2) + 1):
        a, b = eps(-4 * l), eps(-4 * l - 2)
        rep = ivt_root(s, a, b, cut)
        value = evaluate(s, rep.root, cut)
        certified = value.is_zero_below(cut)
        rows.append({"l": l, "root": rep, "certified": certified})
        if not certified:
            failures.append({"l": l, "reason": "residual not certified"})
    return rows, {"cutoff": cut}, failures


def example_hahn_signs(cfg):
    if not 2 <= cfg.h_max <= 8:
        raise LcivtError("h out of the documented range (2..8)")
    s = hahn_series()
    cut = parse_exponent(cfg.cutoff, HAHN) if cfg.cutoff else Exponent.hahn({1: 1})
    rows, failures = [], []
    for h in range(2, cfg.h_max + 1):
        value = evaluate(s, eps_n(h, -1), cut)
        sign = value.sign()
        expected = 1 if h % 2 == 0 else -1
        rows.append({"h": h, "at": "eps[%d]^(-1)" % h, "sign": sign,
                     "expected": expected})
        if sign != expected:
            failures.append({"h": h, "got": sign, "expected": expected})
    return rows, {"cutoff": cut}, failures


def example_double_zero(cfg):
    if not 2 <= cfg.n_cap <= 30:
        raise LcivtError("n out of the documented range (2..30)")
    n_list = _parse_n_list(cfg.n_list) if cfg.n_list else [5, 10, 20]
    n_list = [n for n in n_list if n <= cfg.n_cap] or [cfg.n_cap]
    t = double_zero_series()
    one = LcNumber.one(LC)
    target = RootReport(root=one, multiplicity=2, residual_valuation=None,
                        interval=(LcNumber.from_scalar(LC, Fraction(3, 4)),
                                  LcNumber.from_scalar(LC, Fraction(5, 4))))
    window = target.interval
    cut = cfg.resolved_cutoff(50)
    kind = target_extreme_kind(t, target)
    rows, failures = [], []
    grid = [Fraction(3, 4) + Fraction(k, 32) for k in range(17)]
    last_dist = None
    for n in n_list:
        coeffs = partial_sum(t, n)
        grid_ok = all(
            poly_eval(coeffs, LcNumber.from_scalar(LC, x)).sign() > 0 for x in grid)
        hits = [h for h in poly_roots(coeffs, cut, window=window)
                if h.value.compare(window[0]) >= 0 and h.value.compare(window[1]) <= 0]
        no_root = not hits
        records = track_extremes(t, target, [n], window)
        matched = [(k, loc, dv) for k, loc, dv in records[0].items
                   if k == kind and dv is not None and dv.sign() > 0]
        row = {
            "n": n,
            "no_sign_change": grid_ok and no_root,
            "grid_positive": grid_ok,
            "no_root_in_window": no_root,
            "extremes": records[0],
            "matched_kind": kind,
        }
        if matched:
            dist = matched[0][2]
            row["extreme_distance_valuation"] = str(dist)
            if last_dist is not None and dist.compare(last_dist) < 0:
                failures.append({"n": n, "reason": "distance valuation decreased"})
            last_dist = dist
        else:
            failures.append({"n": n, "reason": "no matched extreme found"})
        if not (grid_ok and no_root):
            failures.append({"n": n, "reason": "sign change detected"})
        rows.append(row)
    return rows, {"target_kind": kind, "cutoff": cut}, failures


def cmd_example(cfg):
    name = cfg.example
    if name == "nilpotent-signs":
        return example_nilpotent_signs(cfg)
    if name == "nilpotent-roots":
        return example_nilpotent_roots(cfg)
    if name == "hahn-signs":
        cfg.mode = HAHN
        return example_hahn_signs(cfg)
    if name == "double-zero":
        return example_double_zero(cfg)
    raise LcivtError("unknown example %r" % name)


_COMMANDS = {
    "eval": cmd_eval,
    "factor": cmd_factor,
    "ivt": cmd_ivt,
    "zeros": cmd_zeros,
    "mult": cmd_mult,
    "track-zeros": cmd_track_zeros,
    "track-extremes": cmd_track_extremes,
    "example": cmd_example,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lcivt",
        description="Exact root finding for power series over non-Archimedean "
                    "ordered fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--mode", choices=(LC, HAHN), default=LC)
        p.add_argument("--cutoff", help="rational (lc) or i:q,... (hahn)")
        p.add_argument("--degree-cap", type=int, dest="degree_cap")
        p.add_argument("--series", dest="series_source", help="series DSL file")
        p.add_argument("--inline", help="series DSL text")
        p.add_argument("--output", choices=("json", "csv", "text"), default="json")

    for name in ("eval", "mult"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--at", required=True, help="evaluation point literal")
    for name in ("ivt", "zeros"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--interval", required=True, help="a,b literals")
    p = sub.add_parser("factor")
    common(p)
    p.add_argument("--interval", help="transform [a,b] onto [1,2] first")
    p = sub.add_parser("track-zeros")
    common(p)
    p.add_argument("--interval", required=True, help="bracketing interval a,b")
    p.add_argument("--n-list", dest="n_list", required=True, help="e.g. 1,2,3")
    p.add_argument("--window", help="defaults to the interval")
    p = sub.add_parser("track-extremes")
    common(p)
    p.add_argument("--target", required=True, help="even-order root literal")
    p.add_argument("--n-list", dest="n_list", required=True)
    p.add_argument("--window", required=True)
    p = sub.add_parser("example")
    common(p)
    p.add_argument("example", choices=EXAMPLES)
    p.add_argument("--l", dest="l_max", type=int, default=3)
    p.add_argument("--h", dest="h_max", type=int, default=6)
    p.add_argument("--n", dest="n_cap", type=int, default=20)
    p.add_argument("--n-list", dest="n_list")
    return parser


def run(cfg):
    handler = _COMMANDS[cfg.command]
    t0 = time.monotonic()
    results, certificates, failures = handler(cfg)
    dt = time.monotonic() - t0
    return Report(config=cfg.echo(), results=results, certificates=certificates,
                  failures=failures, timing_seconds=round(dt, 6))


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    fields = {f for f in RunConfig.__dataclass_fields__}
    cfg = RunConfig(**{k: v for k, v in vars(ns).items() if k in fields and v is not None})
    try:
        report = run(cfg)
    except Exception as exc:  # every error, typed or not, is exit code 4
        if not isinstance(exc, LcivtError):
            traceback.print_exc(file=sys.stderr)
        err = Report(config=cfg.echo(), results=None,
                     failures=[{"error": type(exc).__name__, "message": str(exc)}])
        emit_report(err, cfg.output)
        return 4
    emit_report(report, cfg.output)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
