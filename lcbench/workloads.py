"""The four workloads: seeded inputs, the call under test, and its oracle.

Every workload is a closed-loop stream with one client: operation i is
built from (workload, seed, i) alone, so a run that completes k operations
always ran the same first k inputs.  Structural choices (pivot, root kinds,
request kinds) follow a fixed cycle; the seed draws the values.  A fixed
cycle keeps the mix of cheap and expensive operations the same in every
run, so the spread between seeds measures the program, not the luck of the
draw.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction as F

import oracle
from oracle import OracleError, Unanswered

# Calls go through the module attributes, where a traced run wraps them.
from lcivt import cli, hensel, pseries, rootfind
from lcivt.lcnum import HAHN, LC, Exponent, LcNumber


def _rng(*key):
    return random.Random(":".join(str(k) for k in key))


def _lc_number(terms):
    return LcNumber(LC, [(Exponent.lc(e), c) for e, c in terms.items()])


# ----------------------------------------------------------------------- lift

_LIFT_CAP = 12
_LIFT_CUTOFF = F(10)

# Criterion-4 shapes (pivot, eps-tail exponents of the coefficients below the
# pivot, {degree: exponent} of the infinitesimal tail above it), each with
# its number of positions in the cycle.  Repeats put the median inside the
# pivot-2 group and the p90 inside the pivot-4 group, so neither sits on a
# gap between two unrelated shapes.
_H = F(1, 2)
_LIFT_SHAPES = (
    ((0, [], {3: _H, 7: F(1)}), 3),
    ((1, [F(1)], {6: _H}), 2),
    ((3, [F(2), None, None], {5: _H}), 2),
    ((2, [F(1), None], {5: _H, 8: F(2)}), 7),
    ((3, [None, _H, None], {6: F(3, 2), 10: _H}), 2),
    ((4, [F(3, 2), None, F(1), None], {7: _H, 9: F(1), 12: F(3)}), 4),
)


def _lift_cycle():
    """The shapes interleaved, so that a partial cycle still mixes pivots."""
    slots = [shape for shape, n in _LIFT_SHAPES for _ in range(n)]
    return slots[0::2] + slots[1::2]


class Lift:
    """normalize + weierstrass_factor on criterion-4-shaped series."""

    name = "lift"
    shapes = _lift_cycle()
    cycle = len(shapes)

    def spec(self, seed, i):
        pivot, heads, tails = self.shapes[i % self.cycle]
        rng = _rng(self.name, seed, i)
        coeffs = []
        for head in heads:
            terms = {F(0): F(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.choice((1, 2)))}
            if head is not None:
                terms[head] = terms.get(head, F(0)) + rng.choice((-3, -2, -1, 1, 2, 3))
            coeffs.append(terms)
        coeffs.append({F(0): F(1)})
        for n in range(pivot + 1, _LIFT_CAP + 1):
            coeffs.append({tails[n]: F(rng.choice((-3, -2, -1, 1, 2, 3)))}
                          if n in tails else {})
        return {"kind": "lift", "pivot": pivot, "coeffs": coeffs}

    def warmup(self):
        return {"kind": "lift", "pivot": 1,
                "coeffs": [{F(0): F(-1)}, {F(0): F(1)}, {F(1, 2): F(1)}]
                + [{} for _ in range(_LIFT_CAP - 2)]}

    def prepare(self, spec):
        return pseries.PolySeries(LC, [_lc_number(t) for t in spec["coeffs"]])

    def call(self, series):
        cut = Exponent.lc(_LIFT_CUTOFF)
        ns = pseries.normalize(series, _LIFT_CAP, cut)
        return ns, hensel.weierstrass_factor(ns, _LIFT_CAP, cut)

    def check(self, spec, out):
        ns, fact = out
        mode = LC
        series = [oracle.Sparse(mode, t) for t in spec["coeffs"]]
        if ns.N != spec["pivot"]:
            return "pivot %d, planted %d" % (ns.N, spec["pivot"])
        if fact.achieved_cutoff.data != _LIFT_CUTOFF:
            return "achieved cutoff %s" % fact.achieved_cutoff
        p = [oracle.from_lcivt(c) for c in fact.p_coeffs]
        b = [oracle.from_lcivt(c) for c in fact.b_coeffs]
        if len(p) != spec["pivot"] + 1 or p[-1].cut is not None or p[-1].terms != {F(0): 1}:
            return "P is not monic of degree %d" % spec["pivot"]
        for i, pi in enumerate(p):
            if pi.st() != series[i].st():
                return "st(P[%d]) != st(S[%d])" % (i, i)
        if b[0].st() != 1 or any(bj.st() != 0 for bj in b[1:]):
            return "B is not in 1 + M{X}"
        return oracle.factorization_residual_ok(series, p, b, _LIFT_CUTOFF, _LIFT_CAP)


# -------------------------------------------------------------------- residue

# (rational roots in (0,1), sqrt(m)/b roots in (0,1), decoy roots outside
# [0,1], power of the eps perturbation: eps^1 costs several times eps^2),
# repeated so that the median and the p90 fall inside a group of one shape.
_RESIDUE_SHAPES = (
    (1, 0, 0, 1), (1, 1, 0, 2), (0, 2, 0, 2), (1, 0, 0, 2), (1, 1, 0, 2),
    (0, 1, 1, 2), (1, 0, 1, 2), (1, 1, 0, 2), (2, 1, 0, 1), (2, 0, 0, 1),
    (1, 1, 0, 2), (0, 2, 0, 2), (2, 0, 1, 2), (1, 1, 0, 2), (1, 0, 2, 1),
    (3, 0, 2, 2), (1, 1, 0, 2), (0, 1, 0, 1), (1, 1, 0, 2), (0, 2, 0, 2))
_RESIDUE_CUTOFF = 10


def _planted_unit_interval(rng, n_rat, n_sqrt, n_decoy):
    """Integer polynomial (ascending) with the planted roots; their count."""
    poly, seen = [1], set()
    while len(seen) < n_rat:
        q = rng.randint(2, 6)
        p = rng.randint(1, q - 1)
        if F(p, q) in seen:
            continue
        seen.add(F(p, q))
        poly = oracle.poly_mul_int(poly, [-p, q])
    squares = set()
    while len(squares) < n_sqrt:
        b = rng.randint(2, 4)
        m = rng.randint(1, b * b - 1)
        if math.isqrt(m) ** 2 == m or F(m, b * b) in squares:
            continue
        squares.add(F(m, b * b))
        poly = oracle.poly_mul_int(poly, [-m, 0, b * b])
    for _ in range(n_decoy):
        q = rng.randint(1, 4)
        p = rng.choice((rng.randint(-3 * q, -1), rng.randint(q + 1, 3 * q)))
        poly = oracle.poly_mul_int(poly, [-p, q])
    return poly, n_rat + n_sqrt


class Residue:
    """count_zeros on [0, 1] of perturbed integer polynomials."""

    name = "residue"
    cycle = len(_RESIDUE_SHAPES)

    def spec(self, seed, i):
        rng = _rng(self.name, seed, i)
        n_rat, n_sqrt, n_decoy, power = _RESIDUE_SHAPES[i % self.cycle]
        poly, planted = _planted_unit_interval(rng, n_rat, n_sqrt, n_decoy)
        where = _rng(self.name, "shape", i % self.cycle).randrange(len(poly))
        return {"kind": "count", "poly": poly, "planted": planted,
                "perturb": (where, power, rng.choice((-1, 1)))}

    def warmup(self):
        return {"kind": "count", "poly": [-1, 0, 2], "planted": 1, "perturb": (0, 1, 1)}

    def prepare(self, spec):
        k, e, sign = spec["perturb"]
        coeffs = [{F(0): F(c)} for c in spec["poly"]]
        coeffs[k][F(e)] = F(sign)
        return pseries.PolySeries(LC, [_lc_number(t) for t in coeffs])

    def call(self, series):
        return rootfind.count_zeros(series, 0, 1, Exponent.lc(_RESIDUE_CUTOFF))

    def check(self, spec, out):
        count, _ = out
        if count != spec["planted"]:
            return "counted %d zeros, planted %d" % (count, spec["planted"])
        return None


# ------------------------------------------------------------------ cli modes

_GAPPY = {LC: "term: sign=(-1)^n scale=1 expo=n^2",
          HAHN: "term: sign=(-1)^n scale=1 expo=seq(n)"}
_EPS = {LC: ("eps", "eps^2", "eps^(1/2)", "eps^(3/2)"),
        HAHN: ("eps[1]", "eps[2]", "eps[1]^2", "eps[1]*eps[2]")}
_UNIT = {LC: "ratfun: (%d - %d*eps*X - eps^2*X) / (1 - eps*X)",
         HAHN: "ratfun: (%d - %d*eps[1]*X - eps[2]*X) / (1 - eps[1]*X)"}


def _cutoff(mode, q):
    return str(q) if mode == LC else "1:%d" % q


def _rational(rng, lo, hi, dens=(1, 2, 3, 4)):
    """A rational strictly between lo and hi with a small denominator."""
    while True:
        q = rng.choice(dens)
        p = rng.randint(math.floor(lo * q), math.ceil(hi * q))
        if lo < F(p, q) < hi:
            return F(p, q)


def _linear(r):
    return [-r.numerator, r.denominator]


def _source(rng, shape, mode, factors, exact=False):
    """DSL text for prod(factors) times a unit, with the roots unchanged.

    ``poly:`` form perturbs one coefficient by an infinitesimal (the roots
    move infinitesimally and stay simple); ``ratfun:``+``polymul:`` form
    multiplies by a unit series, which keeps the roots exactly.  ``exact``
    forces the second form (multiple roots must not split).
    """
    poly = [1]
    for f in factors:
        poly = oracle.poly_mul_int(poly, f)
    if exact or shape.random() < 0.5:
        u = rng.randint(1, 3)
        return "%s\npolymul: %s" % (_UNIT[mode] % (u, u), ", ".join(map(str, poly)))
    k = shape.randrange(len(poly))
    coeffs = [str(c) for c in poly]
    pert = shape.choice(_EPS[mode])
    if poly[k] == 0:
        coeffs[k] = pert if rng.random() < 0.5 else "-" + pert
    else:
        coeffs[k] = "%s %s %s" % (coeffs[k], rng.choice("+-"), pert)
    return "poly: " + ", ".join(coeffs)


def _decoys(rng, shape, lo, hi):
    return [_linear(_rational(rng, hi + F(1, 4), hi + 2) if rng.random() < 0.5
                    else _rational(rng, lo - 2, lo - F(1, 4)))
            for _ in range(shape.randint(0, 1))]


def _sign(x):
    return (x > 0) - (x < 0)


def fingerprint(report_text):
    """sha256 of a JSON report with timing_seconds removed."""
    payload = json.loads(report_text)
    payload.pop("timing_seconds", None)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class CliMode:
    """Requests through lcivt.cli.main: DSL text in, a JSON report out."""

    def __init__(self, name, mode, kinds, cutoffs, defects=()):
        self.name = name
        self.mode = mode
        self.kinds = kinds
        self.cutoffs = cutoffs
        self.cycle = len(kinds)
        self.defects = defects

    def _argv(self, kind, *rest):
        return [kind] + (["--mode", HAHN] if self.mode == HAHN else []) + list(rest)

    def spec(self, seed, i):
        """The seed draws values; cost-setting choices (cutoff, source form,
        number of roots, partial sums) are fixed per cycle position."""
        rng = _rng(self.name, seed, i)
        shape = _rng(self.name, "shape", i % self.cycle)
        kind = self.kinds[i % self.cycle]
        return self._request(kind, rng, shape)

    def _request(self, kind, rng, shape):
        return getattr(self, "_" + kind.replace("-", "_"))(rng, shape)

    def defect_specs(self, seed):
        """Requests of known defects: run once per stream, after timing,
        and reported apart from the timed operations."""
        return [self._request(kind, _rng(self.name, seed, "defect", kind),
                              _rng(self.name, "shape", "defect", kind))
                for kind in self.defects]

    def warmup(self):
        cut = _cutoff(self.mode, 25)
        eps = _EPS[self.mode][0]
        return {"kind": "ivt-planted", "root": F(1), "bracket": (F(0), F(3, 2)),
                "cutoff": cut,
                "argv": self._argv("ivt", "--inline", "poly: -1, 1, %s" % eps,
                                   "--interval=0,3/2", "--cutoff", cut)}

    def _cut(self, shape, kind):
        return _cutoff(self.mode, shape.randint(*self.cutoffs[kind]))

    # ----------------------------------------------------------- request kinds

    def _eval_gappy(self, rng, shape):
        if self.mode == LC:
            l = shape.randint(1, 5)
            power, expected = shape.choice(((-4 * l, 1), (-4 * l - 2, -1)))
            at = "eps^(%d)" % power
        else:
            h = shape.randint(2, 9)
            at, expected = "eps[%d]^(-1)" % h, 1 if h % 2 == 0 else -1
        return {"kind": "eval", "sign": expected,
                "argv": self._argv("eval", "--inline", _GAPPY[self.mode], "--at=" + at,
                                   "--cutoff", _cutoff(self.mode, 1))}

    def _eval_planted(self, rng, shape):
        roots = [_rational(rng, F(0), F(2)) for _ in range(shape.randint(1, 3))]
        while True:
            x = _rational(rng, F(-1), F(3), dens=(1, 2, 3, 5))
            if x not in roots:
                break
        expected = 1
        for r in roots:
            expected *= _sign(x - r)
        src = _source(rng, shape, self.mode, [_linear(r) for r in roots])
        return {"kind": "eval", "sign": expected,
                "argv": self._argv("eval", "--inline", src, "--at=%s" % x)}

    def _factor(self, rng, shape):
        factors = [_linear(_rational(rng, F(-2), F(3))) for _ in range(shape.randint(1, 3))]
        cut = self._cut(shape, "factor")
        return {"kind": "factor", "pivot": len(factors),
                "argv": self._argv("factor", "--inline",
                                   _source(rng, shape, self.mode, factors),
                                   "--cutoff", cut)}

    def _bracketed_root(self, rng, shape, at_zero=False):
        r = _rational(rng, F(1, 4), F(7, 4), dens=(2, 3, 4, 5))
        a = r - rng.choice((F(1, 4), F(1, 3), F(1, 2)))
        b = r + rng.choice((F(1, 4), F(1, 3), F(1, 2)))
        if at_zero:
            a = F(0)
        elif a <= 0:
            a = r / 2  # brackets at or across 0 have a position of their own
        return r, a, b, [_linear(r)] + _decoys(rng, shape, a, b)

    def _ivt_planted(self, rng, shape):
        r, a, b, factors = self._bracketed_root(rng, shape)
        cut = self._cut(shape, "ivt-planted")
        return {"kind": "ivt-planted", "root": r, "bracket": (a, b), "cutoff": cut,
                "argv": self._argv("ivt", "--inline",
                                   _source(rng, shape, self.mode, factors),
                                   "--interval=%s,%s" % (a, b), "--cutoff", cut)}

    def _ivt_gappy(self, rng, shape):
        cut = self._cut(shape, "ivt-gappy")
        return {"kind": "ivt-gappy", "bracket": ("eps^(-4)", "eps^(-6)"), "cutoff": cut,
                "argv": self._argv("ivt", "--inline", _GAPPY[LC],
                                   "--interval=eps^(-4),eps^(-6)", "--cutoff", cut)}

    def _zeros(self, rng, shape):
        k = shape.randint(1, 3)
        roots = set()
        while len(roots) < k:
            roots.add(_rational(rng, F(0), F(2)))
        factors = [_linear(r) for r in sorted(roots)] + _decoys(rng, shape, F(0), F(2))
        cut = self._cut(shape, "zeros")
        return {"kind": "zeros", "count": k,
                "argv": self._argv("zeros", "--inline",
                                   _source(rng, shape, self.mode, factors),
                                   "--interval=0,2", "--cutoff", cut)}

    def _mult(self, rng, shape):
        c = _rational(rng, F(1, 2), F(3, 2))
        m = shape.randint(1, 3)
        cut = self._cut(shape, "mult")
        src = _source(rng, shape, self.mode, [_linear(c)] * m, exact=True)
        return {"kind": "mult", "multiplicity": m,
                "argv": self._argv("mult", "--inline", src, "--at=%s" % c,
                                   "--cutoff", cut)}

    def _track_zeros(self, rng, shape, at_zero=False):
        r, a, b, factors = self._bracketed_root(rng, shape, at_zero)
        n_list = "1,2,3" if at_zero else shape.choice(("1,2,3", "2,3,4", "1,3,5"))
        cut = self._cut(shape, "track-zeros")
        return {"kind": "track-zeros-at-0" if at_zero else "track-zeros", "root": r,
                "bracket": (a, b), "n": n_list.count(",") + 1,
                "argv": self._argv("track-zeros", "--inline",
                                   _source(rng, shape, self.mode, factors, exact=True),
                                   "--interval=%s,%s" % (a, b), "--n-list", n_list,
                                   "--cutoff", cut)}

    def _track_zeros_at_0(self, rng, shape):
        """A bracket with endpoint 0 prunes no root branch: every root of
        every partial sum is expanded, including infinitely large ones."""
        return self._track_zeros(rng, shape, at_zero=True)

    def _track_extremes(self, rng, shape):
        c = _rational(rng, F(1, 2), F(3, 2))
        flip = rng.random() < 0.5
        src = _source(rng, shape, self.mode, [_linear(c)] * 2, exact=True)
        if flip:
            src += "\nscale: -1"
        w = rng.choice((F(1, 4), F(1, 3)))
        n_list = shape.choice(("3", "4", "5", "3,4"))
        return {"kind": "track-extremes", "extreme": "max" if flip else "min",
                "argv": self._argv("track-extremes", "--inline", src, "--target=%s" % c,
                                   "--window=%s,%s" % (c - w, c + w),
                                   "--n-list", n_list,
                                   "--cutoff", self._cut(shape, "track-extremes"))}

    # ------------------------------------------------------------- the call

    def prepare(self, spec):
        return spec["argv"]

    def call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        return rc, buf.getvalue()

    def check(self, spec, out):
        rc, text = out
        try:
            report = json.loads(text)
        except ValueError:
            return "report is not JSON"
        if rc != 0 or report.get("ok") is not True:
            return Unanswered("exit code %d: %s" % (rc, report.get("failures")))
        res, cert = report["results"], report["certificates"]
        kind = spec["kind"]
        try:
            if kind == "eval":
                if res["sign"] != spec["sign"]:
                    return "sign %s, expected %s" % (res["sign"], spec["sign"])
            elif kind == "factor":
                fac = res["factorization"]
                if res["pivot"] != spec["pivot"] or len(fac["p_coeffs"]) != spec["pivot"] + 1:
                    return "pivot %s, planted %d" % (res["pivot"], spec["pivot"])
                if fac["p_coeffs"][-1] != "1":
                    return "P not monic"
            elif kind in ("ivt-planted", "ivt-gappy"):
                if res["root"]["residual_valuation"] != spec["cutoff"]:
                    return "residual valuation %s" % res["root"]["residual_valuation"]
                return self._inside(spec, res["root"]["root"])
            elif kind == "zeros":
                if res["count"] != spec["count"]:
                    return "counted %s zeros, planted %d" % (res["count"], spec["count"])
            elif kind == "mult":
                if res["multiplicity"] != spec["multiplicity"]:
                    return "multiplicity %s, planted %d" % (res["multiplicity"],
                                                            spec["multiplicity"])
            elif kind in ("track-zeros", "track-zeros-at-0"):
                if len(res) != spec["n"]:
                    return "%d records for %d partial sums" % (len(res), spec["n"])
                return self._inside(spec, cert["target"]["root"])
            elif kind == "track-extremes":
                if cert["target_kind"] != spec["extreme"]:
                    return "extreme kind %s, expected %s" % (cert["target_kind"],
                                                            spec["extreme"])
                if cert["target"]["multiplicity"] != 2:
                    return "target multiplicity %s" % cert["target"]["multiplicity"]
        except OracleError as exc:
            return "unreadable answer: %s" % exc
        except (KeyError, TypeError, IndexError) as exc:
            return "report lacks %r" % (exc,)
        return None

    def _inside(self, spec, root_text):
        root = oracle.parse_number(root_text, self.mode)
        if "root" in spec:
            if root.st() != spec["root"]:
                return "root %s, planted %s" % (root_text, spec["root"])
        a, b = (oracle.parse_number(str(x), self.mode) for x in spec["bracket"])
        if oracle.compare(root, a) <= 0 or oracle.compare(b, root) <= 0:
            return "root %s outside the bracket" % root_text
        return None


# Cheap requests (eval, factor) are 20 of 30, so the median falls well inside
# them, not on their noisy upper tail; the gappy ivt at one cutoff takes 4
# positions so the p90 falls inside it.  A bracket at 0 is a position of its
# own: it costs ten times a positive one, and drawing it by seed made the
# throughput of a run depend on how many such brackets the seed drew.
_LC_KINDS = ("eval-gappy", "ivt-gappy", "eval-gappy", "factor", "eval-gappy", "zeros",
             "eval-gappy", "ivt-gappy", "eval-planted", "eval-gappy", "track-zeros",
             "eval-gappy", "ivt-gappy", "eval-gappy", "factor", "eval-gappy", "mult",
             "eval-gappy", "track-zeros-at-0", "eval-gappy", "eval-planted", "eval-gappy",
             "track-extremes", "eval-gappy", "ivt-gappy", "eval-gappy", "ivt-planted",
             "eval-gappy", "eval-gappy", "eval-gappy")
# Hahn requests are cheap enough for over a thousand per run, which keeps
# the median steady with cheap requests at 12 of 20.  A bracket at 0 is not
# in the hahn cycle: with an eps[2] term it exits 4 (ResourceCapError,
# inversion cutoff unreachable) for every seed, so it runs as a known defect.
_HAHN_KINDS = ("eval-gappy", "ivt-planted", "eval-gappy", "factor", "eval-gappy", "zeros",
               "eval-gappy", "ivt-planted", "eval-planted", "track-zeros", "eval-gappy",
               "mult", "eval-gappy", "factor", "eval-gappy", "track-zeros",
               "eval-gappy", "track-extremes", "eval-planted", "ivt-planted")

# Cutoff ranges per request kind: lc q means eps^q, hahn q means eps[1]^q.
_LC_CUTOFFS = {"factor": (6, 12), "ivt-planted": (8, 16), "ivt-gappy": (10, 10),
               "zeros": (6, 10), "mult": (6, 10), "track-zeros": (6, 10),
               "track-extremes": (4, 8)}
_HAHN_CUTOFFS = {"factor": (8, 16), "ivt-planted": (12, 25), "zeros": (8, 15),
                 "mult": (6, 12), "track-zeros": (6, 12), "track-extremes": (4, 8)}

WORKLOADS = {
    "lift": Lift(),
    "residue": Residue(),
    "cli-lc": CliMode("cli-lc", LC, _LC_KINDS, _LC_CUTOFFS),
    "cli-hahn": CliMode("cli-hahn", HAHN, _HAHN_KINDS, _HAHN_CUTOFFS,
                        defects=("track-zeros-at-0",)),
}
