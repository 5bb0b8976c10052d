"""Root localization for polynomials and power series over the field.

The engine is residue-field isolation plus Newton-polygon branching: the
polygon of a (shifted) polynomial picks the admissible valuations, the real
roots of each edge's characteristic polynomial seed branches, and a branch
switches to Newton iteration once its cluster is simple.  Bisection is
useless here (no Archimedean convergence), so all localization is exact
valuation bookkeeping.

Roots are emitted as truncations at the requested cutoff with certified
residual valuations; roots that cannot be told apart below the cutoff merge
into one report with summed multiplicity, flagged unresolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CertificateError, ResourceCapError, TruncationError
from .hensel import (
    poly_deriv,
    poly_eval,
    weierstrass_factor,
)
from .lcnum import LC, Exponent, LcNumber
from .polys import pshift
from .pseries import evaluate, normalize, partial_sum, transform_interval
from .realalg import RealAlgebraic, algebraic_roots

_BRANCH_CAP = 10000


def default_exponent(mode, q):
    """The standing cutoff shape: a rational in lc mode, {1: q} in hahn mode."""
    return Exponent.lc(q) if mode == LC else Exponent.hahn({1: Fraction(q)})


@dataclass
class RootHit:
    """Engine-level root record."""

    value: LcNumber
    multiplicity: int
    exact: bool
    unresolved: bool
    residual_valuation: Exponent | None  # None means exactly zero


@dataclass
class RootReport:
    root: LcNumber
    multiplicity: int
    residual_valuation: Exponent | None
    interval: tuple
    certificate: dict = field(default_factory=dict)
    unresolved: bool = False
    exact: bool = False


@dataclass
class TrackRecord:
    n: int
    items: list  # (kind, location: LcNumber, distance_valuation: Exponent|None)


# ------------------------------------------------------------------ the engine


def _polygon_points(coeffs, start):
    """(index, valuation lower bound, certified) for the polygon.

    Coefficients with stored terms have exact valuations; truncated-to-zero
    coefficients enter at their cutoff marker, flagged uncertified, since
    their true valuation may sit anywhere above it.  Exact zeros are absent.
    """
    pts = []
    for i in range(start, len(coeffs)):
        c = coeffs[i]
        if c.terms:
            pts.append((i, c.terms[0][0], True))
        elif not c.is_exact_zero:
            pts.append((i, c.cutoff, False))
    return pts


def _lower_hull(points):
    """Lower convex hull of (int, Exponent, flag) points, left to right."""
    hull = []
    for p in points:
        while len(hull) >= 2:
            i1, v1 = hull[-2][0], hull[-2][1]
            i2, v2 = hull[-1][0], hull[-1][1]
            i3, v3 = p[0], p[1]
            # pop the middle point unless slope strictly increases
            lhs = (v2 - v1).scale(i3 - i2)
            rhs = (v3 - v2).scale(i2 - i1)
            if lhs.compare(rhs) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _edges(points):
    """(lam, i1, v1, i2, certified) per hull edge.

    An edge is certified when both endpoints are exact and no uncertified
    point sits on the edge line inside its span.
    """
    hull = _lower_hull(points)
    by_index = {p[0]: p for p in points}
    out = []
    for (i1, v1, c1), (i2, v2, c2) in zip(hull, hull[1:]):
        lam = (v1 - v2).scale(Fraction(1, i2 - i1))
        certified = c1 and c2
        if certified:
            for i in range(i1 + 1, i2):
                p = by_index.get(i)
                if p is not None and not p[2]:
                    line = v1 - lam.scale(i - i1)
                    if p[1].compare(line) <= 0:
                        certified = False
                        break
        out.append((lam, i1, v1, i2, certified))
    return out


def _char_poly(coeffs, lam, i1, v1, i2):
    """Characteristic polynomial of the slope edge, over the residue field."""
    chi = []
    for i in range(i1, i2 + 1):
        line = v1 - lam.scale(i - i1)
        if i < len(coeffs) and coeffs[i].terms:
            chi.append(coeffs[i].coeff_at(line))
        else:
            chi.append(RealAlgebraic(0))
    return chi


class _Stall(Exception):
    pass


def _newton_simple(coeffs, x0, cutoff):
    """Newton iteration toward the unique root seeded at x0; None on stall."""
    dcoeffs = poly_deriv(coeffs)
    x = x0
    last = None
    for _ in range(200):
        full = poly_eval(coeffs, x)
        if full.is_exact_zero:
            return x, None
        d = poly_eval(dcoeffs, x)
        if not d.terms:
            raise _Stall
        vd = d.terms[0][0]
        target = cutoff + (vd if vd.sign() > 0 else Exponent.zero(x.mode))
        r = full.truncate(target)
        if not r.terms:
            rv_lb = full.val_lb()
            return x.truncate(cutoff), rv_lb
        rv = r.terms[0][0]
        if last is not None and rv.compare(last) <= 0:
            raise _Stall
        last = rv
        upd = x - r * d.invert(target - rv)
        x = upd if upd.cutoff is None else upd.truncate(cutoff)
    raise _Stall


def _roots_rec(coeffs, cutoff, acc, lam_floor, out, depth_budget, prune=None):
    if depth_budget <= 0:
        raise ResourceCapError("root expansion recursion exceeded its cap")
    mode = acc.mode
    if all(c.is_exact_zero for c in coeffs):
        raise ValueError("indeterminate roots: zero polynomial")
    if not any(c.terms for c in coeffs):
        raise TruncationError(
            "every coefficient vanishes below the cutoff; roots indeterminate")
    zeros = 0
    while coeffs[zeros].is_exact_zero:
        zeros += 1

    merged_mult = 0
    merged_loc_cut = cutoff
    points = _polygon_points(coeffs, zeros)
    for lam, i1, v1, i2, certified in _edges(points):
        if lam_floor is not None and lam.compare(lam_floor) <= 0:
            continue
        if not certified or lam.compare(cutoff) >= 0:
            # roots not certified at this depth merge into one report at acc
            merged_mult += i2 - i1
            if lam.compare(merged_loc_cut) < 0:
                merged_loc_cut = lam
            continue
        if prune is not None:
            vlo, vhi, psign = prune
            if vlo is not None and lam.compare(vlo) < 0:
                continue
            if vhi is not None and lam.compare(vhi) > 0:
                continue
        chi = _char_poly(coeffs, lam, i1, v1, i2)
        for z0, m0 in algebraic_roots(chi):
            if z0.is_zero:
                continue
            if prune is not None and prune[2] is not None and z0.sign() != prune[2]:
                continue
            point = LcNumber.monomial(lam, z0)
            if m0 == 1:
                try:
                    x, rv = _newton_simple(coeffs, point, cutoff)
                    full = acc + x
                    out.append(RootHit(full, 1, full.is_exact and rv is None,
                                       False, rv))
                    continue
                except _Stall:
                    pass
            shifted = pshift(coeffs, point)
            _roots_rec(shifted, cutoff, acc + point, lam, out, depth_budget - 1)

    if merged_mult > 0:
        # roots indistinguishable from acc at this depth: one summed report,
        # absorbing an exact zero at acc when present
        resid = coeffs[0].val_lb() if zeros == 0 else None
        if lam_floor is not None and merged_loc_cut.compare(lam_floor) < 0:
            merged_loc_cut = lam_floor
        out.append(RootHit(acc.truncate(merged_loc_cut), zeros + merged_mult,
                           False, True, resid))
    elif zeros:
        out.append(RootHit(acc, zeros, acc.is_exact, False, None))


def _window_prune(lo, hi):
    """(val_lo, val_hi, sign) admissible for roots in [lo, hi], or None.

    Only same-sign windows with decidable endpoint valuations prune; the
    final membership filter still runs either way.
    """
    try:
        slo, shi = lo.sign(), hi.sign()
    except TruncationError:
        return None
    if slo > 0 and shi > 0:
        return (hi.valuation(), lo.valuation(), 1)
    if slo < 0 and shi < 0:
        return (lo.valuation(), hi.valuation(), -1)
    return None


def poly_roots(coeffs, cutoff, lam_floor=None, window=None):
    """All roots in the field of a polynomial with LcNumber coefficients.

    ``window`` (a pair of endpoints) prunes branches that cannot land in it;
    it does not by itself filter the output.  Returns RootHits sorted
    ascending where the order is decidable.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_exact_zero:
        coeffs.pop()
    if not coeffs:
        raise ValueError("indeterminate roots: zero polynomial")
    if len(coeffs) == 1:
        return []
    mode = coeffs[0].mode
    prune = _window_prune(*window) if window is not None else None
    out = []
    _roots_rec(coeffs, cutoff, LcNumber.zero(mode), lam_floor, out, _BRANCH_CAP,
               prune)
    out = [h for h in out if h.multiplicity > 0]
    return sort_roots(out)


def sort_roots(hits):
    def lt(a, b):
        try:
            return a.value.compare(b.value) < 0
        except TruncationError:
            return False

    items = list(hits)
    # insertion sort with a partial order: stable where comparisons fail
    for i in range(1, len(items)):
        j = i
        while j > 0 and lt(items[j], items[j - 1]):
            items[j], items[j - 1] = items[j - 1], items[j]
            j -= 1
    return items


def _in_range(value, lo, hi):
    return value.compare(lo) >= 0 and value.compare(hi) <= 0


def monic_real_roots(p_coeffs, lo, hi, cutoff):
    """Roots of a monic polynomial over the valuation ring inside [lo, hi]."""
    if not (p_coeffs[-1].is_exact and p_coeffs[-1] == 1):
        raise ValueError("polynomial must be monic")
    hits = poly_roots(p_coeffs, cutoff)
    reports = []
    for h in hits:
        try:
            keep = _in_range(h.value, lo, hi)
        except TruncationError:
            raise TruncationError(
                "range endpoints incomparable with a root at the current truncation")
        if not keep:
            continue
        reports.append(RootReport(
            root=h.value,
            multiplicity=h.multiplicity,
            residual_valuation=h.residual_valuation,
            interval=(lo, hi),
            certificate={"kind": "polynomial"},
            unresolved=h.unresolved,
            exact=h.exact,
        ))
    return reports


# ------------------------------------------------------------------ pipelines


def certified_sign(s, x, max_depth=64):
    """Sign of a series value, deepening the cutoff until it is decided."""
    depth = 1
    while True:
        v = evaluate(s, x, default_exponent(s.mode, depth))
        try:
            return v.sign()
        except TruncationError:
            if depth >= max_depth:
                raise
            depth *= 4


@dataclass
class IntervalFactorization:
    sub: object            # the transformed series on [1, 2]
    normalized: object
    factorization: object
    h: LcNumber
    k: LcNumber
    work_cutoff: Exponent


def _needed_root_depth(s, vx, cutoff):
    """Root truncation depth that lets S(root) be certified below ``cutoff``.

    The n-th term reacts to a root perturbation of valuation g with a term
    of valuation val(a_n) + (n-1)*vx + g, so g must clear the worst term.
    """
    n1 = s.tail_index(vx, cutoff)
    sens = None
    for n in range(1, n1):
        c = s.coeff(n, cutoff - vx.scale(n))
        vlb = c.val_lb()
        if vlb is None:
            continue
        v = vlb + vx.scale(n - 1)
        if sens is None or v.compare(sens) < 0:
            sens = v
    if sens is None or sens.sign() >= 0:
        return cutoff
    return cutoff - sens


def factor_on_interval(s, a, b, cutoff, degree_cap=None, extra=0):
    """Transform [a,b] onto [1,2], normalize, and factor at a working cutoff
    deep enough that mapped-back roots are certified below ``cutoff``."""
    sub = transform_interval(s, a, b)
    vh = sub.h.valuation()
    mode = s.mode
    zero = Exponent.zero(mode)
    bump = Exponent.zero(mode)
    if vh.sign() < 0:
        bump = -vh
    work = cutoff + bump + default_exponent(mode, 4 + extra)
    ncut = sub.tail_index(zero, work)
    cap = degree_cap if degree_cap is not None else max(ncut, 4)
    if cap + 1 < ncut:
        raise CertificateError("degree cap too small for the requested cutoff")
    ns = normalize(sub, cap, work,
                   origin="[%s, %s] -> [1, 2]" % (a.render(), b.render()))
    fact = weierstrass_factor(ns, cap, work)
    return IntervalFactorization(sub, ns, fact, sub.h, sub.k, work)


def _map_back(z, h, k):
    return h * z + k


def _series_roots_on_interval(s, a, b, cutoff, degree_cap=None, extra=0):
    ivf = factor_on_interval(s, a, b, cutoff, degree_cap, extra)
    one = LcNumber.one(s.mode)
    two = LcNumber.from_scalar(s.mode, 2)
    reports = monic_real_roots(ivf.factorization.p_coeffs, one, two, ivf.work_cutoff)
    mapped = []
    for r in reports:
        x = _map_back(r.root, ivf.h, ivf.k)
        mapped.append(RootReport(
            root=x,
            multiplicity=r.multiplicity,
            residual_valuation=None,
            interval=(a, b),
            certificate={
                "p_coeffs": ivf.factorization.p_coeffs,
                "b_coeffs": ivf.factorization.b_coeffs,
                "achieved_cutoff": ivf.work_cutoff,
                "z_root": r.root,
            },
            unresolved=r.unresolved,
            exact=r.exact and ivf.h.is_exact and ivf.k.is_exact,
        ))
    return ivf, mapped


def ivt_root(s, a, b, cutoff, degree_cap=None):
    """A root of the series strictly inside [a, b], given a sign change.

    Pipeline: interval transform, normalization, factorization, real roots
    of the monic factor on [1, 2], mapped back.  The returned root has a
    certified residual: valuation(S(root)) >= cutoff.
    """
    if not isinstance(a, LcNumber):
        a = LcNumber.from_scalar(s.mode, a)
    if not isinstance(b, LcNumber):
        b = LcNumber.from_scalar(s.mode, b)
    sa = certified_sign(s, a)
    sb = certified_sign(s, b)
    if sa * sb != -1:
        raise ValueError("no sign change on the interval")
    vals = [v for v in (a.val_lb(), b.val_lb()) if v is not None]
    vx = vals[0]
    for v in vals[1:]:
        if v.compare(vx) < 0:
            vx = v
    depth = _needed_root_depth(s, vx, cutoff)
    last_err = None
    for extra in (0, 8, 24):
        try:
            ivf, mapped = _series_roots_on_interval(s, a, b, depth, degree_cap, extra)
            odd = [r for r in mapped if r.multiplicity % 2 == 1]
            if not odd:
                last_err = CertificateError("no odd-multiplicity root recovered")
                continue
            for rep in odd:
                value = evaluate(s, rep.root, cutoff)
                if value.is_zero_below(cutoff):
                    rep.residual_valuation = cutoff
                    rep.certificate["endpoint_signs"] = (sa, sb)
                    if rep.root.compare(a) <= 0 or rep.root.compare(b) >= 0:
                        raise CertificateError("recovered root escaped the interval")
                    return rep
            last_err = CertificateError(
                "residual certificate failed at this working cutoff")
        except TruncationError as exc:
            last_err = exc
    raise last_err


def count_zeros(s, a, b, cutoff, degree_cap=None):
    """(number of distinct zeros in [a, b], their reports).

    The unit factor never vanishes, so the zeros of the series are exactly
    the roots of the monic factor.
    """
    if not isinstance(a, LcNumber):
        a = LcNumber.from_scalar(s.mode, a)
    if not isinstance(b, LcNumber):
        b = LcNumber.from_scalar(s.mode, b)
    _, mapped = _series_roots_on_interval(s, a, b, cutoff, degree_cap)
    return len(mapped), mapped


def multiplicity_at(s, c, cutoff, radius=None):
    """Order of the series zero at c, from the monic-factor structure,
    cross-checked against derivative vanishing."""
    if not isinstance(c, LcNumber):
        c = LcNumber.from_scalar(s.mode, c)
    feas = cutoff
    value = None
    for _ in range(8):
        try:
            value = evaluate(s, c, feas)
            break
        except TruncationError:
            feas = feas.scale(Fraction(1, 2))
    if value is None or not value.is_zero_below(feas):
        raise ValueError("not a certified root of the series")
    if radius is None:
        radius = LcNumber.from_scalar(s.mode, Fraction(1, 2))
    a = c - radius
    b = c + radius
    ivf, mapped = _series_roots_on_interval(s, a, b, cutoff)
    target = None
    for rep in mapped:
        diff = rep.root - c
        lb = diff.val_lb()
        if lb is None or (diff.cutoff is not None and not diff.terms):
            target = rep
            break
    if target is None:
        # fall back: nearest root by difference valuation
        best = None
        for rep in mapped:
            try:
                lb = (rep.root - c).valuation()
            except (TruncationError, ValueError):
                target = rep
                break
            if best is None or lb.compare(best[0]) > 0:
                best = (lb, rep)
        if target is None and best is not None and best[0].compare(
                default_exponent(s.mode, 1)) > 0:
            target = best[1]
    if target is None:
        raise ValueError("no factor root matches the claimed zero")
    mult = target.multiplicity

    # derivative cross-check
    deriv = s
    for j in range(1, mult + 1):
        deriv = deriv.derivative()
        dv = None
        dcut = feas
        for _ in range(8):
            try:
                dv = evaluate(deriv, c, dcut)
                break
            except TruncationError:
                dcut = dcut.scale(Fraction(1, 2))
        if dv is None:
            raise CertificateError("derivative check not decidable")
        if j < mult:
            if not dv.is_zero_below(dcut):
                raise CertificateError(
                    "derivative %d does not vanish at the claimed order" % j)
        else:
            if not dv.terms:
                raise CertificateError(
                    "order-%d derivative not certified nonzero" % mult)
    return mult


# ------------------------------------------------------------------- tracking


def _poly_roots_in_window(coeffs, cutoff, lo, hi):
    hits = poly_roots(coeffs, cutoff, window=(lo, hi))
    out = []
    for h in hits:
        try:
            if _in_range(h.value, lo, hi):
                out.append(h)
        except TruncationError:
            out.append(h)  # indistinguishable from the boundary: keep it
    return out


def _distance_valuation(x, target):
    diff = x - target
    if diff.terms:
        return diff.terms[0][0]
    return None  # certified equal below the working cutoff


def track_partial_sum_zeros(s, target, n_list, window):
    """Zeros of the partial sums near an odd-order root of the series.

    For each n, isolates the zeros of S_n in the window and records the
    exact valuation of their distance to the target root (None marks a
    difference certified zero below the cutoff).
    """
    if target.multiplicity % 2 == 0:
        raise ValueError("target root must have odd order")
    lo, hi = window
    if target.root.compare(lo) < 0 or target.root.compare(hi) > 0:
        raise ValueError("window excludes the target root")
    cutoff = target.root.cutoff
    if cutoff is None:
        cutoff = default_exponent(s.mode, 50)
    records = []
    for n in n_list:
        coeffs = partial_sum(s, n, None if _exact_coeffs(s) else cutoff)
        hits = _poly_roots_in_window(coeffs, cutoff, lo, hi)
        items = [("zero", h.value, _distance_valuation(h.value, target.root))
                 for h in hits]
        records.append(TrackRecord(n, items))
    return records


def _exact_coeffs(s):
    try:
        s.coeff(0)
        return True
    except CertificateError:
        return False


def _classify_extreme(sn_coeffs, x, cutoff):
    """min/max/None from the first nonvanishing higher derivative."""
    d = poly_deriv(sn_coeffs)
    order = 1
    while True:
        d = poly_deriv(d)
        order += 1
        if not d:
            return None
        v = poly_eval(d, x).truncate(cutoff)
        if v.terms:
            if order % 2 == 1:
                return None  # inflection, not an extreme
            return "min" if v.sign() > 0 else "max"


def track_extremes(s, target, n_list, window):
    """Local extremes of the partial sums near an even-order root.

    Roots of (S_n)' in the window are classified by the first nonvanishing
    derivative of S_n; the distance valuation to the target is exact.
    """
    if target.multiplicity % 2 != 0:
        raise ValueError("target root must have even order")
    lo, hi = window
    cutoff = target.root.cutoff
    if cutoff is None:
        cutoff = default_exponent(s.mode, 50)
    records = []
    for n in n_list:
        coeffs = partial_sum(s, n, None if _exact_coeffs(s) else cutoff)
        dcoeffs = poly_deriv(coeffs)
        hits = _poly_roots_in_window(dcoeffs, cutoff, lo, hi)
        items = []
        for h in hits:
            kind = _classify_extreme(coeffs, h.value, cutoff)
            if kind is None:
                continue
            items.append((kind, h.value, _distance_valuation(h.value, target.root)))
        records.append(TrackRecord(n, items))
    return records


def target_extreme_kind(s, target, cutoff=None):
    """min/max type of an even-order series zero from its 2p-th derivative."""
    p2 = target.multiplicity
    deriv = s
    for _ in range(p2):
        deriv = deriv.derivative()
    cut = cutoff if cutoff is not None else default_exponent(s.mode, 8)
    v = evaluate(deriv, target.root, cut)
    return "min" if v.standard_part().sign() > 0 else "max"
