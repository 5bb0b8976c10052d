"""Root localization for polynomials and power series over the field.

The engine is residue-field isolation plus Newton-polygon branching: the
polygon of a (shifted) polynomial picks the admissible valuations, the real
roots of each edge's characteristic polynomial seed branches (in a window,
at every level only those of a valuation and sign the window shifted by the
expansion so far admits, at the top only those whose standard part may lie
in it), and a branch switches to Newton iteration once its cluster is
simple.  Bisection is useless here (no Archimedean convergence), so
localization is exact valuation bookkeeping.

Roots are emitted as truncations at the requested cutoff with certified
residual valuations; roots that cannot be told apart below the cutoff merge
into one report with summed multiplicity, flagged unresolved.  Every root
is a ``RootReport``: ``poly_roots`` leaves its ``interval`` unset, and
``monic_real_roots`` and the series pipelines set it to the searched range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CertificateError, ResourceCapError, TruncationError
from .hensel import newton_root, poly_deriv, weierstrass_factor
from .lcnum import LC, Exponent, LcNumber
from .pseries import (PolySeries, SubstitutedSeries, evaluate, normalize, partial_sum,
                      transform_interval)
from .realalg import RealAlgebraic, algebraic_roots

# Below Python's default recursion limit of 1000, so the cap fires first.
_BRANCH_CAP = 200
# certified_sign tries the depths 1, 4, 16, ... (default_exponent) up to this one.
_SIGN_DEPTH_CAP = 64


def default_exponent(mode, q):
    """The standing cutoff shape: a rational in lc mode, {1: q} in hahn mode."""
    return Exponent.lc(q) if mode == LC else Exponent.hahn({1: Fraction(q)})


@dataclass
class RootReport:
    root: LcNumber
    multiplicity: int
    residual_valuation: Exponent | None
    interval: tuple | None = None
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


def _roots_rec(coeffs, cutoff, acc, lam_floor, out, depth_budget, window=None, box=None):
    if depth_budget <= 0:
        raise ResourceCapError(
            "root expansion went deeper than _BRANCH_CAP = %d levels at cutoff %s"
            % (_BRANCH_CAP, cutoff))
    mode = acc.mode
    if all(c.is_exact_zero for c in coeffs):
        raise ValueError("indeterminate roots: zero polynomial")
    if not any(c.terms for c in coeffs):
        raise TruncationError(
            "every coefficient vanishes below the cutoff; roots indeterminate")
    zeros = 0
    while coeffs[zeros].is_exact_zero:
        zeros += 1

    # a root acc + x lies in [lo, hi] exactly when x lies in [lo - acc, hi - acc]
    prune = _window_prune(window[0] - acc, window[1] - acc) if window is not None else None
    vlo, vhi, psign = prune or (None, None, None)
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
        if vlo is not None and lam.compare(vlo) < 0 or vhi is not None and lam.compare(vhi) > 0:
            continue
        chi = _char_poly(coeffs, lam, i1, v1, i2)
        for z0, m0 in algebraic_roots(chi, box if lam.sign() == 0 else None):
            if psign is not None and z0.sign() != psign:
                continue
            point = LcNumber.monomial(lam, z0)
            hit = newton_root(coeffs, point, cutoff) if m0 == 1 else None
            if hit is not None:
                x, rv = hit
                full = acc + x
                out.append(RootReport(full, 1, rv, exact=full.is_exact and rv is None))
                continue
            shifted = SubstitutedSeries(PolySeries(mode, coeffs), LcNumber.one(mode), point)
            _roots_rec([shifted.coeff(m) for m in range(len(coeffs))],
                       cutoff, acc + point, lam, out, depth_budget - 1, window)

    if merged_mult > 0:
        # roots indistinguishable from acc at this depth: one summed report,
        # absorbing an exact zero at acc when present
        resid = coeffs[0].val_lb() if zeros == 0 else None
        out.append(RootReport(acc.truncate(merged_loc_cut), zeros + merged_mult, resid,
                              unresolved=True))
    elif zeros:
        out.append(RootReport(acc, zeros, None, exact=acc.is_exact))


def _window_prune(lo, hi):
    """(val_lo, val_hi, sign) admissible for roots in [lo, hi], or None.

    A root in the window has valuation at least that of the endpoint with
    the larger magnitude; a window with 0 as an endpoint fixes the sign but
    sets no upper valuation bound, and one with 0 inside fixes neither.
    Windows whose endpoint signs are undecidable do not prune; the final
    membership filter still runs either way.
    """
    try:
        slo, shi = lo.sign(), hi.sign()
        if slo < 0 < shi:
            wide = lo if lo.compare(-hi) < 0 else hi
            return (wide.valuation(), None, None)
    except TruncationError:
        return None
    if slo > 0 and shi > 0:
        return (hi.valuation(), lo.valuation(), 1)
    if slo < 0 and shi < 0:
        return (lo.valuation(), hi.valuation(), -1)
    if slo == 0 and shi > 0:
        return (hi.valuation(), None, 1)
    if slo < 0 and shi == 0:
        return (lo.valuation(), None, -1)
    return None


def _residue_end(x):
    """st x, an end of the residue box; None, open, if undefined or undecidable."""
    try:
        return x.standard_part()
    except (TruncationError, ValueError):
        return None


def poly_roots(coeffs, cutoff, window=None):
    """All roots in the field of a polynomial with LcNumber coefficients.

    ``window`` (a pair of endpoints) prunes branches that cannot land in it,
    at every level by its shift by the expansion so far, and residue roots
    outside [st lo, st hi]: a root lifted from z0 on a top-level slope-0
    edge has standard part z0.  It does not by itself
    filter the output.  Returns RootReports, with no interval and a residual
    valuation of None for an exact root, sorted ascending where decidable.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_exact_zero:
        coeffs.pop()
    if not coeffs:
        raise ValueError("indeterminate roots: zero polynomial")
    if len(coeffs) == 1:
        return []
    mode = coeffs[0].mode
    box = [_residue_end(x) for x in window] if window is not None else None
    out = []
    _roots_rec(coeffs, cutoff, LcNumber.zero(mode), None, out, _BRANCH_CAP, window, box)
    out = [h for h in out if h.multiplicity > 0]
    return sort_roots(out)


def sort_roots(hits):
    def lt(a, b):
        try:
            return a.root.compare(b.root) < 0
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
    """Roots of a monic polynomial over the valuation ring inside [lo, hi],
    which is also ``poly_roots``' window; the membership filter decides."""
    if not (p_coeffs[-1].is_exact and p_coeffs[-1] == 1):
        raise ValueError("polynomial must be monic")
    reports = []
    for h in poly_roots(p_coeffs, cutoff, window=(lo, hi)):
        try:
            keep = _in_range(h.root, lo, hi)
        except TruncationError:
            raise TruncationError(
                "range endpoints incomparable with a root at the current truncation")
        if keep:
            h.interval, h.certificate = (lo, hi), {"kind": "polynomial"}
            reports.append(h)
    return reports


# ------------------------------------------------------------------ pipelines


def certified_sign(s, x):
    """Sign of a series value, deepening the cutoff until it is decided."""
    depth = 1
    while True:
        v = evaluate(s, x, default_exponent(s.mode, depth))
        try:
            return v.sign()
        except TruncationError as exc:
            if depth >= _SIGN_DEPTH_CAP:
                raise TruncationError("sign undecided at depth %d, the cap _SIGN_DEPTH_CAP = %d"
                                      % (depth, _SIGN_DEPTH_CAP)) from exc
            depth *= 4


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


def _series_roots_on_interval(s, a, b, cutoff, degree_cap=None, extra=0):
    """Transform [a,b] onto [1,2], normalize, and factor at a working cutoff
    deep enough that mapped-back roots are certified below ``cutoff``; the
    roots of the monic factor on [1, 2], mapped back to [a, b]."""
    sub = transform_interval(s, a, b)
    h, k = sub.h, sub.k
    mode = s.mode
    zero = Exponent.zero(mode)
    vh = h.valuation()
    work = cutoff + (-vh if vh.sign() < 0 else zero) + default_exponent(mode, 4 + extra)
    ncut = sub.tail_index(zero, work)
    cap = degree_cap if degree_cap is not None else max(ncut, 4)
    if cap + 1 < ncut:
        raise CertificateError("degree cap too small for the requested cutoff")
    fact = weierstrass_factor(normalize(sub, cap, work), cap, work)
    roots = monic_real_roots(fact.p_coeffs, LcNumber.one(mode), LcNumber.from_scalar(mode, 2), work)
    return [RootReport(
        root=h * r.root + k,
        multiplicity=r.multiplicity,
        residual_valuation=None,
        interval=(a, b),
        certificate={
            "p_coeffs": fact.p_coeffs,
            "b_coeffs": fact.b_coeffs,
            "achieved_cutoff": work,
            "z_root": r.root,
        },
        unresolved=r.unresolved,
        exact=r.exact and h.is_exact and k.is_exact,
    ) for r in roots]


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
            mapped = _series_roots_on_interval(s, a, b, depth, degree_cap, extra)
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
    mapped = _series_roots_on_interval(s, a, b, cutoff, degree_cap)
    return len(mapped), mapped


def multiplicity_at(s, c, cutoff):
    """Order of the series zero at c, from the monic-factor structure on
    [c - 1/2, c + 1/2], cross-checked against derivative vanishing."""
    if not isinstance(c, LcNumber):
        c = LcNumber.from_scalar(s.mode, c)

    def value_at(series, cut):
        """(value at c, the cutoff it holds to): ``cut`` halved on each
        TruncationError, at most 8 tries; the value is None when all fail."""
        for _ in range(8):
            try:
                return evaluate(series, c, cut), cut
            except TruncationError:
                cut = cut.scale(Fraction(1, 2))
        return None, cut

    value, feas = value_at(s, cutoff)
    if value is None or not value.is_zero_below(feas):
        raise ValueError("not a certified root of the series")
    target, best = None, None
    for rep in _series_roots_on_interval(s, c - Fraction(1, 2), c + Fraction(1, 2), cutoff):
        diff = rep.root - c
        if not diff.terms:
            target = rep
            break
        if best is None or diff.valuation().compare(best[0]) > 0:
            best = (diff.valuation(), rep)
    if target is None and best is not None and best[0].compare(default_exponent(s.mode, 1)) > 0:
        target = best[1]
    if target is None:
        raise ValueError("no factor root matches the claimed zero")
    mult = target.multiplicity

    # derivative cross-check
    deriv = s
    for j in range(1, mult + 1):
        deriv = deriv.derivative()
        dv, dcut = value_at(deriv, feas)
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
            if _in_range(h.root, lo, hi):
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
        items = [("zero", h.root, _distance_valuation(h.root, target.root))
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
    """min/max/None from the first nonvanishing higher derivative: the m-th
    derivative at x is m! times the m-th coefficient of S_n(X + x)."""
    shifted = SubstitutedSeries(PolySeries(x.mode, sn_coeffs), LcNumber.one(x.mode), x)
    for m in range(2, len(sn_coeffs)):
        v = shifted.coeff(m).truncate(cutoff)
        if v.terms:
            if m % 2 == 1:
                return None  # inflection, not an extreme
            return "min" if v.sign() > 0 else "max"
    return None


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
            kind = _classify_extreme(coeffs, h.root, cutoff)
            if kind is None:
                continue
            items.append((kind, h.root, _distance_valuation(h.root, target.root)))
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
