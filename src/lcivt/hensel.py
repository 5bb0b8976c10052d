"""Constructive lifting over the valuation ring: distinguished roots and the
monic-polynomial x unit-series factorization of a restricted series.

``newton_root`` is the library's one Newton iteration: ``n_poly_root``,
``LcNumber.nth_root`` and ``rootfind.poly_roots`` lift their roots with it,
each call on one encoding of the kernel's grid (``lcnum._Grid``) and each
step only as deep as Hensel's lemma says that step reaches.

The factorization S = P*B is Hensel's Lemma as a correction loop: from
P = S[:pivot+1], B = 1, each round splits the residual S - P*B into (Q, R),
deg R < pivot, and sets P += R, B += Q.  ``weierstrass_factor`` is
encoded once on the kernel's grid (``lcnum._Grid``), decoded once, and
runs slice-major: P and B are held by exponent, and a round forms only the
least exponent slice of the residual, from slices already final (the
relaxed product schedule), and splits it by st(P) in the residue field.
``weierstrass_factor_batched`` holds P, B and the residual as LcNumber
lists by X-degree and divides the whole residual by P: the reference,
which shares only the extraction of S, ``_certify`` and the kernel's
``_Grid.accumulate`` with the first.

Polynomials here are dense lists of LcNumber by ascending power.
``poly_deriv`` and ``poly_divmod_monic`` are the library's arithmetic for
them, and ``lcnum.horner`` evaluates them; ``poly_mul``, one kernel pair,
serves the tests and ``lcbench``.  All three skip only exact zeros and
never trim: ``== 0`` on a truncated number raises TruncationError, and
trimming would shorten the reported unit factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import zip_longest
from math import lcm

from .errors import CertificateError, ResourceCapError
from .lcnum import LC, Exponent, LcNumber, _check_terms, _Grid, _min_cut, _num, sum_of_products
from .polys import pdivmod

_LIFT_CAP = 20000
_CAP_MESSAGE = ("factorization lifting hit _LIFT_CAP = %d rounds before the cutoff %s; "
                "least residual exponent reached %s")
_NEWTON_CAP = 200


def poly_deriv(coeffs):
    return [coeffs[i] * i for i in range(1, len(coeffs))]


def poly_mul(a, b, cutoff=None):
    """a*b, every coefficient truncated at ``cutoff``: one pair in the
    kernel ``lcnum.sum_of_products``."""
    return sum_of_products([(a, b)], cutoff)


def poly_divmod_monic(num, den, cutoff=None):
    """Division with remainder by a monic polynomial; exact in the ring.

    With ``cutoff`` the running remainder is truncated as it goes, which
    keeps lifting quotients from accumulating terms beyond the precision
    anything downstream can use.
    """
    if not den or not (den[-1].is_exact and den[-1] == 1):
        raise ValueError("divisor must be monic")
    num = list(num)
    if cutoff is not None:
        num = [c.truncate(cutoff) for c in num]
    dd = len(den) - 1
    q = [LcNumber.zero(den[-1].mode) for _ in range(max(len(num) - dd, 0))]
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c.is_exact_zero or (cutoff is not None and not c.terms):
            continue
        q[i - dd] = c
        for j in range(dd + 1):
            upd = num[i - dd + j] - c * den[j]
            num[i - dd + j] = upd if cutoff is None else upd.truncate(cutoff)
    return q, num[:dd]


def newton_root(coeffs, x0, cutoff):
    """Newton's iteration x <- x - f(x)/f'(x) toward the simple root of f
    seeded at x0: the library's one Newton loop.

    f, f' and x0 are encoded once on the kernel's grid (``lcnum._Grid``), in
    either mode and over any number of generators; a step is a Horner pass
    each for r = f(x) and f'(x), a ``_Grid.invert`` of f'(x), and x - r/f'(x)
    as one accumulation, and only the root and its bound are decoded.  With
    lam = val x, rv = val r, vd = val f'(x) and vc = min val(a_i) + i*lam (a
    truncated zero at its cutoff), Hensel's margin g = rv + vc - 2*(lam + vd)
    > 0 makes the new x right below w = rv - vd + g and keeps lam and vd.  If
    also v1 = min over i > 0 of val(a_i) + i*lam is lam + vd (f'(x)'s lead
    does not cancel), x's full-step marker stays put, so a step may invert
    f'(x) to relative precision w - (rv - vd) and form x below w only, and
    the next takes vd from the lemma.  Other steps, hahn steps whose g has
    no multiple reaching the cutoff, and a linear f's steps run at the cutoff.

    Returns (root, f(root).val_lb()), the bound None when f(root) is
    exactly zero; or None when f'(x) vanishes below the cutoff, the
    residual's valuation stops rising, or _NEWTON_CAP steps pass.  r is
    truncated at cutoff + max(vd, 0); truncated coefficients leave it known
    below r.cutoff only, so the root is certified below r.cutoff - vd.
    """
    grid = _Grid(x0.mode, [[x0], coeffs], cutoff)
    (dx, cf), cap, last, lemma = grid.cdens, grid.cut(cutoff), None, False
    (x,), f = grid.encode([x0], dx), grid.encode(coeffs, cf)
    df = [grid.scale([c], i)[0] for i, c in enumerate(f) if i]  # f' over cf
    for _ in range(_NEWTON_CAP):
        ft, fcut, fd = grid.horner(f, cf, x, dx)
        if not ft and fcut is None:
            return grid.decode(x[0], x[2], dx), None
        d = None if lemma else grid.horner(df, cf, x, dx)  # else vd is the lemma's, kept
        if d and not d[0]:
            return None
        vd = d[0][0][0] if d else vd
        target = cap + vd if vd > grid.zero else cap
        rt, rcut = [t for t in ft if t[0] < target], _min_cut(fcut, target)  # r = f(x) + O(target)
        if not rt:
            cut = _min_cut(_min_cut(x[2], cap), rcut - vd)
            return (grid.decode([t for t in x[0] if t[0] < cut], cut, dx),
                    grid.decode(ft[:1], fcut, fd).val_lb())
        dt, dcut, dd = d or grid.horner(df, cf, x, dx)
        if not dt or dt[0][0] != vd:
            raise CertificateError("val f'(x) left the value Hensel's lemma gives it")
        rv = rt[0][0]
        if last is not None and rv <= last:
            return None
        last, w, lemma = rv, cap, False
        if x[0] and len(f) > 2:
            lam, ilam, v1 = x[0][0][0], grid.zero, None
            for _, v, _ in f[1:]:
                ilam = ilam + lam
                v1 = v1 if v is None else _min_cut(v1, v + ilam)
            g = rv + _min_cut(v1, f[0][1]) - (lam + vd) - (lam + vd)  # the margin
            lemma = v1 == lam + vd and g > grid.zero and (
                grid.lc or g.min_multiple_at_least(cap - rv + vd) is not None)
            w = _min_cut(cap, rv - vd + g) if lemma else cap
        it, icut, di = grid.invert(_num(dt, dcut), dd, target - rv - (cap - w))
        ((xt, _, _),), dx = grid.combine([(([x], dx), (grid.const(1), 1), 1), (
            ([_num(rt, rcut)], fd), ([_num(it, icut)], di), -1)], 1, w)  # x - r*f'(x)^-1
        x = _num(xt, _min_cut(_min_cut(x[2], rcut - vd), cap if dcut is None else  # a full
                              _min_cut(cap, dcut + rv - vd - vd)))  # step's marker
    return None


def n_poly_root(coeffs, cutoff):
    """Root in the maximal ideal of a distinguished monic polynomial.

    Requires: coefficients in the valuation ring, constant term
    infinitesimal, linear coefficient a unit.  ``newton_root`` from 0; the
    unit linear coefficient makes every step contract, so two runs with
    different iteration counts agree below the cutoff.
    """
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree at least 1")
    mode = coeffs[0].mode
    zero = Exponent.zero(mode)
    if not (coeffs[-1].is_exact and coeffs[-1] == 1):
        raise ValueError("polynomial must be monic")
    for c in coeffs:
        v = c.val_lb()
        if v is not None and v.compare(zero) < 0:
            raise ValueError("coefficients must lie in the valuation ring")
    c0 = coeffs[0]
    v0 = c0.val_lb()
    if v0 is not None and v0.compare(zero) <= 0:
        raise ValueError("constant term must be infinitesimal")
    v1 = coeffs[1].val_lb()
    if v1 is None or v1.compare(zero) != 0:
        raise ValueError("linear coefficient must be a unit")

    if len(coeffs) == 2:
        return -c0  # exact: the Newton step truncates at the cutoff
    hit = newton_root(coeffs, LcNumber.zero(mode), cutoff)
    if hit is None:
        raise ResourceCapError(
            "distinguished-root iteration stalled or hit _NEWTON_CAP = %d steps "
            "before the cutoff %s" % (_NEWTON_CAP, cutoff))
    return hit[0]


@dataclass
class Factorization:
    """S = P*B with P monic over the valuation ring and B a unit series.

    ``b_coeffs`` is B up to the X-degree cap; every coefficient of S - P*B
    has valuation at least ``achieved_cutoff``.
    """

    p_coeffs: list
    b_coeffs: list
    achieved_cutoff: Exponent
    degree_cap: int

    def residual(self, series_coeffs):
        """S - P*B (S is 0 beyond the cap) below ``achieved_cutoff``: the
        certificate of both lifts, on a fresh grid over S, P and B."""
        cut = self.achieved_cutoff
        polys = [series_coeffs, self.p_coeffs, self.b_coeffs]
        grid = _Grid(cut.mode, polys, cut)
        s, p, b = [(grid.encode(poly, d), d) for poly, d in zip(polys, grid.cdens)]
        return grid.decode_all(_certify(grid, s, p, b, grid.cut(cut)))


def _extract_series(ns, degree_cap, cutoff):
    """(S to the cap, checked; its grid; (S encoded, denominator); the grid cutoff)."""
    pivot = ns.N
    if pivot > degree_cap:
        raise ValueError("degree cap below the normalization pivot")
    zero = Exponent.zero(ns.mode)
    ncut = ns.tail_index(zero, cutoff)
    if ncut > degree_cap + 1:
        raise CertificateError(
            "degree cap too small: coefficients beyond it are not certified "
            "below the cutoff")
    s = [ns.coeff(n, cutoff) for n in range(degree_cap + 1)]
    for n, c in enumerate(s):
        v = c.val_lb()
        if v is not None and v.compare(zero) < 0:
            raise ValueError("series is not over the valuation ring")
        if n > pivot and c.terms and c.terms[0][0].compare(zero) <= 0:
            raise ValueError("coefficient %d above the pivot is not infinitesimal" % n)
    if not (s[pivot].is_exact and s[pivot] == 1):
        raise ValueError("pivot coefficient must be exactly 1")
    grid = _Grid(ns.mode, [s], cutoff)
    return s, grid, (grid.encode(s, grid.cdens[0]), grid.cdens[0]), grid.cut(cutoff)


def _certify(grid, s, p, b, cap):
    """S - P*B below the grid cutoff ``cap``, recomputed from the encoded S,
    P and B: one ``_Grid.combine`` of 1*S - P*B, P and B truncated at
    ``cap``, so that a coefficient of negative valuation fails the check."""
    p, b = [([_num([t for t in ts if t[0] < cap], _min_cut(c, cap)) for ts, _, c in x[0]], x[1])
            for x in (p, b)]  # + O(cap)
    return grid.combine([((grid.const(1), 1), s, 1), (p, b, -1)],
                        max(len(s[0]), len(p[0]) + len(b[0]) - 1), cap)


def weierstrass_factor_batched(ns, degree_cap, cutoff):
    """The batched rule, the reference for ``weierstrass_factor``, on plain
    LcNumber lists by X-degree: each round divides the whole residual by P
    (``poly_divmod_monic``), resid - Q*P - R*B is one ``sum_of_products``,
    and B += Q, P += R are LcNumber sums.  P and B are encoded only for the
    certificate."""
    s, grid, se, _ = _extract_series(ns, degree_cap, cutoff)
    one, zero = [LcNumber.one(ns.mode)], LcNumber.zero(ns.mode)
    p, b = s[: ns.N + 1], one
    resid = sum_of_products([(s, one), (p, b)], cutoff, [1, -1])  # S - P*B
    for _ in range(_LIFT_CAP):
        if not any(c.terms for c in resid):
            break
        q, rem = poly_divmod_monic(resid, p, cutoff)
        b = [x + y for x, y in zip_longest(b, q, fillvalue=zero)]
        resid = sum_of_products([(resid, one), (q, p), (rem, b)], cutoff, [1, -1, -1])
        p = [x + r for x, r in zip_longest(p, rem, fillvalue=zero)]
    else:
        left = [c.terms[0][0] for c in resid if c.terms]
        if left:
            raise ResourceCapError(_CAP_MESSAGE % (_LIFT_CAP, cutoff, min(left)))
    return _certified(grid, se, grid.encoded(p), grid.encoded(b), cutoff, degree_cap)


def _certified(grid, se, p, b, cutoff, degree_cap):
    """The Factorization of the encoded P and B, once ``_certify`` passes."""
    cap = grid.cut(cutoff)
    for n, (terms, _, c) in enumerate(_certify(grid, se, p, b, cap)[0]):
        if terms or c < cap:
            raise CertificateError("residual coefficient %d not certified below the cutoff" % n)
    return Factorization(grid.decode_all(p), grid.decode_all(b), cutoff, degree_cap)


def weierstrass_factor(ns, degree_cap, cutoff):
    """Split a normalized restricted series into monic polynomial x unit.

    Slice rule: P and -B map a grid exponent to a slice, the X-polynomial of
    their terms there.  Each round takes the least pending exponent a,
    forms r_a = S_a(deg > pivot) + sum P_x*(-B_y) over x + y = a, x, y > 0,
    from final slices, splits it by st(P) in the residue field, and sets
    B_a = Q, P_a += R, until the cutoff or the cap (hahn-mode cutoffs beyond
    the reachable range never end)."""
    pivot, top = ns.N, degree_cap
    s, grid, (se, ds), cap = _extract_series(ns, degree_cap, cutoff)
    sg, zero = _Grid(LC, []), grid.zero  # slices: X-degrees on grid's coefficient path
    sg.gen, sg.onto, sg.rational, sg.width = grid.gen, grid.onto, grid.rational, grid.width
    p, hi = {}, {}
    for k, (terms, _, _) in enumerate(se):
        for e, c in terms:  # P keeps its terms past the cutoff
            (p if k <= pivot else hi if e < cap else {}).setdefault(e, []).append((k, c))
    p, hi = ({e: ([_num(t, None)], ds) for e, t in x.items()} for x in (p, hi))
    unit, b, pend = (sg.const(1), 1), {zero: (sg.const(-1), 1)}, {e: [] for e in hi}
    heap = sorted(hi)

    def push(x, y):  # the pair P_x*B_y, at positive exponents
        if x != zero and y != zero and (a := x + y) < cap:
            if a not in pend:
                heappush(heap, a)
            pend.setdefault(a, []).append((x, y))

    bcount, blen, rounds, pint = [1] + [0] * top, 1, 0, None
    while heap:
        a = heappop(heap)
        prods = [(p[x], b[y], 1) for x, y in pend.pop(a)] + ([(hi[a], unit, 1)] if a in hi else [])
        ((terms, _, _),), d = sg.combine(prods, 1, top + 1)
        if not terms:
            continue
        if rounds == _LIFT_CAP:
            raise ResourceCapError(_CAP_MESSAGE % (_LIFT_CAP, cutoff, grid.decode([], a, 1).cutoff))
        rounds, got = rounds + 1, dict(terms)
        if pint is None:  # R has positive valuation, so st(P) never changes
            pbar = [c.standard_part() for c in s[: pivot + 1]]
            e = grid.rational and lcm(*[c.as_fraction().denominator for c in pbar])
            pint = e and ([e ** i for i in range(top + 1)], [int(c.as_fraction() * e) * e ** (
                pivot - 1 - i) for i, c in enumerate(pbar[:-1])] + [1])
        if pint:  # on integers: X = Y/e makes st(P) = m/e monic over Z
            ep = pint[0]
            qt, rt = pdivmod([got.get(k, 0) * ep[top - k] for k in range(top + 1)], pint[1])
            # -Q_j = -qt_j e^j / (d e^(top-pivot)), R_j = rt_j e^j / (d e^top)
            q, r = (sg.primitive([_num([(j, v * ep[j]) for j, v in enumerate(cs) if v], None)],
                                 d * ep[k])
                    for cs, k in (([-v for v in qt], top - pivot), (rt, top)))
        else:
            x = sg.decode(terms, None, d)
            qt, rt = pdivmod([x.coeff_at(Exponent.lc(k)) for k in range(top + 1)], pbar)
            q, r = (sg.encoded([LcNumber(LC, [(Exponent.lc(j), c) for j, c in enumerate(cs)])])
                    for cs in ([-c for c in qt], rt))
        blen = max(blen, len(qt))
        if rt:
            for y in () if a in p else b:
                push(a, y)
            p[a] = sg.combine([(p[a], unit, 1), (r, unit, 1)], 1, top + 1) if a in p else r
        if qt:
            b[a] = q
            for k, _ in q[0][0][0]:
                bcount[k] += 1
                _check_terms(bcount[k])
            for x in p:
                push(x, a)
    return _certified(grid, (se, ds), _by_degree(grid, p, 1, [c for _, _, c in se[: pivot + 1]]),
                      _by_degree(grid, b, -1, [None] * blen), cutoff, degree_cap)


def _by_degree(grid, slices, sign, cuts):
    """sign times a map exponent -> slice as one encoded sequence by X-degree,
    with the markers ``cuts``, over one denominator."""
    den, out = lcm(*[d for _, d in slices.values()]), [[] for _ in cuts]
    for e in sorted(slices):
        ((t, _, _),), d = slices[e]
        for k, v in grid.scale([(t, None, None)], sign * den // d)[0][0] if sign * den != d else t:
            out[k].append((e, v))
    _check_terms(max(map(len, out)))
    return [_num(t, c) for t, c in zip(out, cuts)], den
