"""Constructive lifting over the valuation ring: distinguished roots and the
monic-polynomial x unit-series factorization of a restricted series.

Polynomials here are dense lists of LcNumber by ascending power, and the
``poly_*`` helpers are the library's arithmetic for them.  They skip only
exact zeros and never trim: ``== 0`` on a truncated number raises
TruncationError, and trimming would shorten the reported unit factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError, ResourceCapError
from .lcnum import Exponent, LcNumber

_LIFT_CAP = 20000


def poly_eval(coeffs, x):
    acc = LcNumber.zero(x.mode)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_deriv(coeffs):
    return [coeffs[i] * i for i in range(1, len(coeffs))]


def poly_mul(a, b, cutoff=None):
    if not a or not b:
        return []
    mode = a[0].mode
    out = [LcNumber.zero(mode) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x.is_exact_zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    if cutoff is not None:
        out = [c.truncate(cutoff) for c in out]
    return out


def poly_add(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        if i < len(a) and i < len(b):
            out.append(a[i] + b[i])
        else:
            out.append(a[i] if i < len(a) else b[i])
    return out


def poly_sub(a, b):
    return poly_add(a, [-c for c in b])


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


def n_poly_root(coeffs, cutoff):
    """Root in the maximal ideal of a distinguished monic polynomial.

    Requires: coefficients in the valuation ring, constant term
    infinitesimal, linear coefficient a unit.  Newton iteration from 0; the
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

    if c0.is_exact_zero:
        return LcNumber.zero(mode)
    dcoeffs = poly_deriv(coeffs)
    x = LcNumber.zero(mode)
    last = None
    for _ in range(256):
        full = poly_eval(coeffs, x)
        if full.is_exact_zero:
            return x
        r = full.truncate(cutoff)
        if not r.terms:
            return x.truncate(cutoff)
        rv = r.terms[0][0]
        if last is not None and rv.compare(last) <= 0:
            raise ResourceCapError("distinguished-root iteration stalled")
        last = rv
        d = poly_eval(dcoeffs, x)
        corr = full * d.invert(cutoff)
        upd = x - corr
        x = upd if upd.cutoff is None else upd.truncate(cutoff)
    raise ResourceCapError("distinguished-root iteration did not reach the cutoff")


@dataclass
class Factorization:
    """S = P*B with P monic over the valuation ring and B a unit series.

    ``p_coeffs`` has degree ``pivot``; ``b_coeffs`` is B up to the X-degree
    cap; every coefficient of S - P*B up to the cap has valuation at least
    ``achieved_cutoff``.
    """

    p_coeffs: list
    b_coeffs: list
    achieved_cutoff: Exponent
    degree_cap: int

    @property
    def pivot(self):
        return len(self.p_coeffs) - 1

    def residual(self, series_coeffs):
        """S - P*B up to the cap, certified only below ``achieved_cutoff``.

        P and B are multiplied with every coefficient truncated at the
        cutoff.  That keeps the verdict of ``is_zero_below(achieved_cutoff)``:
        a coefficient of negative valuation makes its products' cutoff
        markers fall below the cutoff, which fails the check.
        """
        mode = self.p_coeffs[0].mode
        upto = self.degree_cap + 1
        cut = self.achieved_cutoff
        pb = poly_mul([c.truncate(cut) for c in self.p_coeffs],
                      [c.truncate(cut) for c in self.b_coeffs])
        pb = (pb + [LcNumber.zero(mode)] * upto)[:upto]
        s = (list(series_coeffs) + [LcNumber.zero(mode)] * upto)[:upto]
        return poly_sub(s, pb)

    def unit_value(self, x):
        return poly_eval(self.b_coeffs, x)


def _extract_series(ns, degree_cap, cutoff):
    mode = ns.mode
    zero = Exponent.zero(mode)
    ncut = ns.tail_index(zero, cutoff)
    if ncut > degree_cap + 1:
        raise CertificateError(
            "degree cap too small: coefficients beyond it are not certified "
            "below the cutoff")
    s = [ns.coeff(n, cutoff) for n in range(degree_cap + 1)]
    pivot = ns.N
    for n, c in enumerate(s):
        v = c.val_lb()
        if v is not None and v.compare(zero) < 0:
            raise ValueError("series is not over the valuation ring")
        if n > pivot and c.terms and c.terms[0][0].compare(zero) <= 0:
            raise ValueError("coefficient %d above the pivot is not infinitesimal" % n)
    if not (s[pivot].is_exact and s[pivot] == 1):
        raise ValueError("pivot coefficient must be exactly 1")
    return s


def _check_residual(fact, s):
    for n, c in enumerate(fact.residual(s)):
        if not c.is_zero_below(fact.achieved_cutoff):
            raise CertificateError(
                "residual coefficient %d not certified below the cutoff" % n)


def weierstrass_factor(ns, degree_cap, cutoff):
    """Split a normalized restricted series into monic polynomial x unit.

    Lifting runs slice by slice: each round takes the least support exponent
    gamma of the residual, divides the gamma-slice by P modulo the maximal
    ideal (a residue-field polynomial division), and sends the remainder
    (degree < pivot) to P and the quotient to B; the division defect,
    Q*(st(P) - P), rejoins the residual at a strictly larger exponent.
    Every round pushes the least residual exponent up by at least the first
    slice's exponent, so the loop reaches the cutoff or trips the cap
    (reachable cutoffs always terminate; hahn-mode cutoffs beyond the
    reachable range cannot).
    """
    from .polys import pdivmod as real_pdivmod

    mode = ns.mode
    pivot = ns.N
    if pivot > degree_cap:
        raise ValueError("degree cap below the normalization pivot")
    s = _extract_series(ns, degree_cap, cutoff)
    one = LcNumber.one(mode)
    p = list(s[: pivot + 1])
    b = [one]
    resid = [LcNumber.zero(mode)] * (pivot + 1) + list(s[pivot + 1:])
    resid = [c.truncate(cutoff) for c in resid]
    pbar = [c.standard_part() for c in p]

    for _ in range(_LIFT_CAP):
        exps = [c.terms[0][0] for c in resid if c.terms]
        if not exps:
            break
        gamma = min(exps)
        slice_res = [c.coeff_at(gamma) for c in resid]
        qbar, rbar = real_pdivmod(slice_res, pbar)
        q = [LcNumber.zero(mode) if c == 0 else LcNumber.monomial(gamma, c)
             for c in qbar]
        rem = [LcNumber.zero(mode) if c == 0 else LcNumber.monomial(gamma, c)
               for c in rbar]
        slice_poly = [LcNumber.zero(mode) if c.is_zero
                      else LcNumber.monomial(gamma, c) for c in slice_res]
        # S - (P + rem)(B + Q) = (resid - slice) + Q*(st(P) - P) - rem*(B - 1 + Q)
        mtail = [LcNumber.from_scalar(mode, sc) - pc for sc, pc in zip(pbar, p)]
        defect = poly_mul(q, mtail, cutoff)
        correction = poly_add(b, q)
        correction[0] = correction[0] - one
        delta = poly_mul(rem, correction, cutoff)
        resid = poly_add(poly_sub(poly_sub(resid, slice_poly), delta), defect)
        resid = [c.truncate(cutoff) for c in resid[: degree_cap + 1]]
        p = poly_add(p, rem + [LcNumber.zero(mode)] * (pivot + 1 - len(rem)))[: pivot + 1]
        b = poly_add(b, q)[: degree_cap - pivot + 1]
    else:
        raise ResourceCapError("factorization lifting did not reach the cutoff")

    fact = Factorization(p, b, cutoff, degree_cap)
    _check_residual(fact, s)
    return fact


def weierstrass_factor_batched(ns, degree_cap, cutoff):
    """Alternate lift schedule for the uniqueness check: consume the whole
    residual each round instead of one exponent slice."""
    mode = ns.mode
    pivot = ns.N
    if pivot > degree_cap:
        raise ValueError("degree cap below the normalization pivot")
    s = _extract_series(ns, degree_cap, cutoff)
    one = LcNumber.one(mode)
    p = list(s[: pivot + 1])
    b = [one]
    resid = [LcNumber.zero(mode)] * (pivot + 1) + list(s[pivot + 1:])
    resid = [c.truncate(cutoff) for c in resid]
    for _ in range(_LIFT_CAP):
        if all(not c.terms for c in resid):
            break
        q, rem = poly_divmod_monic(resid, p, cutoff)
        correction = poly_add(b, q)
        correction[0] = correction[0] - one
        delta = poly_mul(rem, correction, cutoff)
        resid = [(-c).truncate(cutoff) for c in
                 (delta + [LcNumber.zero(mode)] * (degree_cap + 1 - len(delta)))[: degree_cap + 1]]
        p = poly_add(p, rem + [LcNumber.zero(mode)] * (pivot + 1 - len(rem)))[: pivot + 1]
        b = poly_add(b, q)[: degree_cap - pivot + 1]
    else:
        raise ResourceCapError("factorization lifting did not reach the cutoff")
    fact = Factorization(p, b, cutoff, degree_cap)
    _check_residual(fact, s)
    return fact
