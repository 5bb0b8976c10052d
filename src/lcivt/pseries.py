"""Finitely presented power series over the field, with certified evaluation.

A series is a coefficient rule (polynomial, rational-function expansion, or a
closed-form term rule) possibly wrapped in combinators (sum, scalar multiple,
polynomial multiple, linear substitution).  Because every rule is finitely
presented, each series can answer two certified questions:

* ``coeff(n, cutoff)``: the exact n-th coefficient, or the coefficient up to
  a truncation cutoff when exactness is impossible (substituted series);
* ``tail_index(xval, target)``: an index N such that every term ``a_n x^n``
  with ``n >= N`` and ``valuation(x) >= xval`` has valuation at least
  ``target``.

The second is the convergence certificate: evaluation, normalization and
factorization never silently drop terms they cannot bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import CertificateError, ResourceCapError, TruncationError
from .hensel import poly_deriv, poly_mul, poly_sub
from .lcnum import LC, Exponent, LcNumber
from .polys import cauchy_bound, pderiv, peval, pmul, pshift, render, trim
from .realalg import RealAlgebraic

_SCAN_CAP = 100000


def _index_beyond_roots(p):
    """Integer N with p(n) of the sign of its leading coeff for all n >= N."""
    b = cauchy_bound(p)
    return int(b) + 2


class PSeries:
    """Base class; subclasses provide the coefficient rule."""

    mode = LC

    def coeff(self, n, cutoff=None):
        raise NotImplementedError

    def tail_index(self, xval, target, strict=False):
        raise NotImplementedError

    def derivative(self):
        raise NotImplementedError

    def finite_degree(self):
        return None

    def exact_val_poly(self):
        """Fraction-poly lower bound on valuation(a_n) as a function of n."""
        return None

    def dsl_lines(self):
        raise NotImplementedError

    def _zero(self):
        return LcNumber.zero(self.mode)

    def __add__(self, other):
        return SumSeries(self, other)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, "; ".join(self.dsl_lines()))


class PolySeries(PSeries):
    """A polynomial: finitely many explicit coefficients."""

    def __init__(self, mode, coeffs):
        self.mode = mode
        cs = [c if isinstance(c, LcNumber) else LcNumber.from_scalar(mode, c)
              for c in coeffs]
        while cs and cs[-1].is_exact_zero:
            cs.pop()
        self.coeffs = cs

    def coeff(self, n, cutoff=None):
        if n < len(self.coeffs):
            return self.coeffs[n]
        return self._zero()

    def tail_index(self, xval, target, strict=False):
        return len(self.coeffs)

    def finite_degree(self):
        return max(len(self.coeffs) - 1, 0)

    def derivative(self):
        return PolySeries(self.mode, poly_deriv(self.coeffs))

    def dsl_lines(self):
        if not self.coeffs:
            return ["poly: 0"]
        return ["poly: " + ", ".join(c.render() for c in self.coeffs)]


class TermRuleSeries(PSeries):
    """Closed-form rule a_{n+offset} = sign^n * prefactor(n) * eps^{expo(n)}.

    ``expo`` is either ("poly", rational polynomial in n) in lc mode, or
    ("seq", shift) in hahn mode where the exponent is that of eps_{n+shift}.
    """

    def __init__(self, mode, sign_base, prefactor, expo, offset=0):
        if sign_base not in (1, -1):
            raise ValueError("sign base must be +1 or -1")
        self.mode = mode
        self.sign_base = sign_base
        self.prefactor = tuple(trim([Fraction(c) for c in prefactor]))
        kind, payload = expo
        if kind == "poly":
            if mode != LC:
                raise ValueError("polynomial exponents need lc mode")
            self.expo = ("poly", tuple(trim([Fraction(c) for c in payload])))
        elif kind == "seq":
            if mode != "hahn":
                raise ValueError("seq exponents need hahn mode")
            self.expo = ("seq", int(payload))
        else:
            raise ValueError("unknown exponent rule %r" % kind)
        self.offset = int(offset)

    def _exponent(self, n):
        kind, payload = self.expo
        if kind == "poly":
            return Exponent.lc(peval(payload, n))
        idx = n + payload
        if idx == 0:
            return Exponent.zero(self.mode)
        return Exponent.hahn({idx: 1})

    def coeff(self, n, cutoff=None):
        m = n - self.offset
        if m < 0:
            return self._zero()
        pref = peval(self.prefactor, m)
        if pref == 0:
            return self._zero()
        if self.sign_base == -1 and m % 2 == 1:
            pref = -pref
        return LcNumber.monomial(self._exponent(m), RealAlgebraic(pref))

    def tail_index(self, xval, target, strict=False):
        if not self.prefactor:
            return 0
        kind, payload = self.expo
        if kind == "poly":
            # psi(m) = expo(m) + (m + offset)*xval - target; need >= 0 (>) beyond
            psi = [Fraction(c) for c in payload]
            while len(psi) < 2:
                psi.append(Fraction(0))
            psi[0] += self.offset * xval.data - target.data
            psi[1] += xval.data
            psi = trim(psi)
            if not psi:
                if strict:
                    raise CertificateError("no convergence certificate: flat valuations")
                return 0
            if len(psi) == 1:
                if psi[0] > 0 or (psi[0] == 0 and not strict):
                    return 0
                raise CertificateError("no convergence certificate: flat valuations")
            if psi[-1] < 0:
                raise CertificateError("no convergence certificate: valuations decrease")
            return _index_beyond_roots(psi) + self.offset
        shift = payload
        n0 = max(xval.top_index(), target.top_index()) + 1 - shift
        return max(n0, 1 - shift, 0) + self.offset

    def exact_val_poly(self):
        kind, payload = self.expo
        if kind != "poly":
            return None
        # valuation(a_j) >= expo(j - offset) wherever the coefficient is nonzero
        return pshift(payload, -self.offset)

    def finite_degree(self):
        return 0 if not self.prefactor else None

    def derivative(self):
        if self.offset > 0:
            pref = pmul(self.prefactor, [self.offset, 1])
            return TermRuleSeries(self.mode, self.sign_base, pref, self.expo, self.offset - 1)
        pref = pmul(pshift(self.prefactor, 1), [1, 1])
        if self.sign_base == -1:
            pref = [-c for c in pref]
        kind, payload = self.expo
        if kind == "poly":
            expo = ("poly", pshift(payload, 1))
        else:
            expo = ("seq", payload + 1)
        return TermRuleSeries(self.mode, self.sign_base, pref, expo, 0)

    def dsl_lines(self):
        parts = ["sign=(%s)^n" % ("-1" if self.sign_base == -1 else "+1")]
        if len(self.prefactor) <= 1:
            parts.append("scale=%s" % (self.prefactor[0] if self.prefactor else 0))
        else:
            parts.append("prefactor=%s" % render(self.prefactor, "n"))
        kind, payload = self.expo
        if kind == "poly":
            parts.append("expo=%s" % render(payload, "n"))
        else:
            parts.append("expo=seq(n%+d)" % payload if payload else "expo=seq(n)")
        if self.offset:
            parts.append("offset=%d" % self.offset)
        return ["term: " + " ".join(parts)]


class RatFunSeries(PSeries):
    """Power-series expansion of num(X)/den(X).

    The constant denominator coefficient must be an exact monomial and every
    higher denominator coefficient must have strictly larger valuation;
    otherwise the expansion coefficients are not finitely representable and
    no valuation-growth certificate exists.
    """

    def __init__(self, mode, num, den):
        self.mode = mode
        self.num = [c if isinstance(c, LcNumber) else LcNumber.from_scalar(mode, c)
                    for c in num]
        self.den = [c if isinstance(c, LcNumber) else LcNumber.from_scalar(mode, c)
                    for c in den]
        while self.num and self.num[-1].is_exact_zero:
            self.num.pop()
        while self.den and self.den[-1].is_exact_zero:
            self.den.pop()
        if not self.den:
            raise ZeroDivisionError("zero denominator")
        d0 = self.den[0]
        if not (d0.is_exact and len(d0.terms) == 1):
            raise CertificateError("denominator constant term must be an exact monomial")
        self._v0 = d0.valuation()
        self._inv_d0 = d0.invert(Exponent.zero(mode))  # exact for a monomial
        delta = None
        for c in self.den[1:]:
            if c.is_exact_zero:
                continue
            dv = c.valuation() - self._v0
            if dv.sign() <= 0:
                raise CertificateError(
                    "denominator tail must be infinitesimal against its constant term")
            delta = dv if delta is None or dv.compare(delta) < 0 else delta
        self._delta = delta  # None means the denominator is a monomial
        self._memo = []

    def coeff(self, n, cutoff=None):
        while len(self._memo) <= n:
            i = len(self._memo)
            acc = self.num[i] if i < len(self.num) else self._zero()
            for k in range(1, min(i, len(self.den) - 1) + 1):
                acc = acc - self.den[k] * self._memo[i - k]
            self._memo.append(acc * self._inv_d0)
        return self._memo[n]

    def _base_len(self):
        return max(len(self.num) - 1, 0)

    def _block_floor(self):
        """(L1, K, N_base): val(c_n) >= L1 + delta*floor((n-N_base-1)/K)."""
        k = len(self.den) - 1
        nb = self._base_len()
        l1 = None
        for n in range(nb + 1, nb + k + 1):
            v = self.coeff(n).val_lb()
            if v is not None:
                l1 = v if l1 is None or v.compare(l1) < 0 else l1
        return l1, k, nb

    def tail_index(self, xval, target, strict=False):
        if self._delta is None:
            # plain polynomial divided by a monomial
            n0 = len(self.num)
            return n0
        l1, k, nb = self._block_floor()
        if l1 is None:
            return nb + 1  # expansion terminates: all-zero block propagates
        step = self._delta + xval.scale(k)
        if step.sign() <= 0:
            raise CertificateError("no convergence certificate for this expansion")
        n = nb + 1
        for _ in range(_SCAN_CAP):
            ok = True
            for j in range(n, n + k):
                blocks = (j - nb - 1) // k
                bound = l1 + self._delta.scale(blocks) + xval.scale(j)
                cmp = bound.compare(target)
                if cmp < 0 or (strict and cmp == 0):
                    ok = False
                    break
            if ok:
                return n
            n += 1
        raise ResourceCapError("tail certificate scan exceeded its cap")

    def derivative(self):
        num, den = self.num, self.den
        new_num = poly_sub(poly_mul(poly_deriv(num), den), poly_mul(num, poly_deriv(den)))
        return RatFunSeries(self.mode, new_num, poly_mul(den, den))

    def dsl_lines(self):
        return ["ratfun: (%s) / (%s)" % (render_xpoly(self.num), render_xpoly(self.den))]


class SumSeries(PSeries):
    def __init__(self, a, b):
        if a.mode != b.mode:
            raise ValueError("mode mismatch in sum")
        self.mode = a.mode
        self.a, self.b = a, b

    def coeff(self, n, cutoff=None):
        return self.a.coeff(n, cutoff) + self.b.coeff(n, cutoff)

    def tail_index(self, xval, target, strict=False):
        return max(self.a.tail_index(xval, target, strict),
                   self.b.tail_index(xval, target, strict))

    def finite_degree(self):
        da, db = self.a.finite_degree(), self.b.finite_degree()
        if da is None or db is None:
            return None
        return max(da, db)

    def derivative(self):
        return SumSeries(self.a.derivative(), self.b.derivative())

    def dsl_lines(self):
        return self.a.dsl_lines() + self.b.dsl_lines() + ["sum:"]


class ScaledSeries(PSeries):
    def __init__(self, scalar, inner):
        if not isinstance(scalar, LcNumber):
            scalar = LcNumber.from_scalar(inner.mode, scalar)
        if scalar.mode != inner.mode:
            raise ValueError("mode mismatch in scale")
        self.mode = inner.mode
        self.scalar = scalar
        self.inner = inner

    def coeff(self, n, cutoff=None):
        vs = self.scalar.val_lb()
        if vs is None:
            return self._zero()
        inner_cut = None if cutoff is None else cutoff - vs
        c = (self.scalar * self.inner.coeff(n, inner_cut))
        return c if cutoff is None or c.cutoff is None else c.truncate(cutoff)

    def tail_index(self, xval, target, strict=False):
        vs = self.scalar.val_lb()
        if vs is None:
            return 0
        return self.inner.tail_index(xval, target - vs, strict)

    def finite_degree(self):
        return self.inner.finite_degree()

    def derivative(self):
        return ScaledSeries(self.scalar, self.inner.derivative())

    def dsl_lines(self):
        return self.inner.dsl_lines() + ["scale: " + self.scalar.render()]


class PolyMulSeries(PSeries):
    """A series multiplied by an explicit polynomial."""

    def __init__(self, poly, inner):
        self.mode = inner.mode
        self.poly = [c if isinstance(c, LcNumber) else LcNumber.from_scalar(self.mode, c)
                     for c in poly]
        while self.poly and self.poly[-1].is_exact_zero:
            self.poly.pop()
        self.inner = inner

    def coeff(self, n, cutoff=None):
        acc = self._zero()
        for k, p in enumerate(self.poly):
            if k > n or p.is_exact_zero:
                continue
            vp = p.val_lb()
            inner_cut = None if cutoff is None else cutoff - vp
            acc = acc + p * self.inner.coeff(n - k, inner_cut)
        return acc if cutoff is None or acc.cutoff is None else acc.truncate(cutoff)

    def tail_index(self, xval, target, strict=False):
        n0 = 0
        for k, p in enumerate(self.poly):
            if p.is_exact_zero:
                continue
            vp = p.val_lb()
            t = target - vp - xval.scale(k)
            n0 = max(n0, self.inner.tail_index(xval, t, strict) + k)
        return n0

    def finite_degree(self):
        di = self.inner.finite_degree()
        if di is None:
            return None
        return di + max(len(self.poly) - 1, 0)

    def derivative(self):
        dpoly = poly_deriv(self.poly)
        left = PolyMulSeries(dpoly, self.inner) if dpoly else None
        right = PolyMulSeries(self.poly, self.inner.derivative())
        return right if left is None else SumSeries(left, right)

    def dsl_lines(self):
        body = ", ".join(c.render() for c in self.poly) if self.poly else "0"
        return self.inner.dsl_lines() + ["polymul: " + body]


class SubstitutedSeries(PSeries):
    """T(Z) = S(h*Z + k), coefficients computed lazily by binomial expansion.

    Each coefficient is an infinite sum, so coefficient queries need a cutoff
    unless the inner series is a polynomial.
    """

    def __init__(self, inner, h, k):
        if h.mode != inner.mode or k.mode != inner.mode:
            raise ValueError("mode mismatch in substitution")
        if h.is_exact_zero:
            raise ValueError("substitution scale must be nonzero")
        self.mode = inner.mode
        self.inner = inner
        self.h = h
        self.k = k
        # caches hold immutable values; single dict writes keep value
        # semantics for concurrent readers
        self._hpow = [LcNumber.one(self.mode)]
        self._kpow = [LcNumber.one(self.mode)]
        self._memo = {}

    def _pow(self, cache, base, n):
        while len(cache) <= n:
            cache.append(cache[-1] * base)
        return cache[n]

    def coeff(self, m, cutoff=None):
        fin = self.inner.finite_degree()
        if cutoff is None and fin is None:
            raise CertificateError(
                "coefficients of a substituted series need a cutoff")
        key = (m, cutoff)
        if key in self._memo:
            return self._memo[key]
        vh = self.h.val_lb()
        if self.k.is_exact_zero:
            inner_cut = None if cutoff is None else cutoff - vh.scale(m)
            out = self.inner.coeff(m, inner_cut) * self._pow(self._hpow, self.h, m)
            out = out if cutoff is None or out.cutoff is None else out.truncate(cutoff)
            self._memo[key] = out
            return out
        vk = self.k.val_lb()
        if fin is not None:
            n1 = fin + 1
        else:
            target = cutoff - vh.scale(m) + vk.scale(m)
            n1 = self.inner.tail_index(vk, target)
        acc = self._zero()
        hm = self._pow(self._hpow, self.h, m)
        for n in range(m, max(n1, m)):
            inner_cut = None if cutoff is None else \
                cutoff - vh.scale(m) - vk.scale(n - m)
            c = self.inner.coeff(n, inner_cut)
            if c.is_exact_zero:
                continue
            term = c * comb(n, m) * hm * self._pow(self._kpow, self.k, n - m)
            acc = acc + term
        out = acc if cutoff is None or acc.cutoff is None else acc.truncate(cutoff)
        self._memo[key] = out
        return out

    def tail_index(self, xval, target, strict=False):
        vh = self.h.val_lb()
        if self.k.is_exact_zero:
            return self.inner.tail_index(xval + vh, target, strict)
        vk = self.k.val_lb()
        # a nonnegative k-valuation only helps; bound it by zero so the
        # per-index test below is monotone in m
        vk_eff = vk if vk.sign() < 0 else Exponent.zero(self.mode)
        w = vh - vk_eff + xval
        ws = w.sign()
        if ws >= 0:
            m = 0
            for _ in range(_SCAN_CAP):
                if self._m_ok(m, w, vk_eff, target, strict):
                    return m
                m += 1
            raise ResourceCapError("substitution tail scan exceeded its cap")
        # w < 0: need an exact valuation polynomial with superlinear growth.
        # For m past the vertex of psi(n) + n*vk the inner minimum over
        # n >= m sits at n = m, so the condition collapses to the rational
        # polynomial psi(m) + m*(vh + xval) - target >= 0.
        psi = self.inner.exact_val_poly()
        if psi is None or self.mode != LC:
            raise CertificateError(
                "no convergence certificate for this substituted series")
        cond = list(psi)
        while len(cond) < 2:
            cond.append(Fraction(0))
        cond[0] -= target.data
        cond[1] += vh.data + xval.data
        cond = trim(cond)
        if len(cond) < 2 or cond[-1] < 0:
            raise CertificateError(
                "no convergence certificate for this substituted series")
        vert = list(psi)
        while len(vert) < 2:
            vert.append(Fraction(0))
        vert[1] += vk_eff.data
        dvert = pderiv(vert)
        if not dvert or dvert[-1] < 0:
            raise CertificateError(
                "no convergence certificate for this substituted series")
        return max(_index_beyond_roots(cond), _index_beyond_roots(dvert))

    def _m_ok(self, m, w, vk_eff, target, strict):
        need = target - w.scale(m)
        nc = self.inner.tail_index(vk_eff, need, strict)
        for n in range(m, max(nc, m)):
            c = self.inner.coeff(n, need - vk_eff.scale(n))
            vlb = c.val_lb()
            if vlb is None:
                continue
            bound = vlb + vk_eff.scale(n)
            cmp = bound.compare(need)
            if cmp < 0 or (strict and cmp == 0):
                return False
        return True

    def finite_degree(self):
        return self.inner.finite_degree()

    def derivative(self):
        return ScaledSeries(self.h, SubstitutedSeries(self.inner.derivative(), self.h, self.k))

    def dsl_lines(self):
        return self.inner.dsl_lines() + [
            "subst: h=%s k=%s" % (self.h.render(), self.k.render())]


class NormalizedSeries(PSeries):
    """A restricted series rescaled so its pivot coefficient is exactly 1.

    Coefficient N is 1; all coefficients lie in the valuation ring and
    everything above N is infinitesimal.
    """

    def __init__(self, inner, d, pivot, vmin, base_cutoff, origin=""):
        self.mode = inner.mode
        self.inner = inner
        self.d = d
        self.N = pivot
        self.vmin = vmin
        self.base_cutoff = base_cutoff
        self.origin = origin

    def coeff(self, n, cutoff=None):
        cut = self.base_cutoff if cutoff is None else \
            (cutoff if cutoff.compare(self.base_cutoff) <= 0 else self.base_cutoff)
        if n == self.N:
            return LcNumber.one(self.mode)
        t = self.inner.coeff(n, cut + self.vmin)
        prod = t * self.d
        return prod if prod.cutoff is None else prod.truncate(cut)

    def tail_index(self, xval, target, strict=False):
        return max(self.inner.tail_index(xval, target + self.vmin, strict), self.N + 1)

    def finite_degree(self):
        return self.inner.finite_degree()

    def dsl_lines(self):
        return self.inner.dsl_lines() + ["# normalized: pivot=%d scale=%s" %
                                         (self.N, self.d.render())]

    def validate(self, up_to=None):
        """Check the normalization invariants on computed coefficients."""
        zero = Exponent.zero(self.mode)
        hi = up_to if up_to is not None else self.tail_index(zero, zero, strict=True)
        assert self.coeff(self.N).is_exact and self.coeff(self.N) == 1
        for n in range(hi):
            c = self.coeff(n)
            v = c.val_lb()
            if v is None:
                continue
            assert v.compare(zero) >= 0, "coefficient %d outside the valuation ring" % n
            if n > self.N:
                assert v.compare(zero) > 0, "coefficient %d above pivot not infinitesimal" % n
        return True


# ------------------------------------------------------------------ operations


def partial_sum(s, n, cutoff=None):
    """Coefficients [a_0 .. a_n] of the n-th partial sum."""
    return [s.coeff(i, cutoff) for i in range(n + 1)]


def evaluate(s, x, cutoff):
    """Sum of all terms a_n x^n with valuation below the cutoff.

    Requires the tail certificate; the result carries the cutoff marker.
    Raises CertificateError when the terms cannot be proven to leave the
    window below the cutoff.
    """
    if not isinstance(x, LcNumber):
        x = LcNumber.from_scalar(s.mode, x)
    if x.mode != s.mode:
        raise ValueError("mode mismatch between series and point")
    if x.is_exact_zero:
        return s.coeff(0, cutoff).truncate(cutoff)
    vx = x.val_lb()
    n1 = s.tail_index(vx, cutoff)
    acc = LcNumber.zero(s.mode)
    pw = LcNumber.one(s.mode)
    for n in range(n1):
        c = s.coeff(n, cutoff - vx.scale(n))
        if c.terms:
            acc = acc + (c * pw).truncate(cutoff)
        if n + 1 < n1:
            pw = pw * x
    if acc.cutoff is not None and acc.cutoff.compare(cutoff) < 0:
        raise TruncationError("input truncation too shallow for this evaluation")
    return acc.truncate(cutoff)


def transform_interval(s, a, b):
    """The series T with T(Z) = S((b-a)Z + (2a-b)), mapping [a,b] onto [1,2]."""
    if not isinstance(a, LcNumber):
        a = LcNumber.from_scalar(s.mode, a)
    if not isinstance(b, LcNumber):
        b = LcNumber.from_scalar(s.mode, b)
    if a.compare(b) >= 0:
        raise ValueError("interval endpoints must satisfy a < b")
    zero = Exponent.zero(s.mode)
    for point in (a, b):
        if point.is_exact_zero:
            continue
        s.tail_index(point.val_lb(), zero)  # convergence certificate at the endpoint
    h = b - a
    k = a * 2 - b
    return SubstitutedSeries(s, h, k)


def normalize(s, degree_cap, cutoff, origin=""):
    """Rescale a restricted series so some coefficient is exactly 1.

    Finds the minimal coefficient valuation v, the largest index N attaining
    it, and returns the series divided by its N-th coefficient, together with
    the scale d and pivot N.
    """
    mode = s.mode
    zero = Exponent.zero(mode)
    nstar = s.tail_index(zero, zero, strict=True)
    if nstar > degree_cap + 1:
        raise CertificateError("normalization pivot not determined below the degree cap")

    memo = {}

    def get(n):
        if n not in memo:
            memo[n] = s.coeff(n, cutoff)
        return memo[n]

    scan_to = max(nstar, 1)
    extended = False
    vmin = None
    while True:
        vmin = None
        for n in range(scan_to):
            c = get(n)
            if c.terms:
                v = c.terms[0][0]
                if vmin is None or v.compare(vmin) < 0:
                    vmin = v
        if vmin is None:
            ncut = s.tail_index(zero, cutoff)
            if not extended and ncut > scan_to:
                scan_to = ncut
                extended = True
                continue
            raise CertificateError("all coefficients vanish below the cutoff")
        n2 = s.tail_index(zero, vmin, strict=True)
        if n2 <= scan_to:
            break
        scan_to = n2
    pivot = max(n for n in range(scan_to)
                if get(n).terms and get(n).terms[0][0].compare(vmin) == 0)
    if pivot > degree_cap:
        raise CertificateError("normalization pivot exceeds the degree cap")
    d = get(pivot).invert(cutoff - vmin)
    return NormalizedSeries(s, d, pivot, vmin, cutoff, origin=origin)


# ------------------------------------------------------------------- rendering


def render_xpoly(coeffs):
    """Polynomial in X as a flat signed sum, one eps-term per monomial."""
    from .lcnum import _render_term

    parts = []
    for i, c in enumerate(coeffs):
        if not c.is_exact:
            raise ValueError("cannot render truncated coefficients")
        for exp, coeff in c.terms:
            body = _render_term(exp, coeff, first=not parts)
            if i == 1:
                body += "*X"
            elif i > 1:
                body += "*X^%d" % i
            parts.append(body)
    return " ".join(parts) if parts else "0"
