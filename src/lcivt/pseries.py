"""Finitely presented power series over the field, with certified evaluation.

A series is a coefficient rule (polynomial, rational-function expansion, or a
closed-form term rule) possibly wrapped in combinators (sum, polynomial
multiple, linear substitution); a scalar multiple is a polynomial multiple
of degree 0.  Because every rule is finitely presented, each series can
answer two certified questions:

* ``coeff(n, cutoff)``: the exact n-th coefficient, or the coefficient up to
  a truncation cutoff when exactness is impossible (substituted series);
* ``tail_index(xval, target)``: an index N such that every term ``a_n x^n``
  with ``n >= N`` and ``valuation(x) >= xval`` has valuation at least
  ``target``; for an lc term rule with a polynomial exponent, the least one.

The second is the convergence certificate: evaluation, normalization and
factorization never silently drop terms they cannot bound.

Each series computes a coefficient once per n at the deepest cutoff asked
so far, in the memo of ``PSeries.coeff``, which answers shallower requests
by truncation (a rule whose answer ignores the cutoff keeps it under None,
a sum one per cutoff), and a tail index once per query
(``PSeries.tail_index``).  A substituted series encodes one Taylor shift per
cutoff on the kernel's grid and forms each coefficient from it with two
accumulations and one decode; ``evaluate`` is one ``horner`` call.  A
derivative of any order is a ``DerivativeSeries`` chain that reads the
series' own memo, with the tail certificate shifted by one index.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .errors import CertificateError, ResourceCapError, TruncationError
from .lcnum import (LC, Exponent, LcNumber, _Grid, _num, as_number, as_poly, horner,
                    sum_of_products)
from .polys import (_variations_at, cauchy_bound, padd, pdivmod, pderiv, peval, pshift,
                    sturm_chain, trim)
from .realalg import RealAlgebraic

_TAIL_CAP = 100000  # the largest tail index a certificate may give: more terms than can be formed


def _index_beyond_roots(p):
    """Integer N with p(n) of the sign of its leading coeff for all n >= N."""
    b = cauchy_bound(p)
    return int(b) + 2


def _least_index(psi, strict):
    """The least N >= 0 with psi(m) >= 0 (> 0 when ``strict``) at every
    integer m >= N; psi has a positive lead.  Sturm's theorem counts the
    roots of psi in (a, b], and psi has one sign on a root-free (a, b], so
    a bisection over the integers below the Cauchy bound B, upper half
    first, finds the last failing m in O(deg psi * log B) steps."""
    chain = sturm_chain(psi)
    if len(chain[-1]) > 1:  # a repeated root: the chain of the squarefree part
        chain = sturm_chain(pdivmod(psi, chain[-1])[0])
    # positive integer multiples keep every sign and evaluate in integers
    q, *chain = [[c.numerator * (d // c.denominator) for c in p]
                 for p in [psi, *chain] for d in [lcm(*(c.denominator for c in p))]]
    b = max(abs(c) for c in q[:-1]) // q[-1] + 2  # past the Cauchy bound
    stack = [(-1, _variations_at(chain, -1), b, _variations_at(chain, b))]
    while stack:
        a, va, b, vb = stack.pop()
        if va != vb and b - a > 1:
            c = (a + b) // 2
            vc = _variations_at(chain, c)
            stack += [(a, va, c, vc), (c, vc, b, vb)]
        elif (v := peval(q, b)) < 0 or strict and v == 0:
            return b + 1
    return 0


class PSeries:
    """Base class; subclasses provide the rules ``_coeff`` and ``_tail_index``."""

    cutoff_free = False  # True for rules whose answer does not depend on the cutoff

    def __init__(self, mode):
        self.mode = mode
        self._memo, self._tails = {}, {}  # immutable values; single writes suit concurrent readers

    def coeff(self, n, cutoff=None):
        """The n-th coefficient, certified below ``cutoff`` (exact when the
        rule allows): a rule's inexact answer is truncated at the cutoff
        here.  The memo keeps one entry per n, at the deepest cutoff
        asked so far (None the deepest): a shallower request gets its
        truncation, an exact answer serves any cutoff but None, and a
        ``cutoff_free`` rule keeps its answer, markers and all, under None."""
        cutoff = None if self.cutoff_free else cutoff
        hit = self._memo.get(n)
        if hit is not None:
            cut, out = hit
            if cut is cutoff or cut == cutoff or cutoff is not None and out.cutoff is None:
                return out
            if cutoff is not None and (cut is None or cutoff < cut):
                return out.truncate(cutoff)
        out = self._coeff(n, cutoff)
        if cutoff is not None and out.cutoff is not None:
            out = out.truncate(cutoff)
        self._memo[n] = (cutoff, out)
        return out

    def _coeff(self, n, cutoff):
        raise NotImplementedError

    def tail_index(self, xval, target, strict=False):
        """The tail certificate, computed once per query through ``_tail_index``."""
        key = (xval, target, strict)
        if key not in self._tails:
            n = self._tail_index(*key)
            if n > _TAIL_CAP:
                raise ResourceCapError("tail index %d is past the cap _TAIL_CAP = %d at target %s"
                                       % (n, _TAIL_CAP, target))
            self._tails[key] = n
        return self._tails[key]

    def _tail_index(self, xval, target, strict):
        raise NotImplementedError

    def derivative(self):
        """S', one ``DerivativeSeries`` over this series' coefficients."""
        return DerivativeSeries(self)

    def finite_degree(self):
        return None

    def exact_val_poly(self):
        """Fraction-poly lower bound on valuation(a_n) as a function of n."""
        return None

    def _zero(self):
        return LcNumber.zero(self.mode)

    def __add__(self, other):
        return SumSeries(self, other)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % kv for kv in vars(self).items() if not kv[0].startswith("_")))


class PolySeries(PSeries):
    """A polynomial: finitely many explicit coefficients."""

    cutoff_free = True

    def __init__(self, mode, coeffs):
        super().__init__(mode)
        self.coeffs = as_poly(mode, coeffs)

    def _coeff(self, n, cutoff):
        if n < len(self.coeffs):
            return self.coeffs[n]
        return self._zero()

    def _tail_index(self, xval, target, strict):
        return len(self.coeffs)

    def finite_degree(self):
        return max(len(self.coeffs) - 1, 0)


class TermRuleSeries(PSeries):
    """Closed-form rule a_{n+offset} = sign^n * prefactor(n) * eps^{expo(n)}.

    ``expo`` is either ("poly", rational polynomial in n) in lc mode, or
    ("seq", shift) in hahn mode where the exponent is that of eps_{n+shift}.
    """

    cutoff_free = True

    def __init__(self, mode, sign_base, prefactor, expo, offset=0):
        if sign_base not in (1, -1):
            raise ValueError("sign base must be +1 or -1")
        super().__init__(mode)
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

    def _coeff(self, n, cutoff):
        m = n - self.offset
        if m < 0:
            return self._zero()
        pref = peval(self.prefactor, m)
        if pref == 0:
            return self._zero()
        if self.sign_base == -1 and m % 2 == 1:
            pref = -pref
        return LcNumber.monomial(self._exponent(m), RealAlgebraic(pref))

    def _tail_index(self, xval, target, strict):
        if not self.prefactor:
            return 0
        kind, payload = self.expo
        if kind == "poly":
            # psi(m) = expo(m) + (m + offset)*xval - target; need >= 0 (>) beyond
            psi = padd(payload, [self.offset * xval.data - target.data, xval.data])
            if len(psi) < 2:
                c = psi[0] if psi else 0
                if c > 0 or c == 0 and not strict:
                    return 0
                raise CertificateError("no convergence certificate: flat valuations")
            if psi[-1] < 0:
                raise CertificateError("no convergence certificate: valuations decrease")
            return _least_index(psi, strict) + self.offset
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


class RatFunSeries(PSeries):
    """Power-series expansion of num(X)/den(X).

    The constant denominator coefficient must be an exact monomial and every
    higher denominator coefficient must have strictly larger valuation;
    otherwise the expansion coefficients are not finitely representable and
    no valuation-growth certificate exists.
    """

    cutoff_free = True

    def __init__(self, mode, num, den):
        super().__init__(mode)
        self.num, self.den = as_poly(mode, num), as_poly(mode, den)
        if not self.den:
            raise ZeroDivisionError("zero denominator")
        d0 = self.den[0]
        if not (d0.is_exact and len(d0.terms) == 1):
            raise CertificateError("denominator constant term must be an exact monomial")
        self._v0 = d0.valuation()
        self._inv_d0 = d0.invert(Exponent.zero(mode))  # exact for a monomial
        dvs = [c.valuation() - self._v0 for c in self.den[1:] if not c.is_exact_zero]
        if any(dv.sign() <= 0 for dv in dvs):
            raise CertificateError(
                "denominator tail must be infinitesimal against its constant term")
        self._delta = min(dvs, default=None)  # None means the denominator is a monomial
        self._rec = []  # the coefficients so far, the recurrence's state

    def _coeff(self, n, cutoff):
        # rec[i] = (num[i]*1 - sum over k >= 1 of den[k]*rec[i-k]) / den[0]
        rec = self._rec
        while len(rec) <= n:
            i = len(rec)
            pairs = [([self.num[i] if i < len(self.num) else self._zero()],
                      [LcNumber.one(self.mode)])]
            pairs += [([self.den[k]], [rec[i - k]])
                      for k in range(1, min(i, len(self.den) - 1) + 1)]
            acc = sum_of_products(pairs, weights=[1] + [-1] * (len(pairs) - 1))[0]
            rec.append(acc * self._inv_d0)
        return rec[n]

    def _base_len(self):
        return max(len(self.num) - 1, 0)

    def _block_floor(self):
        """(L1, K, N_base): val(c_n) >= L1 + delta*floor((n-N_base-1)/K)."""
        k = len(self.den) - 1
        nb = self._base_len()
        vals = (self.coeff(n).val_lb() for n in range(nb + 1, nb + k + 1))
        return min((v for v in vals if v is not None), default=None), k, nb

    def _tail_index(self, xval, target, strict):
        """The least N from which every window of K indices passes: class
        r < K of j = N_base+1+r+b*K has val(c_j x^j) >= L1 + (N_base+1+r)*xval
        + b*(delta + K*xval), so it passes from its least b on."""
        if self._delta is None:
            return len(self.num)  # plain polynomial divided by a monomial
        l1, k, nb = self._block_floor()
        if l1 is None:
            return nb + 1  # expansion terminates: all-zero block propagates
        step = self._delta + xval.scale(k)
        if step.sign() <= 0:
            raise CertificateError("no convergence certificate for this expansion")
        n = nb + 1
        for r in range(k):
            base = l1 + xval.scale(nb + 1 + r)
            if base > target or not strict and base == target:
                continue  # the class passes from its first index on
            b = step.min_multiple_at_least(target - base)
            if b is None:  # hahn: no multiple of step reaches past a higher index
                raise CertificateError("no convergence certificate for this expansion")
            if strict and base + step.scale(b) == target:
                b += 1
            n = max(n, nb + 2 + r + (b - 1) * k)
        return n


class SumSeries(PSeries):
    def __init__(self, a, b):
        if a.mode != b.mode:
            raise ValueError("mode mismatch in sum")
        super().__init__(a.mode)
        self.a, self.b = a, b

    def coeff(self, n, cutoff=None):
        # kept per (n, cutoff): the parts' memos answer other cutoffs, at their markers
        out = self._memo.get((n, cutoff))
        if out is None:
            out = self._memo[n, cutoff] = self.a.coeff(n, cutoff) + self.b.coeff(n, cutoff)
        return out

    def _tail_index(self, xval, target, strict):
        return max(self.a.tail_index(xval, target, strict),
                   self.b.tail_index(xval, target, strict))

    def finite_degree(self):
        da, db = self.a.finite_degree(), self.b.finite_degree()
        return None if da is None or db is None else max(da, db)


class PolyMulSeries(PSeries):
    """A series multiplied by an explicit polynomial; ``[c]`` gives c times it."""

    def __init__(self, poly, inner):
        super().__init__(inner.mode)
        if any(as_number(self.mode, c).mode != self.mode for c in poly):
            raise ValueError("mode mismatch in polynomial multiple")
        self.poly = as_poly(self.mode, poly)
        self.inner = inner

    def _coeff(self, n, cutoff):
        pairs = [([p], [self.inner.coeff(n - k, None if cutoff is None else cutoff - p.val_lb())])
                 for k, p in enumerate(self.poly[: n + 1]) if not p.is_exact_zero]
        return sum_of_products(pairs)[0] if pairs else self._zero()

    def _tail_index(self, xval, target, strict):
        return max((self.inner.tail_index(xval, target - p.val_lb() - xval.scale(k), strict) + k
                    for k, p in enumerate(self.poly) if not p.is_exact_zero), default=0)

    def finite_degree(self):
        di = self.inner.finite_degree()
        return None if di is None else di + max(len(self.poly) - 1, 0)


class SubstitutedSeries(PSeries):
    """T(Z) = S(h*Z + k): T_m = h^m * sum over n >= m of C(n, m)*c_n*k^(n-m).

    For k != 0 each coefficient is an infinite sum, so coefficient queries
    need a cutoff unless the inner series is a polynomial; the sum is cut at
    the inner tail index and the coefficient truncated at the cutoff.  The
    sums below one cutoff C share one Taylor shift on one ``lcnum._Grid``:
    m!*T_m/h^m = sum over n of (n!*c_n)*k^(n-m)/(n-m)!, a correlation of the
    encoded sequences n!*c_n, reversed, and k^j*(N-1)!/j!.  Each c_n is
    fetched once, below C - n*min(val h, val k), where every T_m needs it;
    T_m is then one accumulation below C - m*val(h), one product by h^m
    below C and one decode.  A T_m whose inner tail index N lies past the
    shift rebuilds it, as long as every T_j with m <= j < N needs (for
    val k > val h, N grows with j).  For k = 0, T_m = c_m*h^m.  The root
    layer's Taylor shift of a polynomial is the case h = 1 over a
    ``PolySeries``.
    """

    def __init__(self, inner, h, k):
        if h.mode != inner.mode or k.mode != inner.mode:
            raise ValueError("mode mismatch in substitution")
        if h.is_exact_zero:
            raise ValueError("substitution scale must be nonzero")
        super().__init__(inner.mode)
        self.inner, self.h, self.k = inner, h, k
        self._shifts = {}  # cutoff -> the Taylor shift's encoding below it

    def _coeff(self, m, cutoff):
        fin = self.inner.finite_degree()
        if cutoff is None and fin is None:
            raise CertificateError(
                "coefficients of a substituted series need a cutoff")
        vh, vk = self.h.val_lb(), self.k.val_lb()
        if vk is None:  # k = 0: T_m = c_m*h^m
            out = self.inner.coeff(m, None if cutoff is None else cutoff - vh.scale(m))
            return out * self.h.pow_int(m)
        n1 = fin + 1 if fin is not None else \
            self.inner.tail_index(vk, cutoff - vh.scale(m) + vk.scale(m))
        if n1 <= m:  # no inner terms
            return self._zero() if fin is not None else LcNumber._build(self.mode, (), cutoff)
        shift = self._shifts.get(cutoff)
        if shift is None or len(shift[1]) < n1:
            n = n1 if fin is not None or vk <= vh else max(self.inner.tail_index(
                vk, cutoff - vh.scale(j) + vk.scale(j)) for j in range(m, n1))
            shift = self._shifts[cutoff] = self._shift(cutoff, n, min(vh, vk))
        grid, a, b, unit, hpow, (h, dh) = shift
        while len(hpow) <= m:
            x, dx = hpow[-1]
            hpow.append((_num(*grid.accumulate([([x], [h])], 0, None)), dx * dh))
        # an infinite sum is known only below the cutoff: both steps stop there
        cap = None if fin is not None else cutoff
        t, cut = grid.accumulate([(a[len(a) - n1:], b)], n1 - 1 - m,
                                 None if cap is None else grid.cut(cap - vh.scale(m)))
        x, dx = hpow[m]
        t, cut = grid.accumulate([([_num(t, cut)], [x])], 0, grid.cut(cap))
        return grid.decode(t, cut, unit * dx * factorial(m))

    def _shift(self, cutoff, n1, w):
        """(grid, a, b, unit, powers of h, encoded h) for coefficients n < n1
        of the inner series, each below cutoff - n*w: a[i] = n!*c_n with
        n = n1-1-i, and b[j] = k^j*(n1-1)!/j!, over unit; the powers of h
        grow on demand, each (number, denominator)."""
        cs = [self.inner.coeff(n, None if cutoff is None else cutoff - w.scale(n))
              for n in range(n1)]
        grid = _Grid(self.mode, [cs, [self.k], [self.h]], cutoff)
        dc, dk, dh = grid.cdens
        (k,), (h,) = grid.encode([self.k], dk), grid.encode([self.h], dh)
        kpow = [(grid.const(1)[0], 1)]
        while len(kpow) < n1:
            x, dx = kpow[-1]
            kpow.append((_num(*grid.accumulate([([x], [k])], 0, None)), dx * dk))
        d, f = kpow[-1][1], factorial(n1 - 1)  # dk^j divides dk^(n1-1)
        b = [grid.scale([x], f // factorial(j) * (d // dx))[0] for j, (x, dx) in enumerate(kpow)]
        a = [grid.scale([x], factorial(n))[0] for n, x in enumerate(grid.encode(cs, dc))]
        return grid, a[::-1], b, dc * d * f, [kpow[0]], (h, dh)

    def _tail_index(self, xval, target, strict):
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
            # _m_ok(m) fails only below the inner tail index, which _TAIL_CAP bounds
            m = 0
            while not self._m_ok(m, w, vk_eff, target, strict):
                m += 1
            return m
        # w < 0: need an exact valuation polynomial with superlinear growth.
        # For m past the vertex of psi(n) + n*vk the inner minimum over
        # n >= m sits at n = m, so the condition collapses to the rational
        # polynomial psi(m) + m*(vh + xval) - target >= 0.
        psi = self.inner.exact_val_poly()
        if psi is None or self.mode != LC:
            raise CertificateError(
                "no convergence certificate for this substituted series")
        cond = padd(psi, [-target.data, vh.data + xval.data])
        if len(cond) < 2 or cond[-1] < 0:
            raise CertificateError(
                "no convergence certificate for this substituted series")
        dvert = pderiv(padd(psi, [0, vk_eff.data]))
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


class DerivativeSeries(PSeries):
    """S' for any series S: coefficient n is (n+1)*a_(n+1), read from S's
    own memo.  n+1 is a unit, so val(d_n x^n) = val(a_(n+1) x^(n+1)) - val x:
    S's tail index for the target raised by val x, less one, certifies S'."""

    def __init__(self, inner):
        super().__init__(inner.mode)
        self.inner = inner

    @property
    def cutoff_free(self):
        return self.inner.cutoff_free

    def _coeff(self, n, cutoff):
        return self.inner.coeff(n + 1, cutoff) * (n + 1)

    def _tail_index(self, xval, target, strict):
        return max(self.inner.tail_index(xval, target + xval, strict) - 1, 0)

    def exact_val_poly(self):
        psi = self.inner.exact_val_poly()
        return None if psi is None else pshift(psi, 1)

    def finite_degree(self):
        d = self.inner.finite_degree()
        return None if d is None else max(d - 1, 0)


class NormalizedSeries(PSeries):
    """A restricted series rescaled so its pivot coefficient is exactly 1.

    Coefficient N is 1; all coefficients lie in the valuation ring and
    everything above N is infinitesimal.
    """

    def __init__(self, inner, d, pivot, vmin, base_cutoff):
        super().__init__(inner.mode)
        self.inner = inner
        self.d = d
        self.N = pivot
        self.vmin = vmin
        self.base_cutoff = base_cutoff

    def _coeff(self, n, cutoff):
        cut = self.base_cutoff if cutoff is None else \
            (cutoff if cutoff.compare(self.base_cutoff) <= 0 else self.base_cutoff)
        if n == self.N:
            return LcNumber.one(self.mode)
        t = self.inner.coeff(n, cut + self.vmin)
        prod = t * self.d
        return prod if prod.cutoff is None else prod.truncate(cut)

    def _tail_index(self, xval, target, strict):
        return max(self.inner.tail_index(xval, target + self.vmin, strict), self.N + 1)

    def finite_degree(self):
        return self.inner.finite_degree()


# ------------------------------------------------------------------ operations


def partial_sum(s, n, cutoff=None):
    """Coefficients [a_0 .. a_n] of the n-th partial sum."""
    return [s.coeff(i, cutoff) for i in range(n + 1)]


def evaluate(s, x, cutoff):
    """Sum of all terms a_n x^n with valuation below the cutoff.

    Requires the tail certificate; the result carries the cutoff marker.
    Raises CertificateError when the terms cannot be proven to leave the
    window below the cutoff.  The sum is one ``horner`` call over a_n
    certified below cutoff - n*val(x); TruncationError when a coefficient's
    own truncation leaves the value uncertified below the cutoff.
    """
    x = as_number(s.mode, x)
    if x.mode != s.mode:
        raise ValueError("mode mismatch between series and point")
    if x.is_exact_zero:
        return s.coeff(0, cutoff).truncate(cutoff)
    vx = x.val_lb()
    n1 = s.tail_index(vx, cutoff)
    acc = horner([[s.coeff(n, cutoff - vx.scale(n)) for n in range(n1)]], x)[0]
    if acc.cutoff is not None and acc.cutoff.compare(cutoff) < 0:
        raise TruncationError("input truncation too shallow for this evaluation")
    return acc.truncate(cutoff)


def transform_interval(s, a, b):
    """The series T with T(Z) = S((b-a)Z + (2a-b)), mapping [a,b] onto [1,2]."""
    a, b = as_number(s.mode, a), as_number(s.mode, b)
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


def normalize(s, degree_cap, cutoff):
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

    scan_to = max(nstar, 1)
    while True:
        vmin = min((c.terms[0][0] for n in range(scan_to) if (c := s.coeff(n, cutoff)).terms),
                   default=None)
        if vmin is None:
            ncut = s.tail_index(zero, cutoff)
            if ncut > scan_to:  # once: the memoized ncut then equals scan_to
                scan_to = ncut
                continue
            raise CertificateError("all coefficients vanish below the cutoff")
        n2 = s.tail_index(zero, vmin, strict=True)
        if n2 <= scan_to:
            break
        scan_to = n2
    pivot = max(n for n in range(scan_to)
                if (c := s.coeff(n, cutoff)).terms and c.terms[0][0].compare(vmin) == 0)
    if pivot > degree_cap:
        raise CertificateError("normalization pivot exceeds the degree cap")
    d = s.coeff(pivot, cutoff).invert(cutoff - vmin)
    return NormalizedSeries(s, d, pivot, vmin, cutoff)
