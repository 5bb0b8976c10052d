"""Exact real algebraic numbers and real root isolation.

A value is either a rational (``Fraction`` fast path) or ``rep(alpha)`` where
``alpha`` is the unique root of an irreducible integer polynomial inside a
rational isolating interval and ``rep`` is a rational polynomial of smaller
degree.  Keeping generators irreducible makes zero-testing trivial (a nonzero
rep can never vanish at alpha) and keeps inversion a plain extended-Euclid.

No floating point is used anywhere; interval refinement is exact rational
bisection.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from . import polys
from .polys import (
    clear_denominators,
    count_roots_open,
    isolate_roots,
    pdivmod,
    peval,
    pmul,
    pneg,
    psub,
    sgn,
    trim,
    yun_decomposition,
)

_MAX_ALG_DEGREE = 64


@lru_cache(maxsize=None)
def _factor_int_poly(coeffs):
    """Irreducible integer factors (ascending coeffs) of a primitive int poly."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs)), x, domain="ZZ")
    _, factors = poly.factor_list()
    out = []
    for fac, _k in factors:
        fc = tuple(int(c) for c in reversed(fac.all_coeffs()))
        if len(fc) > 1:
            out.append(fc)
    return tuple(out)


class _Generator:
    """Irreducible integer polynomial with an interval isolating one real root."""

    __slots__ = ("minpoly", "lo", "hi")

    def __init__(self, minpoly, lo, hi):
        self.minpoly = tuple(minpoly)
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)

    def refine(self):
        mid = (self.lo + self.hi) / 2
        # irreducible of degree >= 2 has no rational root, so mid is safe
        if sgn(peval(self.minpoly, self.lo)) * sgn(peval(self.minpoly, mid)) < 0:
            self.hi = mid
        else:
            self.lo = mid


def _iadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _imul(a, b):
    cands = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(cands), max(cands))


def _interval_eval(rep, lo, hi):
    """Rational interval enclosing rep(alpha) for alpha in (lo, hi)."""
    acc = (Fraction(rep[-1]), Fraction(rep[-1]))
    for c in reversed(rep[:-1]):
        acc = _imul(acc, (lo, hi))
        acc = _iadd(acc, (Fraction(c), Fraction(c)))
    return acc


def _poly_invert_mod(rep, m):
    """Inverse of rep modulo irreducible m over the rationals."""
    # extended Euclid; gcd is 1 because m is irreducible and rep nonzero mod m
    r0, r1 = list(m), trim(rep)
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, psub(s0, pmul(q, s1))
    lead = r0[-1]
    return [c / lead for c in s0]


class RealAlgebraic:
    """An exact real algebraic number."""

    __slots__ = ("_frac", "_gen", "_rep", "_plain")

    def __init__(self, value=0):
        v = _coerce(value)
        self._frac = v._frac
        self._gen = v._gen
        self._rep = v._rep
        self._plain = v._plain

    @staticmethod
    def from_rational(q):
        return RealAlgebraic._rat(Fraction(q))

    @staticmethod
    def _rat(q):
        """Trusted builder: q must already be a Fraction."""
        self = object.__new__(RealAlgebraic)
        self._frac = q
        self._gen = None
        self._rep = None
        self._plain = None
        return self

    @staticmethod
    def _from_rep(gen, rep):
        rep = trim([Fraction(c) for c in rep])
        if len(rep) <= 1:
            return RealAlgebraic.from_rational(rep[0] if rep else 0)
        self = object.__new__(RealAlgebraic)
        self._frac = None
        self._gen = gen
        self._rep = tuple(rep)
        self._plain = None
        return self

    # ------------------------------------------------------------------ basics

    @property
    def is_rational(self):
        return self._frac is not None

    def as_fraction(self):
        return self._frac

    def sign(self):
        if self._frac is not None:
            return sgn(self._frac)
        while True:
            lo, hi = _interval_eval(self._rep, self._gen.lo, self._gen.hi)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self._gen.refine()

    @property
    def is_zero(self):
        return self._frac == 0 if self._frac is not None else False

    def bounds(self):
        """A rational interval (lo, hi) containing the value."""
        if self._frac is not None:
            return (self._frac, self._frac)
        return _interval_eval(self._rep, self._gen.lo, self._gen.hi)

    # -------------------------------------------------------------- arithmetic

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if a._frac is not None and b._frac is not None:
            return RealAlgebraic._rat(a._frac + b._frac)
        if a._frac is not None:
            a, b = b, a
        if b._frac is not None:
            rep = list(a._rep)
            rep[0] = rep[0] + b._frac
            return RealAlgebraic._from_rep(a._gen, rep)
        if a._gen is b._gen:
            return RealAlgebraic._from_rep(a._gen, polys.padd(a._rep, b._rep))
        return _cross_binop(a, b, "add")

    __radd__ = __add__

    def __neg__(self):
        if self._frac is not None:
            return RealAlgebraic._rat(-self._frac)
        return RealAlgebraic._from_rep(self._gen, pneg(self._rep))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if a._frac is not None and b._frac is not None:
            return RealAlgebraic._rat(a._frac * b._frac)
        if a._frac is not None:
            a, b = b, a
        if b._frac is not None:
            if b._frac == 0:
                return RealAlgebraic.from_rational(0)
            return RealAlgebraic._from_rep(a._gen, [c * b._frac for c in a._rep])
        if a._gen is b._gen:
            m = [Fraction(c) for c in a._gen.minpoly]
            _, rem = pdivmod(pmul(a._rep, b._rep), m)
            return RealAlgebraic._from_rep(a._gen, rem)
        return _cross_binop(a, b, "mul")

    __rmul__ = __mul__

    def inverse(self):
        if self._frac is not None:
            if self._frac == 0:
                raise ZeroDivisionError("inverse of zero")
            return RealAlgebraic.from_rational(1 / self._frac)
        m = [Fraction(c) for c in self._gen.minpoly]
        inv = _poly_invert_mod(self._rep, m)
        return RealAlgebraic._from_rep(self._gen, inv)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = RealAlgebraic.from_rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # ------------------------------------------------------------- comparisons

    def compare(self, other):
        other = _coerce(other)
        a, b = self, other
        if a._frac is not None and b._frac is not None:
            return sgn(a._frac - b._frac)
        for _ in range(4):
            alo, ahi = a.bounds()
            blo, bhi = b.bounds()
            if ahi < blo:
                return -1
            if bhi < alo:
                return 1
            if a._gen is not None:
                a._gen.refine()
            if b._gen is not None:
                b._gen.refine()
        return (a - b).sign()

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.compare(other) == 0

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    __hash__ = None

    # ------------------------------------------------------------------- roots

    def nth_root(self, n):
        """The real n-th root; requires a nonnegative value when n is even."""
        if n < 1:
            raise ValueError("root index must be positive")
        if n == 1:
            return self
        s = self.sign()
        if s == 0:
            return RealAlgebraic.from_rational(0)
        if s < 0:
            if n % 2 == 0:
                raise ValueError("even root of a negative value")
            return -(-self).nth_root(n)
        poly, plo, phi = self._plain_view()
        cand = [Fraction(0)] * (n * (len(poly) - 1) + 1)
        for i, c in enumerate(poly):
            cand[n * i] = Fraction(c)
        factors = _factor_int_poly(tuple(clear_denominators(cand)))
        refine = self._plain_refiner()
        while True:
            plo, phi = self._plain_bounds()
            if plo > 0:
                break
            refine()
        hi_x = max(Fraction(1), phi) + 1
        roots = []
        for fac in factors:
            ffac = [Fraction(c) for c in fac]
            for rlo, rhi in isolate_roots(ffac, Fraction(0), hi_x):
                roots.append([ffac, fac, rlo, rhi])
        while True:
            plo, phi = self._plain_bounds()
            alive = []
            for ffac, fac, rlo, rhi in roots:
                if rlo < 0:
                    mid = (rlo + rhi) / 2
                    while peval(ffac, mid) == 0:
                        mid = (mid + rhi) / 2
                    if count_roots_open(ffac, mid, rhi):
                        rlo = mid
                    else:
                        rhi = mid
                    if rlo < 0:
                        continue
                pw = (rlo ** n, rhi ** n)
                if pw[1] < plo or pw[0] > phi:
                    continue
                alive.append([ffac, fac, rlo, rhi])
            if len(alive) == 1:
                _, fac, rlo, rhi = alive[0]
                return _root_of(fac, rlo, rhi)
            roots = alive
            refine()
            for entry in roots:
                ffac, fac, rlo, rhi = entry
                mid = (rlo + rhi) / 2
                while peval(ffac, mid) == 0:
                    mid = (mid + rhi) / 2
                if count_roots_open(ffac, rlo, mid):
                    entry[3] = mid
                else:
                    entry[2] = mid

    # ------------------------------------------------------------ plain access

    def _plain_view(self):
        """(integer defining poly, lo, hi) for this value; cached."""
        if self._frac is not None:
            q = self._frac
            return ((-q.numerator, q.denominator), q - 1, q + 1)
        if self._plain is None:
            if self._rep == (0, 1):
                self._plain = (self._gen.minpoly, None)
            else:
                self._plain = (_minpoly_of_rep(self._gen, self._rep), None)
        poly = self._plain[0]
        lo, hi = self._plain_bounds()
        return (poly, lo, hi)

    def _plain_bounds(self):
        if self._frac is not None:
            return (self._frac, self._frac)
        if self._rep == (0, 1):
            return (self._gen.lo, self._gen.hi)
        return _interval_eval(self._rep, self._gen.lo, self._gen.hi)

    def _plain_refiner(self):
        if self._frac is not None:
            return lambda: None
        return self._gen.refine

    def defining_polynomial(self):
        poly, _, _ = self._plain_view()
        return tuple(poly)

    def isolating_interval(self):
        poly, lo, hi = self._plain_view()
        if self._frac is not None:
            return (lo, hi)
        ffac = [Fraction(c) for c in poly]
        while count_roots_open(ffac, lo, hi) != 1:
            self._gen.refine()
            lo, hi = self._plain_bounds()
        return (lo, hi)

    # --------------------------------------------------------------- rendering

    def __str__(self):
        if self._frac is not None:
            return str(self._frac)
        poly, _, _ = self._plain_view()
        lo, hi = self.isolating_interval()
        while hi - lo > Fraction(1, 16):
            self._gen.refine()
            lo, hi = self.isolating_interval()
        return "root(%s, %s, %s)" % (polys.render(poly, "x"), lo, hi)

    def __repr__(self):
        return "RealAlgebraic(%s)" % self


def _coerce(v):
    if isinstance(v, RealAlgebraic):
        return v
    if isinstance(v, (int, Fraction)):
        return RealAlgebraic.from_rational(v)
    return NotImplemented


# ---------------------------------------------------------------- resultants


def _poly_det(mat):
    """Determinant of a matrix of Fraction-polynomials (Bareiss), up to sign."""
    n = len(mat)
    if n == 0:
        return [Fraction(1)]
    m = [[list(e) for e in row] for row in mat]
    prev = [Fraction(1)]
    for k in range(n - 1):
        if not trim(m[k][k]):
            for r in range(k + 1, n):
                if trim(m[r][k]):
                    m[k], m[r] = m[r], m[k]
                    break
            else:
                return []
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = psub(pmul(m[i][j], m[k][k]), pmul(m[i][k], m[k][j]))
                q, r = pdivmod(num, prev)
                if r:
                    raise ArithmeticError("Bareiss division was not exact")
                m[i][j] = q
            m[i][k] = []
        prev = m[k][k]
    return m[n - 1][n - 1]


def _resultant_y(A, B):
    """Resultant in y of two polynomials whose coefficients are polys in z.

    A and B are lists over powers of y; each entry is a Fraction-poly in z.
    """
    while A and not trim(A[-1]):
        A = A[:-1]
    while B and not trim(B[-1]):
        B = B[:-1]
    m, n = len(A) - 1, len(B) - 1
    if m < 0 or n < 0:
        return []
    size = m + n
    if size == 0:
        return [Fraction(1)]
    rows = []
    arow = list(reversed(A))
    brow = list(reversed(B))
    for i in range(n):
        rows.append([[] for _ in range(i)] + arow + [[] for _ in range(size - m - 1 - i)])
    for i in range(m):
        rows.append([[] for _ in range(i)] + brow + [[] for _ in range(size - n - 1 - i)])
    return _poly_det(rows)


def _minpoly_of_rep(gen, rep):
    """Integer minimal polynomial of rep(alpha) over the rationals."""
    m = [Fraction(c) for c in gen.minpoly]
    A = [[c] if c else [] for c in m]
    B = []
    for i, c in enumerate(rep):
        if i == 0:
            B.append([-Fraction(c), Fraction(1)])
        else:
            B.append([-Fraction(c)] if c else [])
    cand = _resultant_y(B, A) if len(B) > len(A) else _resultant_y(A, B)
    factors = _factor_int_poly(tuple(clear_denominators(cand)))
    while True:
        fac = _sole_factor(factors, *_interval_eval(rep, gen.lo, gen.hi))
        if fac is not None:
            return fac
        gen.refine()


def _sole_factor(factors, lo, hi):
    """The factor owning the only root of the product in (lo, hi), or None
    when the interval holds no root or several."""
    found = None
    for fac in factors:
        n = count_roots_open([Fraction(c) for c in fac], lo, hi)
        if n > 1 or (n and found is not None):
            return None
        if n:
            found = fac
    return found


def _root_of(fac, lo, hi):
    """The root of irreducible integer ``fac`` isolated by (lo, hi)."""
    if len(fac) == 2:
        return RealAlgebraic.from_rational(Fraction(-fac[0], fac[1]))
    return RealAlgebraic._from_rep(_Generator(fac, lo, hi), (0, 1))


def _cross_binop(a, b, op):
    """Arithmetic between values over unrelated generators, via resultants."""
    pa, alo, ahi = a._plain_view()
    pb, blo, bhi = b._plain_view()
    if (len(pa) - 1) * (len(pb) - 1) > _MAX_ALG_DEGREE:
        raise ArithmeticError("algebraic degree cap exceeded in mixed-field arithmetic")
    A = [[Fraction(c)] if c else [] for c in pa]
    n = len(pb) - 1
    if op == "add":
        B = [[] for _ in range(n + 1)]
        for k, bk in enumerate(pb):
            if bk == 0:
                continue
            for j in range(k + 1):
                coef = Fraction(bk) * comb(k, j) * (-1) ** j
                entry = B[j]
                while len(entry) < k - j + 1:
                    entry.append(Fraction(0))
                entry[k - j] += coef
        B = [trim(e) for e in B]
    else:  # mul
        B = []
        for j in range(n + 1):
            bk = pb[n - j]
            B.append(([Fraction(0)] * (n - j) + [Fraction(bk)]) if bk else [])
    cand = _resultant_y(A, B)
    factors = _factor_int_poly(tuple(clear_denominators(cand)))

    def op_interval():
        x = a._plain_bounds()
        y = b._plain_bounds()
        return _iadd(x, y) if op == "add" else _imul(x, y)

    ra = a._plain_refiner()
    rb = b._plain_refiner()
    while True:
        lo, hi = op_interval()
        fac = _sole_factor(factors, lo, hi)
        if fac is not None:
            return _root_of(fac, lo, hi)
        ra()
        rb()


# ------------------------------------------------------------------ module API


def isolate_real_roots(p, interval=None):
    """All distinct real roots of a rational-coefficient polynomial.

    Returns [(RealAlgebraic, multiplicity)] sorted ascending; ``interval``
    restricts to a closed interval [lo, hi].
    """
    p = trim([Fraction(c) for c in p])
    if not p:
        raise ValueError("indeterminate roots: zero polynomial")
    if len(p) == 1:
        return []
    out = []
    for factor, mult in yun_decomposition(p):
        ints = clear_denominators(factor)
        for irr in _factor_int_poly(tuple(ints)):
            if len(irr) == 2:
                out.append((RealAlgebraic.from_rational(Fraction(-irr[0], irr[1])), mult))
                continue
            firr = [Fraction(c) for c in irr]
            for lo, hi in isolate_roots(firr):
                out.append((RealAlgebraic._from_rep(_Generator(irr, lo, hi), (0, 1)), mult))
    if interval is not None:
        lo, hi = interval
        out = [(r, m) for r, m in out if r.compare(lo) >= 0 and r.compare(hi) <= 0]
    out.sort(key=_SortKey)
    return out


class _SortKey:
    __slots__ = ("item",)

    def __init__(self, item):
        self.item = item

    def __lt__(self, other):
        return self.item[0].compare(other.item[0]) < 0


def sign_at(coeffs, x):
    """Exact sign of a polynomial with RealAlgebraic coefficients at x."""
    x = RealAlgebraic(x)
    acc = RealAlgebraic.from_rational(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + RealAlgebraic(c)
    return acc.sign()


def compare(a, b):
    """Total-order comparison of two values as -1, 0 or +1."""
    return RealAlgebraic(a).compare(b)


def algebraic_roots(coeffs, interval=None):
    """Real roots with multiplicity of a poly with RealAlgebraic coefficients.

    Coefficients may mix rationals with members of one common extension field.
    """
    cs = [RealAlgebraic(c) for c in coeffs]
    while cs and cs[-1].is_zero:
        cs.pop()
    if not cs:
        raise ValueError("indeterminate roots: zero polynomial")
    if all(c.is_rational for c in cs):
        return isolate_real_roots([c.as_fraction() for c in cs], interval)
    gens = {id(c._gen): c._gen for c in cs if c._gen is not None}
    if len(gens) > 1:
        raise ArithmeticError("coefficients span several unrelated extension fields")
    gen = next(iter(gens.values()))

    out = []
    for factor, mult in yun_decomposition(cs):
        factor = [RealAlgebraic(c) for c in factor]
        if all(c.is_rational for c in factor):
            for r, _ in isolate_real_roots([c.as_fraction() for c in factor]):
                out.append((r, mult))
            continue
        # eliminate the generator: C(z) = Res_t(minpoly(t), sum rep_i(t) z^i)
        B = []
        for c in factor:
            if c._frac is not None:
                B.append([Fraction(c._frac)] if c._frac else [])
            else:
                B.append(list(c._rep))
        # swap roles: we need the resultant in t, coefficients polys in z.
        # Build polys in t whose entries are polys in z instead.
        deg_t = len(gen.minpoly) - 1
        At = [[Fraction(gen.minpoly[i])] if gen.minpoly[i] else [] for i in range(deg_t + 1)]
        max_rep = max(len(b) for b in B)
        Bt = []
        for ti in range(max_rep):
            entry = [Fraction(0)] * len(B)
            for zi, b in enumerate(B):
                if ti < len(b):
                    entry[zi] = Fraction(b[ti])
            Bt.append(trim(entry))
        cand = _resultant_y(At, Bt)
        cand_fr = [Fraction(c) for c in trim(cand)]
        if not cand_fr:
            raise ArithmeticError("degenerate elimination for algebraic coefficients")
        cand_factors = _factor_int_poly(tuple(clear_denominators(cand_fr)))
        intervals = _isolate_generic(factor)
        for lo, hi in intervals:
            fac = _sole_factor(cand_factors, lo, hi)
            while fac is None:
                lo, hi = _shrink_around_root(factor, lo, hi)
                fac = _sole_factor(cand_factors, lo, hi)
            out.append((_root_of(fac, lo, hi), mult))
    if interval is not None:
        ilo, ihi = interval
        out = [(r, m) for r, m in out if r.compare(ilo) >= 0 and r.compare(ihi) <= 0]
    out.sort(key=_SortKey)
    return out


def _isolate_generic(p):
    """Isolating intervals for a squarefree poly with RealAlgebraic coeffs."""
    bound_terms = [abs(c.bounds()[0]) for c in p] + [abs(c.bounds()[1]) for c in p]
    lead_lo, lead_hi = p[-1].bounds()
    while lead_lo <= 0 <= lead_hi:
        p[-1].sign()
        lead_lo, lead_hi = p[-1].bounds()
    lead = min(abs(lead_lo), abs(lead_hi))
    bound = 1 + max(bound_terms) / lead
    return isolate_roots(p, -bound - 1, bound + 1)


def _shrink_around_root(p, lo, hi):
    mid = (lo + hi) / 2
    while polys.peval(p, mid) == 0:
        mid = (mid + hi) / 2
    if count_roots_open(p, lo, mid):
        return lo, mid
    return mid, hi
