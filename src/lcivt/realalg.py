"""Exact real algebraic numbers and real root isolation.

A value is either a rational (``Fraction`` fast path) or ``rep(alpha)`` where
``alpha`` is the unique root of an irreducible integer polynomial inside a
rational isolating interval and ``rep`` is a rational polynomial of smaller
degree.  Keeping generators irreducible makes zero-testing trivial (a nonzero
rep can never vanish at alpha) and keeps inversion a plain extended-Euclid.

Every value built from other values (a minimal polynomial, mixed-field sums
and products, n-th roots, roots of polynomials with algebraic coefficients)
is chosen by one rule, ``_select_root``: factor an integer polynomial that
vanishes at the target, then narrow a rational enclosure of the target until
exactly one factor has exactly one root in it.

No floating point is used anywhere; interval refinement is exact rational
bisection.  Comparisons refine generator brackets in place, as a cache; a
value renders from its minimal polynomial and a canonical isolating interval
computed on a private copy, so its text never depends on that cache.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key, lru_cache
from math import comb, isqrt, lcm

from . import polys
from .polys import (
    cauchy_bound,
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
_RENDER_WIDTH = Fraction(1, 16)
# Factorizations kept per process, least recently used dropped first.
_FACTOR_CACHE_SIZE = 1024


@lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def _factor_int_poly(coeffs):
    """Irreducible integer factors (ascending coeffs) of a primitive int poly
    with a positive leading coefficient.

    Known answers skip sympy: a constant has no factor, a linear input is
    its own factor, and so is a quadratic whose discriminant is not a
    square (its roots are irrational).
    """
    if len(coeffs) <= 2:
        return (tuple(coeffs),) if len(coeffs) == 2 else ()
    if len(coeffs) == 3:
        c, b, a = coeffs
        disc = b * b - 4 * a * c
        if disc < 0 or isqrt(disc) ** 2 != disc:
            return (tuple(coeffs),)
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
    """Irreducible integer polynomial (ascending ints) with an interval
    isolating one real root."""

    __slots__ = ("minpoly", "lo", "hi")

    def __init__(self, minpoly, lo, hi):
        self.minpoly = tuple(minpoly)
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)

    def reduce(self, vec):
        """(r, s) with sum(vec[i]*alpha^i) = sum(r[i]*alpha^i) / s and
        len(r) <= degree: integer vec reduced modulo the minimal polynomial
        by pseudo-division, s the product of the leading-coefficient
        scalings it needed (1 for a monic minpoly)."""
        m = self.minpoly
        d = len(m) - 1
        if len(vec) <= d:
            return vec, 1
        lead = m[-1]
        v = list(vec)
        s = 1
        for k in range(len(v) - 1, d - 1, -1):
            c = v.pop()
            if not c:
                continue
            if lead != 1:
                q, r = divmod(c, lead)
                if r:
                    v = [lead * x for x in v]
                    s *= lead
                else:
                    c = q
            off = k - d
            for i in range(d):
                v[off + i] -= c * m[i]
        return v, s

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

    __slots__ = ("_frac", "_gen", "_rep", "_minpoly")

    def __init__(self, value=0):
        v = _coerce(value)
        self._frac = v._frac
        self._gen = v._gen
        self._rep = v._rep
        self._minpoly = v._minpoly

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
        self._minpoly = None
        return self

    @staticmethod
    def _from_ints(gen, vec, den):
        """sum(vec[i]*alpha^i) / den for integer vec, reduced by ``gen``."""
        vec, s = gen.reduce(vec)
        den *= s
        n = len(vec)
        while n and not vec[n - 1]:
            n -= 1
        if n <= 1:
            return RealAlgebraic._rat(Fraction(vec[0], den) if n else Fraction(0))
        self = object.__new__(RealAlgebraic)
        self._frac = None
        self._gen = gen
        self._rep = tuple(Fraction(x, den) for x in vec[:n])
        self._minpoly = None
        return self

    @staticmethod
    def _from_rep(gen, rep):
        """rep(alpha) for a rational rep."""
        return RealAlgebraic._from_ints(gen, *_int_vector(rep))

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
            lo, hi = self.bounds()
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

    def refine(self):
        """Narrow the generator bracket that ``bounds`` reads; a no-op for a
        rational."""
        if self._gen is not None:
            self._gen.refine()

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
            va, da = _int_vector(a._rep)
            vb, db = _int_vector(b._rep)
            return RealAlgebraic._from_ints(a._gen, pmul(va, vb), da * db)
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
            a.refine()
            b.refine()
        return (a - b).sign()

    def __eq__(self, other):
        if self._frac is not None and isinstance(other, (int, Fraction)):
            return self._frac == other
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
        return algebraic_roots([-self] + [0] * (n - 1) + [1])[-1][0]

    # ------------------------------------------------------------ plain access

    def defining_polynomial(self):
        """The integer minimal polynomial (ascending coefficients); cached."""
        if self._frac is not None:
            return (-self._frac.numerator, self._frac.denominator)
        if self._minpoly is None:
            if self._rep == (0, 1):
                self._minpoly = self._gen.minpoly
            else:
                self._minpoly = _minpoly_of_rep(self._gen, self._rep)
        return self._minpoly

    def isolating_interval(self):
        """The canonical isolating interval, a function of the value alone.

        Bisect [-2^k, 2^k], 2^k the least power of two at or above the
        Cauchy bound of the minimal polynomial, always keeping the half that
        holds the value; the result is the first interval of width <= 1/16
        that holds exactly one root of the minimal polynomial.  Only a
        private copy of the generator bracket is refined.  A rational q
        gives (q - 1, q + 1).
        """
        if self._frac is not None:
            return (self._frac - 1, self._frac + 1)
        poly = [Fraction(c) for c in self.defining_polynomial()]
        gen = _Generator(self._gen.minpoly, self._gen.lo, self._gen.hi)
        lo, hi = _interval_eval(self._rep, gen.lo, gen.hi)
        while count_roots_open(poly, lo, hi) != 1:
            gen.refine()
            lo, hi = _interval_eval(self._rep, gen.lo, gen.hi)
        # the value is the only root of poly in (lo, hi); poly has no
        # rational root, so a sign test places it against any midpoint
        sign_lo = sgn(peval(poly, lo))
        bound, half = cauchy_bound(poly), 1
        while half < bound:
            half *= 2
        a, b = Fraction(-half), Fraction(half)
        while b - a > _RENDER_WIDTH or count_roots_open(poly, a, b) != 1:
            mid = (a + b) / 2
            if mid >= hi or (mid > lo and sgn(peval(poly, mid)) != sign_lo):
                b = mid
            else:
                a = mid
        return (a, b)

    # --------------------------------------------------------------- rendering

    def __str__(self):
        if self._frac is not None:
            return str(self._frac)
        lo, hi = self.isolating_interval()
        return "root(%s, %s, %s)" % (polys.render(self.defining_polynomial(), "x"), lo, hi)

    def __repr__(self):
        return "RealAlgebraic(%s)" % self


def _int_vector(rep):
    """(numerators, den): a rational rep over its least common denominator."""
    den = lcm(*(c.denominator for c in rep))
    return [c.numerator * (den // c.denominator) for c in rep], den


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
    fac, _, _ = _select_root(
        cand, lambda: _interval_eval(rep, gen.lo, gen.hi), gen.refine)
    return fac


def _select_root(cand, enclose, refine):
    """(factor, lo, hi): the irreducible factor of the rational polynomial
    ``cand`` that owns the only root in the enclosure (lo, hi).

    ``enclose()`` returns a rational interval around the target, a root of
    ``cand``; ``refine()`` narrows it.  Refines until one factor has exactly
    one root in the enclosure and no other factor has any.
    """
    factors = _factor_int_poly(tuple(clear_denominators(cand)))
    while True:
        lo, hi = enclose()
        fac = _sole_factor(factors, lo, hi)
        if fac is not None:
            return fac, lo, hi
        refine()


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
    pa = a.defining_polynomial()
    pb = b.defining_polynomial()
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
    combine = _iadd if op == "add" else _imul

    def refine():
        a.refine()
        b.refine()

    return _root_of(*_select_root(
        _resultant_y(A, B), lambda: combine(a.bounds(), b.bounds()), refine))


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
        for irr in _factor_int_poly(tuple(clear_denominators(factor))):
            for lo, hi in isolate_roots([Fraction(c) for c in irr]):
                out.append((_root_of(irr, lo, hi), mult))
    if interval is not None:
        lo, hi = interval
        out = [(r, m) for r, m in out if r.compare(lo) >= 0 and r.compare(hi) <= 0]
    out.sort(key=_ROOT_ORDER)
    return out


_ROOT_ORDER = cmp_to_key(lambda x, y: x[0].compare(y[0]))


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


def algebraic_roots(coeffs):
    """Real roots with multiplicity of a poly with RealAlgebraic coefficients.

    Coefficients may mix rationals with members of one common extension field.
    """
    cs = [RealAlgebraic(c) for c in coeffs]
    while cs and cs[-1].is_zero:
        cs.pop()
    if not cs:
        raise ValueError("indeterminate roots: zero polynomial")
    if all(c.is_rational for c in cs):
        return isolate_real_roots([c.as_fraction() for c in cs])
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
        if not trim(cand):
            raise ArithmeticError("degenerate elimination for algebraic coefficients")
        for lo, hi in _isolate_generic(factor):
            box = [lo, hi]

            def shrink():
                box[:] = _shrink_around_root(factor, *box)

            fac, lo, hi = _select_root(cand, lambda: box, shrink)
            out.append((_root_of(fac, lo, hi), mult))
    out.sort(key=_ROOT_ORDER)
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
