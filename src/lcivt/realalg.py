"""Exact real algebraic numbers and real root isolation.

A value is either a rational (``Fraction`` fast path) or ``rep(theta)`` where
``theta`` is the unique root of an irreducible monic integer polynomial
inside a rational isolating interval and ``rep`` is a rational polynomial of
smaller degree.  Keeping generators irreducible makes zero-testing trivial
(a nonzero rep can never vanish at theta) and keeps inversion a plain
extended-Euclid.  Keeping them algebraic integers makes reduction modulo the
minimal polynomial a plain division over the integers: a root of a non-monic
e*x^d + ... is stored as theta/e on the generator of theta = e*root.

Every value built from other values (a minimal polynomial, a compositum,
n-th roots, roots of polynomials with algebraic coefficients) is chosen by
one rule, ``_select_root``: factor an integer polynomial that vanishes at
the target, then narrow a rational enclosure of the target until exactly
one factor has exactly one root in it; ``_root_of`` interns one generator
per root.  For a root of a polynomial over a generator's field, that
integer polynomial is one elimination, ``_eliminate``: a resultant against
the generator's minimal polynomial (Loos, "Computing in algebraic
extensions", 1983).  Mixed-field sums and products, ``algebraic_roots`` and
the kernel's grids first bring values onto their compositum (``common_field``).

``_factor_int_poly`` divides out rational roots first: sympy's
``factor_list`` sees only a remainder of degree 4 or more, or an input past
``_ROOT_SEARCH_CAP``, and the factors keep sympy's order either way.

No floating point is used anywhere; interval refinement is exact rational
bisection.  Comparisons refine generator brackets in place, as a cache; a
value renders from its minimal polynomial and a canonical isolating interval
computed on a private copy, so its text never depends on that cache.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import count
from math import comb, gcd, isqrt, lcm

from . import polys
from .errors import ResourceCapError
from .polys import (
    cauchy_bound,
    clear_denominators,
    count_roots_open,
    isolate_roots,
    pdivmod,
    peval,
    pmul,
    pneg,
    pshift,
    psub,
    sgn,
    trim,
    yun_decomposition,
)

_MAX_ALG_DEGREE = 64
_RENDER_WIDTH = Fraction(1, 16)
# Factorizations kept per process, least recently used dropped first.
_FACTOR_CACHE_SIZE = 1024
# Candidate pairs d(|a0|) * d(lead) the rational root search may try, and the
# bound on sqrt(|a0|) and sqrt(lead) for finding them; past it, the whole
# input goes to sympy.  A search at the cap costs about one factor_list call.
_ROOT_SEARCH_CAP = 2048


@lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def _factor_int_poly(coeffs):
    """Irreducible integer factors (ascending coeffs) of a primitive int poly
    with a positive leading coefficient, in sympy's ``factor_list`` order:
    by length, then multiplicity, then coefficients from the highest degree.

    Known answers skip sympy: a constant has no factor, a linear input is
    its own factor, and so is a quadratic whose discriminant is not a
    square.  Otherwise the rational roots are divided out first; what is
    left then has no rational root, so at degree 2 or 3 it is irreducible,
    and only at degree 4 or more, or past the cap, does sympy factor it.
    """
    if len(coeffs) <= 2:
        return (tuple(coeffs),) if len(coeffs) == 2 else ()
    if len(coeffs) == 3:
        c, b, a = coeffs
        disc = b * b - 4 * a * c
        if disc < 0 or isqrt(disc) ** 2 != disc:
            return (tuple(coeffs),)
    found = _rational_roots(coeffs)
    pairs, rest = found if found is not None else ([], tuple(coeffs))
    if found is None or len(rest) > 4:
        import sympy

        _, factors = sympy.Poly(list(reversed(rest)), sympy.Symbol("x"), domain="ZZ").factor_list()
        pairs += [(tuple(int(c) for c in reversed(f.all_coeffs())), k) for f, k in factors]
    elif len(rest) > 1:
        pairs.append((rest, 1))
    pairs.sort(key=lambda fk: (len(fk[0]), fk[1], fk[0][::-1]))
    return tuple(f for f, _ in pairs)


def _rational_roots(coeffs):
    """([((-p, q), multiplicity)], remainder) for the rational roots of a
    primitive int poly, or None past the cap: p | a0 and q | lead, and q*x - p
    divides f in Z[x], so q - p | f(1) and q + p | f(-1)."""
    zeros = next(i for i, c in enumerate(coeffs) if c)
    f = list(reversed(coeffs[zeros:]))
    nums, dens = _divisors(abs(f[-1])), _divisors(f[0])
    if nums is None or dens is None or len(nums) * len(dens) > _ROOT_SEARCH_CAP:
        return None
    pairs = [((0, 1), zeros)] if zeros else []
    f1, fm1 = sum(f), sum(f[::-2]) - sum(f[-2::-2])
    for q in dens:
        for p in (s * n for n in nums for s in (1, -1) if gcd(n, q) == 1):
            if len(f) == 1 or (q != p and f1 % (q - p)) or (q != -p and fm1 % (q + p)):
                continue
            k = 0
            while (quo := _divide_linear(f, p, q)) is not None:
                f, k = quo, k + 1
            if k:
                pairs.append(((-p, q), k))
    return pairs, tuple(reversed(f))


def _divide_linear(f, p, q):
    """f / (q*x - p) for descending int coefficients, or None if inexact."""
    quo, carry = [], 0
    for c in f[:-1]:
        carry, r = divmod(c + p * carry, q)
        if r:
            return None
        quo.append(carry)
    return quo if f[-1] + p * carry == 0 else None


def _divisors(n):
    """The positive divisors of n > 0, or None past ``_ROOT_SEARCH_CAP`` ** 2."""
    if isqrt(n) > _ROOT_SEARCH_CAP:
        return None
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return {*small, *(n // d for d in small)}


class _Generator:
    """Irreducible monic integer polynomial (ascending ints) with an
    interval isolating one real root, an algebraic integer, and the roots of
    the generators known to embed in its field (``images``).  Composita of
    algebraic integers are algebraic integers, so by Gauss's lemma the
    factors that ``_compose`` picks are monic too."""

    __slots__ = ("minpoly", "lo", "hi", "images")

    def __init__(self, minpoly, lo, hi):
        self.minpoly = tuple(minpoly)
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        self.images = {}  # generator -> its root as a value over this one

    def reduce(self, vec):
        """r with sum(vec[i]*alpha^i) = sum(r[i]*alpha^i) and len(r) <=
        degree: integer vec divided by the monic minimal polynomial."""
        m = self.minpoly
        d = len(m) - 1
        if len(vec) <= d:
            return vec
        v = list(vec)
        for k in range(len(v) - 1, d - 1, -1):
            c = v.pop()
            if c:
                off = k - d
                for i in range(d):
                    v[off + i] -= c * m[i]
        return v

    def refine(self):
        mid = (self.lo + self.hi) / 2
        # irreducible of degree >= 2 has no rational root, so mid is safe
        if sgn(peval(self.minpoly, self.lo)) * sgn(peval(self.minpoly, mid)) < 0:
            self.hi = mid
        else:
            self.lo = mid


def _interval_eval(rep, lo, hi):
    """Rational interval enclosing rep(alpha) for alpha in (lo, hi)."""
    acc = (Fraction(rep[-1]), Fraction(rep[-1]))
    for c in reversed(rep[:-1]):
        cands = (acc[0] * lo, acc[0] * hi, acc[1] * lo, acc[1] * hi)
        acc = (min(cands) + c, max(cands) + c)
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


class Ordered:
    """<, <=, > and >= from ``compare`` (-1, 0 or +1) for RealAlgebraic,
    Exponent and LcNumber; empty slots keep their instances dict-free."""

    __slots__ = ()

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0


class RealAlgebraic(Ordered):
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
        vec = gen.reduce(vec)
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
        if a._gen is not b._gen:  # onto their compositum
            a, b = map(common_field((a._gen, b._gen))[1], (a, b))
        return RealAlgebraic._from_rep(a._gen, polys.padd(a._rep, b._rep))

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
        if a._gen is not b._gen:  # onto their compositum
            a, b = map(common_field((a._gen, b._gen))[1], (a, b))
        va, da = _int_vector(a._rep)
        vb, db = _int_vector(b._rep)
        return RealAlgebraic._from_ints(a._gen, pmul(va, vb), da * db)

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
        """-1, 0 or +1: over one generator the sign of the difference; over
        two, from brackets refined until they part, unless both render
        equal (the same minimal polynomial and canonical interval)."""
        other = _coerce(other)
        a, b = self, other
        if a._frac is not None and b._frac is not None:
            return sgn(a._frac - b._frac)
        if a._frac is not None or b._frac is not None or a._gen is b._gen:
            return (a - b).sign()
        for i in count():
            (alo, ahi), (blo, bhi) = a.bounds(), b.bounds()
            if ahi < blo or bhi < alo:
                return -1 if ahi < blo else 1
            if i == 4 and str(a) == str(b):
                return 0
            a.refine()
            b.refine()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):  # a value on a generator is irrational
            return self._frac == other
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.compare(other) == 0

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
            if len(self._rep) == 2:  # r + c*theta: theta's minpoly at (x - r)/c
                r, c = self._rep
                self._minpoly = tuple(clear_denominators(pshift(
                    [m / c ** i for i, m in enumerate(self._gen.minpoly)], -r)))
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


def _resultant_y(A, B, j=0):
    """The j-th subresultant in y of two polynomials whose coefficients are
    polys in z, as its coefficients of y^0 .. y^j: for j = 0 the resultant.

    A and B are lists over powers of y; each entry is a Fraction-poly in z.
    """
    while A and not trim(A[-1]):
        A = A[:-1]
    while B and not trim(B[-1]):
        B = B[:-1]
    m, n = len(A) - 1, len(B) - 1
    if m < 0 or n < 0:
        return [[]]
    size = m + n - j
    if size == 0:
        return [[Fraction(1)]]
    arow, brow = list(reversed(A)), list(reversed(B))
    rows = [[[]] * i + arow + [[]] * (size - m - 1 - i) for i in range(n - j)]
    rows += [[[]] * i + brow + [[]] * (size - n - 1 - i) for i in range(m - j)]
    # the columns of y^(size-1) .. y^(j+1), then that of y^k
    return [_poly_det([r[:size - j - 1] + [r[size - 1 - k]] for r in rows]) for k in range(j + 1)]


def _eliminate(gen, reps, j=0):
    """The j-th subresultant in t (``_resultant_y``; j = 0 the resultant)
    of gen's minimal polynomial m(t) and the sum over i of reps[i](t)*z^i,
    each rep ascending in t: for j = 0 a polynomial in z that vanishes
    wherever the sum does with t at gen's root.  Both sides go by powers
    of t, with polys in z as entries."""
    return _resultant_y([[Fraction(c)] if c else [] for c in gen.minpoly],
                        [trim([Fraction(r[k] if k < len(r) else 0) for r in reps])
                         for k in range(max(map(len, reps)))], j)


def _minpoly_of_rep(gen, rep):
    """Integer minimal polynomial of rep(alpha) over the rationals: the
    elimination of t from z - rep(t)."""
    cand = _eliminate(gen, [[-c for c in rep], [1]])[0]
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


@lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def _generators_of(minpoly):
    """The interned generators of one minimal polynomial, one per root."""
    return []


def _root_of(fac, lo, hi):
    """The root of irreducible integer ``fac`` isolated by (lo, hi), as
    theta/e on the one interned generator of theta = e*root, e the leading
    coefficient: theta is an algebraic integer, a root of the monic
    x^d + sum over i < d of fac_i*e^(d-1-i)*x^i, isolated by (e*lo, e*hi).
    Two isolating intervals hold the same root exactly when their
    intersection holds a root."""
    if len(fac) == 2:
        return RealAlgebraic.from_rational(Fraction(-fac[0], fac[1]))
    d, e = len(fac) - 1, fac[-1]
    fac, lo, hi = tuple(c * e ** (d - 1 - i) for i, c in enumerate(fac[:d])) + (1,), e * lo, e * hi
    gens, poly = _generators_of(fac), [Fraction(c) for c in fac]
    for gen in gens:
        a, b = max(lo, gen.lo), min(hi, gen.hi)
        if a < b and count_roots_open(poly, a, b):
            break
    else:
        gen = _Generator(fac, lo, hi)
        gens.append(gen)
    return RealAlgebraic._from_rep(gen, (0, Fraction(1, e)))


@lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def _compositum(pair):
    """A generator for both roots of a frozenset of two generators, whose
    ``images`` then take both and theirs."""
    gamma, images = _compose(*sorted(pair, key=lambda g: len(g.minpoly), reverse=True))
    for g, image in images.items():
        gamma.images.update({h: peval(v._rep, image) for h, v in g.images.items()})
        gamma.images[g] = image
    return gamma


def _compose(a, b):
    """gamma = alpha + t*beta, alpha the root of larger degree, for the
    first integer t >= 1 for which gcd(m_alpha(gamma - t*y), m_beta(y)) over
    Q(gamma) is linear, g1*y + g0: then beta = -g0/g1 and alpha = gamma -
    t*beta.  m_gamma is the factor of Res_y(m_alpha(z - t*y), m_beta(y))
    that ``_select_root`` picks."""
    da, db = len(a.minpoly) - 1, len(b.minpoly) - 1
    if da * db > _MAX_ALG_DEGREE:
        raise ResourceCapError("a compositum of degrees %d and %d may reach degree %d, "
                               "past _MAX_ALG_DEGREE = %d" % (da, db, da * db, _MAX_ALG_DEGREE))
    t = 0
    while True:
        t += 1
        # m_alpha(z - t*y): z^i has coefficient sum over j of a_(i+j)*C(i+j, j)*(-t*y)^j
        reps = [[ak * comb(i + j, j) * (-t) ** j for j, ak in enumerate(a.minpoly[i:])]
                for i in range(len(a.minpoly))]
        z = _root_of(*_select_root(_eliminate(b, reps)[0], lambda t=t: (
            a.lo + t * b.lo, a.hi + t * b.hi), lambda: (a.refine(), b.refine())))
        # the gcd has degree 1 exactly when the first subresultant s1*y + s0
        # keeps s1(gamma) != 0, and is then that subresultant at z = gamma
        s0, s1 = (peval(c, z) for c in _eliminate(b, reps, 1))
        if not s1.is_zero:
            beta = -s0 / s1
            return z._gen, {a: z - beta * t, b: beta}


def common_field(gens):
    """(gamma, onto): one generator that all of ``gens`` embed in, composed
    in turn, composita first (None for none), and the map of a rational, or
    a value over one of ``gens``, onto gamma: its rep at its generator's
    image there.  A generator already in gamma's images is not composed."""
    gamma = None
    for g in sorted(gens, key=lambda g: (len(g.minpoly), len(g.images)), reverse=True):
        if gamma is None or g is not gamma and g not in gamma.images:
            gamma = g if gamma is None else _compositum(frozenset((gamma, g)))
    return gamma, lambda c: (c if c._gen is None or c._gen is gamma
                             else peval(c._rep, gamma.images[c._gen]))


# ------------------------------------------------------------------ module API


def isolate_real_roots(p, interval=None):
    """All distinct real roots of a rational-coefficient polynomial.

    Returns [(RealAlgebraic, multiplicity)] sorted ascending.  A root outside
    the closed ``interval`` [lo, hi] is neither isolated nor interned.
    """
    p = trim([Fraction(c) for c in p])
    if not p:
        raise ValueError("indeterminate roots: zero polynomial")
    if len(p) == 1:
        return []
    out = []
    for factor, mult in yun_decomposition(p):
        for irr in _factor_int_poly(tuple(clear_denominators(factor))):
            for a, b in isolate_roots([Fraction(c) for c in irr], *_outer(interval)):
                if _inside(irr, a, b, interval):
                    out.append((_root_of(irr, a, b), mult))
    out.sort(key=_ROOT_ORDER)
    return out


def _outer(interval):
    """Rational bounds at or past the ends of ``interval``, None for an open end."""
    return [None if x is None else RealAlgebraic(x).bounds()[side]
            for side, x in enumerate(interval or (None, None))]


def _inside(f, a, b, interval):
    """Whether the root of irreducible integer ``f`` in (a, b) lies in the
    closed ``interval``: between the root and b, f has the sign of f(b)."""
    lo, hi = interval or (None, None)
    return not (lo is not None and (lo >= b or lo > a and sign_at(f, lo) == sgn(peval(f, b)))
                or hi is not None and (hi <= a or hi < b and sign_at(f, hi) == sgn(peval(f, a))))


_ROOT_ORDER = cmp_to_key(lambda x, y: x[0].compare(y[0]))


def sign_at(coeffs, x):
    """Exact sign of a polynomial with RealAlgebraic coefficients at x."""
    return sgn(peval([RealAlgebraic(c) for c in coeffs], RealAlgebraic(x)))


def algebraic_roots(coeffs, interval=None):
    """Real roots with multiplicity of a poly with RealAlgebraic coefficients.

    Coefficients may mix rationals with values over any generators; they
    are brought onto one common generator first (``common_field``).
    ``interval`` restricts to a closed interval, as in ``isolate_real_roots``.
    """
    cs = [RealAlgebraic(c) for c in coeffs]
    while cs and cs[-1].is_zero:
        cs.pop()
    if not cs:
        raise ValueError("indeterminate roots: zero polynomial")
    if all(c.is_rational for c in cs):
        return isolate_real_roots([c.as_fraction() for c in cs], interval)
    gen, onto = common_field({c._gen: None for c in cs if c._gen is not None})
    cs = [onto(c) for c in cs]

    out = []
    for factor, mult in yun_decomposition(cs):
        factor = [RealAlgebraic(c) for c in factor]
        if all(c.is_rational for c in factor):
            for r, _ in isolate_real_roots([c.as_fraction() for c in factor], interval):
                out.append((r, mult))
            continue
        cand = _eliminate(gen, [(c._frac,) if c._frac is not None else c._rep
                                for c in factor])[0]
        if not trim(cand):
            raise ArithmeticError("degenerate elimination for algebraic coefficients")
        for lo, hi in _isolate_generic(factor, interval):
            box = [lo, hi]

            def shrink():
                box[:] = _shrink_around_root(factor, *box)

            fac, lo, hi = _select_root(cand, lambda: box, shrink)
            if _inside(fac, lo, hi, interval):
                out.append((_root_of(fac, lo, hi), mult))
    out.sort(key=_ROOT_ORDER)
    return out


def _isolate_generic(p, interval):
    """Isolating intervals of a squarefree poly with RealAlgebraic coeffs in ``interval``."""
    bound_terms = [abs(c.bounds()[0]) for c in p] + [abs(c.bounds()[1]) for c in p]
    lead_lo, lead_hi = p[-1].bounds()
    while lead_lo <= 0 <= lead_hi:
        p[-1].sign()
        lead_lo, lead_hi = p[-1].bounds()
    lead = min(abs(lead_lo), abs(lead_hi))
    bound = 2 + max(bound_terms) / lead
    lo, hi = _outer(interval)
    return isolate_roots(p, -bound if lo is None else max(lo, -bound),
                         bound if hi is None else min(hi, bound))


def _shrink_around_root(p, lo, hi):
    mid = (lo + hi) / 2
    while polys.peval(p, mid) == 0:
        mid = (mid + hi) / 2
    if count_roots_open(p, lo, mid):
        return lo, mid
    return mid, hi
