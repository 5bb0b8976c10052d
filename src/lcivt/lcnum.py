"""Exact truncated arithmetic in a non-Archimedean ordered field.

Two instantiations are supported, selected by a per-value mode tag:

* ``"lc"``: the value group is Q; ``eps`` is the basis infinitesimal, and
  every positive power of it is topologically nilpotent.
* ``"hahn"``: the value group is the finitely supported rational sequences
  indexed by positive integers, highest index dominant.  The basis
  infinitesimals ``eps_n`` satisfy ``eps_n**i > eps_{n+1}`` for every i, so
  no nonzero element is topologically nilpotent.

A number is a finite sorted map exponent -> RealAlgebraic coefficient plus a
truncation marker: either exact, or "all terms below the cutoff are correct,
terms at or above it are unspecified".  Every operation computes the tightest
cutoff it can certify; queries the stored terms do not decide raise
TruncationError instead of guessing.  Term lists are put in canonical form
by one merge, ``_merge``: a sum concatenates its operands' sorted lists
(one with no terms is a truncation), and the validating constructor hands
over its input in any order; both are sorted by exponent key, summed at
equal keys and cut at the sum's cutoff.

Every product and every sum of products goes through one kernel,
``sum_of_products``: each coefficient of w_1*a_1*b_1 + w_2*a_2*b_2 + ...,
with nonzero integer weights w_j, is accumulated once into one dict below a
cutoff fixed up front.  ``LcNumber.__mul__`` is its one-pair case,
``hensel.poly_mul`` one call of it, and ``PolyMulSeries._coeff``, each
step of the ``RatFunSeries`` recurrence and each residual of the
reference lift ``hensel.weierstrass_factor_batched`` take one call each; a
substituted-series coefficient is two
``_Grid.accumulate`` calls on its Taylor shift's grid.  Coefficients take
one of two paths: integers over one denominator when all are rational
(the lifting of S = P*B; FLINT's ``fmpq_poly``), or integer vectors
in the power basis of one number field Q(theta), which
``realalg`` composes from theirs (Newton steps on a residue root such as
sqrt(m)/b; Antic's ``nf_elem``).  Every generator theta is an algebraic
integer, so reducing a product modulo its monic minimal polynomial keeps
the integers integral: an accumulation adds no denominator.  On either
path a pair's weight scales its a side when encoded, with its share of
the common denominator, and decoding divides by that denominator.  The
kernel's encoding, accumulation and decoding are one object, ``_Grid``,
and the denominators stay inside it.  Its loops encode once and decode
once at the end: the lift of S = P*B, ``hensel.weierstrass_factor``
(each residual slice one ``_Grid.combine`` keyed by X-degree on a second
grid); ``_Grid.horner`` (``horner``), each step acc*x + c one
accumulation over the pairs (acc, x) and (c, 1); ``_Grid.invert``
(``LcNumber.invert``); and Newton's iteration (``hensel.newton_root``), which runs on both of the
last two and forms each new x with ``_Grid.combine``.

Two numbers are ordered by the first exponent where they differ, as the
field's order is: ``LcNumber.compare`` walks both term lists and stops
there, without forming the difference, so two roots on different
generators are compared by their leading coefficients alone.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from .errors import ResourceCapError, TruncationError
from .realalg import RealAlgebraic, common_field

LC = "lc"
HAHN = "hahn"

_ONE = RealAlgebraic(1)
_GEOMETRIC_CAP = 10000
_MAX_TERMS = 1000000  # the most terms one number may hold


def _check_terms(count):
    """Raise ResourceCapError when one number holds ``count`` > _MAX_TERMS terms."""
    if count > _MAX_TERMS:
        raise ResourceCapError("%d terms in one number, past the cap _MAX_TERMS = %d"
                               % (count, _MAX_TERMS))


class Exponent:
    """An element of the value group, tagged with its mode.

    lc: a rational.  hahn: a finitely supported map index -> rational stored
    as a sorted tuple of (index, coeff) pairs; comparison looks at the
    largest index where two exponents differ, so that i*exp(eps_n) stays
    below exp(eps_{n+1}) for every integer i.

    ``key`` is a plain Python value whose native order is the value-group
    order: the rational itself in lc mode; in hahn mode the pairs highest
    index first, with the index negated under a negative coefficient so
    that it sorts below an absent index, closed by a (0, 0) sentinel.
    """

    __slots__ = ("mode", "data", "key", "_hash")  # _hash is set on first use

    def __init__(self, mode, data):
        self.mode = mode
        if mode == LC:
            self.data = self.key = Fraction(data)
        elif mode == HAHN:
            items = data.items() if isinstance(data, dict) else data
            cleaned = tuple(sorted((int(i), Fraction(c)) for i, c in items if c != 0))
            for i, _ in cleaned:
                if i < 1:
                    raise ValueError("hahn exponent indices start at 1")
            self.data = cleaned
            self.key = _hahn_key(cleaned)
        else:
            raise ValueError("unknown mode %r" % mode)

    @staticmethod
    def lc(q):
        return Exponent(LC, q)

    @staticmethod
    def _mk_lc(q):
        e = object.__new__(Exponent)
        e.mode = LC
        e.data = e.key = q
        return e

    @staticmethod
    def hahn(items):
        return Exponent(HAHN, items)

    @staticmethod
    def _mk_hahn(data):
        """Trusted builder: ``data`` sorted by index, indices at least 1,
        coefficients nonzero Fractions."""
        e = object.__new__(Exponent)
        e.mode = HAHN
        e.data = data
        e.key = _hahn_key(data)
        return e

    @staticmethod
    def zero(mode):
        return Exponent(mode, 0 if mode == LC else ())

    @property
    def is_zero(self):
        return self.data == 0 if self.mode == LC else not self.data

    def sign(self):
        if self.mode == LC:
            return (self.data > 0) - (self.data < 0)
        if not self.data:
            return 0
        return 1 if self.data[-1][1] > 0 else -1

    def top_index(self):
        """Largest support index (hahn); 0 for zero exponents and lc mode."""
        if self.mode == LC:
            return 0
        return self.data[-1][0] if self.data else 0

    def _check(self, other):
        if not isinstance(other, Exponent):
            raise TypeError("expected Exponent, got %r" % (other,))
        if other.mode != self.mode:
            raise ValueError("exponent mode mismatch: %s vs %s" % (self.mode, other.mode))

    def __add__(self, other):
        self._check(other)
        if not other.data:
            return self  # values are immutable
        if self.mode == LC:
            return Exponent._mk_lc(self.data + other.data)
        acc = dict(self.data)
        for i, c in other.data:
            acc[i] = acc.get(i, 0) + c
        return Exponent._mk_hahn(tuple(sorted((i, c) for i, c in acc.items() if c)))

    def __neg__(self):
        if self.mode == LC:
            return Exponent._mk_lc(-self.data)
        return Exponent._mk_hahn(tuple((i, -c) for i, c in self.data))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q):
        q = Fraction(q)
        if self.mode == LC:
            return Exponent._mk_lc(self.data * q)
        return Exponent._mk_hahn(tuple((i, c * q) for i, c in self.data) if q else ())

    def compare(self, other):
        self._check(other)
        return (self.key > other.key) - (self.key < other.key)

    def __eq__(self, other):
        return isinstance(other, Exponent) and self.mode == other.mode and self.data == other.data

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self.mode, self.data))
            return h

    def min_multiple_at_least(self, target):
        """Smallest n >= 0 with n*self >= target, or None if no n works."""
        if self.mode == LC:
            if target.data <= 0:
                return 0
            if self.data <= 0:
                return None
            return int(-((-target.data) // self.data))
        if target.sign() <= 0:
            return 0
        if self.sign() <= 0:
            return None
        ts, ss = target.top_index(), self.top_index()
        if ss < ts:
            return None
        if ss > ts:
            return 1
        n = -(-target.data[-1][1] // self.data[-1][1])  # least n with n*self's top >= target's
        return n if self.scale(n).compare(target) >= 0 else n + 1

    def __str__(self):
        if self.mode == LC:
            return str(self.data)
        if not self.data:
            return "0"
        return ",".join("%d:%s" % (i, c) for i, c in self.data)

    def __repr__(self):
        return "Exponent(%s, %s)" % (self.mode, self)


def _hahn_key(data):
    return tuple((i if c > 0 else -i, c) for i, c in reversed(data)) + ((0, 0),)


def _term_key(term):
    return term[0].key


def _merge(terms, cut):
    """The term list of the sum of ``terms``, (Exponent, RealAlgebraic)
    pairs in any order: sorted by exponent key (two sorted runs, as in a
    sum of two numbers, Timsort merges in one pass), cut before the cutoff
    ``cut`` (None: exact), the coefficients at equal keys summed, and zero
    coefficients dropped."""
    terms = sorted(terms, key=_term_key)
    del terms[len(terms) if cut is None else bisect_left(terms, cut.key, key=_term_key):]
    out = []
    for t in terms:
        if out and t[0].key == out[-1][0].key:
            out[-1] = (out[-1][0], out[-1][1] + t[1])
        else:
            out.append(t)
    return [t for t in out if not t[1].is_zero]


def _min_cut(a, b):
    """Minimum of two cutoffs (Exponents, or the product kernel's grid
    integers) where None means +infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


@dataclass(frozen=True)
class Classification:
    kind: str  # zero | infinitesimal | finite_appreciable | infinitely_large
    topologically_nilpotent: bool


class LcNumber:
    """A finite-support element of the field, possibly truncated.

    ``terms``: (Exponent, RealAlgebraic) pairs sorted by ascending exponent,
    coefficients nonzero, exponents below the cutoff when one is set.
    ``cutoff is None`` means exact.  Values are immutable.
    """

    __slots__ = ("mode", "terms", "cutoff")

    def __init__(self, mode, terms, cutoff=None):
        if cutoff is not None and cutoff.mode != mode:
            raise ValueError("cutoff mode %s in a %s-mode number" % (cutoff.mode, mode))
        self.mode = mode
        self.cutoff = cutoff
        checked = []
        for exp, coeff in terms:
            if exp.mode != mode:
                raise ValueError("exponent mode %s in a %s-mode number" % (exp.mode, mode))
            checked.append((exp, coeff if isinstance(coeff, RealAlgebraic) else RealAlgebraic(coeff)))
        self.terms = tuple(_merge(checked, cutoff))
        _check_terms(len(self.terms))

    # ------------------------------------------------------------ constructors

    @staticmethod
    def _build(mode, sorted_terms, cutoff):
        """Trusted constructor: terms already sorted, nonzero, below cutoff."""
        out = object.__new__(LcNumber)
        out.mode = mode
        out.terms = tuple(sorted_terms)
        out.cutoff = cutoff
        return out

    @staticmethod
    def from_scalar(mode, value):
        return LcNumber.monomial(Exponent.zero(mode), value)

    @staticmethod
    def zero(mode):
        return LcNumber._build(mode, (), None)

    @staticmethod
    def one(mode):
        return LcNumber._build(mode, ((Exponent.zero(mode), _ONE),), None)

    @staticmethod
    def monomial(exp, coeff, cutoff=None):
        """coeff*eps^exp + O(cutoff), built without the validating
        constructor: one term is within any term cap."""
        coeff = coeff if isinstance(coeff, RealAlgebraic) else RealAlgebraic(coeff)
        if coeff.is_zero or (cutoff is not None and exp.compare(cutoff) >= 0):
            return LcNumber._build(exp.mode, (), cutoff)
        return LcNumber._build(exp.mode, ((exp, coeff),), cutoff)

    # ------------------------------------------------------------------- state

    @property
    def is_exact(self):
        return self.cutoff is None

    @property
    def is_exact_zero(self):
        return not self.terms and self.cutoff is None

    def is_zero_below(self, cutoff):
        """True iff certified ``self = 0 + O(cutoff)``."""
        if any(e.compare(cutoff) < 0 for e, _ in self.terms):
            return False
        return self.cutoff is None or self.cutoff.compare(cutoff) >= 0

    def valuation(self):
        """Exact valuation: the least support exponent.  Errors on zero."""
        if self.terms:
            return self.terms[0][0]
        if self.cutoff is None:
            raise ValueError("valuation of zero is undefined")
        raise TruncationError("valuation undecidable: no terms below the cutoff")

    def val_lb(self):
        """Certified lower bound on the valuation; None means +infinity."""
        if self.terms:
            return self.terms[0][0]
        return self.cutoff

    def coeff_at(self, exp):
        for e, c in self.terms:
            cmp = e.compare(exp)
            if cmp == 0:
                return c
            if cmp > 0:
                break
        return RealAlgebraic(0)

    # -------------------------------------------------------------- arithmetic

    def _coerce(self, other):
        if isinstance(other, LcNumber):
            if other.mode != self.mode:
                raise ValueError("mode mismatch: %s vs %s" % (self.mode, other.mode))
            return other
        if isinstance(other, (int, Fraction, RealAlgebraic)):
            return LcNumber.from_scalar(self.mode, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self.truncate(other.cutoff)
        if not self.terms:
            return other.truncate(self.cutoff)
        cut = _min_cut(self.cutoff, other.cutoff)
        return LcNumber._build(self.mode, _merge(self.terms + other.terms, cut), cut)

    __radd__ = __add__

    def __neg__(self):
        return LcNumber._build(self.mode, [(e, -c) for e, c in self.terms], self.cutoff)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        """One product in the kernel ``sum_of_products``, on whichever of
        its two coefficient paths the two numbers allow."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return sum_of_products([((self,), (other,))])[0]

    __rmul__ = __mul__

    def pow_int(self, n):
        if n < 0:
            raise ValueError("negative power needs an explicit cutoff; use invert")
        out = LcNumber.one(self.mode)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def truncate(self, cutoff):
        cut = _min_cut(self.cutoff, cutoff)
        if cut is self.cutoff:
            return self
        kept = [tc for tc in self.terms if tc[0].compare(cut) < 0]
        return LcNumber._build(self.mode, kept, cut)

    # -------------------------------------------------------------- comparison

    def compare(self, other):
        """The sign of self - other, read at the least exponent below the
        shared cutoff where the two differ: a term on one side only gives
        the sign of its coefficient (negated on other's side), a term on
        both the comparison of the coefficients.  With no difference below
        the cutoff the numbers are equal when both are exact; otherwise the
        order is undecidable and TruncationError is raised."""
        o = self._coerce(other)
        if o is None:
            raise TypeError("cannot compare LcNumber with %r" % (other,))
        cut = _min_cut(self.cutoff, o.cutoff)
        cutq = cut.key if cut is not None else None
        ta, tb = self.terms, o.terms
        na, nb = len(ta), len(tb)
        i = j = 0
        while i < na or j < nb:
            qa = ta[i][0].key if i < na else None
            qb = tb[j][0].key if j < nb else None
            q = qa if qb is None or (qa is not None and qa < qb) else qb
            if cutq is not None and q >= cutq:
                break
            if qb is None or q != qb:
                return ta[i][1].sign()
            if qa is None or q != qa:
                return -tb[j][1].sign()
            ca, cb = ta[i][1], tb[j][1]
            fa, fb = ca._frac, cb._frac
            if fa is not None and fb is not None:
                if fa != fb:
                    return 1 if fa > fb else -1
            else:
                c = ca.compare(cb)
                if c:
                    return c
            i += 1
            j += 1
        if cut is None:
            return 0
        raise TruncationError("sign undecidable: no terms below the cutoff")

    def sign(self):
        if self.terms:
            return self.terms[0][1].sign()
        if self.cutoff is None:
            return 0
        raise TruncationError("sign undecidable: no terms below the cutoff")

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
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

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # ----------------------------------------------------------- field queries

    def standard_part(self):
        """Image in the residue field: the coefficient at exponent zero."""
        zero = Exponent.zero(self.mode)
        if self.terms and self.terms[0][0].compare(zero) < 0:
            raise ValueError("standard part undefined: value is infinitely large")
        if self.cutoff is not None and self.cutoff.compare(zero) <= 0:
            raise TruncationError("standard part undecidable at this cutoff")
        return self.coeff_at(zero)

    def classify(self):
        if self.is_exact_zero:
            return Classification("zero", True)
        if not self.terms:
            raise TruncationError("classification undecidable at this cutoff")
        v = self.terms[0][0].sign()
        if v > 0:
            kind = "infinitesimal"
        elif v == 0:
            kind = "finite_appreciable"
        else:
            kind = "infinitely_large"
        return Classification(kind, self.mode == LC and v > 0)

    # --------------------------------------------------------------- inversion

    def invert(self, cutoff):
        """y with self*y = 1 + O(cutoff); exact for exact monomials: self
        encoded on the kernel's grid, one ``_Grid.invert`` and one decode."""
        grid = _Grid(self.mode, [[self]], cutoff)
        d = grid.cdens[0]
        return grid.decode(*grid.invert(grid.encode([self], d)[0], d, grid.cut(cutoff)))

    def div(self, other, cutoff):
        """self/other with the quotient certified below ``cutoff``."""
        other = self._coerce(other)
        va = self.val_lb()
        if va is None:
            return LcNumber.zero(self.mode)
        eb = other.valuation()
        return (self * other.invert(cutoff + eb - va)).truncate(cutoff)

    def nth_root(self, n, cutoff):
        """y with y**n = self + O(adjusted cutoff) and y correct below cutoff.

        The leading coefficient is the exact real n-th root and the leading
        exponent is valuation/n; the tail is ``hensel.newton_root`` on
        X**n - self seeded at that leading monomial.
        """
        if n < 1:
            raise ValueError("root index must be positive")
        s = self.sign()
        if s == 0:
            return LcNumber.zero(self.mode)
        if s < 0:
            if n % 2 == 0:
                raise ValueError("even root of a negative value")
            return -((-self).nth_root(n, cutoff))
        e, c = self.terms[0]
        root_exp = e.scale(Fraction(1, n))
        y = LcNumber.monomial(root_exp, c.nth_root(n))
        if len(self.terms) == 1 and self.cutoff is None:
            return y
        from .hensel import _NEWTON_CAP, newton_root  # hensel imports lcnum

        zero = LcNumber.zero(self.mode)
        hit = newton_root([-self] + [zero] * (n - 1) + [LcNumber.one(self.mode)], y, cutoff)
        if hit is None:
            raise ResourceCapError(
                "nth_root stalled or hit _NEWTON_CAP = %d steps before the cutoff %s"
                % (_NEWTON_CAP, cutoff))
        return hit[0]

    # --------------------------------------------------------------- rendering

    def render(self):
        if not self.terms:
            body = "0"
        else:
            parts = []
            for e, c in self.terms:
                parts.append(_render_term(e, c, first=not parts))
            body = " ".join(parts)
        if self.cutoff is not None:
            body += " + O(%s)" % _render_eps_power(self.cutoff)
        return body

    __str__ = render

    def __repr__(self):
        return "LcNumber(%s)" % self


# ---------------------------------------------------- sum-of-products kernel


def _num(terms, cut):
    """An encoded number: (terms, valuation bound, cutoff)."""
    return terms, terms[0][0] if terms else cut, cut


def _vector(c, unit):
    """A coefficient's power-basis numerators over ``unit``."""
    f = c._frac
    if f is not None:
        return (f.numerator * (unit // f.denominator),)
    return tuple(r.numerator * (unit // r.denominator) for r in c._rep)


class _Grid:
    """The encoding that one kernel or Horner call shares across its numbers.

    lc exponents and cutoffs are integers on one grid 1/den, den the lcm of
    the given ``den`` and of every exponent and cutoff denominator; hahn
    exponents stay Exponents.  Coefficients take one of the two paths of
    ``sum_of_products``: integer numerators (``rational``), or integer
    vectors of ``width`` = 2d - 1 entries in the power basis of ``gen``, the
    one generator that ``realalg.common_field`` finds for every algebraic
    coefficient, which ``onto`` brings onto it.  ``gen`` is an algebraic
    integer, so products of integer vectors reduce to integer vectors.
    ``cdens`` holds, per scanned sequence, the lcm of its coefficients'
    denominators on ``gen``.  An encoded sequence travels with its
    denominator as (numbers, denominator); ``combine`` forms the common
    denominators of sums, so callers do no lcm arithmetic.
    """

    __slots__ = ("mode", "lc", "den", "cdens", "rational", "gen", "onto", "width", "exps",
                 "inverses", "zero")

    def __init__(self, mode, polys, cutoff=None):
        lc = mode == LC
        den = cutoff.data.denominator if lc and cutoff is not None else 1
        gens, cdens = {}, []
        for poly in polys:
            cden = 1
            for x in poly:
                if lc and x.cutoff is not None:
                    den = lcm(den, x.cutoff.data.denominator)
                for e, c in x.terms:
                    if lc:
                        den = lcm(den, e.data.denominator)
                    if c._frac is None:
                        gens[c._gen] = None
                        cden = lcm(cden, *[r.denominator for r in c._rep])
                    else:
                        cden = lcm(cden, c._frac.denominator)
            cdens.append(cden)
        self.mode, self.lc, self.den = mode, lc, den
        self.gen, self.onto = common_field(gens) if gens else (None, None)
        self.rational = self.gen is None
        self.cdens = [self.cden(poly) for poly in polys] if len(gens) > 1 else cdens
        self.width = 2 * len(self.gen.minpoly) - 3 if self.gen is not None else 0  # 2d - 1
        self.exps, self.inverses = {}, {}
        self.zero = 0 if lc else Exponent.zero(mode)  # the exponent of 1 on the grid

    def cden(self, poly):
        """The lcm of the denominators of ``poly``'s coefficients on ``gen``."""
        return lcm(1, *[c._frac.denominator if c._frac is not None
                        else lcm(*[r.denominator for r in self.onto(c)._rep])
                        for x in poly for _, c in x.terms])

    def encode(self, poly, unit):
        """Per number of ``poly``: (terms, valuation bound, cutoff) on the
        grid, each coefficient times the nonzero integer ``unit`` as an
        integer numerator (``unit`` a multiple of its denominator) or a
        power-basis vector on ``gen`` (``_vector``)."""
        lc, den, rational, onto = self.lc, self.den, self.rational, self.onto
        enc = []
        for x in poly:
            terms = [(e.data.numerator * (den // e.data.denominator) if lc else e,
                      c._frac.numerator * (unit // c._frac.denominator) if rational
                      else _vector(onto(c), unit))
                     for e, c in x.terms]
            enc.append(_num(terms, self.cut(x.cutoff)))
        return enc

    def encoded(self, poly):
        """(numbers, denominator): ``poly`` encoded over the lcm of its own
        coefficient denominators."""
        d = self.cden(poly)
        return self.encode(poly, d), d

    def const(self, k):
        """The integer k as an encoded sequence of one exact number."""
        return [([(self.zero, k if self.rational else (k,))], self.zero, None)]

    def cut(self, exp):
        """An Exponent or None as a grid cutoff."""
        if self.lc and exp is not None:
            return exp.data.numerator * (self.den // exp.data.denominator)
        return exp

    def accumulate(self, operands, k, cut):
        """(terms, cut) for coefficient k of the sum of the products of
        ``operands``, pairs (a, b) of encoded sequences, over the product
        of a's and b's denominators.  Each a[i], b[k-i] in which neither
        number is an exact zero lowers the grid cutoff ``cut`` to
        cut(x) + val(y) and cut(y) + val(x) before any term is formed.  The
        sums below the cutoff become ``terms``, nonzero and by ascending
        exponent; on a generator each vector is divided by the monic
        minimal polynomial (``_Generator.reduce``).  More than
        _MAX_TERMS terms raise ResourceCapError."""
        nums = []
        for ta, tb in operands:
            for i in range(max(0, k - len(tb) + 1), min(k + 1, len(ta))):
                tx, vx, cx = ta[i]
                ty, vy, cy = tb[k - i]
                if vx is None or vy is None:
                    continue  # an exact zero
                nums.append((tx, ty))
                if cx is not None:
                    cut = _min_cut(cut, cx + vy)
                if cy is not None:
                    cut = _min_cut(cut, cy + vx)
        acc = {}
        get = acc.get
        width = self.width
        for tx, ty in nums:
            for qa, ca in tx:
                for qb, cb in ty:
                    q = qa + qb
                    if cut is not None and q >= cut:
                        break  # both term lists are sorted by exponent
                    ent = get(q)
                    if width:
                        if ent is None:
                            ent = acc[q] = [0] * width
                        for i, x in enumerate(ca):
                            for j, y in enumerate(cb, i):
                                ent[j] += x * y
                    else:
                        v = ca * cb
                        acc[q] = v if ent is None else ent + v
        order = sorted(acc, key=None if self.lc else attrgetter("key"))
        if self.rational:
            terms = [(q, v) for q in order if (v := acc[q])]
        else:
            reduce = self.gen.reduce
            terms = [(q, v) for q in order if any(v := reduce(acc[q]))]
        _check_terms(len(terms))
        return terms, cut

    def decode(self, terms, cut, unit):
        """The LcNumber of accumulated terms over ``unit``, below the grid
        cutoff ``cut``."""
        lc, den, exps, gen, rational = self.lc, self.den, self.exps, self.gen, self.rational
        out = []
        for q, v in terms:
            if lc:
                e = exps.get(q)
                if e is None:
                    e = exps[q] = Exponent._mk_lc(Fraction(q, den))
                q = e
            out.append((q, RealAlgebraic._rat(Fraction(v, unit)) if rational
                        else RealAlgebraic._from_ints(gen, v, unit)))
        if lc and cut is not None:
            cut = Exponent._mk_lc(Fraction(cut, den))
        return LcNumber._build(self.mode, out, cut)

    def decode_all(self, seq):
        """The LcNumbers of an encoded sequence (numbers, denominator)."""
        return [self.decode(terms, cut, seq[1]) for terms, _, cut in seq[0]]

    def scale(self, nums, k):
        """Encoded numbers with every coefficient times the integer ``k``."""
        vec = self.gen is not None
        return [([(q, [u * k for u in v] if vec else v * k) for q, v in t], s, c)
                for t, s, c in nums]

    def primitive(self, nums, unit):
        """Encoded numbers over ``unit`` divided by their content, the gcd
        of the unit and every numerator."""
        vec = self.gen is not None
        g = gcd(unit, *[u for t, _, _ in nums for _, v in t for u in (v if vec else (v,))])
        if g == 1:
            return nums, unit
        return [([(q, [u // g for u in v] if vec else v // g) for q, v in t], b, c)
                for t, b, c in nums], unit // g

    def combine(self, products, length, cut):
        """Coefficients 0 .. length-1 of w_1*a_1*b_1 + w_2*a_2*b_2 + ...
        below the grid cutoff ``cut``, for (a, b, w) triples of encoded
        sequences (numbers, denominator) and nonzero integer weights, as
        one sequence (numbers, denominator): each a scaled by its weight
        and its pair's share of the lcm of the pairs' denominators, then
        the sum divided by the content of all its integers."""
        dens = [da * db for (_, da), (_, db), _ in products]
        common = lcm(*dens)
        operands = [(a if w * common == d else self.scale(a, w * common // d), b)
                    for ((a, _), (b, _), w), d in zip(products, dens)]
        return self.primitive([_num(*self.accumulate(operands, k, cut)) for k in range(length)],
                              common)

    def horner(self, poly, cd, x, dx):
        """(terms, cut, denominator) of p(x), for ``poly`` encoded over
        ``cd`` and x encoded over ``dx``: Horner's loop acc = acc*x + c from
        an exact zero, each step one accumulation over the pairs (acc, x)
        and (c, 1), the 1 carrying c's share of the step's common
        denominator."""
        at, acut, ad = [], None, cd
        for c in reversed(poly):
            at, acut = self.accumulate(
                [([_num(at, acut)], [x]), ([c], self.const(ad * dx // cd))], 0, None)
            ad *= dx
        return at, acut, ad

    def invert(self, x, unit, cutoff):
        """(terms, cut, denominator) of y with x*y = 1 + O(cutoff), for x
        encoded over ``unit`` and a grid cutoff; exact for an exact monomial.

        Leading-term division, the lead's inverse kept on the grid by the
        lead's value (``inverses``: Newton's f'(x) keeps its lead across
        steps), then Newton's iteration y <- y*(2 - u*y) =
        y - y*d for the inverse of the unit u = x/lead, which doubles the
        precision each round: u*y and y*d are one accumulation each, y is
        rescaled by an integer to stand over the denominator of y*d, and
        the sum is divided by its content (``primitive``).  y itself is
        correct below cutoff - val(x).  The caps are those of the geometric
        series in m = u - 1: in hahn mode a cutoff that no multiple of val(m)
        reaches raises ResourceCapError up front (no multiple of a low-index
        increment passes a higher-index cutoff), and so does one needing
        more than _GEOMETRIC_CAP powers of m.
        """
        terms, _, cut = x
        if not terms:
            raise (ZeroDivisionError("inverse of zero") if cut is None else
                   TruncationError("inverse undecidable: no terms below the cutoff"))
        ((e, c),) = self.decode(terms[:1], None, unit).terms
        key = (e, c._frac if c._frac is not None else (c._gen, c._rep))
        if key not in self.inverses:
            self.inverses[key] = self.encoded([LcNumber.monomial(-e, c.inverse())])
        (lead,), dl = self.inverses[key]
        e = terms[0][0]
        if len(terms) == 1 and cut is None:
            return lead[0], None, dl
        ut, ucut = self.accumulate([([x], [lead])], 0, None)  # u = 1 + m, val(m) > 0
        (u,), du = self.primitive([_num(ut, None)], unit * dl)
        prec = _min_cut(ucut, cutoff)  # input truncation caps the accuracy
        (y,), dy = self.const(1), 1
        if len(ut) > 1:
            vm = ut[1][0]
            rounds = (0 if cutoff <= 0 else -(-cutoff // vm)) if self.lc \
                else vm.min_multiple_at_least(cutoff)
            if rounds is None:
                raise ResourceCapError("inversion cutoff unreachable in this value group")
            if rounds > _GEOMETRIC_CAP:
                raise ResourceCapError("inversion did not reach the cutoff")
            # u and y are exact, y = 1/u + O(reached) has no terms from
            # reached on, and u*y = 1 + d with val(d) >= reached; then
            # y - y*d is 1/u + O(2*reached), and y*d starts where y ends
            reached = vm
            while reached < prec:
                reached = _min_cut(reached + reached, prec)
                t, _ = self.accumulate([([u], [y])], 0, reached)
                k = du * dy  # d = t[1:] over k
                t, _ = self.accumulate([([y], [_num(t[1:], None)])], 0, reached)
                (yt, _, _), (dt, _, _) = self.scale([y], k) + self.scale([_num(t, None)], -1)
                (y,), dy = self.primitive([_num(yt + dt, None)], dy * k)
        t, cut = self.accumulate([([(y[0], y[1], prec)], [lead])], 0, cutoff - e)
        return t, cut, dy * dl


def sum_of_products(pairs, cutoff=None, weights=None):
    """Every coefficient of w_1*a_1*b_1 + w_2*a_2*b_2 + ..., each built once.

    ``pairs`` holds (a, b): sequences of same-mode LcNumber by ascending
    power; ``weights`` one nonzero integer w_j per pair, by default 1.
    Pairs with an empty side are dropped; with none left the result is [],
    otherwise as many coefficients as the longest product.  Coefficient k
    sums the term products of every a[i], b[k-i] in which neither number is
    an exact zero.  Its cutoff is fixed before any term is formed: the least
    over those pairs of cut(x) + val(y) and cut(y) + val(x), capped at
    ``cutoff``; only term products below it are accumulated, into one dict
    (``_Grid.accumulate``).

    lc exponents are integers on one grid 1/den, den the lcm of every
    exponent and cutoff denominator; hahn exponents stay Exponent keys.
    Each pair's a side is encoded times its weight and its share of one
    common denominator, the lcm over the pairs of the product of a's and
    b's denominators, and each output coefficient is decoded over that
    denominator.  Coefficients take one of two paths:

    * all rational: integer numerators; each output coefficient becomes one
      Fraction.
    * otherwise over one generator alpha of degree d, the compositum of
      every coefficient's generator (``realalg.common_field``): each
      coefficient a vector of integer numerators in the basis 1, alpha,
      ..., alpha^(d-1) (a rational is a vector of length 1); term products
      are integer convolutions, and each output term is divided by the
      monic minimal polynomial once (``_Generator.reduce``).  The representation
      of a value over one generator is canonical, and a value renders from
      its minimal polynomial alone, so neither the grouping of the sum nor
      the generator shows.
    """
    pairs = [(a, b, w) for (a, b), w in zip(pairs, weights or (1,) * len(pairs)) if a and b]
    if not pairs:
        return []
    mode = pairs[0][0][0].mode
    length = max(len(a) + len(b) - 1 for a, b, _ in pairs)
    grid = _Grid(mode, [poly for a, b, _ in pairs for poly in (a, b)], cutoff)
    cdens = grid.cdens
    pair_dens = [da * db for da, db in zip(cdens[0::2], cdens[1::2])]
    common = lcm(*pair_dens)
    # a's unit carries the pair's weight and its share of the common denominator
    operands = [(grid.encode(a, w * da * (common // pden)), grid.encode(b, db))
                for (a, b, w), da, db, pden in zip(pairs, cdens[0::2], cdens[1::2], pair_dens)]
    cap, out = grid.cut(cutoff), []
    for k in range(length):
        out.append(grid.decode(*grid.accumulate(operands, k, cap), common))
    return out


def horner(polys, x):
    """[p(x) for p in polys]: each value is Horner's loop acc = acc*x + c
    from an exact zero, with that loop's cutoffs, dropped zero terms and
    exact zeros, and the same exponents and coefficients.

    x and the polynomials are encoded once on the kernel's grid, in either
    mode and on whichever coefficient path they allow; each value is one
    ``_Grid.horner`` pass, whose accumulator stays encoded, with one
    ``_Generator.reduce`` per term over one generator and the
    _MAX_TERMS cap checked, and is decoded once.
    """
    grid = _Grid(x.mode, [[x], *polys])
    dx = grid.cdens[0]
    (xe,) = grid.encode([x], dx)
    return [grid.decode(*grid.horner(grid.encode(poly, cd), cd, xe, dx))
            for poly, cd in zip(polys, grid.cdens[1:])]


def _render_eps_power(exp):
    if exp.mode == LC:
        q = exp.data
        if q == 1:
            return "eps"
        if q.denominator == 1 and q >= 0:
            return "eps^%d" % q
        return "eps^(%s)" % q
    if not exp.data:
        return "1"
    parts = []
    for i, c in exp.data:
        if c == 1:
            parts.append("eps[%d]" % i)
        elif c.denominator == 1 and c >= 0:
            parts.append("eps[%d]^%d" % (i, c))
        else:
            parts.append("eps[%d]^(%s)" % (i, c))
    return "*".join(parts)


def _render_term(exp, coeff, first):
    s = coeff.sign()
    mag = coeff if s > 0 else -coeff
    mag_s = str(mag.as_fraction()) if mag.is_rational else str(mag)
    if exp.is_zero:
        body = mag_s
    elif mag.is_rational and mag.as_fraction() == 1:
        body = _render_eps_power(exp)
    else:
        body = "%s*%s" % (mag_s, _render_eps_power(exp))
    if first:
        return body if s > 0 else "-" + body
    return ("+ " if s > 0 else "- ") + body


# ----------------------------------------------------------------- module API


def eps(power=1):
    """The lc-mode basis infinitesimal raised to ``power``."""
    return LcNumber.monomial(Exponent.lc(power), 1)


def eps_n(index, power=1):
    """The hahn-mode basis infinitesimal eps_index**power; eps_0 is 1."""
    if index == 0:
        return LcNumber.one(HAHN)
    return LcNumber.monomial(Exponent.hahn({index: Fraction(power)}), 1)
