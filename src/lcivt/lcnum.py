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
TruncationError instead of guessing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import ResourceCapError, TruncationError
from .realalg import RealAlgebraic

LC = "lc"
HAHN = "hahn"

_ONE = RealAlgebraic(1)
_GEOMETRIC_CAP = 10000


def max_terms_cap():
    """The LCIVT_MAX_TERMS cap on stored terms per number, read on every call."""
    raw = os.environ.get("LCIVT_MAX_TERMS", "1000000")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError("LCIVT_MAX_TERMS must be a positive integer, got %r" % raw)
    return cap


class Exponent:
    """An element of the value group, tagged with its mode.

    lc: a rational.  hahn: a finitely supported map index -> rational stored
    as a sorted tuple of (index, coeff) pairs; comparison looks at the
    largest index where two exponents differ, so that i*exp(eps_n) stays
    below exp(eps_{n+1}) for every integer i.
    """

    __slots__ = ("mode", "data")

    def __init__(self, mode, data):
        self.mode = mode
        if mode == LC:
            self.data = Fraction(data)
        elif mode == HAHN:
            items = data.items() if isinstance(data, dict) else data
            cleaned = tuple(sorted((int(i), Fraction(c)) for i, c in items if c != 0))
            for i, _ in cleaned:
                if i < 1:
                    raise ValueError("hahn exponent indices start at 1")
            self.data = cleaned
        else:
            raise ValueError("unknown mode %r" % mode)

    @staticmethod
    def lc(q):
        return Exponent(LC, q)

    @staticmethod
    def _mk_lc(q):
        e = object.__new__(Exponent)
        e.mode = LC
        e.data = q
        return e

    @staticmethod
    def hahn(items):
        return Exponent(HAHN, items)

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
        if self.mode == LC:
            return Exponent(LC, self.data + other.data)
        acc = dict(self.data)
        for i, c in other.data:
            acc[i] = acc.get(i, Fraction(0)) + c
        return Exponent(HAHN, acc)

    def __neg__(self):
        if self.mode == LC:
            return Exponent(LC, -self.data)
        return Exponent(HAHN, tuple((i, -c) for i, c in self.data))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q):
        q = Fraction(q)
        if self.mode == LC:
            return Exponent(LC, self.data * q)
        return Exponent(HAHN, tuple((i, c * q) for i, c in self.data))

    def compare(self, other):
        self._check(other)
        if self.mode == LC:
            return (self.data > other.data) - (self.data < other.data)
        a, b = dict(self.data), dict(other.data)
        for i in sorted(set(a) | set(b), reverse=True):
            ca, cb = a.get(i, 0), b.get(i, 0)
            if ca != cb:
                return 1 if ca > cb else -1
        return 0

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
        return hash((self.mode, self.data))

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
        st = dict(self.data)[ss]
        tt = dict(target.data)[ts]
        return max(int(tt // st) + 1, 0)

    def __str__(self):
        if self.mode == LC:
            return str(self.data)
        if not self.data:
            return "0"
        return ",".join("%d:%s" % (i, c) for i, c in self.data)

    def __repr__(self):
        return "Exponent(%s, %s)" % (self.mode, self)


def _min_cut(a, b):
    """Minimum of two cutoffs where None means +infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a.compare(b) <= 0 else b


def _common_den(ta, tb, cut):
    """lcm of the exponent denominators of two lc-mode term lists."""
    from math import gcd

    d = 1 if cut is None else cut.data.denominator
    for e, _ in ta:
        dd = e.data.denominator
        if dd != 1:
            d = d * dd // gcd(d, dd)
    for e, _ in tb:
        dd = e.data.denominator
        if dd != 1:
            d = d * dd // gcd(d, dd)
    return d


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
        self.mode = mode
        self.cutoff = cutoff
        acc = {}
        for exp, coeff in terms:
            if exp.mode != mode:
                raise ValueError("exponent mode %s in a %s-mode number" % (exp.mode, mode))
            coeff = coeff if isinstance(coeff, RealAlgebraic) else RealAlgebraic(coeff)
            if exp in acc:
                acc[exp] = acc[exp] + coeff
            else:
                acc[exp] = coeff
        cleaned = []
        for exp in sorted(acc):
            if cutoff is not None and exp.compare(cutoff) >= 0:
                continue
            c = acc[exp]
            if not c.is_zero:
                cleaned.append((exp, c))
        if len(cleaned) > max_terms_cap():
            raise ResourceCapError("term count exceeds LCIVT_MAX_TERMS")
        self.terms = tuple(cleaned)

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
    def _from_scaled_dict(acc, den, cutoff):
        """acc maps scaled-integer exponent -> coefficient (grid 1/den).

        Coefficients may be raw Fractions (hot paths) or RealAlgebraic.
        """
        terms = []
        for q, c in sorted(acc.items()):
            if isinstance(c, Fraction):
                if c:
                    terms.append((Exponent._mk_lc(Fraction(q, den)), RealAlgebraic._rat(c)))
            elif not c.is_zero:
                terms.append((Exponent._mk_lc(Fraction(q, den)), c))
        if len(terms) > max_terms_cap():
            raise ResourceCapError("term count exceeds LCIVT_MAX_TERMS")
        return LcNumber._build(LC, terms, cutoff)

    @staticmethod
    def from_scalar(mode, value):
        return LcNumber(mode, [(Exponent.zero(mode), RealAlgebraic(value))])

    @staticmethod
    def zero(mode):
        return LcNumber(mode, [])

    @staticmethod
    def one(mode):
        return LcNumber(mode, [(Exponent.zero(mode), _ONE)])

    @staticmethod
    def monomial(exp, coeff, cutoff=None):
        return LcNumber(exp.mode, [(exp, coeff)], cutoff)

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

    def leading(self):
        if not self.terms:
            raise (ValueError("zero has no leading term") if self.cutoff is None else
                   TruncationError("leading term undecidable at this cutoff"))
        return self.terms[0]

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
        cut = _min_cut(self.cutoff, other.cutoff)
        if self.mode == LC:
            # two-pointer merge of the sorted term lists
            ta, tb = self.terms, other.terms
            na, nb = len(ta), len(tb)
            cutq = cut.data if cut is not None else None
            out = []
            i = j = 0
            while i < na and j < nb:
                ea, ca = ta[i]
                eb, cb = tb[j]
                qa, qb = ea.data, eb.data
                if qa < qb:
                    if cutq is not None and qa >= cutq:
                        i = na
                        break
                    out.append(ta[i])
                    i += 1
                elif qb < qa:
                    if cutq is not None and qb >= cutq:
                        j = nb
                        break
                    out.append(tb[j])
                    j += 1
                else:
                    if cutq is not None and qa >= cutq:
                        i, j = na, nb
                        break
                    fa, fb = ca._frac, cb._frac
                    if fa is not None and fb is not None:
                        s = fa + fb
                        if s:
                            out.append((ea, RealAlgebraic._rat(s)))
                    else:
                        s = ca + cb
                        if not s.is_zero:
                            out.append((ea, s))
                    i += 1
                    j += 1
            while i < na:
                if cutq is not None and ta[i][0].data >= cutq:
                    break
                out.append(ta[i])
                i += 1
            while j < nb:
                if cutq is not None and tb[j][0].data >= cutq:
                    break
                out.append(tb[j])
                j += 1
            return LcNumber._build(LC, out, cut)
        return LcNumber(self.mode, list(self.terms) + list(other.terms), cut)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(LcNumber)
        out.mode = self.mode
        out.cutoff = self.cutoff
        out.terms = tuple((e, -c) for e, c in self.terms)
        return out

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        cut = None
        if self.cutoff is not None:
            vb = other.val_lb()
            if vb is not None:
                cut = self.cutoff + vb
        if other.cutoff is not None:
            va = self.val_lb()
            if va is not None:
                cut = _min_cut(cut, other.cutoff + va)
        if self.mode == LC:
            den = _common_den(self.terms, other.terms, cut)
            cqi = None if cut is None else cut.data.numerator * (den // cut.data.denominator)
            ai = [(e.data.numerator * (den // e.data.denominator),
                   c._frac if c._frac is not None else c) for e, c in self.terms]
            bi = [(e.data.numerator * (den // e.data.denominator),
                   c._frac if c._frac is not None else c) for e, c in other.terms]
            acc = {}
            get = acc.get
            for qa, ca in ai:
                lim = None if cqi is None else cqi - qa
                for qb, cb in bi:
                    if lim is not None and qb >= lim:
                        break  # both term lists are sorted by exponent
                    qi = qa + qb
                    prod = ca * cb
                    ent = get(qi)
                    acc[qi] = prod if ent is None else ent + prod
            return LcNumber._from_scaled_dict(acc, den, cut)
        acc = {}
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                e = ea + eb
                if cut is not None and e.compare(cut) >= 0:
                    continue
                prod = ca * cb
                if e in acc:
                    acc[e] = acc[e] + prod
                else:
                    acc[e] = prod
        return LcNumber(self.mode, acc.items(), cut)

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
        other = self._coerce(other)
        return (self - other).sign()

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
        """y with self*y = 1 + O(cutoff); exact for exact monomials.

        Leading-term division plus a geometric tail, so y itself is correct
        below cutoff - valuation(self).  In hahn mode a cutoff out of the
        geometric increments' reach raises ResourceCapError up front (no
        multiple of a low-index increment passes a higher-index cutoff).
        """
        if not self.terms:
            raise (ZeroDivisionError("inverse of zero") if self.cutoff is None else
                   TruncationError("inverse undecidable: no terms below the cutoff"))
        e, c = self.terms[0]
        lead_inv = LcNumber.monomial(-e, c.inverse())
        if len(self.terms) == 1 and self.cutoff is None:
            return lead_inv
        mhat = self * lead_inv - 1  # valuation > 0
        vm = mhat.val_lb()
        acc = LcNumber.one(self.mode)
        if mhat.cutoff is not None:
            acc = acc.truncate(mhat.cutoff)  # input truncation caps the accuracy
        if vm is not None and mhat.terms:
            rounds = vm.min_multiple_at_least(cutoff)
            if rounds is None:
                raise ResourceCapError(
                    "inversion cutoff unreachable in this value group")
            if rounds > _GEOMETRIC_CAP:
                raise ResourceCapError("inversion did not reach the cutoff")
            pw = LcNumber.one(self.mode)
            for _ in range(rounds + 1):
                pw = (pw * (-mhat)).truncate(cutoff)
                if not pw.terms:
                    break
                acc = acc + pw
        return (acc * lead_inv).truncate(cutoff - e)

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
        exponent is valuation/n; the tail is produced by Newton iteration.
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
        target = cutoff + root_exp.scale(n - 1)
        y = y.truncate(cutoff)
        last_resid_val = None
        for _ in range(256):
            resid = (y.pow_int(n) - self).truncate(target)
            if not resid.terms:
                break
            rv = resid.terms[0][0]
            if last_resid_val is not None and rv.compare(last_resid_val) <= 0:
                raise ResourceCapError("nth_root stalled before the cutoff")
            last_resid_val = rv
            deriv = y.pow_int(n - 1) * n
            y = (y - resid * deriv.invert(target - rv)).truncate(cutoff)
        else:
            raise ResourceCapError("nth_root did not reach the cutoff")
        return y

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
