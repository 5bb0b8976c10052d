"""Answer checks that share no arithmetic with the code under test.

Numbers are sparse maps exponent -> Fraction.  An lc exponent is a Fraction;
a hahn exponent is a tuple of (index, Fraction) pairs sorted by index, and
two hahn exponents compare at the largest index where they differ.  Values
come either from the benchmark's own generators or from parsing the text a
report prints, never from lcivt arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction

LC = "lc"
HAHN = "hahn"


class OracleError(Exception):
    """The answer could not be read or is not decided by what was printed."""


class Unanswered(str):
    """A failure where the program gave no answer (it raised, exited non-zero
    or reported its own assertion failing), as opposed to a wrong answer."""


# ------------------------------------------------------------------ exponents


def exp_zero(mode):
    return Fraction(0) if mode == LC else ()


def exp_add(mode, a, b):
    if mode == LC:
        return a + b
    acc = dict(a)
    for i, q in b:
        acc[i] = acc.get(i, Fraction(0)) + q
    return tuple(sorted((i, q) for i, q in acc.items() if q))


def exp_cmp(mode, a, b):
    if mode == LC:
        return (a > b) - (a < b)
    da, db = dict(a), dict(b)
    for i in sorted(set(da) | set(db), reverse=True):
        qa, qb = da.get(i, Fraction(0)), db.get(i, Fraction(0))
        if qa != qb:
            return 1 if qa > qb else -1
    return 0


# -------------------------------------------------------------------- numbers


class Sparse:
    """terms: {exponent: Fraction}; cut: None (exact) or the O(...) exponent."""

    __slots__ = ("mode", "terms", "cut")

    def __init__(self, mode, terms, cut=None):
        self.mode = mode
        self.terms = {e: c for e, c in terms.items() if c}
        self.cut = cut

    def lowest(self):
        """Least exponent carrying a term, or None."""
        best = None
        for e in self.terms:
            if best is None or exp_cmp(self.mode, e, best) < 0:
                best = e
        return best

    def val_lb(self):
        """Lower bound on the valuation; None means exact zero (+infinity)."""
        low = self.lowest()
        if low is None:
            return self.cut
        if self.cut is not None and exp_cmp(self.mode, self.cut, low) < 0:
            return self.cut
        return low

    def st(self):
        """Coefficient of eps^0; requires no infinitely large terms."""
        zero = exp_zero(self.mode)
        low = self.lowest()
        if low is not None and exp_cmp(self.mode, low, zero) < 0:
            raise OracleError("value is infinitely large")
        if self.cut is not None and exp_cmp(self.mode, self.cut, zero) <= 0:
            raise OracleError("standard part hidden by the truncation")
        return self.terms.get(zero, Fraction(0))

    def sign_below_cut(self):
        low = self.lowest()
        if low is None or (self.cut is not None and
                           exp_cmp(self.mode, low, self.cut) >= 0):
            raise OracleError("sign not decided below the truncation")
        return 1 if self.terms[low] > 0 else -1


def from_lcivt(x):
    """LcNumber -> Sparse, reading stored terms; non-rational coefficients
    raise OracleError."""
    terms = {}
    for e, c in x.terms:
        q = c.as_fraction()
        if q is None:
            raise OracleError("non-rational coefficient %s" % c)
        terms[e.data] = q
    cut = None if x.cutoff is None else x.cutoff.data
    return Sparse(x.mode, terms, cut)


def sub(a, b):
    terms = dict(a.terms)
    for e, c in b.terms.items():
        terms[e] = terms.get(e, Fraction(0)) - c
    return Sparse(a.mode, terms, _min_cut(a.mode, a.cut, b.cut))


def _min_cut(mode, a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if exp_cmp(mode, a, b) <= 0 else b


def compare(a, b):
    """Sign of a - b, decided below both truncations or OracleError."""
    return sub(a, b).sign_below_cut()


# ------------------------------------------------------------ printed numbers

_EPS_FACTOR = re.compile(r"^eps(?:\[(\d+)\])?(?:\^(\d+)|\^\((-?\d+(?:/\d+)?)\))?$")
_RATIONAL = re.compile(r"^\d+(?:/\d+)?$")


def _parse_eps_product(text, mode):
    """'eps^(1/2)', 'eps[2]*eps[3]^(-2)', '1' -> exponent."""
    if text == "1":
        return exp_zero(mode)
    exp = exp_zero(mode)
    for factor in text.split("*"):
        m = _EPS_FACTOR.match(factor)
        if not m:
            raise OracleError("unreadable factor %r" % factor)
        index, ipow, qpow = m.groups()
        power = Fraction(ipow or qpow or 1)
        if mode == LC:
            if index is not None:
                raise OracleError("indexed eps in an lc number")
            exp = exp + power
        else:
            if index is None:
                raise OracleError("bare eps in a hahn number")
            exp = exp_add(mode, exp, ((int(index), power),))
    return exp


def parse_number(text, mode):
    """Parse a rendered number such as '1 - eps + 2*eps^2 + O(eps^3)'."""
    text = text.strip()
    cut = None
    m = re.search(r" \+ O\((.*)\)$", text)
    if m:
        cut = _parse_eps_product(m.group(1), mode)
        text = text[: m.start()]
    elif text.startswith("O(") and text.endswith(")"):
        return Sparse(mode, {}, _parse_eps_product(text[2:-1], mode))
    if text == "0":
        return Sparse(mode, {}, cut)
    tokens = re.split(r" ([+-]) ", text)
    signs = ["+"] + tokens[1::2]
    bodies = tokens[0::2]
    if bodies[0].startswith("-"):
        signs[0], bodies[0] = "-", bodies[0][1:]
    terms = {}
    for sgn, body in zip(signs, bodies):
        if _RATIONAL.match(body):
            coeff, exp = Fraction(body), exp_zero(mode)
        elif body.startswith("eps"):
            coeff, exp = Fraction(1), _parse_eps_product(body, mode)
        else:
            head, _, rest = body.partition("*")
            if not _RATIONAL.match(head):
                raise OracleError("non-rational coefficient %r" % head)
            coeff, exp = Fraction(head), _parse_eps_product(rest, mode)
        if exp in terms:
            raise OracleError("repeated exponent in %r" % text)
        terms[exp] = coeff if sgn == "+" else -coeff
    return Sparse(mode, terms, cut)


# --------------------------------------------------------- polynomial checks


def factorization_residual_ok(series, p, b, cutoff, degree_cap):
    """Exact check, lc mode, that S - P*B vanishes below ``cutoff`` up to
    degree_cap.

    ``series``: exact Sparse coefficients of S (the generated input); ``p``,
    ``b``: Sparse coefficients read from the factorization.  A truncated
    factor only certifies the product below its cut plus the other factor's
    valuation, so that bound must reach the cutoff too.  Returns an error
    string or None.
    """
    ps = [sorted(x.terms.items()) for x in p]
    bs = [sorted(x.terms.items()) for x in b]
    for n in range(degree_cap + 1):
        acc = dict(series[n].terms) if n < len(series) else {}
        for i in range(len(p)):
            j = n - i
            if not 0 <= j < len(b):
                continue
            for cut, other in ((p[i].cut, b[j]), (b[j].cut, p[i])):
                vo = other.val_lb() if cut is not None else None
                if vo is not None and cut + vo < cutoff:
                    return "P[%d]*B[%d] not certified below the cutoff" % (i, j)
            for ea, ca in ps[i]:
                room = cutoff - ea
                for eb, cb in bs[j]:
                    if eb >= room:
                        break
                    e = ea + eb
                    acc[e] = acc.get(e, 0) - ca * cb
        if any(c and e < cutoff for e, c in acc.items()):
            return "residual coefficient %d has a term below the cutoff" % n
    return None


def poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out
