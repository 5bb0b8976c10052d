"""Text grammar for numbers, exponents, and the line-oriented series language.

Number literals look like ``3/2*eps^(1/2) + 2 - eps^2`` (lc mode) or
``eps[2]^(1/3)`` and products of such factors (hahn mode).  Series sources
are one rule per line with stack-machine combinators::

    poly: -1, 1, eps
    ratfun: (2 - 2*eps*X - eps^2*X) / (1 - eps*X)
    term: sign=(-1)^n scale=1 expo=n^2
    term: sign=(-1)^n scale=1 expo=seq(n)
    polymul: 1, -2, 1
    sum:
    scale: eps
    subst: h=1 k=-1

``poly``/``ratfun``/``term`` push a series; ``sum:`` pops two and pushes
their sum; ``scale:``/``polymul:``/``subst:`` transform the top of stack.
Mixing ``eps`` and ``eps[k]`` literals with the wrong mode is an error.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import LcivtError
from .lcnum import HAHN, LC, Exponent, LcNumber
from .pseries import (
    PolyMulSeries,
    PolySeries,
    RatFunSeries,
    SubstitutedSeries,
    SumSeries,
    TermRuleSeries,
)


class ParseError(LcivtError):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = "line %d" % line
            if column is not None:
                loc += ", column %d" % column
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column


class _Scanner:
    def __init__(self, text, line=None):
        self.text = text.replace(" ", "").replace("\t", "")
        self.i = 0
        self.line = line

    def error(self, msg):
        raise ParseError(msg, self.line, self.i + 1)

    def peek(self):
        return self.text[self.i] if self.i < len(self.text) else ""

    def take(self):
        ch = self.peek()
        self.i += 1
        return ch

    def expect(self, ch):
        if self.peek() != ch:
            self.error("expected %r" % ch)
        self.i += 1

    def done(self):
        return self.i >= len(self.text)

    def end(self, msg, value=None):
        """``value``, read from the whole text; ParseError ``msg`` if any is left."""
        if not self.done():
            self.error(msg)
        return value

    def digits(self):
        j = self.i
        while self.i < len(self.text) and self.text[self.i].isdigit():
            self.i += 1
        if j == self.i:
            self.error("expected digits")
        return int(self.text[j:self.i])

    def integer(self):
        """Digits, with an optional leading minus sign."""
        neg = self.peek() == "-" and self.take()
        return -self.digits() if neg else self.digits()

    def rational(self, signed=False):
        num = self.integer() if signed else self.digits()
        if self.peek() == "/":
            self.take()
            return Fraction(num, self.digits())
        return Fraction(num)


def _parse_eps_power(sc, mode):
    """After 'eps' has been recognized; returns an Exponent."""
    index = None
    if sc.peek() == "[":
        sc.take()
        index = sc.digits()
        sc.expect("]")
        if mode != HAHN:
            sc.error("eps[k] literals need hahn mode")
    elif mode != LC:
        sc.error("bare eps literals need lc mode")
    power = Fraction(1)
    if sc.peek() == "^":
        sc.take()
        if sc.peek() == "(":
            sc.take()
            power = sc.rational(signed=True)
            sc.expect(")")
        else:
            power = Fraction(sc.integer())
    if mode == LC:
        return Exponent.lc(power)
    if index == 0:
        return Exponent.zero(HAHN)
    return Exponent.hahn({index: power})


_EXPECTED = {None: "a number, eps factor", "X": "a number, eps factor or X", "n": "a number or n"}


def _parse_term(sc, mode, var):
    """One product of factors; returns (coeff Fraction, Exponent, power of
    ``var``): None in a literal, "X" in a polynomial in X, and "n" in a
    rational polynomial in n, which takes no eps factor."""
    coeff = Fraction(1)
    exp = Exponent.zero(mode)
    xpow = 0
    while True:
        ch = sc.peek()
        if ch.isdigit():
            coeff *= sc.rational()
        elif var != "n" and sc.text.startswith("eps", sc.i):
            sc.i += 3
            exp = exp + _parse_eps_power(sc, mode)
        elif var and ch == var:
            sc.take()
            k = 1
            if sc.peek() == "^":
                sc.take()
                k = sc.digits()
            xpow += k
        else:
            sc.error("expected " + _EXPECTED[var])
        if sc.peek() == "*":
            sc.take()
            continue
        break
    return coeff, exp, xpow


def _parse_sum(sc, mode, var):
    """Signed sum of terms; returns list of (coeff, Exponent, power of ``var``)."""
    out = []
    sign = 1
    if sc.peek() == "+":
        sc.take()
    elif sc.peek() == "-":
        sc.take()
        sign = -1
    while True:
        coeff, exp, xpow = _parse_term(sc, mode, var)
        out.append((sign * coeff, exp, xpow))
        ch = sc.peek()
        if ch == "+":
            sc.take()
            sign = 1
        elif ch == "-":
            sc.take()
            sign = -1
        else:
            return out


def parse_literal(text, mode, line=None):
    """Parse a number literal into an LcNumber."""
    sc = _Scanner(text, line)
    if sc.done():
        sc.error("empty literal")
    parts = sc.end("trailing input after literal", _parse_sum(sc, mode, None))
    return LcNumber(mode, [(exp, coeff) for coeff, exp, _ in parts])


def _parse_poly(text, mode, var, line):
    """A sum of terms in ``var``, bucketed by its power: lists of (Exponent, coeff)."""
    sc = _Scanner(text, line)
    parts = sc.end("trailing input after polynomial", _parse_sum(sc, mode, var))
    buckets = [[] for _ in range(max(k for _, _, k in parts) + 1)]
    for coeff, exp, k in parts:
        buckets[k].append((exp, coeff))
    return buckets


def parse_xpoly(text, mode, line=None):
    """Parse a polynomial in X with literal coefficients; returns LcNumbers."""
    return [LcNumber(mode, b) for b in _parse_poly(text, mode, "X", line)]


def _parse_npoly(text, line=None):
    """Rational polynomial in n, e.g. ``n^2``, ``2*n+1``, ``-1/2*n^2+3``."""
    return [sum((c for _, c in b), Fraction(0)) for b in _parse_poly(text, LC, "n", line)]


def parse_exponent(text, mode):
    """Cutoff literal: a rational (lc) or comma list ``i:q`` pairs (hahn)."""
    text = text.strip()
    if mode == LC:
        sc = _Scanner(text)
        return Exponent.lc(sc.end("trailing input after exponent", sc.rational(signed=True)))
    items = {}
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        if ":" not in chunk:
            raise ParseError("hahn exponent entries look like index:rational")
        idx, q = chunk.split(":", 1)
        sc = _Scanner(q)
        items[int(idx)] = sc.rational(signed=True)
        sc.end("trailing input in exponent entry")
    return Exponent.hahn(items)


_SIGN_RE = re.compile(r"^\(([+-]1)\)\^n$")
_SEQ_RE = re.compile(r"^seq\(n(?:\+(\d+))?\)$")


def _parse_term_line(body, mode, line):
    fields = {}
    for tok in body.split():
        if "=" not in tok:
            raise ParseError("term fields look like key=value", line)
        key, val = tok.split("=", 1)
        if key not in ("sign", "prefactor", "scale", "expo", "offset"):
            raise ParseError("unknown term field %r" % key, line)
        if key in fields:
            raise ParseError("term field %r given twice" % key, line)
        fields[key] = val
    if "prefactor" in fields and "scale" in fields:
        raise ParseError("term fields 'prefactor' and 'scale' exclude each other", line)
    sign = 1
    if "sign" in fields:
        m = _SIGN_RE.match(fields["sign"])
        if not m:
            raise ParseError("sign must be (+1)^n or (-1)^n", line)
        sign = int(m.group(1))
    if "prefactor" in fields:
        prefactor = _parse_npoly(fields["prefactor"], line)
    else:
        sc = _Scanner(fields.get("scale", "1"), line)
        prefactor = [sc.end("bad scale", sc.rational(signed=True))]
    if "expo" not in fields:
        raise ParseError("term rule needs expo=", line)
    expo_text = fields["expo"]
    m = _SEQ_RE.match(expo_text)
    if m:
        expo = ("seq", int(m.group(1) or 0))
    else:
        expo = ("poly", _parse_npoly(expo_text, line))
    sc = _Scanner(fields.get("offset", "0"), line)
    offset = sc.end("offset must be an integer", sc.integer())
    return TermRuleSeries(mode, sign, prefactor, expo, offset)


def _split_commas(text):
    out = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


# How many series each combinator pops off the stack.
_POPS = {"sum": 2, "scale": 1, "polymul": 1, "subst": 1}


def parse_series(text, mode):
    """Parse a series source (possibly multi-line) into a PSeries."""
    stack = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError("expected '<rule>: ...'", lineno)
        head, body = line.split(":", 1)
        head = head.strip()
        body = body.strip()
        if len(stack) < _POPS.get(head, 0):
            raise ParseError("%s: needs %s on the stack"
                             % (head, "two series" if _POPS[head] == 2 else "a series"), lineno)
        if head == "poly":
            coeffs = [parse_literal(c, mode, lineno) for c in _split_commas(body)]
            stack.append(PolySeries(mode, coeffs))
        elif head == "ratfun":
            m = re.match(r"^\((.*)\)\s*/\s*\((.*)\)$", body)
            if not m:
                raise ParseError("ratfun body looks like (num) / (den)", lineno)
            num = parse_xpoly(m.group(1), mode, lineno)
            den = parse_xpoly(m.group(2), mode, lineno)
            stack.append(RatFunSeries(mode, num, den))
        elif head == "term":
            stack.append(_parse_term_line(body, mode, lineno))
        elif head == "sum":
            b = stack.pop()
            a = stack.pop()
            stack.append(SumSeries(a, b))
        elif head == "scale":
            stack.append(PolyMulSeries([parse_literal(body, mode, lineno)], stack.pop()))
        elif head == "polymul":
            coeffs = [parse_literal(c, mode, lineno) for c in _split_commas(body)]
            stack.append(PolyMulSeries(coeffs, stack.pop()))
        elif head == "subst":
            m = re.match(r"^h=(.*?)\s+k=(.*)$", body)
            if not m:
                raise ParseError("subst body looks like h=<literal> k=<literal>", lineno)
            h = parse_literal(m.group(1), mode, lineno)
            k = parse_literal(m.group(2), mode, lineno)
            stack.append(SubstitutedSeries(stack.pop(), h, k))
        else:
            raise ParseError("unknown rule %r" % head, lineno)
    if not stack:
        raise ParseError("empty series source")
    if len(stack) > 1:
        raise ParseError("%d series left on the stack; missing sum:?" % len(stack))
    return stack[0]
