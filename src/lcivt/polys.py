"""Dense univariate polynomials over the exact fields.

The library has two coefficient domains, told apart by their zero test.  The
exact fields, ``fractions.Fraction`` and ``RealAlgebraic``, decide ``== 0``;
they are served here.  A polynomial is a plain list of coefficients by
ascending power with no trailing zero; ``[]`` is zero.  Coefficients must
support +, -, *, /, exact equality with 0, and comparison against 0 (directly
or through a ``sign()`` method).

Truncated ``LcNumber`` coefficients cannot decide ``== 0``, so their lists are
served by the ``poly_*`` helpers in ``hensel``, which skip only exact zeros
and never trim; their Taylor shift is ``pseries.SubstitutedSeries`` with
h = 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd


def sgn(x):
    """Sign of a coefficient as -1, 0 or +1."""
    s = getattr(x, "sign", None)
    if callable(s):
        return s()
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p):
    return len(p) - 1


def padd(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x + y)
    return trim(out)


def pneg(a):
    return [-c for c in a]


def psub(a, b):
    return padd(a, pneg(b))


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trim(out)


def pdivmod(a, b):
    """Exact field division with remainder; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / b[-1] if b[-1] != 1 else None
    while len(a) >= len(b) and a:
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] if inv_lead is None else a[-1] * inv_lead
        d = len(a) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            a[d + i] = a[d + i] - c * y
        a.pop()
    return trim(q), trim(a)


def pgcd(a, b):
    """Monic gcd by the Euclidean algorithm."""
    a, b = trim(a), trim(b)
    while b:
        _, r = pdivmod(a, b)
        a, b = b, r
    if a and a[-1] != 1:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def pderiv(a):
    return trim([a[i] * i for i in range(1, len(a))])


def peval(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def pshift(p, c):
    """p(x + c) over an exact field, by repeated synthetic division.

    Leaves a trimmed input trimmed and never tests a coefficient for zero.
    """
    out = list(p)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] = out[j] + out[j + 1] * c
    return out


def monic(a):
    a = trim(a)
    if not a or a[-1] == 1:
        return list(a)
    lead = a[-1]
    return [c / lead for c in a]


def yun_decomposition(a):
    """Squarefree decomposition; returns [(monic factor, multiplicity)]."""
    a = monic(a)
    d = pderiv(a)
    g = pgcd(a, d)
    if degree(g) <= 0:
        return [(a, 1)]
    out = []
    w, _ = pdivmod(a, g)
    y, _ = pdivmod(d, g)
    z = psub(y, pderiv(w))
    i = 1
    while degree(w) > 0:
        gi = pgcd(w, z)
        if degree(gi) > 0:
            out.append((gi, i))
        w, _ = pdivmod(w, gi)
        y, _ = pdivmod(z, gi)
        z = psub(y, pderiv(w))
        i += 1
    return out


def sturm_chain(p):
    chain = [trim(p), pderiv(p)]
    while len(chain[-1]) > 1:  # a nonzero constant divides everything
        _, r = pdivmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(pneg(r))
    if not chain[-1]:
        chain.pop()
    return chain


def sign_variations(values):
    nz = [s for s in (sgn(v) for v in values) if s != 0]
    return sum(1 for i in range(len(nz) - 1) if nz[i] != nz[i + 1])


def _variations_at(chain, x):
    return sign_variations([peval(p, x) for p in chain])


def count_roots_open(p, lo, hi):
    """Number of distinct real roots of squarefree p in the open interval."""
    p = trim(p)
    if not p:
        raise ValueError("indeterminate roots of the zero polynomial")
    while peval(p, lo) == 0:
        p, _ = pdivmod(p, [-lo, 1])
    while p and peval(p, hi) == 0:
        p, _ = pdivmod(p, [-hi, 1])
    if degree(p) <= 0:
        return 0
    chain = sturm_chain(p)
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def cauchy_bound(p):
    """Rational B with every real root of p inside (-B, B)."""
    p = trim(p)
    lead = abs(Fraction(p[-1]) if isinstance(p[-1], int) else p[-1])
    m = max((abs(c) for c in p[:-1]), default=0)
    return 1 + m / lead


def isolate_roots(p, lo=None, hi=None):
    """Disjoint open rational intervals isolating the real roots of squarefree p.

    Endpoints are guaranteed not to be roots.  Returns intervals sorted
    ascending.
    """
    p = trim(p)
    if degree(p) <= 0:
        return []
    bound = cauchy_bound(p)
    if lo is None:
        lo = -bound - 1
    if hi is None:
        hi = bound + 1
    while peval(p, lo) == 0:
        lo -= Fraction(1, 2)
    while peval(p, hi) == 0:
        hi += Fraction(1, 2)
    chain = sturm_chain(p)

    out = []
    stack = [(lo, hi, _variations_at(chain, lo), _variations_at(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n <= 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        while peval(p, mid) == 0:
            mid = (a + mid) / 2
        vm = _variations_at(chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    out.sort()
    return out


def clear_denominators(p):
    """Fraction poly -> primitive integer poly with positive leading coeff."""
    p = trim([Fraction(c) for c in p])
    if not p:
        return []
    from math import lcm

    den = 1
    for c in p:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for c in ints:
        g = int_gcd(g, abs(c))
    if g > 1:
        ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def render(p, var):
    """Signed sum of the nonzero terms of p in ``var``, highest power first."""
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            xs = var if i == 1 else "%s^%d" % (var, i)
            term = xs if abs(c) == 1 else "%s*%s" % (abs(c), xs)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+" if c > 0 else "-") + term)
    return "".join(parts) if parts else "0"
