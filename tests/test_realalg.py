from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from lcivt.polys import peval, pshift
from lcivt.realalg import (
    RealAlgebraic,
    algebraic_roots,
    compare,
    isolate_real_roots,
    sign_at,
)

rationals = st.builds(
    F, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=12))


def sqrt2():
    return isolate_real_roots([-2, 0, 1])[1][0]


def test_isolate_symmetric_quadratic():
    roots = isolate_real_roots([-2, 0, 1])
    assert len(roots) == 2
    assert roots[0][1] == roots[1][1] == 1
    assert roots[0][0].sign() == -1
    assert roots[1][0].sign() == 1
    # the isolating intervals pin sqrt(2)
    assert roots[1][0] > F(7, 5)
    assert roots[1][0] < F(3, 2)


def test_isolate_with_multiplicity_and_range():
    # (X-1)^2 * X on [1/2, 2]
    roots = isolate_real_roots([0, 1, -2, 1], (F(1, 2), F(2)))
    assert [(str(r), m) for r, m in roots] == [("1", 2)]


def test_isolate_cubic():
    roots = isolate_real_roots([0, -1, 0, 1])
    assert [(str(r), m) for r, m in roots] == [("-1", 1), ("0", 1), ("1", 1)]


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError, match="indeterminate"):
        isolate_real_roots([0, 0])


def test_compare_examples():
    r2 = sqrt2()
    assert r2.compare(F(3, 2)) == -1
    assert r2.compare(r2) == 0
    r3 = isolate_real_roots([-3, 0, 1])[1][0]
    assert compare(r2, r3) == -1


def test_arith_examples():
    r2 = sqrt2()
    assert (r2 * r2).as_fraction() == 2
    assert (r2 + (-r2)).is_zero
    assert (RealAlgebraic(F(1, 3)) / F(1, 6)).as_fraction() == 2


def test_sign_at_examples():
    r2 = sqrt2()
    assert sign_at([-2, 0, 1], r2) == 0
    assert sign_at([-1, 1], RealAlgebraic(2)) == 1
    assert sign_at([-3, 0, 1], r2) == -1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RealAlgebraic(1) / RealAlgebraic(0)


def test_nth_roots():
    assert RealAlgebraic(8).nth_root(3).as_fraction() == 2
    r = RealAlgebraic(2).nth_root(2)
    assert (r * r).as_fraction() == 2
    fourth = sqrt2().nth_root(2)
    assert ((fourth * fourth) - sqrt2()).is_zero
    with pytest.raises(ValueError):
        RealAlgebraic(-2).nth_root(2)
    assert RealAlgebraic(-8).nth_root(3).as_fraction() == -2


def test_cross_field_arithmetic():
    r2 = sqrt2()
    r3 = isolate_real_roots([-3, 0, 1])[1][0]
    s = r2 + r3
    assert s.defining_polynomial() == (1, 0, -10, 0, 1)
    r6 = isolate_real_roots([-6, 0, 1])[1][0]
    assert (s * s - 5 - 2 * r6).is_zero
    assert ((r2 * r3) - r6).is_zero
    assert ((r6 / r2) - r3).is_zero


@given(rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_rational_agreement(p, q):
    a, b = RealAlgebraic(p), RealAlgebraic(q)
    assert (a + b).as_fraction() == p + q
    assert (a * b).as_fraction() == p * q
    assert (a - b).as_fraction() == p - q
    assert a.compare(b) == (p > q) - (p < q)
    if q != 0:
        assert (a / b).as_fraction() == p / q


@given(rationals)
@settings(max_examples=40, deadline=None)
def test_additive_and_multiplicative_inverses(p):
    a = RealAlgebraic(p) + sqrt2()
    assert (a - a).is_zero
    if not a.is_zero:
        assert ((a * a.inverse()) - 1).is_zero


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_root_count_matches_sympy(coeffs):
    import sympy

    if all(c == 0 for c in coeffs):
        return
    roots = isolate_real_roots(coeffs)
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs)), x)
    if poly.degree() < 1:
        assert roots == []
        return
    expected = sympy.real_roots(poly)  # repeated by multiplicity
    assert sum(m for _, m in roots) == len(expected)
    assert len(roots) == len(set(expected))


def test_roots_match_sympy_values():
    import sympy

    coeffs = [-6, 1, 4, -1, -1, 1]  # hand-picked mixed poly
    roots = isolate_real_roots(coeffs)
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs)), x)
    sy = sorted(set(sympy.real_roots(poly)))
    assert len(roots) == len(sy)
    for (mine, _), theirs in zip(roots, sy):
        lo, hi = mine.isolating_interval()
        assert theirs > sympy.Rational(lo)
        assert theirs < sympy.Rational(hi)


def test_algebraic_coefficient_roots():
    # z^2 - sqrt2 has the two real fourth roots of 2
    r2 = sqrt2()
    roots = algebraic_roots([-r2, RealAlgebraic(0), RealAlgebraic(1)])
    assert len(roots) == 2
    pos = roots[1][0]
    assert pos.defining_polynomial() == (-2, 0, 0, 0, 1)
    assert ((pos * pos) - r2).is_zero


def test_render_formats():
    assert str(RealAlgebraic(F(3, 2))) == "3/2"
    assert str(RealAlgebraic(-2)) == "-2"
    text = str(sqrt2())
    assert text.startswith("root(x^2-2, ")


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, max_size=6), rationals, rationals)
def test_pshift_is_a_taylor_shift(p, c, x):
    assert peval(pshift(p, c), x) == peval(p, x + c)
