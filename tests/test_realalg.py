from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from lcivt import realalg
from lcivt.errors import ResourceCapError
from lcivt.polys import peval, pmul, pshift
from lcivt.realalg import (
    RealAlgebraic,
    algebraic_roots,
    common_field,
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
    assert r2.compare(r3) == -1


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
    assert sign_at([], r2) == 0


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
    cbrt2 = RealAlgebraic(2).nth_root(3)
    assert cbrt2.defining_polynomial() == (-2, 0, 0, 1)
    assert (cbrt2 ** 3).as_fraction() == 2
    sixth = sqrt2().nth_root(3)
    assert sixth.defining_polynomial() == (-2, 0, 0, 0, 0, 0, 1)
    assert (sixth ** 3 - sqrt2()).is_zero
    neg = (-sqrt2()).nth_root(3)
    assert neg.sign() == -1
    assert (neg ** 3 + sqrt2()).is_zero


def test_cross_field_arithmetic():
    r2 = sqrt2()
    r3 = isolate_real_roots([-3, 0, 1])[1][0]
    s = r2 + r3
    assert s.defining_polynomial() == (1, 0, -10, 0, 1)
    r6 = isolate_real_roots([-6, 0, 1])[1][0]
    assert (s * s - 5 - 2 * r6).is_zero
    assert ((r2 * r3) - r6).is_zero
    assert ((r6 / r2) - r3).is_zero


def test_a_root_found_twice_is_one_generator():
    # sqrt 2 isolated from x^2 - 2 and from (x^2 - 2)(x - 1)
    r2 = isolate_real_roots([-2, 0, 1])[1][0]
    again = [r for r, _ in isolate_real_roots([2, -2, -1, 1]) if r.compare(1) > 0]
    assert [r._gen for r in again] == [r2._gen]
    assert isolate_real_roots([-2, 0, 1])[0][0]._gen is not r2._gen


def test_compositum_degrees():
    r2, r3, r5 = (isolate_real_roots([-m, 0, 1])[1][0] for m in (2, 3, 5))
    near = isolate_real_roots([1, -4, 2])[0][0]  # 1 - sqrt(2)/2
    for values, degree in (((r2, r3), 4), ((r2, near), 2), ((r2, r3, r5), 8)):
        gamma, onto = common_field({v._gen: None for v in values})
        assert len(gamma.minpoly) - 1 == degree
        for v in values:
            moved = onto(v)
            assert moved._gen is gamma and moved.compare(v) == 0 and str(moved) == str(v)
            assert (moved * moved - v * v).is_zero
    assert (r2 / 2 + near).as_fraction() == 1
    assert str((r2 + r3) * (r2 - r3)) == "-1"


def test_a_generator_is_not_composed_with_its_compositum(monkeypatch):
    r2, r3 = (isolate_real_roots([-m, 0, 1])[1][0] for m in (2, 3))
    s = r2 + r3
    near = r2 + isolate_real_roots([1, -4, 2])[0][0]  # on a compositum of degree 2

    def refuse(*args):
        raise AssertionError("composed again")

    monkeypatch.setattr(realalg, "_compose", refuse)
    realalg._compositum.cache_clear()
    assert str(s - r3) == str(r2) and str((s - r2) * r3) == "3"
    assert common_field({r2._gen: None, s._gen: None, r3._gen: None})[0] is s._gen
    assert common_field({r2._gen: None, near._gen: None})[0] is near._gen
    assert str((near - r2) * 2) == str(2 - r2)


def test_compositum_degree_cap_names_itself(monkeypatch):
    def refuse(*args):
        raise AssertionError("a resultant was built")

    a, b = RealAlgebraic(2).nth_root(8), RealAlgebraic(3).nth_root(9)
    monkeypatch.setattr(realalg, "_resultant_y", refuse)
    with pytest.raises(ResourceCapError,
                       match="degrees 9 and 8 may reach degree 72, past _MAX_ALG_DEGREE = 64"):
        a + b


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


SMALL = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
SQRTS = {m: RealAlgebraic(m).nth_root(2) for m in (2, 3)}
# an operand of == in one of its forms: int, Fraction, rational
# RealAlgebraic, or q*sqrt(m) + r
EQ_OPERANDS = st.one_of(
    st.integers(-4, 4),
    SMALL,
    SMALL.map(RealAlgebraic),
    st.tuples(SMALL.filter(bool), st.sampled_from((2, 3)), SMALL).map(
        lambda t: t[0] * SQRTS[t[1]] + t[2]))


@given(EQ_OPERANDS, EQ_OPERANDS)
@settings(max_examples=200, deadline=None)
def test_equality_matches_compare(x, y):
    x = RealAlgebraic(x)
    assert (x == y) == (x.compare(y) == 0)
    assert (y == x) == (x.compare(y) == 0)
    assert x == (x.as_fraction() if x.is_rational else x + 0)


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
    # sqrt3*z^2 - sqrt2: coefficients over two generators, folded onto one
    r3 = isolate_real_roots([-3, 0, 1])[1][0]
    roots = algebraic_roots([-r2, 0, r3])
    assert [str(r) for r, _ in roots] == ["root(3*x^4-2, -15/16, -7/8)", "root(3*x^4-2, 7/8, 15/16)"]
    assert all((r * r * r3 - r2).is_zero for r, _ in roots)


def test_algebraic_coefficients_with_a_rational_monic_factor():
    # sqrt2*z^2 - 2*sqrt2 is sqrt2*(z^2 - 2): its square-free factor is rational
    r2 = sqrt2()
    roots = algebraic_roots([-2 * r2, 0, r2])
    assert [m for _, m in roots] == [1, 1]
    assert (roots[0][0] + r2).is_zero and (roots[1][0] - r2).is_zero


def test_isolation_restricted_to_an_interval(monkeypatch):
    # each restricted search equals the full one filtered to the closed
    # interval, and interns no root outside it
    r2 = sqrt2()
    third = RealAlgebraic(F(1, 3))
    cases = [
        # (x-1)(x-2)(2x-3) with roots at both ends; 2x^2 - 1 with one at an
        # irrational end, or just past it; an open end
        (isolate_real_roots, [-6, 13, -9, 2], (1, 2)),
        (isolate_real_roots, [-1, 0, 2], (r2 / 2, 1)),
        (isolate_real_roots, [-1, 0, 2], (-r2 / 2, r2 / 2)),
        (isolate_real_roots, [-1, 0, 2], (F(-1, 2), r2 / 2 - F(1, 1000))),
        (isolate_real_roots, [0, -1, 0, 1], (None, F(1, 2))),
        (algebraic_roots, [-1, 0, 2], (r2 / 2, r2)),
        # (x - sqrt2)(x - 1/2)(x + 3) on [1/2, sqrt2], (sqrt2*x - 1/3)(x - 1) on
        # [1/3, 1]: algebraic coefficients take the generic path
        (algebraic_roots, reduce(pmul, [[-r2, 1], [F(-1, 2), 1], [3, 1]]), (F(1, 2), r2)),
        (algebraic_roots, reduce(pmul, [[-r2, 1], [F(-1, 2), 1], [3, 1]]), (-3, r2 - F(1, 99))),
        (algebraic_roots, pmul([-third, r2], [-1, 1]), (third, 1)),
        (algebraic_roots, pmul([-third, r2], [-1, 1]), (r2 / 6 + F(1, 99), None)),
    ]
    for find, poly, (lo, hi) in cases:
        want = [(str(r), m) for r, m in find(poly)
                if (lo is None or r.compare(lo) >= 0) and (hi is None or r.compare(hi) <= 0)]
        interned, root_of = [], realalg._root_of
        monkeypatch.setattr(realalg, "_root_of", lambda *a: interned.append(root_of(*a)) or
                            interned[-1])
        got = find(poly, (lo, hi))
        monkeypatch.undo()
        assert [(str(r), m) for r, m in got] == want, (poly, lo, hi)
        assert len(interned) == len(want), (poly, lo, hi)


def test_render_formats():
    assert str(RealAlgebraic(F(3, 2))) == "3/2"
    assert str(RealAlgebraic(-2)) == "-2"
    text = str(sqrt2())
    assert text.startswith("root(x^2-2, ")


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, max_size=6), rationals, rationals)
def test_pshift_is_a_taylor_shift(p, c, x):
    assert peval(pshift(p, c), x) == peval(p, x + c)


def _sympy_factors(coeffs):
    """sympy's factor_list of an ascending integer polynomial, as ascending
    tuples in sympy's order, multiplicities and constants dropped."""
    import sympy

    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(coeffs)) or [0], x, domain="ZZ").factor_list()
    return tuple(fc for fc in (tuple(int(c) for c in reversed(f.all_coeffs()))
                               for f, _ in factors) if len(fc) > 1)


def _int_product(blocks):
    return tuple(reduce(pmul, blocks, [1]))


# ascending blocks with positive leading coefficients, so every product is
# primitive (Gauss's lemma) and is an input that clear_denominators makes
_LINEAR = [(0, 1), (-1, 1), (1, 1), (2, 1), (-1, 2), (1, 3), (-2, 3)]
_QUADRATIC = [(-2, 0, 1), (1, 1, 1), (-5, 0, 3), (1, 0, 1), (-3, 0, 4)]
_CUBIC = [(-2, 0, 0, 1), (1, 1, 0, 1), (5, -3, 0, 2)]  # no rational root
# past _ROOT_SEARCH_CAP: 240 * 240 candidate pairs; a prime a0 whose trial
# division would pass the cap; 360 * 60 candidate pairs around a planted root
_PAST_CAP = [(720720, 0, 1, 0, 720720), (-(2**31 - 1), 0, 0, 1),
             _int_product([(-1, 1), (11, 0, 5040), (720720, 0, 1)])]


def test_factor_fast_path_matches_sympy():
    # every primitive polynomial of degree <= 2 with a positive leading
    # coefficient and coefficients in [-12, 12], the inputs clear_denominators
    # makes; __wrapped__ skips the cache, so every answer is computed here
    import itertools
    from math import gcd

    from lcivt.realalg import _factor_int_poly

    span = range(-12, 13)
    polys = [(), (1,)]
    polys += [(c, a) for c, a in itertools.product(span, range(1, 13)) if gcd(c, a) == 1]
    polys += [(c, b, a) for c, b, a in itertools.product(span, span, range(1, 13))
              if gcd(gcd(c, b), a) == 1]
    for coeffs in polys:
        assert _factor_int_poly.__wrapped__(coeffs) == _sympy_factors(coeffs), coeffs


def test_factor_of_degree_3_to_6_matches_sympy_in_order():
    # every product of one to three blocks of degree 3 to 6: planted,
    # repeated and zero rational roots, irreducible cubics, and quartics that
    # split into two quadratics, plus inputs past the candidate cap, which go
    # to sympy whole; the factors and their order must be sympy's
    import itertools

    from lcivt.realalg import _factor_int_poly, _rational_roots

    blocks = _LINEAR + _QUADRATIC + _CUBIC
    polys = [_int_product(combo) for r in (1, 2, 3)
             for combo in itertools.combinations_with_replacement(blocks, r)]
    polys = [p for p in polys if 4 <= len(p) <= 7]
    assert len(polys) > 500
    for coeffs in polys + _PAST_CAP:
        assert _factor_int_poly.__wrapped__(coeffs) == _sympy_factors(coeffs), coeffs
    assert all(_rational_roots(coeffs) is None for coeffs in _PAST_CAP)


def test_only_a_remainder_of_degree_4_reaches_sympy(monkeypatch):
    # a residue-style input, (3x - 1)(2x^2 - 1)(9x^2 - 5): the root 1/3 is
    # divided out, and only the quartic remainder is left to sympy
    import sympy

    from lcivt.realalg import _factor_int_poly

    coeffs = _int_product([(-1, 3), (-1, 0, 2), (-5, 0, 9)])
    want = _sympy_factors(coeffs)
    seen = []
    factor_list = sympy.Poly.factor_list

    def traced(poly, *args, **kwargs):
        seen.append(tuple(int(c) for c in reversed(poly.all_coeffs())))
        return factor_list(poly, *args, **kwargs)

    monkeypatch.setattr(sympy.Poly, "factor_list", traced)
    assert _factor_int_poly.__wrapped__(coeffs) == want
    assert want == ((-1, 3), (-1, 0, 2), (-5, 0, 9))
    assert seen == [_int_product([(-1, 0, 2), (-5, 0, 9)])]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([([-2, 0, 1], 1), ([-3, 0, 2], 1), ([-2, 0, 0, 1], 0), ([1, -3, 0, 5], 0)]),
       st.data())
def test_same_generator_product_matches_fraction_remainder(gen, data):
    # the integer reduction modulo the generator's monic minimal polynomial
    # (theta = 2*alpha for 2x^2 - 3, 5*alpha for 5x^3 - 3x + 1) against the
    # Fraction division with remainder it replaced
    from lcivt.polys import pdivmod, pmul, trim

    poly, k = gen
    theta = isolate_real_roots(poly)[k][0]._gen
    minpoly = theta.minpoly
    assert minpoly[-1] == 1 and len(minpoly) == len(poly)
    reps = st.lists(rationals, min_size=1, max_size=len(minpoly) - 1)
    p, q = data.draw(reps), data.draw(reps)
    x = RealAlgebraic._from_rep(theta, p)
    y = RealAlgebraic._from_rep(theta, q)
    _, rem = pdivmod(pmul(p, q), [F(c) for c in minpoly])
    got = x * y
    rem = trim(rem)
    if len(rem) <= 1:
        assert got.is_rational and got.as_fraction() == (rem[0] if rem else 0)
    else:
        assert got._gen is theta and got._rep == tuple(rem)


# 4x^2 - 3 and 3x^3 - 2x - 5: roots +-sqrt(3)/2 and one real cubic root
NON_MONIC = ([-3, 0, 4], [-5, -2, 0, 3])


def non_monic_generators():
    """The generators of the roots of NON_MONIC and of a compositum of two."""
    roots = [r for p in NON_MONIC for r, _ in isolate_real_roots(p)]
    return [r._gen for r in roots] + [common_field({roots[1]._gen: None, roots[2]._gen: None})[0]]


def test_every_generator_is_monic():
    # a root of e*x^d + ... is theta/e on the generator of theta = e*root
    gens = non_monic_generators()
    assert [len(g.minpoly) - 1 for g in gens] == [2, 2, 3, 6]
    assert all(g.minpoly[-1] == 1 for g in gens)
    assert gens[0].minpoly == (-12, 0, 1)  # theta = 4*root = -+2*sqrt(3)
    assert [r._rep for r, _ in isolate_real_roots(NON_MONIC[1])] == [(0, F(1, 3))]


def test_a_non_monic_root_renders_from_its_own_polynomial(monkeypatch):
    def refuse(*args):
        raise AssertionError("a resultant was built")

    monkeypatch.setattr(realalg, "_minpoly_of_rep", refuse)  # linear reps need none
    low, high = (r for r, _ in isolate_real_roots(NON_MONIC[0]))
    assert str(high) == "root(4*x^2-3, 13/16, 7/8)"
    assert str(low) == "root(4*x^2-3, -7/8, -13/16)"
    assert str(isolate_real_roots(NON_MONIC[1])[0][0]).startswith("root(3*x^3-2*x-5, ")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), rationals, rationals.filter(bool))
def test_linear_value_minimal_polynomial_matches_the_resultant(k, r, c):
    # r + c*theta: theta's minimal polynomial at (x - r)/c, made primitive,
    # against the resultant and factorization of the general case
    gen = non_monic_generators()[k]
    value = RealAlgebraic._from_rep(gen, (r, c))
    assert value.defining_polynomial() == realalg._minpoly_of_rep(gen, value._rep)


# ------------------------------------------------------ canonical rendering


def fresh_sqrt(m):
    """sqrt(m), freshly isolated: on the one generator of its root."""
    return isolate_real_roots([-m, 0, 1])[-1][0]


def test_render_reads_the_value_not_the_bracket():
    assert str(fresh_sqrt(2)) == "root(x^2-2, 11/8, 23/16)"
    s = fresh_sqrt(2) + fresh_sqrt(3)
    text = str(s)
    assert s.compare(F(314626, 100000)) == 1
    assert str(s) == text == str(fresh_sqrt(3) + fresh_sqrt(2))
    r3 = fresh_sqrt(3)
    assert str((fresh_sqrt(2) + r3) - r3) == str(fresh_sqrt(2))
    for _ in range(12):
        s.refine()
    assert str(s) == text


SQRT_TERMS = st.lists(
    st.tuples(rationals.filter(bool), st.sampled_from((2, 3, 5, 6))), min_size=1, max_size=3)


def left_sum(values):
    acc = values[0]
    for v in values[1:]:
        acc = acc + v
    return acc


def right_sum(values):
    acc = values[-1]
    for v in reversed(values[:-1]):
        acc = v + acc
    return acc


@given(SQRT_TERMS, rationals.filter(bool), rationals)
@settings(max_examples=25, deadline=None)
def test_equal_values_render_equal(terms, scale, shift):
    # sum_i q_i*sqrt(m_i), grouped and ordered two ways on fresh generators,
    # then scaled and multiplied out against a sum of two terms
    x = left_sum([q * fresh_sqrt(m) for q, m in terms])
    y = right_sum([q * fresh_sqrt(m) for q, m in reversed(terms)])
    pairs = [(x, y),
             (x * scale + shift, right_sum([q * scale * fresh_sqrt(m) for q, m in terms]) + shift)]
    q0, m0 = terms[0]
    pairs.append(((fresh_sqrt(m0) + shift) * x,
                  left_sum([q * fresh_sqrt(m0) * fresh_sqrt(m) for q, m in terms]) + shift * y))
    for a, b in pairs:
        assert a.compare(b) == 0
        text = str(a)
        assert str(b) == text
        a.refine()
        b.refine()
        a.compare(F(1, 3))
        a.compare(fresh_sqrt(7))
        assert str(a) == str(b) == text
