from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from lcivt.errors import CertificateError, TruncationError
from lcivt.lcnum import HAHN, LC, Exponent, LcNumber, eps, eps_n
from lcivt.pseries import (
    PolyMulSeries,
    PolySeries,
    RatFunSeries,
    ScaledSeries,
    SubstitutedSeries,
    SumSeries,
    TermRuleSeries,
    evaluate,
    normalize,
    partial_sum,
    transform_interval,
)

from conftest import E, L


def alternating_square_series():
    """sum (-1)^n eps^(n^2) X^n: converges on the whole field."""
    return TermRuleSeries(LC, -1, [1], ("poly", [0, 0, 1]))


def geometric_tail_ratfun():
    """F(X) = 2 - sum_{n>=1} eps^(n+1) X^n = (2 - 2 eps X - eps^2 X)/(1 - eps X)."""
    one = LcNumber.one(LC)
    num = [LcNumber.from_scalar(LC, 2), -(eps() * 2) - eps(2)]
    den = [one, -eps()]
    return RatFunSeries(LC, num, den)


def hahn_alternating_series():
    return TermRuleSeries(HAHN, -1, [1], ("seq", 0))


# ------------------------------------------------------------------ coefficients


def test_ratfun_coefficients():
    f = geometric_tail_ratfun()
    assert str(f.coeff(0)) == "2"
    for n in range(1, 6):
        assert (f.coeff(n) + eps(n + 1)).is_exact_zero


def test_term_rule_coefficients():
    s = alternating_square_series()
    assert str(s.coeff(3)) == "-eps^9"
    assert str(s.coeff(0)) == "1"


def test_poly_coefficients():
    p = PolySeries(LC, [-1, 1])
    assert p.coeff(2).is_exact_zero


def test_hahn_seq_coefficients():
    s = hahn_alternating_series()
    assert str(s.coeff(0)) == "1"  # eps_0 = 1
    assert str(s.coeff(2)) == "eps[2]"
    assert str(s.coeff(3)) == "-eps[3]"


# ------------------------------------------------------------------ partial sums


def test_partial_sum_examples():
    s = alternating_square_series()
    assert [str(c) for c in partial_sum(s, 2)] == ["1", "-eps", "eps^4"]
    assert [str(c) for c in partial_sum(s, 0)] == ["1"]
    t = SumSeries(s, ScaledSeries(-1, s))
    assert all(c.is_exact_zero for c in partial_sum(t, 4))


# -------------------------------------------------------------------- evaluation


def test_eval_at_infinitely_large_points():
    s = alternating_square_series()
    pos = evaluate(s, eps(-4), E(1))
    assert pos.sign() == 1
    assert pos.terms[0][0] == E(-4)  # dominant term eps^(-4 l^2), l = 1
    neg = evaluate(s, eps(-6), E(1))
    assert neg.sign() == -1
    assert neg.terms[0][0] == E(-9)  # dominant term -eps^(-(2l+1)^2)


def test_eval_polynomial():
    p = PolySeries(LC, [-1, 1])
    v = evaluate(p, LcNumber.one(LC) + eps(), E(5))
    assert (v - eps()).is_zero_below(E(5))


def test_eval_certificate_failure():
    # coefficients eps^n at x = eps^(-2): term valuations decrease
    s = TermRuleSeries(LC, 1, [1], ("poly", [0, 1]))
    with pytest.raises(CertificateError):
        evaluate(s, eps(-2), E(1))


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=4),
       st.lists(st.integers(-5, 5), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_eval_linearity(aa, bb):
    s = PolySeries(LC, aa)
    t = PolySeries(LC, bb)
    x = LcNumber.one(LC) + eps()
    cut = E(6)
    lhs = evaluate(SumSeries(s, t), x, cut)
    rhs = evaluate(s, x, cut) + evaluate(t, x, cut)
    assert (lhs - rhs).is_zero_below(cut)


# ------------------------------------------------------------------- derivative


def test_derivative_examples():
    p = PolySeries(LC, [0, 0, 1])
    d = p.derivative()
    assert [str(c) for c in partial_sum(d, 1)] == ["0", "2"]
    s = alternating_square_series()
    ds = s.derivative()
    # coeff(n) = (n+1) (-1)^(n+1) eps^((n+1)^2)
    for n in range(4):
        expect = LcNumber.monomial(E((n + 1) ** 2), (n + 1) * (-1) ** (n + 1))
        assert (ds.coeff(n) - expect).is_exact_zero


@pytest.mark.parametrize("offset", [0, 2])
def test_term_rule_derivative_shifts_coefficients(offset):
    s = TermRuleSeries(LC, -1, [1, F(1, 2), 3], ("poly", [1, F(-1, 3), 1]), offset)
    d = s.derivative()
    for n in range(8):
        assert (d.coeff(n) - s.coeff(n + 1) * (n + 1)).is_exact_zero


def test_derivative_respects_sum():
    s = alternating_square_series()
    t = geometric_tail_ratfun()
    d = SumSeries(s, t).derivative()
    ref = SumSeries(s.derivative(), t.derivative())
    for n in range(6):
        assert (d.coeff(n) - ref.coeff(n)).is_exact_zero


def test_partial_sum_derivative_commutation():
    # (S')_n = (S_{n+1})' as polynomials
    s = geometric_tail_ratfun()
    for n in range(5):
        lhs = partial_sum(s.derivative(), n)
        rhs_poly = partial_sum(s, n + 1)
        rhs = [rhs_poly[i] * i for i in range(1, len(rhs_poly))]
        assert len(lhs) == len(rhs) + (1 if len(lhs) > len(rhs) else 0) or len(lhs) == len(rhs)
        for a, b in zip(lhs, rhs):
            assert (a - b).is_exact_zero


# -------------------------------------------------------------------- transform


def test_transform_unit_interval():
    s = PolySeries(LC, [LcNumber.one(LC), eps(), LcNumber.from_scalar(LC, 3)])
    t = transform_interval(s, LcNumber.zero(LC), LcNumber.one(LC))
    assert t.h == 1 and (t.k + 1).is_exact_zero
    cut = E(6)
    one, two = LcNumber.one(LC), LcNumber.from_scalar(LC, 2)
    assert (evaluate(t, one, cut) - evaluate(s, LcNumber.zero(LC), cut)).is_zero_below(cut)
    assert (evaluate(t, two, cut) - evaluate(s, one, cut)).is_zero_below(cut)


def test_transform_identity_interval():
    s = geometric_tail_ratfun()
    t = transform_interval(s, LcNumber.one(LC), LcNumber.from_scalar(LC, 2))
    assert t.h == 1 and t.k.is_exact_zero
    for n in range(4):
        assert (t.coeff(n, E(8)) - s.coeff(n)).is_zero_below(E(8))


def test_transform_infinitesimal_shift():
    s = PolySeries(LC, [1, 1])
    a = eps()
    b = LcNumber.one(LC) + eps()
    t = transform_interval(s, a, b)
    assert t.h == 1
    assert (t.k - (eps() - 1)).is_exact_zero
    cut = E(6)
    assert (evaluate(t, LcNumber.one(LC), cut) - evaluate(s, a, cut)).is_zero_below(cut)


def test_transform_requires_order():
    s = PolySeries(LC, [1, 1])
    with pytest.raises(ValueError):
        transform_interval(s, LcNumber.one(LC), LcNumber.one(LC))
    with pytest.raises(TruncationError):
        a = LcNumber.one(LC).truncate(E(3))
        transform_interval(s, a, LcNumber.one(LC).truncate(E(3)))


def test_transform_sign_product_matches():
    # sign(T(1) T(2)) = sign(S(a) S(b)) on a sign-changing series
    s = PolySeries(LC, [-LcNumber.one(LC), LcNumber.one(LC), eps()])
    a, b = LcNumber.zero(LC), LcNumber.from_scalar(LC, 2)
    t = transform_interval(s, a, b)
    cut = E(5)
    sa = evaluate(s, a, cut).sign()
    sb = evaluate(s, b, cut).sign()
    t1 = evaluate(t, LcNumber.one(LC), cut).sign()
    t2 = evaluate(t, LcNumber.from_scalar(LC, 2), cut).sign()
    assert sa * sb == t1 * t2 == -1


def test_zero_correspondence_on_planted_root():
    # S = (X - (1+eps)) * (1 + eps X); root x0 = 1+eps inside [1/2, 2]
    one = LcNumber.one(LC)
    c = one + eps()
    s = PolyMulSeries([-c, one], PolySeries(LC, [one, eps()]))
    a, b = LcNumber.from_scalar(LC, F(1, 2)), LcNumber.from_scalar(LC, 2)
    t = transform_interval(s, a, b)
    cut = E(10)
    # z0 = (x0 - k)/h with h = 3/2, k = -1
    z0 = (c - t.k) * t.h.invert(E(12))
    assert evaluate(t, z0, cut).is_zero_below(cut)
    assert evaluate(s, c, cut).is_zero_below(cut)


# ------------------------------------------------------------------ normalization


def test_normalize_ratfun_example():
    f = geometric_tail_ratfun()
    ns = normalize(f, 10, E(8))
    assert ns.N == 0
    assert (ns.d - F(1, 2)).is_zero_below(E(8))
    assert str(ns.coeff(0)) == "1"
    got = ns.coeff(2)
    assert (got + eps(3) * F(1, 2)).is_zero_below(E(8))
    assert ns.validate(6)


def test_normalize_reads_pivot():
    s = PolySeries(LC, [eps(), LcNumber.one(LC), eps(3)])
    ns = normalize(s, 5, E(8))
    assert ns.N == 1
    assert (ns.d - 1).is_zero_below(E(8))
    s2 = PolySeries(LC, [-LcNumber.one(LC), LcNumber.one(LC), eps()])
    ns2 = normalize(s2, 5, E(8))
    assert ns2.N == 1
    assert (ns2.d - 1).is_zero_below(E(8))
    assert ns2.validate(4)


def test_normalize_all_infinitesimal():
    s = PolySeries(LC, [eps(2), eps(), eps(3)])
    ns = normalize(s, 5, E(8))
    assert ns.N == 1
    assert ns.vmin == E(1)
    assert ns.validate(4)


def test_normalize_zero_series():
    with pytest.raises(CertificateError):
        normalize(PolySeries(LC, []), 5, E(8))


def test_normalize_degree_cap():
    s = PolySeries(LC, [LcNumber.one(LC)] * 9)  # pivot at 8
    with pytest.raises(CertificateError):
        normalize(s, 4, E(8))


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 3)),
                min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_normalize_invariants_random(shape):
    # random restricted polynomial series: coefficient k * eps^v
    coeffs = [LcNumber.monomial(E(v), k) for k, v in shape]
    if all(c.is_exact_zero for c in coeffs):
        return
    s = PolySeries(LC, coeffs)
    ns = normalize(s, 8, E(10))
    assert ns.validate(len(coeffs) + 1)


def test_nilpotent_interval_transform_normalizes():
    s = alternating_square_series()
    t = transform_interval(s, eps(-4), eps(-6))
    assert t.h.valuation() == E(-6)
    ns = normalize(t, 12, E(12))
    assert ns.N == 3
    assert ns.vmin == E(-9)
    assert ns.validate(8)


# -------------------------------------------------------------- hahn-mode series


def test_hahn_eval_signs():
    s = hahn_alternating_series()
    cut = Exponent.hahn({1: 1})
    for h in range(2, 7):
        v = evaluate(s, eps_n(h, -1), cut)
        assert v.sign() == (1 if h % 2 == 0 else -1)
        # dominant term (-1)^h eps_h^(1-h)
        assert v.terms[0][0] == Exponent.hahn({h: 1 - h})


def test_ratfun_constraints():
    one = LcNumber.one(LC)
    with pytest.raises(CertificateError):
        RatFunSeries(LC, [one], [one + eps(), one])  # non-monomial constant term
    with pytest.raises(CertificateError):
        RatFunSeries(LC, [one], [one, one])  # tail not infinitesimal
    with pytest.raises(ZeroDivisionError):
        RatFunSeries(LC, [one], [])


def test_substituted_coeff_needs_cutoff():
    s = alternating_square_series()
    t = SubstitutedSeries(s, LcNumber.one(LC), eps())
    with pytest.raises(CertificateError):
        t.coeff(0)
    v = t.coeff(0, E(5))
    # T(0) = S(eps) = sum (-1)^n eps^(n^2+n) = 1 - eps^2 + O(eps^5)
    assert (v - (LcNumber.one(LC) - eps(2))).is_zero_below(E(5))


def test_substituted_tail_uses_exact_valuation_polynomial():
    # h = eps^-6 dominates k = 2, so the tail certificate needs the inner
    # series' exact valuation polynomial, shifted by its offset
    inner = TermRuleSeries(LC, -1, [1], ("poly", [0, 0, 1]), offset=2)
    s = SubstitutedSeries(inner, eps(-6), L("2"))
    assert inner.exact_val_poly() == [4, -4, 1]
    assert s.tail_index(E(0), E(5)) == 13
