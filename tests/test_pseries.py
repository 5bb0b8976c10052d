import time
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from lcivt import lcnum, pseries
from lcivt.dsl import parse_series
from lcivt.errors import CertificateError, ResourceCapError, TruncationError
from lcivt.hensel import poly_deriv, poly_mul
from lcivt.lcnum import HAHN, LC, Exponent, LcNumber, eps, eps_n, sum_of_products
from lcivt.polys import pshift
from lcivt.pseries import (
    NormalizedSeries,
    PolyMulSeries,
    PolySeries,
    RatFunSeries,
    SubstitutedSeries,
    SumSeries,
    TermRuleSeries,
    evaluate,
    normalize,
    partial_sum,
    transform_interval,
)
from lcivt.realalg import RealAlgebraic

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


def assert_normalized(ns, up_to):
    """The normalization invariants on coefficients 0 .. up_to - 1: the
    pivot is exactly 1, every coefficient lies in the valuation ring, and
    those above the pivot are infinitesimal."""
    zero = Exponent.zero(ns.mode)
    assert ns.coeff(ns.N).is_exact and ns.coeff(ns.N) == 1
    for n in range(up_to):
        v = ns.coeff(n).val_lb()
        if v is None:
            continue
        assert v.compare(zero) >= 0, "coefficient %d outside the valuation ring" % n
        if n > ns.N:
            assert v.compare(zero) > 0, "coefficient %d above the pivot not infinitesimal" % n


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


def test_poly_multiple_rejects_a_coefficient_of_the_other_mode():
    with pytest.raises(ValueError, match="mode mismatch"):
        PolyMulSeries([eps_n(1)], alternating_square_series())
    with pytest.raises(ValueError, match="mode mismatch"):
        PolyMulSeries([LcNumber.one(HAHN), eps()], hahn_alternating_series())


# ------------------------------------------------------------------ partial sums


def test_partial_sum_examples():
    s = alternating_square_series()
    assert [str(c) for c in partial_sum(s, 2)] == ["1", "-eps", "eps^4"]
    assert [str(c) for c in partial_sum(s, 0)] == ["1"]
    t = SumSeries(s, PolyMulSeries([-1], s))
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


@pytest.mark.parametrize("mode", [LC, HAHN])
@pytest.mark.parametrize("lead", [0, 1])
def test_eval_rejects_shallow_coefficient_truncation(mode, lead):
    # a_1 = lead + O(eps) is known only below eps, so the value at 1 is too:
    # a cutoff of eps^5 cannot be certified, whether or not a_1 has a term
    small = eps() if mode == LC else eps_n(1)
    a1 = LcNumber(mode, [(Exponent.zero(mode), lead)] if lead else [], small.terms[0][0])
    cut = E(5) if mode == LC else Exponent.hahn({1: 5})
    with pytest.raises(TruncationError):
        evaluate(PolySeries(mode, [1, a1]), LcNumber.one(mode), cut)


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


@st.composite
def derivative_cases(draw, mode):
    """(series, xval, target, strict): a ``poly:``, ``term:`` or ``ratfun:``
    source, possibly times a ``polymul:``, summed with a second source, or
    substituted onto an interval; xval is nonnegative."""
    e1, e2 = ("eps", "eps^2") if mode == LC else ("eps[1]", "eps[2]")

    def q(lo, hi):
        return F(draw(st.integers(lo, hi)), draw(st.sampled_from([1, 2])))

    def c():
        return draw(st.integers(-3, 3))

    def exponent(v):
        return Exponent.lc(v) if mode == LC else Exponent.hahn({1: v})

    def source():
        kind = draw(st.sampled_from(["poly", "term", "ratfun", "polymul"]))
        if kind == "poly":
            return "poly: %d, %d%+d*%s, %d*%s, 1" % (c(), c(), c(), e1, c(), e2)
        if kind == "term":
            expo = draw(st.sampled_from(["n^2", "2*n+1", "1/2*n^2+n"] if mode == LC
                                        else ["seq(n)", "seq(n+1)"]))
            return "term: sign=(%s1)^n prefactor=%d*n+1 expo=%s offset=%d" % (
                draw(st.sampled_from("+-")), draw(st.integers(1, 3)), expo,
                draw(st.integers(0, 2)))
        ratfun = "ratfun: (%d%+d*%s*X) / (1 - %d*%s*X + %s*X^2)" % (
            draw(st.integers(1, 3)), c(), e1, draw(st.integers(1, 2)), e1, e2)
        return ratfun if kind == "ratfun" else ratfun + "\npolymul: %d, -2, 1" % c()

    src = source()
    if draw(st.booleans()):
        src += "\n%s\nsum:" % source()
    s = parse_series(src, mode)
    if draw(st.booleans()):
        a = q(-2, 1)
        s = transform_interval(s, a, a + draw(st.sampled_from([F(1, 2), 1, 2])))
    return s, exponent(q(0, 4)), exponent(q(-2, 8)), draw(st.booleans())


@pytest.mark.parametrize("mode", [LC, HAHN])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_derivative_is_the_shifted_coefficient_map(mode, data):
    s, xval, target, strict = data.draw(derivative_cases(mode))
    one = Exponent.lc(1) if mode == LC else Exponent.hahn({1: 1})
    cut = target + one
    d1 = s.derivative()
    for d, base in ((d1, s), (d1.derivative(), d1)):
        # coefficient n is (n+1)*a_(n+1): terms, coefficients and marker
        for n in range(6):
            got, want = d.coeff(n, cut), base.coeff(n + 1, cut) * (n + 1)
            assert got.cutoff == want.cutoff
            assert [e for e, _ in got.terms] == [e for e, _ in want.terms]
            assert all(cg == cw for (_, cg), (_, cw) in zip(got.terms, want.terms))
        # the certificate: every term from the tail index on clears the target ...
        tail = d.tail_index(xval, target, strict)
        for n in range(tail, tail + 12):
            need = target - xval.scale(n)
            v = d.coeff(n, need + one).val_lb()
            cmp = None if v is None else v.compare(need)
            assert cmp is None or cmp > 0 or (cmp == 0 and not strict), (n, tail)
        # ... and reads no coefficient of S past S's own certificate at x
        assert tail + 1 <= max(base.tail_index(xval, target + xval, strict), 1)


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
    assert_normalized(ns, 6)


def test_normalize_reads_pivot():
    s = PolySeries(LC, [eps(), LcNumber.one(LC), eps(3)])
    ns = normalize(s, 5, E(8))
    assert ns.N == 1
    assert (ns.d - 1).is_zero_below(E(8))
    s2 = PolySeries(LC, [-LcNumber.one(LC), LcNumber.one(LC), eps()])
    ns2 = normalize(s2, 5, E(8))
    assert ns2.N == 1
    assert (ns2.d - 1).is_zero_below(E(8))
    assert_normalized(ns2, 4)


def test_normalize_all_infinitesimal():
    s = PolySeries(LC, [eps(2), eps(), eps(3)])
    ns = normalize(s, 5, E(8))
    assert ns.N == 1
    assert ns.vmin == E(1)
    assert_normalized(ns, 4)


def test_normalize_scans_again_past_the_first_certificate(monkeypatch):
    # the certificate is monotone in the target, so the rescan fires only
    # when the first scan's vmin is positive: coefficient 0, 2*eps^5, sets
    # vmin = 5, whose certificate is index 5 (n^2 - 4n > 0 from n = 5 on),
    # past the 1 coefficient of the first scan; the second scan finds eps
    # at n = 2, whose certificate is index 3
    s = parse_series("poly: eps^5\nterm: sign=(+1)^n scale=1 expo=n^2-4*n+5\nsum:", LC)
    assert s.tail_index(E(0), E(0), strict=True) == 1
    assert s.tail_index(E(0), E(5), strict=True) == 5
    assert s.tail_index(E(0), E(1), strict=True) == 3
    seen, coeff = [], s.coeff
    monkeypatch.setattr(s, "coeff", lambda n, cutoff=None: seen.append(n) or coeff(n, cutoff))
    ns = normalize(s, 20, E(6))
    vals = [(n, c.terms[0][0]) for n in range(20) if (c := coeff(n, E(6))).terms]
    vmin = min(v for _, v in vals)
    assert (ns.N, ns.vmin) == (max(n for n, v in vals if v == vmin), vmin) == (2, E(1))
    assert max(seen) == 4  # the second scan read coefficients 1..4


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
    assert_normalized(ns, len(coeffs) + 1)


def test_nilpotent_interval_transform_normalizes():
    s = alternating_square_series()
    t = transform_interval(s, eps(-4), eps(-6))
    assert t.h.valuation() == E(-6)
    ns = normalize(t, 12, E(12))
    assert ns.N == 3
    assert ns.vmin == E(-9)
    assert_normalized(ns, 8)


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


def test_substituted_coeff_of_infinite_inner_carries_the_cutoff():
    # the sum up to the inner tail index, 1 - eps^2 + eps^6 - ... - eps^56,
    # is not T_0 = sum (-1)^n eps^(n^2+n), which goes on with +eps^72
    one = LcNumber.one(LC)
    v = SubstitutedSeries(alternating_square_series(), one, eps()).coeff(0, E(5))
    assert v.cutoff == E(5)
    assert str(v) == "1 - eps^2 + O(eps^5)"
    # finite sums stay exact: a polynomial inner, or k = 0 (T_m = c_m*h^m)
    p = SubstitutedSeries(PolySeries(LC, [1, -1, 1]), one, eps()).coeff(0, E(1))
    assert str(p) == "1 - eps + eps^2"
    z = SubstitutedSeries(alternating_square_series(), eps(), LcNumber.zero(LC)).coeff(2, E(5))
    assert str(z) == "eps^6"


def count_kernel_calls(monkeypatch):
    """Route the kernel, where lcnum and pseries call it, through a counter;
    the returned list gets the number of pairs of each call."""
    calls = []
    kernel = lcnum.sum_of_products

    def counted(pairs, *args, **kwargs):
        calls.append(len(pairs))
        return kernel(pairs, *args, **kwargs)

    monkeypatch.setattr(lcnum, "sum_of_products", counted)
    monkeypatch.setattr(pseries, "sum_of_products", counted)
    return calls


def test_substituted_coeff_is_one_shift_per_cutoff(monkeypatch):
    # the ivt-gappy transform: val h = val k = -6, so one shift serves every m
    inner = alternating_square_series()
    t = transform_interval(inner, eps(-4), eps(-6))
    grids, asked, products = [], [], []

    class CountedGrid(lcnum._Grid):
        def __init__(self, *args):
            grids.append(args)
            super().__init__(*args)

    rule, accumulate = inner.coeff, lcnum._Grid.accumulate
    monkeypatch.setattr(pseries, "_Grid", CountedGrid)
    monkeypatch.setattr(inner, "coeff", lambda n, cutoff=None: asked.append(n) or rule(n, cutoff))
    monkeypatch.setattr(lcnum._Grid, "accumulate",
                        lambda *args: products.append(args) or accumulate(*args))
    calls = count_kernel_calls(monkeypatch)
    deep = [t.coeff(m, E(23)) for m in range(10)]
    # one grid, each c_n asked for once, no sum_of_products
    assert len(grids) == 1 and calls == []
    # n^2 - 6n >= 23 from n = 9 on: the inner tail index at val k = -6
    assert sorted(asked) == list(range(9))
    del grids[:], asked[:], products[:]
    shallow = [t.coeff(m, E(14)) for m in range(10)]
    # shallower requests truncate the deeper answers: no grid, no inner
    # coefficient, no accumulation
    assert grids == [] and asked == [] and products == [] and calls == []
    assert [v.terms for v in shallow] == [v.truncate(E(14)).terms for v in deep]
    assert all(v.cutoff == E(14) for v in shallow)


def test_cutoff_none_is_answered_only_from_an_entry_under_none():
    # k = 0 gives an exact T_m under a cutoff, but an infinite inner series
    # still has no coefficient without one; track-zeros reads that raise
    t = SubstitutedSeries(alternating_square_series(), L("2"), LcNumber.zero(LC))
    assert str(t.coeff(0, E(8))) == "1"
    with pytest.raises(CertificateError):
        t.coeff(0)
    scaled = PolyMulSeries([eps()], t)
    scaled.coeff(1, E(8))
    with pytest.raises(CertificateError):
        scaled.coeff(1)


def test_shallower_request_keeps_the_marker_a_fresh_series_gives():
    leaf = (L("1") + eps() + eps(6)).truncate(E(5))  # 1 + eps + O(eps^5)
    makers = [lambda: PolySeries(LC, [leaf, eps()]),
              lambda: RatFunSeries(LC, [leaf], [LcNumber.one(LC), -eps()]),
              lambda: SumSeries(PolySeries(LC, [leaf, eps()]),
                                PolyMulSeries([eps()], alternating_square_series())),
              lambda: PolyMulSeries([L("3")], PolySeries(LC, [leaf, eps()])),
              lambda: PolyMulSeries([L("1"), eps()], PolySeries(LC, [leaf, eps()]))]
    for make in makers:
        for n in range(3):
            fresh = make().coeff(n, E(3))
            s = make()
            s.coeff(n, E(7))
            got = s.coeff(n, E(3))
            assert (got.terms, got.cutoff) == (fresh.terms, fresh.cutoff), (make(), n)
    # the cutoff-free leaf keeps its own marker under any cutoff
    assert PolySeries(LC, [leaf]).coeff(0, E(3)).cutoff == E(5)


def test_repeated_coefficient_query_makes_no_kernel_call(monkeypatch):
    one, inner, ratfun = LcNumber.one(LC), alternating_square_series(), geometric_tail_ratfun()
    series = [PolySeries(LC, [1, eps(), 2]), inner, ratfun, SumSeries(inner, ratfun),
              PolyMulSeries([eps()], inner), PolyMulSeries([one, eps()], inner),
              SubstitutedSeries(inner, one + eps(), eps()), normalize(ratfun, 4, E(6))]
    assert isinstance(series[-1], NormalizedSeries)
    first = [s.coeff(n, E(6)) for s in series for n in range(4)]
    calls = count_kernel_calls(monkeypatch)
    again = [s.coeff(n, E(6)) for s in series for n in range(4)]
    assert calls == []
    assert all(a is b for a, b in zip(first, again))


def test_substituted_tail_uses_exact_valuation_polynomial():
    # h = eps^-6 dominates k = 2, so the tail certificate needs the inner
    # series' exact valuation polynomial, shifted by its offset
    inner = TermRuleSeries(LC, -1, [1], ("poly", [0, 0, 1]), offset=2)
    s = SubstitutedSeries(inner, eps(-6), L("2"))
    assert inner.exact_val_poly() == [4, -4, 1]
    assert s.tail_index(E(0), E(5)) == 13


def test_tail_index_is_computed_once_per_query():
    inner = TermRuleSeries(LC, 1, [1], ("poly", [0, 1]))
    s = SubstitutedSeries(inner, eps(), L("1"))
    calls = []
    rule = inner.tail_index
    inner.tail_index = lambda *args: calls.append(args) or rule(*args)
    first = s.tail_index(E(0), E(5))
    assert calls
    seen = len(calls)
    # a repeated query is answered from the outer series' memo
    assert s.tail_index(E(0), E(5)) == first
    assert len(calls) == seen
    # a different query is not
    s.tail_index(E(0), E(6))
    assert len(calls) > seen


# ------------------------------------------------------ sum-of-products call sites


def binomial_loop_coeff(t, m, cutoff):
    """T_m of T(Z) = S(h*Z + k) for k != 0, one binomial term at a time,
    each product merged into the sum by ``__add__``, each c_n asked for
    below its own term's cutoff: the loop that ``SubstitutedSeries.coeff``
    replaced by the encoded Taylor shift.  An infinite inner sum is
    truncated at the cutoff."""
    one = LcNumber.one(t.mode)
    hpow, kpow = [one], [one]
    fin = t.inner.finite_degree()
    vh, vk = t.h.val_lb(), t.k.val_lb()
    if fin is not None:
        n1 = fin + 1
    else:
        n1 = t.inner.tail_index(vk, cutoff - vh.scale(m) + vk.scale(m))
    while len(hpow) <= m:
        hpow.append(hpow[-1] * t.h)
    acc = LcNumber.zero(t.mode)
    for n in range(m, max(n1, m)):
        while len(kpow) <= n - m:
            kpow.append(kpow[-1] * t.k)
        inner_cut = None if cutoff is None else cutoff - vh.scale(m) - vk.scale(n - m)
        c = t.inner.coeff(n, inner_cut)
        if c.is_exact_zero:
            continue
        acc = acc + c * comb(n, m) * hpow[m] * kpow[n - m]
    keep = cutoff is None or (acc.cutoff is None and fin is not None)
    return acc if keep else acc.truncate(cutoff)


def assert_same_rendering(got, want):
    """str(got) == str(want) once both have been printed: printing refines
    the shared generator bracket that the rendering reads, so the first
    print of either can change the other's string."""
    str(got), str(want)
    assert str(got) == str(want)


SQRT2 = RealAlgebraic(2).nth_root(2)


def substitution_cases():
    """Inners of each rule kind in both modes, one of them substituted (its
    coefficients are truncated where they are asked); rational h and k of
    equal valuations, or one of them infinitesimal; a k with a sqrt(2)
    coefficient, and that k with an h with a sqrt(3) coefficient, whose
    products mix two generators.  Each case gets fresh inner series, whose
    memos would otherwise carry answers from run to run."""
    sqrt3 = RealAlgebraic(3).nth_root(2)

    def inners(mode):
        if mode == LC:
            return {"poly": PolySeries(LC, [L("1"), L("-2") + eps(), eps(), L("3")]),
                    "term": alternating_square_series(),
                    "ratfun": geometric_tail_ratfun(),
                    "subst": SubstitutedSeries(alternating_square_series(), L("1"), eps())}
        one = LcNumber.one(HAHN)
        return {"poly": PolySeries(HAHN, [eps_n(1), one, -eps_n(2)]),
                "term": hahn_alternating_series(),
                "ratfun": RatFunSeries(HAHN, [one], [one, -eps_n(1)]),
                "subst": SubstitutedSeries(hahn_alternating_series(), one, eps_n(1))}

    for mode, x, cut in ((LC, eps(), E(4)), (HAHN, eps_n(1), Exponent.hahn({1: 3}))):
        def c(v):
            return LcNumber.from_scalar(mode, v) + x
        for hk, h, k in (("rational", c(F(1, 2)), c(F(-1, 2))),
                         ("small-k", c(F(1, 2)), x), ("small-h", x, c(F(-1, 2))),
                         ("sqrt2", c(F(1, 2)), c(SQRT2)),
                         ("sqrt3-sqrt2", c(sqrt3), c(SQRT2))):
            for iname in inners(mode):
                yield pytest.param(lambda mode=mode, iname=iname: inners(mode)[iname],
                                   h, k, cut, id="%s-%s-%s" % (mode, iname, hk))


@pytest.mark.parametrize("make_inner, h, k, cutoff", substitution_cases())
def test_substituted_coeff_matches_binomial_loop(make_inner, h, k, cutoff):
    zeros = 0
    # deep then shallow, and shallow then deep, each on fresh series; the
    # oracle on fresh series too, so that no memo answers it
    for cuts in ([cutoff + cutoff, cutoff], [cutoff, cutoff + cutoff]):
        t = SubstitutedSeries(make_inner(), h, k)
        for cut, m in [(cut, m) for cut in cuts for m in range(8)]:
            got = t.coeff(m, cut)
            want = binomial_loop_coeff(SubstitutedSeries(make_inner(), h, k), m, cut)
            # the same terms below the oracle's marker, and a marker no lower
            if want.cutoff is None:
                assert got.cutoff is None
            else:
                assert got.cutoff is not None and got.cutoff >= want.cutoff
                got = got.truncate(want.cutoff)
            assert_same_rendering(got, want)
            assert got.cutoff == want.cutoff
            assert [e for e, _ in got.terms] == [e for e, _ in want.terms]
            assert all(cg == cw for (_, cg), (_, cw) in zip(got.terms, want.terms))
            zeros += not want.terms
    assert zeros  # some m lies past the inner tail index


def test_substituted_coeff_builds_one_shift_when_val_k_exceeds_val_h(monkeypatch):
    # h = 1 + eps, k = eps: at eps^12 the inner tail index of T_m is the
    # least n with n^2 + n >= 12 + m, 3 for m = 0 and 4 for m = 1..7, so the
    # one shift, built at m = 0, holds the 4 coefficients that T_1 needs
    def make():
        return SubstitutedSeries(alternating_square_series(), L("1") + eps(), eps())

    lengths, shift = [], pseries.SubstitutedSeries._shift
    monkeypatch.setattr(pseries.SubstitutedSeries, "_shift",
                        lambda self, *args: lengths.append(args[1]) or shift(self, *args))
    t = make()
    got = [t.coeff(m, E(12)) for m in range(8)]
    assert lengths == [4]
    for m, g in enumerate(got):
        want = binomial_loop_coeff(make(), m, E(12))
        assert g.cutoff is not None and g.cutoff >= want.cutoff
        assert_same_rendering(g.truncate(want.cutoff), want)


@st.composite
def shift_cases(draw, mode):
    """(p, c): up to 6 coefficients, each an exact zero, a truncated zero or
    up to three terms, some with a sqrt(2) coefficient, some truncated, the
    last one nonzero; c drawn the same way.  hahn exponents sometimes carry
    a second index."""
    def exponent(lo, hi):
        q = F(draw(st.integers(lo, hi)), draw(st.sampled_from([1, 2])))
        if mode == LC:
            return Exponent.lc(q)
        more = draw(st.sampled_from([{}, {}, {2: F(draw(st.integers(-2, 2)))}]))
        return Exponent.hahn({1: q, **more})

    def number():
        kind = draw(st.sampled_from(["zero", "truncated zero", "terms", "terms", "terms"]))
        x = LcNumber.zero(mode)
        if kind == "truncated zero":
            return x.truncate(exponent(0, 6))
        for _ in range(draw(st.integers(1, 3)) if kind == "terms" else 0):
            c = RealAlgebraic(F(draw(st.integers(1, 4)) * draw(st.sampled_from([1, -1])),
                                draw(st.sampled_from([1, 2]))))
            x = x + LcNumber.monomial(exponent(-2, 4), c * SQRT2 if draw(st.booleans()) else c)
        return x.truncate(exponent(0, 6)) if draw(st.booleans()) else x

    p = [number() for _ in range(draw(st.integers(1, 6)))]
    if p[-1].is_exact_zero:
        p[-1] = LcNumber.one(mode)
    return p, number()


@pytest.mark.parametrize("mode", [LC, HAHN])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_polynomial_taylor_shift_matches_pshift(mode, data):
    # pshift needs ring operations only, so it is the reference: the same
    # exponents, coefficients and marker for every coefficient
    p, c = data.draw(shift_cases(mode))
    t = SubstitutedSeries(PolySeries(mode, p), LcNumber.one(mode), c)
    for got, want in zip([t.coeff(m) for m in range(len(p))], pshift(p, c), strict=True):
        assert got.cutoff == want.cutoff
        assert [e for e, _ in got.terms] == [e for e, _ in want.terms]
        assert all(cg == cw for (_, cg), (_, cw) in zip(got.terms, want.terms))


def test_ratfun_tail_scan_cap_names_itself(monkeypatch):
    # the coefficients -eps^(n+1) clear eps^10 from n = 9 on: one index is
    # not enough
    assert geometric_tail_ratfun().tail_index(E(0), E(10)) == 9
    monkeypatch.setattr(pseries, "_TAIL_CAP", 8)
    with pytest.raises(ResourceCapError,
                       match=r"tail index 9 is past the cap _TAIL_CAP = 8 at target 10"):
        geometric_tail_ratfun().tail_index(E(0), E(10))


def test_tail_certificate_fails_at_once():
    # no multiple of val(eps[1]*X) reaches eps[2]: no certificate
    one = LcNumber.one(HAHN)
    with pytest.raises(CertificateError, match="no convergence certificate"):
        RatFunSeries(HAHN, [one], [one, -eps_n(1)]).tail_index(Exponent.zero(HAHN),
                                                               Exponent.hahn({2: 1}))
    # coefficients eps^(n/1000) reach eps^200 from about n = 200000 on, more
    # terms than _TAIL_CAP allows, whatever rule certifies it
    lc_one = LcNumber.one(LC)
    with pytest.raises(ResourceCapError, match=r"tail index 200000 is past the cap _TAIL_CAP"):
        RatFunSeries(LC, [lc_one], [lc_one, -eps(F(1, 1000))]).tail_index(E(0), E(200))
    with pytest.raises(ResourceCapError, match=r"tail index 200000 is past the cap _TAIL_CAP"):
        TermRuleSeries(LC, 1, [1], ("poly", [0, F(1, 1000)])).tail_index(E(0), E(200))


@st.composite
def term_rule_tail_cases(draw):
    """(series, val x, target, strict, psi): an lc term rule with an exponent
    of degree 1-3 and a positive lead, with psi(m) = expo(m) + (m + offset)
    * val x - target of positive lead and degree at least 1."""
    frac = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3)))
    expo = draw(st.lists(frac, min_size=1, max_size=3))
    expo.append(F(draw(st.integers(1, 4)), draw(st.sampled_from((1, 2)))))
    pref = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any))
    offset, vx, target = draw(st.integers(0, 3)), draw(frac), draw(frac) * 3
    psi = list(expo)
    psi[0] += offset * vx - target
    psi[1] += vx
    assume(psi[-1] > 0)
    s = TermRuleSeries(LC, draw(st.sampled_from((1, -1))), pref, ("poly", expo), offset)
    return s, vx, target, draw(st.booleans()), psi


@given(term_rule_tail_cases(), st.integers(1, 20))
@settings(max_examples=200, deadline=None)
def test_term_rule_tail_index_is_the_least_passing_index(case, raise_by):
    # the least N with psi(m) >= 0 (> 0 when strict) at every m >= N, found
    # by scanning every m below the Cauchy bound; a larger target can only
    # raise it
    s, vx, target, strict, psi = case
    bound = 1 + sum(abs(c) for c in psi[:-1]) / psi[-1]
    fails = [m for m in range(int(bound) + 1)
             if (v := sum(c * m ** i for i, c in enumerate(psi))) < 0 or strict and v == 0]
    want = (max(fails) + 1 if fails else 0) + s.offset
    assert s.tail_index(E(vx), E(target), strict) == want
    assert s.tail_index(E(vx), E(target + F(raise_by, 2)), strict) >= want


def test_term_rule_tail_index_of_a_huge_target_fails_at_once():
    # n^2 >= 10^12 from n = 10^6 on: the cap fires after a bisection, not a scan
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match=r"tail index 1000000 is past the cap _TAIL_CAP "
                                               r"= 100000 at target 1000000000000$"):
        alternating_square_series().tail_index(E(0), E(10 ** 12))
    assert time.perf_counter() - start < 0.1


def test_term_rule_tail_index_of_a_dense_exponent_is_quick():
    # a dense degree-20 exponent of mixed signs: the Sturm chain's
    # coefficients must stay small, or the index stalls on huge integers
    expo = [F((-1) ** i * (3 * i + 1), 1 + i % 3) for i in range(20)] + [F(1)]
    s = TermRuleSeries(LC, -1, [1], ("poly", expo), 2)
    psi = list(expo)
    psi[0] += 2 * F(-5, 2) - 7
    psi[1] += F(-5, 2)
    bound = 1 + sum(abs(c) for c in psi[:-1])
    fails = [m for m in range(int(bound) + 1) if sum(c * m ** i for i, c in enumerate(psi)) <= 0]
    start = time.perf_counter()
    assert s.tail_index(E(F(-5, 2)), E(7), strict=True) == max(fails) + 1 + 2 == 29
    assert time.perf_counter() - start < 0.5


def scan_tail_index(s, xval, target, strict, windows=1000):
    """A RatFunSeries' tail index by scanning n = N_base+1, N_base+2, ...
    for the first window of K indices j whose bounds L1 +
    delta*floor((j-N_base-1)/K) + j*xval all reach the target (pass it
    when ``strict``): the reference for the closed form.  None when the
    bound does not grow with j, or no window within ``windows`` passes."""
    if s._delta is None:
        return len(s.num)
    l1, k, nb = s._block_floor()
    if l1 is None:
        return nb + 1
    if (s._delta + xval.scale(k)).sign() <= 0:
        return None
    for n in range(nb + 1, nb + 1 + windows):
        cmps = [(l1 + s._delta.scale((j - nb - 1) // k) + xval.scale(j)).compare(target)
                for j in range(n, n + k)]
        if all(c > 0 or (c == 0 and not strict) for c in cmps):
            return n
    return None


def ratfun_tail_cases(mode):
    """(series, xval, target, strict): a numerator and a denominator tail
    of up to three coefficients each, of one or two terms, the tail above
    the exact monomial constant term, and xval of either sign."""
    if mode == LC:
        exps = st.builds(F, st.integers(-6, 6), st.integers(1, 3)).map(Exponent.lc)
        tails = st.builds(F, st.integers(1, 6), st.integers(1, 3)).map(Exponent.lc)
        xvals = st.builds(F, st.integers(-3, 3), st.integers(1, 2)).map(Exponent.lc)
    else:
        qs = st.builds(F, st.integers(-4, 4), st.integers(1, 2))
        exps = st.dictionaries(st.integers(1, 2), qs, max_size=2).map(Exponent.hahn)
        tails = exps.filter(lambda e: e.sign() > 0)
        xvals = exps
    coeffs = st.builds(F, st.integers(-3, 3), st.integers(1, 2)).filter(bool)
    num = st.lists(st.lists(st.tuples(exps, coeffs), min_size=1, max_size=2).map(
        lambda ts: LcNumber(mode, ts)), min_size=1, max_size=3)

    @st.composite
    def cases(draw):
        v0 = draw(exps)
        den = [LcNumber.monomial(v0, draw(coeffs))]
        for t in draw(st.lists(st.lists(st.tuples(tails, coeffs), min_size=1, max_size=2),
                               min_size=1, max_size=3)):
            den.append(LcNumber(mode, [(v0 + e, c) for e, c in t]))
        return RatFunSeries(mode, draw(num), den), draw(xvals), draw(exps), draw(st.booleans())

    return cases()


@pytest.mark.parametrize("mode", [LC, HAHN])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_ratfun_tail_index_matches_scan(mode, data):
    s, xval, target, strict = data.draw(ratfun_tail_cases(mode))
    l1, k, nb = s._block_floor() if s._delta is not None else (None, 0, 0)
    if l1 is not None and data.draw(st.booleans()):
        # a target that the bound at some index j meets exactly, where
        # strict and not strict differ
        j = nb + 1 + data.draw(st.integers(0, 3 * k))
        target = l1 + s._delta.scale((j - nb - 1) // k) + xval.scale(j)
    want = scan_tail_index(s, xval, target, strict)
    if want is None:
        with pytest.raises(CertificateError):
            s.tail_index(xval, target, strict)
    else:
        assert s.tail_index(xval, target, strict) == want


def test_coeff_truncates_the_rule_answer_at_the_cutoff():
    # a rule may answer deeper than asked: coeff cuts an inexact answer at
    # the requested cutoff and leaves an exact one exact
    deep, exact = LcNumber(LC, [(E(1), 1), (E(4), 1)], E(9)), eps(5)

    class Deep(pseries.PSeries):
        def _coeff(self, n, cutoff):
            return deep if n == 0 else exact

    s = Deep(LC)
    got = s.coeff(0, E(3))
    assert [e for e, _ in got.terms] == [E(1)] and got.cutoff == E(3)
    assert s.coeff(1, E(3)) is exact
    assert s.coeff(0) is deep


def test_substituted_tail_scan_cap_names_itself(monkeypatch):
    # S(Z + 1) with S = sum (-1)^n eps^(n^2) X^n, whose own tail index is a
    # closed form: the scan over m runs to 4, the first n with n^2 >= 10
    def make():
        return SubstitutedSeries(alternating_square_series(), L("1"), L("1"))

    assert make().tail_index(E(0), E(10)) == 4
    # the scan ends at the inner tail index, so the inner series' cap ends it
    monkeypatch.setattr(pseries, "_TAIL_CAP", 3)
    with pytest.raises(ResourceCapError, match=r"past the cap _TAIL_CAP = 3 at target 10"):
        make().tail_index(E(0), E(10))


@pytest.mark.parametrize("mode", [LC, HAHN])
def test_ratfun_derivative_matches_separate_products(mode):
    x = eps() if mode == LC else eps_n(1)
    one = LcNumber.one(mode)

    def build(m):
        """num and den over new generators sqrt(2) and sqrt(m): each side
        starts from the same brackets, which arithmetic refines in place."""
        r2 = LcNumber.from_scalar(mode, RealAlgebraic(2).nth_root(2))
        rm = r2 if m == 2 else LcNumber.from_scalar(mode, RealAlgebraic(m).nth_root(2))
        return [r2 + x, -(x * 3), rm * x * x], [one, -(rm * x), x * x * 2]

    # one generator, and two whose sums make new generators
    for m in (2, 3):
        d = RatFunSeries(mode, *build(m)).derivative()
        num, den = build(m)
        # num'*den - num*den' in one weighted kernel call ...
        got = sum_of_products([(poly_deriv(num), den), (num, poly_deriv(den))], weights=(1, -1))
        while got and got[-1].is_exact_zero:
            got.pop()
        # ... against each product separately, the difference by __add__
        a, b = poly_mul(poly_deriv(num), den), poly_mul(num, poly_deriv(den))
        want = [(a[i] if i < len(a) else LcNumber.zero(mode))
                + (-b[i] if i < len(b) else LcNumber.zero(mode))
                for i in range(max(len(a), len(b)))]
        while want and want[-1].is_exact_zero:
            want.pop()
        assert [str(c) for c in got] == [str(c) for c in want]
        for g, w in zip(got, want):
            assert g.cutoff == w.cutoff and (g - w).is_exact_zero
        # the quotient rule over den^2 is the oracle for the coefficient map
        quotient = RatFunSeries(mode, got, poly_mul(den, den))
        for n in range(8):
            g, w = d.coeff(n), quotient.coeff(n)
            assert str(g) == str(w) and g.cutoff == w.cutoff and (g - w).is_exact_zero
            assert [e for e, _ in g.terms] == [e for e, _ in w.terms]
