from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from lcivt.errors import ResourceCapError, TruncationError
from lcivt.lcnum import HAHN, LC, Exponent, LcNumber, eps, eps_n, max_terms_cap
from lcivt.realalg import RealAlgebraic

from conftest import E, L


def small_fractions(num=9, den=4):
    return st.builds(F, st.integers(-num, num), st.integers(1, den))


def lc_numbers(max_terms=3):
    """Exact lc-mode values with small rational coefficients and exponents."""
    term = st.tuples(small_fractions(6, 3), small_fractions(6, 2))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: LcNumber(LC, [(Exponent.lc(e), RealAlgebraic(c)) for e, c in ts]))


def hahn_numbers(max_terms=3):
    exp = st.dictionaries(st.integers(1, 3), small_fractions(4, 2), max_size=2)
    term = st.tuples(exp, small_fractions(6, 3))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: LcNumber(HAHN, [(Exponent.hahn(e), RealAlgebraic(c)) for e, c in ts]))


# ----------------------------------------------------------------- construction


def test_make_canonicalizes():
    x = LcNumber(LC, [(E(0), 1), (E(1), 1)])
    assert str(x) == "1 + eps"
    y = LcNumber(LC, [(E(1), 1), (E(1), -1)])
    assert y.is_exact_zero
    z = LcNumber(HAHN, [(Exponent.hahn({2: 1}), 1)])
    assert str(z) == "eps[2]"


def test_mode_mixing_rejected():
    with pytest.raises(ValueError, match="mode"):
        LcNumber(LC, [(Exponent.hahn({1: 1}), 1)])
    with pytest.raises(ValueError, match="mode"):
        eps() + eps_n(1)


# ------------------------------------------------------------------ comparison


def test_compare_examples():
    assert eps(F(1, 2)).compare(eps()) == 1
    assert eps(-1).compare(L("1000000")) == 1
    assert eps_n(2).compare(eps_n(1).pow_int(7)) == -1


def test_compare_truncated_undecidable():
    a = L("1").truncate(E(3))
    b = L("1").truncate(E(3))
    with pytest.raises(TruncationError):
        a.compare(b)
    # decidable when a stored term sits below both cutoffs
    assert (a + eps()).compare(b) == 1


def test_hahn_axiom_grid():
    # eps_n^i > eps_{n+1} and eps_1*eps_n > eps_{n+1}
    for n in range(1, 4):
        for i in range(1, 8):
            assert eps_n(n).pow_int(i).compare(eps_n(n + 1)) == 1
        assert (eps_n(1) * eps_n(n)).compare(eps_n(n + 1)) == 1


# ------------------------------------------------------------------ arithmetic


def test_arith_examples(lc_one):
    assert str((lc_one + eps()) * (lc_one - eps())) == "1 - eps^2"
    assert str(eps(F(1, 2)).pow_int(2)) == "eps"
    p = eps_n(1) * eps_n(2)
    assert p.valuation() == Exponent.hahn({1: 1, 2: 1})
    assert p.compare(eps_n(2)) == -1
    assert p.compare(eps_n(3)) == 1


@given(lc_numbers(), lc_numbers(), lc_numbers())
@settings(max_examples=80, deadline=None)
def test_lc_field_laws(a, b, c):
    assert ((a + b) + c).compare(a + (b + c)) == 0
    assert (a + b).compare(b + a) == 0
    assert ((a * b) * c).compare(a * (b * c)) == 0
    assert (a * b).compare(b * a) == 0
    assert (a * (b + c)).compare(a * b + a * c) == 0


@given(hahn_numbers(), hahn_numbers(), hahn_numbers())
@settings(max_examples=40, deadline=None)
def test_hahn_field_laws(a, b, c):
    assert ((a + b) + c).compare(a + (b + c)) == 0
    assert (a * (b + c)).compare(a * b + a * c) == 0


@given(lc_numbers(), lc_numbers(), lc_numbers())
@settings(max_examples=80, deadline=None)
def test_order_compatibility(a, b, c):
    if a.compare(b) < 0:
        assert (a + c).compare(b + c) < 0
    if a.compare(LcNumber.zero(LC)) > 0 and b.compare(LcNumber.zero(LC)) > 0:
        assert (a * b).compare(LcNumber.zero(LC)) > 0


@given(lc_numbers(), lc_numbers())
@settings(max_examples=80, deadline=None)
def test_valuation_identities(a, b):
    if a.is_exact_zero or b.is_exact_zero:
        return
    assert (a * b).valuation() == a.valuation() + b.valuation()
    s = a + b
    if not s.is_exact_zero:
        mn = min(a.valuation(), b.valuation())
        assert s.valuation().compare(mn) >= 0
        if a.valuation() != b.valuation():
            assert s.valuation() == mn


# ------------------------------------------------------------------- valuation


def test_valuation_examples():
    assert (3 * eps(F(3, 2)) + eps(2)).valuation() == Exponent.lc(F(3, 2))
    assert L("5").valuation() == E(0)
    assert (eps_n(2) + eps_n(1)).valuation() == Exponent.hahn({1: 1})
    with pytest.raises(ValueError):
        LcNumber.zero(LC).valuation()
    with pytest.raises(TruncationError):
        LcNumber.zero(LC).truncate(E(5)).valuation()


# ------------------------------------------------------------------- inversion


def test_invert_examples(lc_one):
    assert str((lc_one - eps()).invert(E(4))) == "1 + eps + eps^2 + eps^3 + O(eps^4)"
    iv = eps().invert(E(99))
    assert iv.is_exact and str(iv) == "eps^(-1)"
    got = (L("2") + eps()).invert(E(3))
    # oracle: hand expansion 1/2 - eps/4 + eps^2/8
    want = L("1/2 - 1/4*eps + 1/8*eps^2")
    assert (got - want).is_zero_below(E(3))


@given(lc_numbers())
@settings(max_examples=60, deadline=None)
def test_invert_round_trip(a):
    if a.is_exact_zero:
        return
    cut = E(6)
    inv = a.invert(cut)
    assert (a * inv - 1).is_zero_below(cut)


def test_invert_errors():
    with pytest.raises(ZeroDivisionError):
        LcNumber.zero(LC).invert(E(3))
    with pytest.raises(TruncationError):
        LcNumber.zero(LC).truncate(E(2)).invert(E(3))


def test_hahn_unreachable_cutoff_is_capped():
    a = LcNumber.one(HAHN) - eps_n(1)
    with pytest.raises(ResourceCapError):
        a.invert(Exponent.hahn({2: 1}))


# --------------------------------------------------------------------- roots


def binomial_sqrt_oracle(u_coeff, order):
    """(1 + u)^(1/2) with u = u_coeff * eps, via the binomial series."""
    acc = LcNumber.one(LC)
    term = F(1)
    half = F(1, 2)
    for k in range(1, order):
        term *= (half - (k - 1)) / k
        acc = acc + (u_coeff ** k * term) * eps(k)
    return acc


def test_nth_root_examples(lc_one):
    got = (lc_one + 4 * eps()).nth_root(2, E(3))
    want = binomial_sqrt_oracle(F(4), 6).truncate(E(3))
    assert (got - want).is_zero_below(E(3))
    assert str(got) == "1 + 2*eps - 2*eps^2 + O(eps^3)"
    r = eps(2).nth_root(2, E(9))
    assert r.is_exact and str(r) == "eps"
    c = L("8").nth_root(3, E(9))
    assert c.is_exact and str(c) == "2"
    with pytest.raises(ValueError):
        (-lc_one).nth_root(2, E(3))


@given(lc_numbers(), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_nth_root_round_trip(a, n):
    try:
        if a.sign() <= 0:
            return
    except TruncationError:
        return
    cut = E(5)
    r = a.nth_root(n, cut)
    lead = a.valuation().scale(F(n - 1, n))
    assert (r.pow_int(n) - a).is_zero_below(cut + lead)


# --------------------------------------------------------------- standard part


def test_standard_part_examples():
    assert (L("2") - eps(2)).standard_part().as_fraction() == 2
    assert eps().standard_part().as_fraction() == 0
    with pytest.raises(ValueError):
        eps(-1).standard_part()
    with pytest.raises(TruncationError):
        L("2").truncate(E(0)).standard_part()


@given(lc_numbers(), lc_numbers())
@settings(max_examples=60, deadline=None)
def test_standard_part_is_a_ring_morphism(a, b):
    zero = Exponent.zero(LC)
    for v in (a, b):
        lb = v.val_lb()
        if lb is not None and lb.compare(zero) < 0:
            return
    sa, sb = a.standard_part(), b.standard_part()
    assert ((a + b).standard_part() - (sa + sb)).is_zero
    assert ((a * b).standard_part() - (sa * sb)).is_zero


# ------------------------------------------------------------------- classify


def test_classify_examples():
    c = eps().classify()
    assert (c.kind, c.topologically_nilpotent) == ("infinitesimal", True)
    c = eps_n(1).classify()
    assert (c.kind, c.topologically_nilpotent) == ("infinitesimal", False)
    c = (L("7") + eps()).classify()
    assert (c.kind, c.topologically_nilpotent) == ("finite_appreciable", False)
    assert eps(-2).classify().kind == "infinitely_large"
    assert LcNumber.zero(LC).classify().kind == "zero"


# ----------------------------------------------------------------- truncation


def test_truncation_propagation():
    a = (L("1") + eps()).truncate(E(5))
    b = eps(2)
    assert (a * b).cutoff == E(7)
    assert (a + b).cutoff == E(5)
    # certified-zero probe
    assert (a - a).is_zero_below(E(5))


def test_term_cap(monkeypatch):
    monkeypatch.setenv("LCIVT_MAX_TERMS", "3")
    with pytest.raises(ResourceCapError):
        LcNumber(LC, [(E(i), 1) for i in range(5)])


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5"])
def test_term_cap_rejects_malformed_values(monkeypatch, raw):
    monkeypatch.setenv("LCIVT_MAX_TERMS", raw)
    with pytest.raises(ValueError, match="LCIVT_MAX_TERMS"):
        max_terms_cap()
    monkeypatch.setenv("LCIVT_MAX_TERMS", "7")
    assert max_terms_cap() == 7
