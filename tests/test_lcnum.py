import copy
import operator
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from lcivt import lcnum, realalg
from lcivt.errors import ResourceCapError, TruncationError
from lcivt.hensel import poly_mul
from lcivt.lcnum import HAHN, LC, Exponent, LcNumber, eps, eps_n
from lcivt.realalg import RealAlgebraic, isolate_real_roots

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


hahn_exponents = st.dictionaries(st.integers(1, 4), small_fractions(5, 3), max_size=4).map(
    Exponent.hahn)


@given(hahn_exponents, hahn_exponents)
def test_hahn_compare_matches_definition(a, b):
    # oracle: the sign of the coefficient difference at the largest index
    # where the two exponents differ
    da, db = dict(a.data), dict(b.data)
    diff = [i for i in range(1, 5) if da.get(i, 0) != db.get(i, 0)]
    want = 0 if not diff else (1 if da.get(diff[-1], 0) > db.get(diff[-1], 0) else -1)
    assert a.compare(b) == want
    assert b.compare(a) == -want


def test_hahn_axiom_grid():
    # eps_n^i > eps_{n+1} and eps_1*eps_n > eps_{n+1}
    for n in range(1, 4):
        for i in range(1, 8):
            assert eps_n(n).pow_int(i).compare(eps_n(n + 1)) == 1
        assert (eps_n(1) * eps_n(n)).compare(eps_n(n + 1)) == 1


def test_min_multiple_at_least_examples():
    H = Exponent.hahn
    assert H({2: 2}).min_multiple_at_least(H({2: 4})) == 2  # exact quotient
    assert H({1: 1, 2: 1}).min_multiple_at_least(H({2: 1})) == 1  # lower index suffices
    assert H({1: -1, 2: 1}).min_multiple_at_least(H({2: 1})) == 2
    assert H({1: 1}).min_multiple_at_least(H({2: 1})) is None
    assert H({2: 1}).min_multiple_at_least(H({1: 5})) == 1
    assert E(F(1, 3)).min_multiple_at_least(E(1)) == 3
    assert E(-1).min_multiple_at_least(E(1)) is None
    assert E(-1).min_multiple_at_least(E(0)) == 0


@given(st.one_of(st.tuples(small_fractions(5, 3).map(Exponent.lc),
                           small_fractions(5, 3).map(Exponent.lc)),
                 st.tuples(hahn_exponents, hahn_exponents)))
@settings(max_examples=300, deadline=None)
def test_min_multiple_at_least_is_the_least(pair):
    step, target = pair
    # every answer here is below 100: coefficients are at most 5, at least 1/3
    brute = next((n for n in range(100) if step.scale(n).compare(target) >= 0), None)
    assert step.min_multiple_at_least(target) == brute


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


def geometric_invert(x, cutoff):
    """The inverse by leading-term division and the geometric series
    1 - m + m^2 - ..., one power of m per round."""
    e, c = x.terms[0]
    lead_inv = LcNumber.monomial(-e, c.inverse())
    if len(x.terms) == 1 and x.cutoff is None:
        return lead_inv
    mhat = x * lead_inv - 1
    acc = LcNumber.one(x.mode)
    if mhat.cutoff is not None:
        acc = acc.truncate(mhat.cutoff)
    if mhat.terms:
        rounds = mhat.terms[0][0].min_multiple_at_least(cutoff)
        if rounds is None:
            raise ResourceCapError("inversion cutoff unreachable in this value group")
        if rounds > lcnum._GEOMETRIC_CAP:
            raise ResourceCapError("inversion did not reach the cutoff")
        pw = LcNumber.one(x.mode)
        for _ in range(rounds + 1):
            pw = (pw * (-mhat)).truncate(cutoff)
            if not pw.terms:
                break
            acc = acc + pw
    return (acc * lead_inv).truncate(cutoff - e)


def outcome(f, *args):
    """A result's terms and cutoff, or the type and message it raised."""
    try:
        y = f(*args)
    except (ResourceCapError, TruncationError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)
    return y.terms, y.cutoff


@given(st.one_of(lc_numbers(5).map(lambda x: (x, Exponent.lc)),
                 hahn_numbers(4).map(lambda x: (x, Exponent.hahn))),
       st.data())
@settings(max_examples=120, deadline=None)
def test_invert_matches_geometric_series(x_exp, data):
    x, exp = x_exp
    point = small_fractions(12, 3) if x.mode == LC else st.dictionaries(
        st.integers(1, 3), small_fractions(6, 2), max_size=2)
    trunc = data.draw(st.none() | point)
    if trunc is not None:
        x = x.truncate(exp(trunc))
    if not x.terms:
        return
    cutoff = exp(data.draw(point))
    assert outcome(x.invert, cutoff) == outcome(geometric_invert, x, cutoff)


@pytest.mark.parametrize("mode", [LC, HAHN])
@pytest.mark.parametrize("path", ["vectors", "values"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_invert_matches_geometric_series_over_algebraic_coefficients(mode, path, data):
    # the kernel's integer vectors on Q(sqrt 2), and on the compositum of
    # sqrt 2 and sqrt 3 ("values", which once took a path of its own);
    # those stay few and shallow, their first sum builds a resultant
    exp = Exponent.lc if mode == LC else lambda q: Exponent.hahn({1: q})
    halves = st.sampled_from([F(k, 2) for k in range(5)])
    if path == "vectors":
        x = data.draw(generator_numbers(mode, SQRT[2]))
        points = small_fractions(12, 3) if mode == LC else small_fractions(6, 2)
    else:
        x = sum((LcNumber.monomial(exp(data.draw(halves)), data.draw(small_fractions(6, 3)) * c)
                 for c in (1, SQRT[3])), LcNumber.zero(mode))
        points = halves.map(lambda q: q + 1)
    x = x + LcNumber.monomial(exp(data.draw(halves)), SQRT[2] * data.draw(small_fractions(6, 3)))
    trunc = data.draw(st.none() | points)
    if trunc is not None:
        x = x.truncate(exp(trunc))
    grid = lcnum._Grid(mode, [[x]])
    assume(not grid.rational and x.terms)
    degree = len(grid.gen.minpoly) - 1
    assume(path == "vectors" or degree > 2)  # both roots appear
    assert degree == (2 if path == "vectors" else 4)
    cutoff = exp(data.draw(points))
    assert outcome(x.invert, cutoff) == outcome(geometric_invert, x, cutoff)


def test_invert_keeps_geometric_cap():
    x = LcNumber.one(LC) + eps(F(1, 20000))
    for f in (x.invert, lambda c: geometric_invert(x, c)):
        with pytest.raises(ResourceCapError, match="did not reach the cutoff"):
            f(E(1))


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
    # irrational leading coefficient: sqrt(2) + eps/(2 sqrt(2)) + ...
    a = L("2") + eps()
    r = a.nth_root(2, E(4))
    assert r.terms[0][1].defining_polynomial() == (-2, 0, 1)
    assert (r.pow_int(2) - a).is_zero_below(E(4))
    with pytest.raises(ValueError):
        (-lc_one).nth_root(2, E(3))


def test_nth_root_precision_follows_truncated_input():
    # eps^2 + O(eps^5) may complete to eps^2 + eps^5, whose root is
    # eps + eps^4/2 + ...: with y' = 2*eps the root is certified below eps^4
    assert str(eps(2).truncate(E(5)).nth_root(2, E(9))) == "eps + O(eps^4)"


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
    monkeypatch.setattr(lcnum, "_MAX_TERMS", 3)
    with pytest.raises(ResourceCapError,
                       match="5 terms in one number, past the cap _MAX_TERMS = 3"):
        LcNumber(LC, [(E(i), 1) for i in range(5)])
    assert len(LcNumber(LC, [(E(i), 1) for i in range(3)]).terms) == 3


# ------------------------------------------------------------- product kernel


SQRT = {m: RealAlgebraic(m).nth_root(2) for m in (2, 3)}


def kernel_exponents(mode):
    if mode == LC:
        return small_fractions(6, 3).map(Exponent.lc)
    return st.dictionaries(st.integers(1, 3), small_fractions(4, 2),
                           max_size=2).map(Exponent.hahn)


def kernel_numbers(mode, algebraic=True):
    """Exact or truncated values, exact zeros included, with rational or
    sqrt(m) coefficients and negative and fractional exponents."""
    roots = (1, 1, 2, 3) if algebraic else (1,)
    coeff = st.tuples(small_fractions(6, 3), st.sampled_from(roots)).map(
        lambda qm: qm[0] * SQRT[qm[1]] if qm[1] > 1 else RealAlgebraic(qm[0]))
    terms = st.lists(st.tuples(kernel_exponents(mode), coeff), max_size=3)
    return st.builds(lambda ts, cut: LcNumber(mode, ts, cut),
                     terms, st.none() | kernel_exponents(mode))


def pairwise_mul(x, y):
    """x*y one term pair at a time: the per-product loop the kernel replaced."""
    cut = None
    if x.cutoff is not None and y.val_lb() is not None:
        cut = x.cutoff + y.val_lb()
    if y.cutoff is not None and x.val_lb() is not None:
        c = y.cutoff + x.val_lb()
        cut = c if cut is None or c < cut else cut
    acc = {}
    for ea, ca in x.terms:
        for eb, cb in y.terms:
            e = ea + eb
            if cut is None or e < cut:
                acc[e] = acc[e] + ca * cb if e in acc else ca * cb
    return LcNumber(x.mode, acc.items(), cut)


def pairwise_poly_mul(a, b, cutoff=None):
    out = [LcNumber.zero(a[0].mode) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x.is_exact_zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + pairwise_mul(x, y)
    return out if cutoff is None else [c.truncate(cutoff) for c in out]


def same_number(x, y):
    return (x.mode == y.mode and x.cutoff == y.cutoff
            and [e for e, _ in x.terms] == [e for e, _ in y.terms]
            and all(cx.is_rational == cy.is_rational and cx == cy
                    for (_, cx), (_, cy) in zip(x.terms, y.terms)))


def pairwise_sum_of_products(pairs, cutoff=None, weights=None):
    """Each product by the per-pair loop, each term's coefficient times the
    pair's weight, the products merged by ``__add__``."""
    prods = [pairwise_poly_mul(a, b) for a, b in pairs]
    prods = [[LcNumber(c.mode, [(e, v * w) for e, v in c.terms], c.cutoff) for c in p]
             for p, w in zip(prods, weights or [1] * len(prods))]
    out = [LcNumber.zero(pairs[0][0][0].mode) for _ in range(max(len(p) for p in prods))]
    for prod in prods:
        out = [acc + c for acc, c in zip(out, prod)] + out[len(prod):]
    return out if cutoff is None else [c.truncate(cutoff) for c in out]


@pytest.mark.parametrize("mode", [LC, HAHN])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_product_kernel_matches_pairwise_products(mode, data):
    # all-rational sums take the integer path, so draw them apart
    polys = st.lists(kernel_numbers(mode, data.draw(st.booleans())), min_size=1, max_size=3)
    pairs = data.draw(st.lists(st.tuples(polys, polys), min_size=1, max_size=3))
    weights = data.draw(st.lists(st.integers(-6, 6).filter(bool), min_size=len(pairs),
                                 max_size=len(pairs)))
    cutoff = data.draw(kernel_exponents(mode))
    a, b = pairs[0]
    for got, want in ((poly_mul(a, b), pairwise_poly_mul(a, b)),
                      (poly_mul(a, b, cutoff), pairwise_poly_mul(a, b, cutoff)),
                      ([a[0] * b[0]], [pairwise_mul(a[0], b[0])])):
        assert len(got) == len(want)
        assert all(same_number(g, w) for g, w in zip(got, want))
    for kw in ({}, {"cutoff": cutoff, "weights": weights}):
        # each side on its own copy of the generators, so that neither side
        # refines the other's brackets
        got = lcnum.sum_of_products(copy.deepcopy(pairs), **kw)
        want = pairwise_sum_of_products(copy.deepcopy(pairs), **kw)
        assert [str(g) for g in got] == [str(w) for w in want]
        assert len(got) == len(want)
        assert all(same_number(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("mode", [LC, HAHN])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_trusted_constructors_match_validating_constructor(mode, data):
    exp, cut = data.draw(kernel_exponents(mode)), data.draw(st.none() | kernel_exponents(mode))
    c = data.draw(st.sampled_from([0, 3, F(-1, 2), RealAlgebraic(0), RealAlgebraic(F(2, 3)),
                                   SQRT[2]]))
    zero = Exponent.zero(mode)
    for got, want in ((LcNumber.monomial(exp, c, cut), LcNumber(mode, [(exp, c)], cut)),
                      (LcNumber.from_scalar(mode, c), LcNumber(mode, [(zero, c)])),
                      (LcNumber.zero(mode), LcNumber(mode, [])),
                      (LcNumber.one(mode), LcNumber(mode, [(zero, 1)]))):
        assert same_number(got, want)
        assert all(isinstance(v, RealAlgebraic) for _, v in got.terms)


def two_pointer_add(a, b):
    """a + b by a two-pointer merge of the sorted term lists, ordered by
    exponent key and stopped at the shared cutoff: the reference for
    ``lcnum._merge``."""
    cut = lcnum._min_cut(a.cutoff, b.cutoff)
    cutq = None if cut is None else cut.key
    ta, tb, out = list(a.terms), list(b.terms), []
    i = j = 0
    while i < len(ta) or j < len(tb):
        qa = ta[i][0].key if i < len(ta) else None
        qb = tb[j][0].key if j < len(tb) else None
        q = qa if qb is None or (qa is not None and qa <= qb) else qb
        if cutq is not None and q >= cutq:
            break
        if q == qa and q == qb:
            s = ta[i][1] + tb[j][1]
            if not s.is_zero:
                out.append((ta[i][0], s))
            i, j = i + 1, j + 1
        elif q == qa:
            out.append(ta[i])
            i += 1
        else:
            out.append(tb[j])
            j += 1
    return LcNumber._build(a.mode, out, cut)


def two_pointer_number(mode, terms, cut):
    """The validating constructor's number as the two-pointer sum of its
    nonzero terms, one at a time, below ``cut``."""
    acc = LcNumber._build(mode, (), cut)
    for e, c in terms:
        if not c.is_zero:
            acc = two_pointer_add(acc, LcNumber._build(mode, ((e, c),), None))
    return acc


@pytest.mark.parametrize("mode", [LC, HAHN])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_merge_matches_two_pointer_reference(mode, data):
    # a few exponents, so that terms repeat and cancel
    pool = data.draw(st.lists(kernel_exponents(mode), min_size=1, max_size=4))
    coeff = st.tuples(small_fractions(4, 2), st.booleans()).map(
        lambda qr: qr[0] * SQRT[2] if qr[1] else RealAlgebraic(qr[0]))
    terms = st.lists(st.tuples(st.sampled_from(pool), coeff), max_size=6)
    cuts = st.none() | st.sampled_from(pool) | kernel_exponents(mode)
    ta, tb, cut = data.draw(terms), data.draw(terms), data.draw(cuts)
    # b takes some of a's terms back out
    tb += [(e, -c) for e, c in ta if data.draw(st.booleans())]
    assert same_number(LcNumber(mode, ta + tb, cut), two_pointer_number(mode, ta + tb, cut))
    a, b = (two_pointer_number(mode, t, data.draw(cuts)) for t in (ta, tb))
    minus_b = LcNumber._build(mode, [(e, -c) for e, c in b.terms], b.cutoff)
    # sums with no terms on either side, or on both, exact or truncated
    e1, e2 = (LcNumber._build(mode, (), data.draw(cuts)) for _ in range(2))
    for x, y in ((a, b), (b, a), (a, e1), (e1, b), (e1, e2)):
        assert same_number(x + y, two_pointer_add(x, y))
    assert same_number(a - b, two_pointer_add(a, minus_b))
    assert same_number(-b, minus_b)


def test_constructor_checks_the_cutoff_mode():
    for terms in ([(Exponent.lc(1), 1)], []):
        with pytest.raises(ValueError, match="cutoff mode hahn in a lc-mode number"):
            LcNumber(LC, terms, Exponent.hahn({1: 1}))
    with pytest.raises(ValueError, match="cutoff mode lc in a hahn-mode number"):
        LcNumber(HAHN, [], Exponent.lc(1))


# One generator each: monic quadratic, non-monic quadratic (the positive
# root of 2x^2 - 3), cubic.
ONE_GENERATOR = {"sqrt2": SQRT[2],
                 "sqrt_3_over_2": isolate_real_roots([-3, 0, 2])[-1][0],
                 "cbrt2": RealAlgebraic(2).nth_root(3)}


def generator_numbers(mode, alpha):
    """Values whose coefficients are rationals or elements of Q(alpha)."""
    gen, d = alpha._gen, len(alpha._gen.minpoly) - 1
    coeff = st.lists(small_fractions(6, 3), min_size=1, max_size=d).map(
        lambda rep: RealAlgebraic._from_rep(gen, rep))
    terms = st.lists(st.tuples(kernel_exponents(mode), coeff), max_size=3)
    return st.builds(lambda ts, cut: LcNumber(mode, ts, cut),
                     terms, st.none() | kernel_exponents(mode))


@pytest.mark.parametrize("mode", [LC, HAHN])
@pytest.mark.parametrize("field", sorted(ONE_GENERATOR))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_number_field_path_matches_pairwise_reference(mode, field, data):
    alpha = ONE_GENERATOR[field]
    gen = alpha._gen
    polys = st.lists(generator_numbers(mode, alpha), min_size=1, max_size=3)
    pairs = data.draw(st.lists(st.tuples(polys, polys), min_size=1, max_size=3))
    # (alpha + q)^2 - alpha^2 - 2*(q*alpha) cancels to the rational q^2
    q = data.draw(small_fractions(6, 3).filter(bool))
    one = Exponent.zero(mode)
    mono = lambda c: [LcNumber.monomial(one, c)]  # noqa: E731
    square = [(mono(alpha + q), mono(alpha + q)), (mono(alpha), mono(alpha)),
              (mono(q), mono(alpha))]
    weights = data.draw(st.lists(st.integers(-6, 6).filter(bool), min_size=len(pairs),
                                 max_size=len(pairs)))
    cutoff = data.draw(kernel_exponents(mode))
    for args, kw in (((pairs,), {}), ((pairs,), {"cutoff": cutoff, "weights": weights}),
                     ((square,), {"weights": (1, -1, -2)})):
        got = lcnum.sum_of_products(*args, **kw)
        want = pairwise_sum_of_products(*args, **kw)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.cutoff == w.cutoff
            assert [e for e, _ in g.terms] == [e for e, _ in w.terms]
            for (_, cg), (_, cw) in zip(g.terms, w.terms):
                if cw.is_rational:
                    assert cg._gen is None and cg.as_fraction() == cw.as_fraction()
                else:
                    assert cg._gen is gen and cw._gen is gen and cg._rep == cw._rep
    assert [str(c) for c in lcnum.sum_of_products(square, weights=(1, -1, -2))] == [str(q * q)]


def test_two_generators_keep_pairwise_strings():
    # sqrt2 and sqrt3 in one call take the RealAlgebraic path; each side
    # runs on its own copy of fresh generators, whose brackets the sums refine
    one = Exponent.lc(0)
    s2, s3 = RealAlgebraic(2).nth_root(2), RealAlgebraic(3).nth_root(2)
    a = [LcNumber(LC, [(one, s2 + 1), (Exponent.lc(1), s3)]), LcNumber(LC, [(one, F(1, 2))])]
    b = [LcNumber(LC, [(one, s3)], Exponent.lc(3)), LcNumber(LC, [(Exponent.lc(1), s2)])]
    pairs = [(a, b), (b, a), ([LcNumber(LC, [(one, s2 * s3)])], b)]
    recorded = (  # canonical renderings: minimal polynomial and dyadic interval
        [
            "root(x^4-108*x^2-576*x-828, 201/16, 101/8) + 6*eps + O(eps^3)",
            "root(x^2-3, 27/16, 7/4)"
            " + root(x^4-16*x^3+56*x^2+64*x-368, 41/4, 165/16)*eps"
            " + root(x^2-24, 39/8, 79/16)*eps^2 + O(eps^3)",
            "root(x^2-2, 11/8, 23/16)*eps",
        ],
        [
            "root(x^2-18, 67/16, 17/4) + O(eps^3)",
            "root(x^2-12, 55/16, 7/2)*eps + O(eps^3)",
            "0",
        ],
        [
            "-root(x^2-18, 67/16, 17/4) + O(eps^2)",
            "-root(x^2-12, 55/16, 7/2)*eps + O(eps^2)",
            "0 + O(eps^2)",
        ],
    )
    for kw, strings in zip(({}, {"weights": (1, -1, 1)},
                            {"cutoff": Exponent.lc(2), "weights": (-1, 1, -1)},
                            {"weights": (3, -2, 5)}), recorded + (None,)):
        got = lcnum.sum_of_products(copy.deepcopy(pairs), **kw)
        want = pairwise_sum_of_products(copy.deepcopy(pairs), **kw)
        assert [str(g) for g in got] == [str(w) for w in want]
        assert strings is None or [str(g) for g in got] == strings
        assert all(same_number(g, w) for g, w in zip(got, want))


# ----------------------------------------------------------- lazy comparison


def difference_sign(a, b):
    """The order as the sign of the whole difference, the definition."""
    try:
        return (a - b).sign()
    except TruncationError:
        return "undecidable"


def lazy_order(a, b):
    try:
        return a.compare(b)
    except TruncationError:
        return "undecidable"


@pytest.mark.parametrize("mode", [LC, HAHN])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_lazy_compare_matches_difference_sign(mode, data):
    numbers = data.draw(st.sampled_from(
        [kernel_numbers(mode, algebraic=False), kernel_numbers(mode),
         generator_numbers(mode, ONE_GENERATOR["sqrt_3_over_2"]),
         generator_numbers(mode, ONE_GENERATOR["cbrt2"])]))
    a, delta = data.draw(numbers), data.draw(numbers)
    # b shares a's leading terms with every kind of difference behind them
    for b in (data.draw(numbers), a, a + delta, a - delta, -a,
              a.truncate(data.draw(kernel_exponents(mode)))):
        assert lazy_order(a, b) == difference_sign(a, b)
        assert lazy_order(b, a) == difference_sign(b, a)
    for scalar in (0, 1, F(-2, 3), SQRT[2]):
        assert lazy_order(a, scalar) == difference_sign(a, scalar)


@pytest.mark.parametrize("mode", [LC, HAHN])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_order_operators_and_abs_match_compare(mode, data):
    numbers = kernel_numbers(mode)
    a, b = data.draw(numbers), data.draw(numbers)
    undecided = LcNumber(mode, [], data.draw(kernel_exponents(mode)))  # 0 + O(cut)
    for x, y in ((a, b), (a, a), (a, undecided)):
        order = lazy_order(x, y)
        for op, holds in ((operator.le, order != "undecidable" and order <= 0),
                          (operator.gt, order != "undecidable" and order > 0),
                          (operator.ge, order != "undecidable" and order >= 0)):
            if order == "undecidable":
                with pytest.raises(TruncationError):
                    op(x, y)
            else:
                assert op(x, y) is holds
    for x in (a, -a, undecided):
        sign = lazy_order(x, 0)
        if sign == "undecidable":
            with pytest.raises(TruncationError):
                abs(x)
        else:
            assert same_number(abs(x), -x if sign < 0 else x)
            assert lazy_order(abs(x), 0) == abs(sign)


def test_lazy_compare_rejects_other_types():
    with pytest.raises(TypeError):
        eps().compare("eps")
    with pytest.raises(TypeError):
        eps() < 1.5
    with pytest.raises(ValueError, match="mode"):
        eps().compare(eps_n(1))


def test_lazy_compare_stops_at_first_difference(monkeypatch):
    # the terms after the first difference span two generators; forming the
    # difference would sum them on their compositum
    s2, s3 = RealAlgebraic(2).nth_root(2), RealAlgebraic(3).nth_root(2)
    a = LcNumber(LC, [(E(0), 1), (E(1), s2)])
    b = LcNumber(LC, [(E(0), 2), (E(1), s3)])
    c = LcNumber(LC, [(E(0), 1), (E(1), s3)], E(1))

    def refuse(*args):
        raise AssertionError("the difference was formed")

    monkeypatch.setattr(realalg, "_compositum", refuse)
    assert a.compare(b) == -1 and b.compare(a) == 1
    with pytest.raises(TruncationError):
        a.compare(c)


@pytest.mark.parametrize("mode", [LC, HAHN])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_exponent_arithmetic_matches_validating_constructor(mode, data):
    a, b = data.draw(kernel_exponents(mode)), data.draw(kernel_exponents(mode))
    q = data.draw(small_fractions(6, 3))
    if mode == LC:
        want = [(a + b, a.data + b.data), (-a, -a.data), (a.scale(q), a.data * q)]
    else:
        total = dict(a.data)
        for i, c in b.data:
            total[i] = total.get(i, 0) + c
        want = [(a + b, total), (-a, {i: -c for i, c in a.data}),
                (a.scale(q), {i: c * q for i, c in a.data})]
    for got, data_ in want:
        ref = Exponent(mode, data_)
        assert got.mode == ref.mode
        assert got.data == ref.data and got.key == ref.key
        assert hash(got) == hash(ref)
        assert all(type(c) is F for _, c in got.data) if mode == HAHN else type(got.data) is F


# ------------------------------------------------------------- grid Horner


def horner_loop(coeffs, x):
    """acc = acc*x + c on LcNumbers: the loop the grid Horner replaces."""
    acc = LcNumber.zero(x.mode)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def same_structure(got, want):
    """Equal mode, cutoff, exponents and coefficient representations, on the
    same generator objects."""
    return (got.mode == want.mode and got.cutoff == want.cutoff
            and [e for e, _ in got.terms] == [e for e, _ in want.terms]
            and all(cg._frac == cw._frac and cg._gen is cw._gen and cg._rep == cw._rep
                    for (_, cg), (_, cw) in zip(got.terms, want.terms)))


@pytest.mark.parametrize("field", ["rational", "sqrt2", "sqrt_3_over_2", "cbrt2", "hahn"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_grid_horner_matches_loop(field, data):
    if field == "rational":
        numbers = kernel_numbers(LC, algebraic=False)
    elif field == "hahn":
        numbers = generator_numbers(HAHN, ONE_GENERATOR["sqrt2"])
    else:
        numbers = generator_numbers(LC, ONE_GENERATOR[field])
    polys = data.draw(st.lists(st.lists(numbers, max_size=4), min_size=1, max_size=3))
    x = data.draw(numbers)
    got = lcnum.horner(polys, x)
    assert len(got) == len(polys)
    for g, p in zip(got, polys):
        assert same_structure(g, horner_loop(p, x))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_grid_horner_two_generators_takes_the_loop(data):
    # sums across sqrt2 and sqrt3 build new generators: equal values and
    # renders, on generator objects of their own
    polys = data.draw(st.lists(st.lists(kernel_numbers(LC), max_size=3), min_size=1,
                               max_size=2))
    x = data.draw(kernel_numbers(LC))
    for g, p in zip(lcnum.horner(polys, x), polys):
        w = horner_loop(p, x)
        assert same_number(g, w) and str(g) == str(w)


# (x, coefficients): x has three terms, so at the second Horner step both
# the loop's product acc*x and the step's sum hold more than two.
HORNER_CASES = {
    "lc": (L("1 + eps + eps^2"), [L("1"), L("1 + eps"), L("1")]),
    "hahn": (eps_n(0) + eps_n(1) + eps_n(2), [eps_n(0), eps_n(0) + eps_n(1), eps_n(0)]),
    "sqrt2_sqrt3": (LcNumber(LC, [(E(0), SQRT[2]), (E(1), SQRT[3]), (E(2), 1)]),
                    [L("1"), LcNumber(LC, [(E(0), SQRT[3]), (E(1), SQRT[2])]), L("1")]),
}


@pytest.mark.parametrize("case", ["hahn", "sqrt2_sqrt3"])
def test_grid_horner_forms_no_lcnumber_products_or_sums(case, monkeypatch):
    x, coeffs = HORNER_CASES[case]
    polys = [coeffs, [x.truncate(x.terms[2][0]), -x, x], []]
    want = [horner_loop(p, x) for p in polys]

    def refuse(*args):
        raise AssertionError("an LcNumber product or sum was formed")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(LcNumber, name, refuse)
    got = lcnum.horner(polys, x)
    monkeypatch.undo()
    assert len(got) == len(want)
    assert all(same_number(g, w) and str(g) == str(w) for g, w in zip(got, want))


@pytest.mark.parametrize("case", sorted(HORNER_CASES))
def test_grid_horner_keeps_the_term_cap(case, monkeypatch):
    x, coeffs = HORNER_CASES[case]
    monkeypatch.setattr(lcnum, "_MAX_TERMS", 2)
    with pytest.raises(ResourceCapError, match="_MAX_TERMS = 2"):
        horner_loop(coeffs, x)
    with pytest.raises(ResourceCapError, match="_MAX_TERMS = 2"):
        lcnum.horner([coeffs], x)
