import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from lcivt import hensel, rootfind
from lcivt.errors import CertificateError, ResourceCapError, TruncationError
from lcivt.hensel import (
    n_poly_root,
    newton_root,
    poly_deriv,
    poly_divmod_monic,
    poly_eval,
    poly_mul,
    weierstrass_factor,
    weierstrass_factor_batched,
)
from lcivt.lcnum import HAHN, LC, Exponent, LcNumber, _Grid, eps, eps_n, horner
from lcivt.pseries import PolySeries, normalize
from lcivt.realalg import RealAlgebraic

from conftest import E, L
from test_lcnum import geometric_invert


def binomial_sqrt(u, order):
    """(1 + u)^(1/2) by the binomial series; u an infinitesimal LcNumber."""
    acc = LcNumber.one(LC)
    pw = LcNumber.one(LC)
    coeff = F(1)
    for k in range(1, order):
        coeff *= (F(1, 2) - (k - 1)) / k
        pw = pw * u
        acc = acc + pw * coeff
    return acc


# ------------------------------------------------------------ distinguished root


def test_root_of_quadratic_against_quadratic_formula():
    one = LcNumber.one(LC)
    coeffs = [eps(), one, one]  # X^2 + X + eps
    cut = E(4)
    got = n_poly_root(coeffs, cut)
    # oracle: (-1 + sqrt(1 - 4 eps)) / 2 via the binomial series
    want = (binomial_sqrt(-4 * eps(), 8) - 1) * F(1, 2)
    assert (got - want).is_zero_below(cut)
    assert str(got) == "-eps - eps^2 - 2*eps^3 + O(eps^4)"
    assert poly_eval(coeffs, got).is_zero_below(cut)


def test_degree_one_root_is_exact():
    got = n_poly_root([eps(3), LcNumber.one(LC)], E(4))
    assert got.is_exact
    assert (got + eps(3)).is_exact_zero


def test_cubic_root_leading_term():
    one = LcNumber.one(LC)
    got = n_poly_root([eps(2), one, LcNumber.zero(LC), one], E(8))
    assert got.terms[0][0] == E(2)
    assert got.terms[0][1].as_fraction() == -1
    assert poly_eval([eps(2), one, LcNumber.zero(LC), one], got).is_zero_below(E(8))


def test_root_uniqueness_across_runs():
    one = LcNumber.one(LC)
    coeffs = [eps(), one, one]
    deep = n_poly_root(coeffs, E(9))
    shallow = n_poly_root(coeffs, E(4))
    assert (deep - shallow).is_zero_below(E(4))
    # a degree-2 distinguished polynomial has exactly one root in the ideal:
    # the other quadratic-formula root is a unit
    other = (-binomial_sqrt(-4 * eps(), 8) - 1) * F(1, 2)
    assert other.valuation() == E(0)
    assert shallow.valuation().sign() > 0


def test_root_precision_follows_truncated_coefficients():
    # c0 = O(eps^4) may complete to eps^4, whose root is -eps^4 + ...
    one = LcNumber.one(LC)
    got = n_poly_root([LcNumber.zero(LC).truncate(E(4)), one, one], E(8))
    assert str(got) == "0 + O(eps^4)"


def ring_elements(lead):
    """lead + c1*eps + c2*eps^2 + c3*eps^3 with small integers c_k."""
    return st.tuples(lead, st.lists(st.integers(-3, 3), min_size=3, max_size=3)).map(
        lambda lt: sum((eps(k) * c for k, c in enumerate(lt[1], 1) if c),
                       LcNumber.from_scalar(LC, lt[0])))


def distinguished_polys():
    """Monic of degree 2..4 with c0 infinitesimal and c1 a unit."""
    return st.integers(0, 2).flatmap(lambda k: st.tuples(
        ring_elements(st.just(0)), ring_elements(st.sampled_from([-2, -1, 1, 2])),
        st.lists(ring_elements(st.integers(-3, 3)), min_size=k, max_size=k),
    ).map(lambda p: [p[0], p[1], *p[2], LcNumber.one(LC)]))


@given(distinguished_polys(), st.integers(1, 5),
       st.lists(ring_elements(st.integers(-3, 3)), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_truncated_root_agrees_with_every_completion(coeffs, t, g):
    # the root of f truncated at eps^t is certified only as far as every
    # completion of f shares it: f itself and f + eps^t * g
    cut = E(t + 4)
    one = LcNumber.one(LC)
    root = n_poly_root([c.truncate(E(t)) for c in coeffs[:-1]] + [one], cut)
    other = [c + eps(t) * gc for c, gc in zip(coeffs[:-1], g)] + [one]
    # f'(root) is a unit, so the root is known exactly as far as f
    assert root.cutoff == E(t)
    for completion in (coeffs, other):
        assert (n_poly_root(completion, cut) - root).is_zero_below(root.cutoff)


def test_precondition_errors():
    one = LcNumber.one(LC)
    with pytest.raises(ValueError, match="monic"):
        n_poly_root([eps(), one, one * 2], E(3))
    with pytest.raises(ValueError, match="constant"):
        n_poly_root([one, one, one], E(3))
    with pytest.raises(ValueError, match="linear"):
        n_poly_root([eps(), eps(), one], E(3))


def reference_newton_root(coeffs, x0, cutoff):
    """``newton_root`` as the loop over decoded LcNumbers: ``horner`` per
    step, the geometric-series inverse, and LcNumber -, * and truncate."""
    dcoeffs = poly_deriv(coeffs)
    x, last = x0, None
    for _ in range(hensel._NEWTON_CAP):
        full, d = horner([coeffs, dcoeffs], x)
        if full.is_exact_zero:
            return x, None
        if not d.terms:
            return None
        vd = d.terms[0][0]
        target = cutoff + (vd if vd.sign() > 0 else Exponent.zero(x.mode))
        r = full.truncate(target)
        if not r.terms:
            return x.truncate(cutoff).truncate(r.cutoff - vd), full.val_lb()
        rv = r.terms[0][0]
        if last is not None and rv.compare(last) <= 0:
            return None
        last = rv
        upd = x - r * geometric_invert(d, target - rv)
        x = upd if upd.cutoff is None else upd.truncate(cutoff)
    return None


def newton_outcome(f, coeffs, x0, cutoff):
    """A root's terms, cutoff and bound, None, or the error raised."""
    try:
        hit = f(coeffs, x0, cutoff)
    except (ResourceCapError, TruncationError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)
    return hit and (hit[0].terms, hit[0].cutoff, hit[1])


SQRT2 = RealAlgebraic(2).nth_root(2)


@st.composite
def newton_cases(draw, mode):
    """f = (X - z0)(X - z1)(X - z2)?, every coefficient perturbed by small
    infinitesimal terms, sometimes truncated, and sometimes times 1/eps,
    seeded at z0 (or near it): simple roots, double roots and seeds that
    stall, over Q or Q(sqrt 2)."""
    exp = Exponent.lc if mode == LC else lambda q: Exponent.hahn({1: q})
    pos = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), F(3)])
    field = draw(st.sampled_from(["rational", "sqrt2"]))
    residues = [F(1), F(-1), F(2), F(1, 2), F(-3, 2)]
    residues += [SQRT2, 1 + SQRT2, -SQRT2 / 2] if field == "sqrt2" else []
    roots = [RealAlgebraic(z) for z in draw(st.lists(st.sampled_from(residues), min_size=2,
                                                     max_size=3))]
    coeffs = [LcNumber.one(mode)]
    for z in roots:  # times (X - z)
        coeffs = [a - b for a, b in zip([LcNumber.zero(mode)] + coeffs,
                                        [c * z for c in coeffs] + [LcNumber.zero(mode)])]
    for i in range(len(coeffs) - 1):
        for _ in range(draw(st.integers(0, 2))):
            coeffs[i] = coeffs[i] + LcNumber.monomial(exp(draw(pos)), draw(st.integers(-3, 3)))
        if draw(st.integers(0, 3)) == 0:
            coeffs[i] = coeffs[i].truncate(exp(draw(pos) + 1))
    if draw(st.booleans()):  # val f' < 0: the root is certified past the cutoff
        coeffs = [c * LcNumber.monomial(exp(-1), 1) for c in coeffs]
    x0 = LcNumber.from_scalar(mode, roots[0])
    if draw(st.booleans()):
        x0 = x0 + LcNumber.monomial(exp(draw(pos)), draw(st.integers(-2, 2)))
    return coeffs, x0, exp(draw(st.sampled_from([F(2), F(5, 2), F(4)])))


@pytest.mark.parametrize("mode", [LC, HAHN])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_newton_root_matches_the_reference_loop(mode, data):
    coeffs, x0, cutoff = data.draw(newton_cases(mode))
    assert (newton_outcome(newton_root, coeffs, x0, cutoff)
            == newton_outcome(reference_newton_root, coeffs, x0, cutoff))


def test_newton_root_matches_the_reference_loop_across_generators(monkeypatch):
    # the third root's seed lies on its own generator, off sqrt 2, so that
    # Newton call encodes on the compositum of the two: both lie in Q(sqrt 2),
    # so it has degree 2
    r2, zero = SQRT2, LcNumber.zero(LC)
    coeffs = [(eps(F(2, 3)) + zero).truncate(E(3)),
              eps(F(2, 3)) - eps(F(7, 3)) * (5 - r2 / 2) + eps(3) * (F(5, 3) + 2 * r2),
              -eps(F(1, 2)) + eps(F(7, 3)) * F(1, 2), eps(5) * (F(3, 4) + r2 / 3)]
    fields = []

    def checked(f, x0, cutoff):
        grid = _Grid(LC, [[x0], f])
        gens = {c._gen for x in [x0, *f] for _, c in x.terms if c._gen is not None}
        fields.append((len(gens), 0 if grid.rational else len(grid.gen.minpoly) - 1))
        got = newton_outcome(newton_root, f, x0, cutoff)
        assert got == newton_outcome(reference_newton_root, f, x0, cutoff)
        return newton_root(f, x0, cutoff)

    monkeypatch.setattr(rootfind, "newton_root", checked)
    hits = rootfind.poly_roots(coeffs, E(5))
    assert len(hits) == 3 and all(h.multiplicity == 1 for h in hits)
    assert (2, 2) in fields


@pytest.mark.parametrize("mode", [LC, HAHN])
def test_newton_root_gives_up(mode):
    one, zero = LcNumber.one(mode), LcNumber.zero(mode)
    e = eps() if mode == LC else eps_n(1)
    cut = E(6) if mode == LC else Exponent.hahn({1: 6})
    # f'(0) = 0: the derivative has no terms below any cutoff
    assert newton_root([-e, zero, one], zero, cut) is None
    # X^2 - 2 from 1: the residual stays at valuation 0, it never rises
    assert newton_root([one * -2, zero, one], one, cut) is None
    for case in (([-e, zero, one], zero), ([one * -2, zero, one], one)):
        assert reference_newton_root(*case, cut) is None


@pytest.mark.parametrize("mode", [LC, HAHN])
def test_newton_root_cuts_the_root_at_the_cutoff(mode):
    # f = (X - 1)/eps + O(eps^5), vd = -1: the residual at the exact seed 1
    # certifies it below eps^5, past the cutoff eps^4
    exp = Exponent.lc if mode == LC else lambda q: Exponent.hahn({1: q})
    inv = LcNumber.monomial(exp(-1), 1)
    coeffs = [-inv + LcNumber.zero(mode).truncate(exp(5)), inv]
    one, cut = LcNumber.one(mode), exp(4)
    want = (one.truncate(cut).terms, cut, exp(5))
    assert newton_outcome(newton_root, coeffs, one, cut) == want
    assert newton_outcome(reference_newton_root, coeffs, one, cut) == want


@pytest.mark.parametrize("mode", [LC, HAHN])
@pytest.mark.parametrize("c", [F(3, 2), SQRT2], ids=["rational", "sqrt2"])
def test_newton_root_inverts_the_lead_once(monkeypatch, mode, c):
    # X^2 - c^2*(1 + e) from c: f'(x) = 2x keeps its lead 2c through every
    # step while x's encoding changes, so the lead is inverted once per call
    e = eps() if mode == LC else eps_n(1)
    cut = E(12) if mode == LC else Exponent.hahn({1: 12})
    csq = LcNumber.from_scalar(mode, RealAlgebraic(c) * c)
    coeffs = [-csq - csq * e, LcNumber.zero(mode), LcNumber.one(mode)]
    x0 = LcNumber.from_scalar(mode, c)
    steps, inverses = [], []
    invert, inverse = _Grid.invert, RealAlgebraic.inverse
    monkeypatch.setattr(_Grid, "invert", lambda *a: steps.append(1) or invert(*a))
    monkeypatch.setattr(RealAlgebraic, "inverse", lambda x: inverses.append(x) or inverse(x))
    got = newton_outcome(newton_root, coeffs, x0, cut)
    monkeypatch.undo()
    assert len(steps) >= 3 and len(inverses) == 1
    assert got == newton_outcome(reference_newton_root, coeffs, x0, cut)


# ------------------------------------------------------------------ factorization


def test_factor_frozen_example():
    one = LcNumber.one(LC)
    s = PolySeries(LC, [-one, one, eps()])
    ns = normalize(s, 4, E(3))
    fact = weierstrass_factor(ns, 4, E(3))
    want_p0 = L("-1 + eps - 2*eps^2")
    assert (fact.p_coeffs[0] - want_p0).is_zero_below(E(3))
    assert fact.p_coeffs[1].is_exact and fact.p_coeffs[1] == 1
    want_b0 = L("1 + eps - eps^2")
    assert (fact.b_coeffs[0] - want_b0).is_zero_below(E(3))
    assert (fact.b_coeffs[1] - eps()).is_zero_below(E(3))


def test_factor_monic_polynomial_trivial():
    one = LcNumber.one(LC)
    s = PolySeries(LC, [-2 * one, LcNumber.zero(LC), one])
    ns = normalize(s, 4, E(6))
    fact = weierstrass_factor(ns, 4, E(6))
    assert len(fact.p_coeffs) == 3
    assert len(fact.b_coeffs) == 1 and fact.b_coeffs[0] == 1
    assert (fact.p_coeffs[0] + 2).is_zero_below(E(6))


def test_factor_quadratic_with_infinitesimal_cubic_tail():
    one = LcNumber.one(LC)
    zero = LcNumber.zero(LC)
    s = PolySeries(LC, [-2 * one, zero, one, eps()])
    ns = normalize(s, 6, E(6))
    fact = weierstrass_factor(ns, 6, E(6))
    assert len(fact.p_coeffs) == 3
    st = [c.standard_part().as_fraction() for c in fact.p_coeffs]
    assert st == [-2, 0, 1]
    assert fact.b_coeffs[0].standard_part().as_fraction() == 1
    # dual route: the positive root of P agrees with the distinguished root
    # of the series shifted to sqrt(2)
    from lcivt.rootfind import poly_roots
    hits = poly_roots(fact.p_coeffs, E(6))
    pos = [h for h in hits if h.value.sign() > 0][0]
    resid = poly_eval([-2 * one, zero, one, eps()], pos.value)
    assert resid.is_zero_below(E(5))


@pytest.mark.parametrize("mode", [LC, HAHN])
def test_lift_schedules_agree(mode):
    rng = random.Random(7)
    cut = E(12) if mode == LC else Exponent.hahn({1: 12})
    for _ in range(10):
        coeffs = _random_normalized_coeffs(rng, pivot_max=3, tail_deg=8, mode=mode)
        _assert_schedules_agree(normalize(PolySeries(mode, coeffs), 10, cut), 10, cut)


def _assert_schedules_agree(ns, cap, cut):
    f1 = weierstrass_factor(ns, cap, cut)
    f2 = weierstrass_factor_batched(ns, cap, cut)
    series = [ns.coeff(n, cut) for n in range(cap + 1)]
    for f in (f1, f2):
        assert all(c.is_zero_below(cut) for c in f.residual(series))
    assert len(f1.p_coeffs) == len(f2.p_coeffs)
    # B's lengths may differ; the shorter one is padded with zeros
    nb = max(len(f1.b_coeffs), len(f2.b_coeffs))
    zeros = [LcNumber.zero(ns.mode)] * nb
    for a, b in zip(f1.p_coeffs + (f1.b_coeffs + zeros)[:nb],
                    f2.p_coeffs + (f2.b_coeffs + zeros)[:nb]):
        assert (a - b).is_zero_below(cut)


@pytest.mark.parametrize("radicands", [(2,), (2, 3)], ids=["one-generator", "two-generators"])
def test_lift_schedules_agree_over_algebraic_coefficients(radicands):
    # coefficients over one generator, or over two that the kernel encodes
    # on their compositum of degree 4; st(P) is irrational either way
    r = [RealAlgebraic(m).nth_root(2) for m in radicands]
    one, zero = LcNumber.one(LC), LcNumber.zero(LC)
    cases = [[one * (r[0] - 1) + eps() * r[-1], one, eps(F(1, 2)) * r[-1], zero,
              eps(F(3, 2)) * r[0]]]
    if len(r) == 1:
        cases.append([eps(), one * (r[0] + 1) - eps(), one, eps(F(1, 2)) * r[0], eps() * 3])
    cap, cut = 4, E(2)
    for coeffs in cases:
        ns = normalize(PolySeries(LC, coeffs), cap, cut)
        grid = _Grid(LC, [[ns.coeff(n, cut) for n in range(cap + 1)]])
        assert not grid.rational and len(grid.gen.minpoly) - 1 == 2 * len(r)
        _assert_schedules_agree(ns, cap, cut)


def _exponent(mode, q, rng):
    """eps^q in lc mode; eps[1]^q in hahn mode, sometimes times eps[2]
    (which lies below every power of eps[1])."""
    if mode == LC:
        return E(q)
    return Exponent.hahn({1: q, 2: 1} if rng.random() < 0.3 else {1: q})


def _random_normalized_coeffs(rng, pivot_max=4, tail_deg=12, mode=LC):
    pivot = rng.randint(0, pivot_max)
    coeffs = []
    for _ in range(pivot):
        if rng.random() < 0.5:
            coeffs.append(LcNumber.from_scalar(mode, F(rng.randint(-4, 4), rng.randint(1, 3))))
        else:
            coeffs.append(LcNumber.monomial(_exponent(mode, rng.randint(0, 3), rng),
                                            rng.randint(-3, 3)))
    coeffs.append(LcNumber.one(mode))
    for _ in range(pivot + 1, tail_deg + 1):
        if rng.random() < 0.4:
            q = F(rng.randint(1, 6), rng.choice((1, 2)))
            coeffs.append(LcNumber.monomial(_exponent(mode, q, rng), rng.randint(-3, 3)))
        else:
            coeffs.append(LcNumber.zero(mode))
    return coeffs


def test_lift_cap_names_itself(monkeypatch):
    one = LcNumber.one(LC)
    ns = normalize(PolySeries(LC, [-one, one, eps(F(1, 2))]), 4, E(6))
    monkeypatch.setattr(hensel, "_LIFT_CAP", 2)
    with pytest.raises(ResourceCapError) as err:
        weierstrass_factor(ns, 4, E(6))
    msg = str(err.value)
    assert "_LIFT_CAP = 2" in msg
    assert "cutoff 6" in msg
    assert "least residual exponent reached 3/2" in msg


def test_lift_term_cap_fires_inside_the_loop(monkeypatch):
    one = LcNumber.one(LC)
    ns = normalize(PolySeries(LC, [-one, one, eps(F(1, 2))]), 4, E(6))
    # S has one term per coefficient; P and B grow past two in the loop
    monkeypatch.setenv("LCIVT_MAX_TERMS", "2")
    with pytest.raises(ResourceCapError, match="LCIVT_MAX_TERMS") as err:
        weierstrass_factor(ns, 4, E(6))
    assert any(entry.name == "merge" for entry in err.traceback)


def test_lift_term_cap_fires_in_the_residual_update(monkeypatch):
    one = LcNumber.one(LC)
    ns = normalize(PolySeries(LC, [-one, one, eps(F(1, 3)), eps(F(1, 2))]), 4, E(6))
    # the residual passes five terms before P or B does
    monkeypatch.setenv("LCIVT_MAX_TERMS", "5")
    with pytest.raises(ResourceCapError, match="LCIVT_MAX_TERMS") as err:
        weierstrass_factor(ns, 4, E(6))
    names = [entry.name for entry in err.traceback]
    assert "collect" in names and "merge" not in names


def test_certificate_recomputes_the_product(monkeypatch):
    one = LcNumber.one(LC)
    ns = normalize(PolySeries(LC, [-one, one, eps(F(1, 2))]), 4, E(6))
    merge, calls = _Grid.merge, []

    def counted(grid, seq, delta):
        calls.append(len(calls))
        return merge(grid, seq, delta)

    monkeypatch.setattr(_Grid, "merge", counted)
    weierstrass_factor(ns, 4, E(6))
    last = len(calls)  # the P += R of the last round

    def corrupted(grid, seq, delta):
        (first, *rest), d = counted(grid, seq, delta)
        if len(calls) == last:
            # one wrong term in P[0] after the loop's residual update:
            # the residual the loop carries still reads zero
            terms = first[0][:-1] + [(first[0][-1][0], 2 * first[0][-1][1])]
            first = (terms, terms[0][0], first[2])
        return [first, *rest], d

    calls.clear()
    monkeypatch.setattr(_Grid, "merge", corrupted)
    with pytest.raises(CertificateError, match="residual coefficient 0"):
        weierstrass_factor(ns, 4, E(6))


def test_newton_cap_names_itself(monkeypatch):
    one = LcNumber.one(LC)
    monkeypatch.setattr(hensel, "_NEWTON_CAP", 1)
    with pytest.raises(ResourceCapError, match=r"_NEWTON_CAP = 1 steps before the cutoff 8"):
        n_poly_root([eps(), one, one], E(8))
    with pytest.raises(ResourceCapError, match=r"_NEWTON_CAP = 1 steps before the cutoff 8"):
        (one + eps()).nth_root(2, E(8))


def test_residual_contract_randomized():
    rng = random.Random(11)
    cut = E(14)
    for _ in range(25):
        coeffs = _random_normalized_coeffs(rng)
        s = PolySeries(LC, coeffs)
        ns = normalize(s, 14, cut)
        fact = weierstrass_factor(ns, 14, cut)
        series = [ns.coeff(n, cut) for n in range(15)]
        for c in fact.residual(series):
            assert c.is_zero_below(cut)
        # an error just below the cutoff still fails the certificate
        bad = replace(fact, p_coeffs=[fact.p_coeffs[0] + eps(13)] + fact.p_coeffs[1:])
        assert not all(c.is_zero_below(cut) for c in bad.residual(series))
        # degree property: deg P = pivot
        assert len(fact.p_coeffs) - 1 == ns.N
        # standard parts of P match the pivot partial sum
        for a, b in zip(fact.p_coeffs, series):
            assert (a.standard_part() - b.standard_part()).is_zero
        # unit positivity on a rational grid: st(B(x)) = 1 hence B(x) > 0
        for q in (1, F(5, 4), F(3, 2), F(7, 4), 2):
            x = LcNumber.from_scalar(LC, q)
            bx = fact.unit_value(x)
            assert bx.standard_part().as_fraction() == 1
            assert bx.sign() == 1


def test_residual_checks_the_whole_product():
    one = LcNumber.one(LC)
    ns = normalize(PolySeries(LC, [-one, one, eps()]), 4, E(3))
    fact = weierstrass_factor(ns, 4, E(3))
    series = [ns.coeff(n, E(3)) for n in range(5)]
    assert all(c.is_zero_below(E(3)) for c in fact.residual(series))
    # a unit at X^(cap+1) in B changes P*B only beyond the cap
    b = fact.b_coeffs + [LcNumber.zero(LC)] * (5 - len(fact.b_coeffs)) + [one]
    bad = replace(fact, b_coeffs=b)
    assert not all(c.is_zero_below(E(3)) for c in bad.residual(series))


def test_degree_cap_certificate():
    one = LcNumber.one(LC)
    s = PolySeries(LC, [-one, one] + [eps()] * 9)
    ns = normalize(s, 10, E(5))
    with pytest.raises(CertificateError):
        weierstrass_factor(ns, 3, E(5))


def test_division_by_monic():
    one = LcNumber.one(LC)
    num = [eps(), one * 2, one, one]
    den = [-one, one]
    q, r = poly_divmod_monic(num, den)
    back = poly_mul(q, den)
    back = [a + (r[i] if i < len(r) else LcNumber.zero(LC)) for i, a in enumerate(back)]
    for a, b in zip(back, num):
        assert (a - b).is_exact_zero
