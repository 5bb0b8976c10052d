"""Acceptance suite: every shipped claim, one pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py -v`` so the PASS/FAIL lines
print as they complete.  All checks are exact; the only tolerances are the
valuation cutoffs stated inline.
"""

import random
import time
from fractions import Fraction as F

import pytest

from lcivt.hensel import weierstrass_factor
from lcivt.lcnum import HAHN, LC, Exponent, LcNumber, eps, eps_n, horner
from lcivt.polys import count_roots_open, degree, monic, pderiv, pdivmod, peval, pgcd
from lcivt.pseries import PolyMulSeries, PolySeries, evaluate, normalize, partial_sum
from lcivt.realalg import RealAlgebraic, isolate_real_roots
from lcivt.rootfind import (
    RootReport,
    count_zeros,
    ivt_root,
    multiplicity_at,
    poly_roots,
    target_extreme_kind,
    track_extremes,
)

from conftest import (alternating_square_series, double_zero_series, hahn_alternating_series,
                      num, residual)

ONE = LcNumber.one(LC)
ZERO = LcNumber.zero(LC)


def E(q):
    return Exponent.lc(F(q))


def report(criterion, ok, detail):
    print("criterion %2d: %s  (%s)" % (criterion, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (criterion, detail)


def test_criterion_1_nilpotent_sign_table():
    t0 = time.monotonic()
    s = alternating_square_series()
    ok = True
    for l in (1, 2, 3):
        ok &= evaluate(s, eps(-4 * l), E(1)).sign() == 1
        ok &= evaluate(s, eps(-4 * l - 2), E(1)).sign() == -1
    elapsed = time.monotonic() - t0
    report(1, ok and elapsed < 10.0,
           "signs exact for l=1..3, %.2fs (< 10s)" % elapsed)


def test_criterion_2_nilpotent_roots():
    t0 = time.monotonic()
    s = alternating_square_series()
    cut = E(25)
    ok = True
    for l in (1, 2):
        a, b = eps(-4 * l), eps(-4 * l - 2)
        rep = ivt_root(s, a, b, cut)
        inside = rep.root.compare(a) > 0 and rep.root.compare(b) < 0
        certified = evaluate(s, rep.root, cut).is_zero_below(cut)
        ok &= inside and certified
    elapsed = time.monotonic() - t0
    report(2, ok and elapsed < 60.0,
           "roots in the brackets with valuation(S(c)) >= 25, %.1fs (< 60s)" % elapsed)


def test_criterion_3_hahn_sign_table():
    s = hahn_alternating_series()
    cut = Exponent.hahn({1: 1})
    ok = all(
        evaluate(s, eps_n(h, -1), cut).sign() == (1 if h % 2 == 0 else -1)
        for h in range(2, 7))
    report(3, ok, "sign(S(eps_h^-1)) = (-1)^h exactly for h=2..6")


_TAIL_EXPONENTS = (F(1, 2), F(1), F(3, 2), F(2), F(3))


def _random_normalized(rng):
    """Random normalized series: pivot <= 4, sparse M-tail up to degree 12."""
    pivot = rng.randint(0, 4)
    coeffs = []
    for _ in range(pivot):
        base = F(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        c = num(base)
        if rng.random() < 0.5:
            c = c + LcNumber.monomial(Exponent.lc(rng.choice(_TAIL_EXPONENTS)),
                                      rng.randint(-3, 3))
        coeffs.append(c)
    coeffs.append(ONE)
    tail_positions = rng.sample(range(pivot + 1, 13), rng.randint(1, 4))
    for n in range(pivot + 1, 13):
        if n in tail_positions:
            coeffs.append(LcNumber.monomial(Exponent.lc(rng.choice(_TAIL_EXPONENTS)),
                                            rng.choice((-3, -2, -1, 1, 2, 3))))
        else:
            coeffs.append(ZERO)
    return PolySeries(LC, coeffs), pivot


@pytest.fixture(scope="module")
def factorizations():
    """(normalized series, planted pivot, S = P*B) for 200 random series.

    Criteria 4 and 5 share these, so either can run without the other.
    """
    rng = random.Random(20260808)
    cut = E(30)
    out = []
    for _ in range(200):
        s, pivot = _random_normalized(rng)
        ns = normalize(s, 12, cut)
        out.append((ns, pivot, weierstrass_factor(ns, 12, cut)))
    return out


def test_criterion_4_factorization_residuals(factorizations):
    cut = E(30)
    failures = 0
    for ns, pivot, fact in factorizations:
        series = [ns.coeff(n, cut) for n in range(13)]
        ok = all(c.is_zero_below(cut) for c in residual(fact, series))
        ok &= ns.N == pivot
        ok &= all((a.standard_part() - b.standard_part()).is_zero
                  for a, b in zip(fact.p_coeffs, series))
        if not ok:
            failures += 1
    report(4, failures == 0,
           "200 random factorizations: residual valuation >= 30, st(P) = st(S_N); "
           "%d failures" % failures)


def test_criterion_5_unit_positivity(factorizations):
    grid = (1, F(5, 4), F(3, 2), F(7, 4), 2)
    failures = 0
    for _, _, fact in factorizations:
        for q in grid:
            st = horner([fact.b_coeffs], num(q))[0].standard_part()
            if not (st - 1).is_zero:
                failures += 1
    report(5, failures == 0,
           "st(B(x)) = 1 at 5 grid points for all 200 factorizations; "
           "%d failures" % failures)


def _random_planted_root(rng):
    """Valuation-zero expansion with <= 5 terms and standard part in [9/8, 15/8]."""
    c = num(F(rng.randint(9, 15), 8))
    for _ in range(rng.randint(0, 4)):
        c = c + LcNumber.monomial(Exponent.lc(rng.choice((F(1, 2), 1, 2, 3, 4))),
                                  F(rng.randint(-2, 2), rng.choice((1, 2))))
    return c


def _random_unit(rng):
    coeffs = [ONE]
    for _ in range(rng.randint(1, 5)):
        coeffs.append(LcNumber.monomial(Exponent.lc(rng.choice((F(1, 2), 1, 2, 3))),
                                        rng.randint(-2, 2)))
    return PolySeries(LC, coeffs)


@pytest.fixture(scope="module")
def planted():
    """(series, planted root c*, ivt root report) for 100 planted roots.

    Criteria 6 and 10 share these, so either can run without the other.
    """
    rng = random.Random(60608)
    cut = E(25)
    out = []
    for _ in range(100):
        c_star = _random_planted_root(rng)
        s = PolyMulSeries([-c_star, ONE], _random_unit(rng))
        out.append((s, c_star, ivt_root(s, ONE, num(2), cut)))
    return out


def test_criterion_6_planted_root_recovery(planted):
    need = E(23)  # cutoff - 2
    failures = 0
    for _, c_star, rep in planted:
        diff = rep.root - c_star
        ok = diff.is_zero_below(need) or (
            diff.terms and diff.terms[0][0].compare(need) >= 0)
        if not ok:
            failures += 1
    report(6, failures == 0,
           "100 planted roots recovered with valuation(c - c*) >= 23; "
           "%d failures" % failures)


def squarefree_part(a):
    """The monic squarefree part of a rational polynomial: a / gcd(a, a')."""
    g = pgcd(a, pderiv(a))
    if degree(g) <= 0:
        return monic(a)
    q, _ = pdivmod(a, g)
    return monic(q)


def test_criterion_7_double_zero():
    t = double_zero_series()
    window = (num(F(3, 4)), num(F(5, 4)))
    target = RootReport(root=ONE, multiplicity=2, residual_valuation=None,
                        interval=window)
    kind = target_extreme_kind(t, target)
    cut = E(30)
    grid = [F(3, 4) + F(k, 32) for k in range(17)]
    dists = []
    ok = kind == "min"
    for n in (5, 10, 20):
        coeffs = partial_sum(t, n)
        ok &= all(horner([coeffs], num(x))[0].sign() > 0 for x in grid)
        hits = [h for h in poly_roots(coeffs, cut, window=window)
                if h.root.compare(window[0]) >= 0 and h.root.compare(window[1]) <= 0]
        ok &= not hits
        rec = track_extremes(t, target, [n], window)[0]
        mins = [(loc, dv) for k, loc, dv in rec.items if k == "min" and dv is not None]
        ok &= bool(mins) and mins[0][1].sign() > 0
        if mins:
            dists.append(mins[0][1])
    ok &= all(dists[i].compare(dists[i + 1]) <= 0 for i in range(len(dists) - 1))
    report(7, ok,
           "T_n rootless on [3/4,5/4] (grid + exact check); min extremes at "
           "distance valuations %s, nondecreasing" % [str(d) for d in dists])


def test_criterion_8_residue_level_oracle():
    rng = random.Random(80808)
    failures = 0
    checked = 0
    while checked < 100:
        deg = rng.randint(1, 6)
        coeffs = [F(rng.randint(-9, 9)) for _ in range(deg + 1)]
        if all(c == 0 for c in coeffs):
            continue
        checked += 1
        s = PolySeries(LC, [num(c) for c in coeffs])
        got, reports = count_zeros(s, ZERO, ONE, E(20))
        sf = squarefree_part(coeffs)
        want = count_roots_open(sf, F(0), F(1))
        want += 1 if peval(sf, F(0)) == 0 else 0
        want += 1 if peval(sf, F(1)) == 0 else 0
        ok = got == want
        oracle_roots = isolate_real_roots(coeffs, (F(0), F(1)))
        ok &= len(oracle_roots) == len(reports)
        for rep in reports:
            root_value = rep.root.standard_part()
            ok &= any((root_value - v).is_zero for v, _ in oracle_roots)
        if not ok:
            failures += 1
    report(8, failures == 0,
           "count_zeros on [0,1] matches the independent Sturm count and root "
           "set for 100 rational polynomials; %d failures" % failures)


def _random_value(rng, mode):
    terms = []
    for _ in range(rng.randint(0, 3)):
        if mode == LC:
            exp = Exponent.lc(F(rng.randint(-4, 4), rng.choice((1, 2))))
        else:
            exp = Exponent.hahn({rng.randint(1, 3): F(rng.randint(-3, 3))})
        terms.append((exp, RealAlgebraic(F(rng.randint(-5, 5), rng.choice((1, 2))))))
    return LcNumber(mode, terms)


def test_criterion_9_algebra_law_suite():
    failures = 0
    for mode in (LC, HAHN):
        rng = random.Random(90909 if mode == LC else 91909)
        zero = LcNumber.zero(mode)
        for _ in range(1000):
            a, b, c = (_random_value(rng, mode) for _ in range(3))
            try:
                ok = ((a + b) + c).compare(a + (b + c)) == 0
                ok &= (a + b).compare(b + a) == 0
                ok &= ((a * b) * c).compare(a * (b * c)) == 0
                ok &= (a * b).compare(b * a) == 0
                ok &= (a * (b + c)).compare(a * b + a * c) == 0
                if a.compare(b) < 0:
                    ok &= (a + c).compare(b + c) < 0
                if a.compare(zero) > 0 and b.compare(zero) > 0:
                    ok &= (a * b).compare(zero) > 0
                if not a.is_exact_zero and not b.is_exact_zero:
                    ok &= (a * b).valuation() == a.valuation() + b.valuation()
                    s = a + b
                    if not s.is_exact_zero:
                        mn = min(a.valuation(), b.valuation())
                        ok &= s.valuation().compare(mn) >= 0
                        if a.valuation() != b.valuation():
                            ok &= s.valuation() == mn
            except Exception:
                ok = False
            if not ok:
                failures += 1
    report(9, failures == 0,
           "ordered-field and valuation laws over 1000 triples per mode; "
           "%d failures" % failures)


def test_criterion_10_multiplicities(planted):
    t = double_zero_series()
    ok = multiplicity_at(t, ONE, E(12)) == 2
    failures = 0
    for s, _, rep in planted:
        if multiplicity_at(s, rep.root, E(12)) != 1:
            failures += 1
    report(10, ok and failures == 0,
           "order 2 at the double zero; order 1 for all 100 planted roots "
           "(%d failures)" % failures)
