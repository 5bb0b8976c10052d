import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from lcivt import hensel, lcnum, polys, rootfind
from lcivt.errors import CertificateError, ResourceCapError, TruncationError
from lcivt.hensel import (
    n_poly_root,
    newton_root,
    poly_divmod_monic,
    poly_mul,
    weierstrass_factor,
    weierstrass_factor_batched,
)
from lcivt.lcnum import HAHN, LC, Exponent, LcNumber, _Grid, eps, eps_n, horner
from lcivt.pseries import PolySeries, normalize
from lcivt.realalg import RealAlgebraic

from conftest import E, L, poly_deriv, residual
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
    assert horner([coeffs], got)[0].is_zero_below(cut)


def test_degree_one_root_is_exact():
    got = n_poly_root([eps(3), LcNumber.one(LC)], E(4))
    assert got.is_exact
    assert (got + eps(3)).is_exact_zero


def test_cubic_root_leading_term():
    one = LcNumber.one(LC)
    got = n_poly_root([eps(2), one, LcNumber.zero(LC), one], E(8))
    assert got.terms[0][0] == E(2)
    assert got.terms[0][1].as_fraction() == -1
    assert horner([[eps(2), one, LcNumber.zero(LC), one]], got)[0].is_zero_below(E(8))


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
@settings(max_examples=200, deadline=None)
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
    steps, inverses, passes = [], [], []
    invert, inverse, horner_pass = _Grid.invert, RealAlgebraic.inverse, _Grid.horner
    monkeypatch.setattr(_Grid, "invert", lambda *a: steps.append(1) or invert(*a))
    monkeypatch.setattr(RealAlgebraic, "inverse", lambda x: inverses.append(x) or inverse(x))
    monkeypatch.setattr(_Grid, "horner", lambda *a: passes.append(1) or horner_pass(*a))
    got = newton_outcome(newton_root, coeffs, x0, cut)
    monkeypatch.undo()
    assert len(steps) >= 3 and len(inverses) == 1
    # five steps, each under Hensel's condition: a pass each for f and f',
    # but none for f' on the step that certifies, where vd is the lemma's
    assert len(passes) == 9
    assert got == newton_outcome(reference_newton_root, coeffs, x0, cut)


def hahn_or_lc(mode):
    """Exponent q of eps in lc mode, of eps[1] in hahn mode."""
    return Exponent.lc if mode == LC else lambda q: Exponent.hahn({1: q})


@pytest.mark.parametrize("mode", [LC, HAHN])
def test_newton_root_pinned_cases(mode):
    exp = hahn_or_lc(mode)
    one, zero, e = LcNumber.one(mode), LcNumber.zero(mode), LcNumber.monomial(exp(1), 1)
    inv = LcNumber.monomial(exp(-1), 1)
    # the double root (X - 1)^2 + O(e^3) from 1 + e: val f(x) = 2 = 2 val f'(x),
    # outside Hensel's condition, so the step runs at the cap; then f(x) is
    # O(e^2), which certifies 1 below e^2 less val f'(x) = e
    double = ([one.truncate(exp(3)), -2 * one, one], one + e, exp(F(5, 2)))
    # (X + 3/2)^2 + (2e^2 + e^3)X + 3e^2 from -3/2: val f(x) = 3 < 4 = 2 val f'(x),
    # so the next step may not take val f'(x) from the lemma
    near = ([F(9, 4) * one + 3 * e * e, 3 * one + 2 * e * e + e * e * e, one],
            F(-3, 2) * one, exp(2))
    # ((X - 1)(X + 2) + e)/e from 1: val f' = -1; the root is certified below
    # the residual's e^3 less val f', here the cutoff e^4
    negative = ([(-2 * one + e) * inv, inv, inv], one, exp(4))
    root = one - e * F(1, 3) - e * e * F(1, 27) - e * e * e * F(2, 243)
    # X^2 - 2 - e from sqrt 2
    sqrt2 = ([-2 * one - e, zero, one], LcNumber.from_scalar(mode, SQRT2), exp(6))
    # (2e - 3)X^3 + (3 + O(h^7))X^2 - (h + O(h^7))X + h, h = e^(1/2), from -e^4:
    # the first step jumps to the root near 1, and f'(-e^4) = -h + O(h^7) leaves
    # it known below h^7 + val r - 2 val f' = e^3.  The later residuals, at
    # val f' = 0, alone would certify it below e^(7/2)
    h = LcNumber.monomial(exp(F(1, 2)), 1)
    jump = ([h, (zero - h).truncate(exp(F(7, 2))), (3 * one + zero).truncate(exp(F(7, 2))),
             2 * e - 3 * one], -e * e * e * e, exp(6))
    near_one = one + e * F(2, 3) - h * e * F(2, 9) + e * e * F(14, 27) - h * e * e * F(2, 81)
    for case, want in ((double, (one.truncate(exp(1)).terms, exp(1), exp(2))),
                       (near, ((F(-3, 2) * one).terms, exp(1), exp(2))),
                       (negative, (root.terms, exp(4), exp(3))),
                       (jump, (near_one.terms, exp(3), exp(3))),
                       (sqrt2, None)):
        got = newton_outcome(newton_root, *case)
        assert got == newton_outcome(reference_newton_root, *case)
        assert want is None or got == want
    x, bound = newton_root(*sqrt2)
    assert bound == exp(6) and x.cutoff == exp(6) and len(x.terms) == 6
    assert (x * x - 2 * one - e).is_zero_below(exp(6))


@pytest.mark.parametrize("mode", [LC, HAHN])
def test_newton_root_steps_a_linear_f_at_the_cap(monkeypatch, mode):
    # (1 + e)X - (1 + e + e^2) from 1: a linear f's step is exact, so it runs at
    # the cap e^8 and the next step certifies: two passes each
    exp = hahn_or_lc(mode)
    one, e = LcNumber.one(mode), LcNumber.monomial(exp(1), 1)
    case = ([-(one + e + e * e), one + e], one, exp(8))
    passes, horner_pass = [], _Grid.horner
    monkeypatch.setattr(_Grid, "horner", lambda *a: passes.append(1) or horner_pass(*a))
    got = newton_outcome(newton_root, *case)
    monkeypatch.undo()
    assert len(passes) == 4
    assert got == newton_outcome(reference_newton_root, *case)
    x, _ = newton_root(*case)
    assert x.cutoff == exp(8) and (x * (one + e) - one - e - e * e).is_zero_below(exp(8))


@pytest.mark.parametrize("mode", [LC, HAHN])
def test_newton_root_certifies_where_the_reference_loop_does(mode):
    # where f'(x)'s lead cancels, each step lowers x's marker by the same
    # amount, so where the root is certified depends on the step count.  Both
    # cases have coefficients of val -1 and val f'(x) = -1/2 at the seed, and
    # are under Hensel's condition; steps below its bound there took one step
    # less (early) and one more (late) than the reference loop, which certify
    # 1 below e^2 and -1 - 3e below e^(3/2).  Such steps run at the cutoff
    exp = hahn_or_lc(mode)
    one, zero = LcNumber.one(mode), LcNumber.zero(mode)
    m = lambda q, c=1: LcNumber.monomial(exp(q), c)
    # e^-1 X^2 - (2e^-1 + 3e^(-1/2) + e^2)X + e^-1 + 3e^(-1/2) + O(e^2) from 1 - 2e
    early = ([m(-1) + m(F(-1, 2), 3) + zero.truncate(exp(2)),
              m(-1, -2) + m(F(-1, 2), -3) - m(2), m(-1)], one - m(1, 2), exp(4))
    # e^-1 X^3 + (3e^-1 - e^(-1/2) + 3e^(1/2))X^2 + (3e^-1 - e^(-1/2))X
    # + e^-1 + 2e + O(e^2) from -1
    late = ([m(-1) + m(1, 2) + zero.truncate(exp(2)), m(-1, 3) - m(F(-1, 2)),
             m(-1, 3) - m(F(-1, 2)) + m(F(1, 2), 3), m(-1)], -one, exp(F(5, 2)))
    for case, want in ((early, (one.terms, exp(F(3, 2)), exp(1))),
                       (late, ((-one - m(1, 3) - m(F(3, 2), 2)).terms, exp(2), exp(F(3, 2))))):
        got = newton_outcome(newton_root, *case)
        assert got == want
        assert got == newton_outcome(reference_newton_root, *case)


@pytest.mark.parametrize("mode", [LC, HAHN])
@pytest.mark.parametrize("c", [F(3, 2), SQRT2], ids=["rational", "sqrt2"])
def test_newton_root_steps_at_hensel_precision(monkeypatch, mode, c):
    # X^2 - c^2*(1 + e) from c: lambda = vc = vd = 0, so the step from a residual
    # at e^(2^k) reaches e^(2^(k+1)): iterate k carries the terms below e^(2^k)
    # and none from there on, until the step that reaches the cap e^12
    exp = hahn_or_lc(mode)
    csq = LcNumber.from_scalar(mode, RealAlgebraic(c) * c)
    e, cut = LcNumber.monomial(exp(1), 1), exp(12)
    coeffs = [-csq - csq * e, LcNumber.zero(mode), LcNumber.one(mode)]
    x0 = LcNumber.from_scalar(mode, c)
    iterates, horner_pass = [], _Grid.horner
    monkeypatch.setattr(_Grid, "horner", lambda grid, poly, cd, x, dx: iterates.append(
        (grid, x)) or horner_pass(grid, poly, cd, x, dx))
    got = newton_outcome(newton_root, coeffs, x0, cut)
    monkeypatch.undo()
    iterates = iterates[::2]  # f(x) and f'(x) see the same x
    assert [[q for q, _ in x[0]] for _, x in iterates] == [
        [grid.cut(exp(i)) for i in range(n)] for (grid, _), n in zip(iterates, (1, 2, 4, 8, 12))]
    assert [x[2] for _, x in iterates] == [None] + [iterates[0][0].cut(cut)] * 4
    assert got == newton_outcome(reference_newton_root, coeffs, x0, cut)


def test_newton_root_fails_like_the_reference_where_the_cap_is_out_of_reach(monkeypatch):
    # X^2 - 1 - eps[1] from 1 at eps[2]: the root's tail in eps[1] has no end
    # below eps[2], and no multiple of a margin in eps[1] reaches eps[2].  Each
    # step runs at the cap, so the inverse of f'(x) = 2 + eps[1] fails as in the
    # reference loop; steps below the cap would double x's terms until
    # _MAX_TERMS (here 64) fired
    monkeypatch.setattr(lcnum, "_MAX_TERMS", 64)
    one, cut = LcNumber.one(HAHN), Exponent.hahn({2: 1})
    case = ([-one - eps_n(1), LcNumber.zero(HAHN), one], one, cut)
    want = ("ResourceCapError", "inversion cutoff unreachable in this value group")
    assert newton_outcome(newton_root, *case) == want
    assert newton_outcome(reference_newton_root, *case) == want
    # (eps[1]/eps[2])(X - 1/2)(X^2 - 1) + 2eps[1]^(3/2)/eps[2] from 1/2 at eps[1]^2:
    # the second step inverts an f'(x) whose terms step by powers of eps[1] to
    # a relative precision of eps[2], and fails as the reference loop's does
    u = LcNumber.monomial(Exponent.hahn({1: 1, 2: -1}), 1)
    case = ([u * F(1, 2) + LcNumber.monomial(Exponent.hahn({1: F(3, 2), 2: -1}), 2), -u,
             -u * F(1, 2), u], LcNumber.from_scalar(HAHN, F(1, 2)), Exponent.hahn({1: 2}))
    assert newton_outcome(newton_root, *case) == want
    assert newton_outcome(reference_newton_root, *case) == want


def caller_outcomes(monkeypatch, call):
    """call()'s root terms and cutoff, or its error, with ``newton_root`` and
    with ``reference_newton_root`` in its place."""
    def outcome():
        try:
            x = call()
        except (ResourceCapError, TruncationError, ZeroDivisionError) as exc:
            return type(exc).__name__, str(exc)
        return x.terms, x.cutoff

    got = outcome()
    with monkeypatch.context() as patched:
        patched.setattr(hensel, "newton_root", reference_newton_root)
        return got, outcome()


def random_element(rng, mode, lead, positive):
    """lead + small terms at positive exponents, sometimes truncated."""
    exp = hahn_or_lc(mode)
    pos = [F(1, 2), F(1), F(3, 2), F(2), F(3)]
    x = LcNumber.from_scalar(mode, lead)
    for _ in range(rng.randint(0, 2)):
        x = x + LcNumber.monomial(exp(rng.choice(pos)), rng.choice([-2, -1, 1, 3]))
    if rng.random() < 0.25:
        x = x.truncate(exp(rng.choice(pos) + (1 if lead or not positive else 0)))
    return x


@pytest.mark.parametrize("mode", [LC, HAHN])
def test_n_poly_root_matches_the_reference_loop(monkeypatch, mode):
    rng, exp = random.Random(1801), hahn_or_lc(mode)
    for _ in range(60):
        leads = [rng.choice([0, 1, -2, F(1, 2), SQRT2]) for _ in range(rng.randint(0, 2))]
        coeffs = [random_element(rng, mode, 0, True),
                  random_element(rng, mode, rng.choice([-2, -1, 1, 2, SQRT2]), False),
                  *[random_element(rng, mode, c, False) for c in leads], LcNumber.one(mode)]
        if not coeffs[0].terms and coeffs[0].cutoff is None:
            coeffs[0] = LcNumber.monomial(exp(1), 1)
        cut = exp(rng.choice([2, F(5, 2), 4, 6]))
        got, want = caller_outcomes(monkeypatch, lambda: n_poly_root(coeffs, cut))
        assert got == want


@pytest.mark.parametrize("mode", [LC, HAHN])
def test_nth_root_matches_the_reference_loop(monkeypatch, mode):
    rng, exp = random.Random(1802), hahn_or_lc(mode)
    for _ in range(60):
        n = rng.randint(2, 4)
        lead = rng.choice([1, 2, F(9, 4), F(1, 3), SQRT2]) * rng.choice([1, -1] if n % 2 else [1])
        x = random_element(rng, mode, lead, False) * LcNumber.monomial(
            exp(rng.choice([-1, 0, F(1, 2), 2])), 1)
        cut = exp(rng.choice([2, F(5, 2), 4, 6]))
        got, want = caller_outcomes(monkeypatch, lambda: x.nth_root(n, cut))
        assert got == want


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
    pos = [h for h in hits if h.root.sign() > 0][0]
    resid = horner([[-2 * one, zero, one, eps()]], pos.root)[0]
    assert resid.is_zero_below(E(5))


@pytest.mark.parametrize("mode", [LC, HAHN])
def test_lift_schedules_agree(mode):
    rng = random.Random(7)
    cut = E(12) if mode == LC else Exponent.hahn({1: 12})
    for _ in range(10):
        coeffs = _random_normalized_coeffs(rng, pivot_max=3, tail_deg=8, mode=mode)
        _assert_schedules_agree(normalize(PolySeries(mode, coeffs), 10, cut), 10, cut)
    # st(P) off the integers: the integer split takes X = Y/e with e = 2 and e = 3
    # (and, in the first, a term of P past the cutoff)
    exp, one = hahn_or_lc(mode), LcNumber.one(mode)
    cut, eps_half = exp(6), LcNumber.monomial(exp(F(1, 2)), 1)
    for coeffs in ([one * F(-1, 2) + LcNumber.monomial(exp(7), 1), one, eps_half],
                   [one * F(1, 3), one * F(-2, 3), one, LcNumber.monomial(exp(1), 1), eps_half]):
        _assert_schedules_agree(normalize(PolySeries(mode, coeffs), 10, cut), 10, cut)


def _assert_schedules_agree(ns, cap, cut):
    f1 = weierstrass_factor(ns, cap, cut)
    f2 = weierstrass_factor_batched(ns, cap, cut)
    series = [ns.coeff(n, cut) for n in range(cap + 1)]
    for f in (f1, f2):
        assert all(c.is_zero_below(cut) for c in residual(f, series))
    # the slice rule's P keeps S's terms past the cutoff; the batched rule's does not
    for p, c in zip(f1.p_coeffs, series):
        assert [t for t in p.terms if t[0] >= cut] == [t for t in c.terms if t[0] >= cut]
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


def test_lift_cap_names_itself_in_hahn_mode(monkeypatch):
    # P = X - 1 + O(eps[1]^(1/2)) takes a round per power of eps[1]^(1/2), and
    # none of them reaches the cutoff eps[2]
    one, cut = LcNumber.one(HAHN), Exponent.hahn({2: 1})
    ns = normalize(PolySeries(HAHN, [-one, one, LcNumber.monomial(Exponent.hahn({1: F(1, 2)}), 1)]),
                   4, cut)
    monkeypatch.setattr(hensel, "_LIFT_CAP", 3)
    with pytest.raises(ResourceCapError) as err:
        weierstrass_factor(ns, 4, cut)
    msg = str(err.value)
    assert "_LIFT_CAP = 3" in msg and "cutoff 2:1" in msg
    assert "least residual exponent reached 1:2" in msg


def test_lift_term_cap_fires_inside_the_loop(monkeypatch):
    # P or B passes the cap in a round of the loop, before the certificate:
    # the error comes from the loop's own count, and _certify never runs.
    # In the second series the X-major residual passed five terms first
    one = LcNumber.one(LC)
    cases = [(normalize(PolySeries(LC, series), 4, E(6)), cap, count) for series, cap, count in (
        ([-one, one, eps(F(1, 2))], 2, 3), ([-one, one, eps(F(1, 3)), eps(F(1, 2))], 5, 6))]
    monkeypatch.setattr(hensel, "_certify", lambda *args: pytest.fail("certificate reached"))
    for ns, cap, count in cases:
        monkeypatch.setattr(lcnum, "_MAX_TERMS", cap)
        with pytest.raises(ResourceCapError, match="%d terms in one number, past the cap "
                           "_MAX_TERMS = %d" % (count, cap)) as err:
            weierstrass_factor(ns, 4, E(6))
        assert [entry.name for entry in err.traceback][-2:] == ["weierstrass_factor",
                                                                "_check_terms"]


def test_lift_term_cap_fires_in_the_residual_update(monkeypatch):
    one = LcNumber.one(LC)
    ns = normalize(PolySeries(LC, [-one, one, eps(F(1, 2)), eps(F(1, 2))]), 4, E(6))
    # a residual slice passes two terms (by X-degree) before any B count does:
    # the kernel's own check in the slice accumulation fires
    monkeypatch.setattr(hensel, "_certify", lambda *args: pytest.fail("certificate reached"))
    monkeypatch.setattr(lcnum, "_MAX_TERMS", 2)
    with pytest.raises(ResourceCapError, match="3 terms in one number, past the cap "
                       "_MAX_TERMS = 2") as err:
        weierstrass_factor(ns, 4, E(6))
    names = [entry.name for entry in err.traceback]
    assert names[names.index("weierstrass_factor") + 1] == "combine"


def test_certificate_recomputes_the_product(monkeypatch):
    one = LcNumber.one(LC)
    ns = normalize(PolySeries(LC, [-one, one, eps(F(1, 2))]), 4, E(6))
    certify = hensel._certify

    def corrupted(grid, s, p, b, cap):
        # one wrong term in P[0] after the loop: the loop's residual slices
        # all cancelled
        (first, *rest), d = p
        terms = first[0][:-1] + [(first[0][-1][0], 2 * first[0][-1][1])]
        return certify(grid, s, ([(terms, terms[0][0], first[2]), *rest], d), b, cap)

    monkeypatch.setattr(hensel, "_certify", corrupted)
    with pytest.raises(CertificateError, match="residual coefficient 0"):
        weierstrass_factor(ns, 4, E(6))


def xmajor_slice_factor(ns, degree_cap, cutoff):
    """The slice rule held X-major, as one correction loop: the residual
    S - P*B is a sequence of numbers by X-degree, each round divides its
    least exponent slice by st(P) in the residue field, and B += Q,
    P += R and resid - Q*P - R*B are each one ``_Grid.combine`` over every
    coefficient.  It shares ``_certify`` and ``_Grid`` with
    ``weierstrass_factor``, and nothing else."""
    mode, pivot = ns.mode, ns.N
    s = [ns.coeff(n, cutoff) for n in range(degree_cap + 1)]
    grid = _Grid(mode, [s], cutoff)
    ds, cap = grid.cdens[0], grid.cut(cutoff)
    se, one = (grid.encode(s, ds), ds), (grid.const(1), 1)
    p, b = (se[0][: pivot + 1], ds), one
    zero = LcNumber.zero(mode).truncate(cutoff)
    resid = (grid.encode([zero] * (pivot + 1) + [c.truncate(cutoff) for c in s[pivot + 1:]], ds),
             ds)
    pbar = [c.standard_part() for c in s[: pivot + 1]]
    for _ in range(hensel._LIFT_CAP):
        nums = grid.decode_all(resid)
        if not any(c.terms for c in nums):
            break
        gamma = min(c.terms[0][0] for c in nums if c.terms)
        qr = polys.pdivmod([c.coeff_at(gamma) for c in nums], pbar)
        q, rem = (grid.encoded([LcNumber.monomial(gamma, c) for c in cs]) for cs in qr)
        b = grid.combine([(b, one, 1), (q, one, 1)], max(len(b[0]), len(q[0])), None)
        resid = grid.combine([(one, resid, 1), (q, p, -1), (rem, b, -1)], degree_cap + 1, cap)
        p = grid.combine([(p, one, 1), (rem, one, 1)], max(len(p[0]), len(rem[0])), None)
    else:
        left = [c.terms[0][0] for c in grid.decode_all(resid) if c.terms]
        if left:
            raise ResourceCapError(
                "factorization lifting hit _LIFT_CAP = %d rounds before the cutoff %s; "
                "least residual exponent reached %s" % (hensel._LIFT_CAP, cutoff, min(left)))
    for n, (terms, _, c) in enumerate(hensel._certify(grid, se, p, b, cap)[0]):
        if terms or c < cap:
            raise CertificateError("residual coefficient %d not certified below the cutoff" % n)
    return hensel.Factorization(grid.decode_all(p), grid.decode_all(b), cutoff, degree_cap)


def lift_outcome(factor, ns, degree_cap, cutoff):
    """P and B rendered, with B's length and every cutoff marker; or the error."""
    try:
        f = factor(ns, degree_cap, cutoff)
    except (CertificateError, ResourceCapError, TruncationError) as exc:
        return type(exc).__name__, str(exc)
    return ([str(c) for c in f.p_coeffs], [str(c) for c in f.b_coeffs], len(f.b_coeffs),
            [c.cutoff for c in f.p_coeffs + f.b_coeffs])


@st.composite
def lift_cases(draw):
    """A series with its pivot coefficient exactly 1, a degree cap and a cutoff:
    lc or hahn (terms in eps[1], sometimes eps[2]), rational or sqrt(2) and
    sqrt(3) coefficients, pivot 0-4, low coefficients with terms past the
    cutoff, and now and then a coefficient truncated below the cutoff."""
    mode = draw(st.sampled_from([LC, HAHN]))
    roots = [RealAlgebraic(m).nth_root(2) for m in draw(st.sampled_from([(), (2,), (2, 3)]))]
    scalars = [F(1), F(-2), F(1, 2), F(-3, 2), F(3)] + [r * k for r in roots for k in (1, -1)]
    if mode == LC:
        q = draw(st.sampled_from([F(3, 2), F(3), F(7, 2), F(5)]))
        cut = E(q)
        exps = [E(x) for x in (F(1, 2), F(1), F(3, 2), F(2), F(5, 2))]
        past = [E(q), E(q + F(1, 2)), E(q + 2)]
    else:
        q = draw(st.sampled_from([F(3), F(4), F(9, 2), None]))  # None: eps[2], out of reach
        cut = Exponent.hahn({2: 1} if q is None else {1: q})
        exps = [Exponent.hahn(d) for d in ({1: F(1, 2)}, {1: 1}, {1: F(3, 2)}, {1: 2},
                                           {1: 1, 2: 1}, {2: 1})]
        past = [Exponent.hahn(d) for d in ({2: 1}, {1: -1, 2: 1}, {2: 2})]

    def number(lead, pool, count):
        x = LcNumber.from_scalar(mode, draw(st.sampled_from(scalars))) if lead else \
            LcNumber.zero(mode)
        for e in draw(st.lists(st.sampled_from(pool), max_size=count, unique=True)):
            x = x + LcNumber.monomial(e, draw(st.sampled_from(scalars)))
        return x

    pivot = draw(st.integers(0, 4))
    degree = pivot + draw(st.integers(0, 3))
    coeffs = [number(draw(st.booleans()), exps + past, 3) for _ in range(pivot)]
    coeffs += [LcNumber.one(mode)] + [number(False, exps, 2) for _ in range(pivot, degree)]
    if draw(st.integers(0, 9)) == 5:
        n = draw(st.integers(0, degree))
        if n != pivot:
            coeffs[n] = coeffs[n].truncate(draw(st.sampled_from(exps[1:4])))
    return PolySeries(mode, coeffs), degree + draw(st.integers(0, 3)), cut


@settings(max_examples=150, deadline=None)
@given(lift_cases())
def test_slice_major_lift_equals_the_xmajor_slice_rule(case):
    series, degree_cap, cut = case
    ns = normalize(series, degree_cap, cut)
    saved, hensel._LIFT_CAP = hensel._LIFT_CAP, 40  # eps[2] is out of reach of eps[1]'s powers
    try:
        got = lift_outcome(weierstrass_factor, ns, degree_cap, cut)
        want = lift_outcome(xmajor_slice_factor, ns, degree_cap, cut)
    finally:
        hensel._LIFT_CAP = saved
    assert got == want


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
        for c in residual(fact, series):
            assert c.is_zero_below(cut)
        # an error just below the cutoff still fails the certificate
        bad = replace(fact, p_coeffs=[fact.p_coeffs[0] + eps(13)] + fact.p_coeffs[1:])
        assert not all(c.is_zero_below(cut) for c in residual(bad, series))
        # degree property: deg P = pivot
        assert len(fact.p_coeffs) - 1 == ns.N
        # standard parts of P match the pivot partial sum
        for a, b in zip(fact.p_coeffs, series):
            assert (a.standard_part() - b.standard_part()).is_zero
        # unit positivity on a rational grid: st(B(x)) = 1 hence B(x) > 0
        for q in (1, F(5, 4), F(3, 2), F(7, 4), 2):
            x = LcNumber.from_scalar(LC, q)
            bx = horner([fact.b_coeffs], x)[0]
            assert bx.standard_part().as_fraction() == 1
            assert bx.sign() == 1


def test_residual_checks_the_whole_product():
    one = LcNumber.one(LC)
    ns = normalize(PolySeries(LC, [-one, one, eps()]), 4, E(3))
    fact = weierstrass_factor(ns, 4, E(3))
    series = [ns.coeff(n, E(3)) for n in range(5)]
    assert all(c.is_zero_below(E(3)) for c in residual(fact, series))
    # a unit at X^(cap+1) in B changes P*B only beyond the cap
    b = fact.b_coeffs + [LcNumber.zero(LC)] * (5 - len(fact.b_coeffs)) + [one]
    bad = replace(fact, b_coeffs=b)
    assert not all(c.is_zero_below(E(3)) for c in residual(bad, series))


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
