import json
import random
from fractions import Fraction as F
from functools import reduce
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from lcivt import cli, rootfind
from lcivt.dsl import parse_series
from lcivt.errors import ResourceCapError, TruncationError
from lcivt.hensel import poly_deriv, poly_mul
from lcivt.lcnum import HAHN, LC, Exponent, LcNumber, eps, eps_n, horner
from lcivt.polys import pmul
from lcivt.pseries import (
    PolyMulSeries,
    PolySeries,
    RatFunSeries,
    TermRuleSeries,
    evaluate,
    partial_sum,
)
from lcivt.rootfind import (
    RootReport,
    _in_range,
    count_zeros,
    ivt_root,
    monic_real_roots,
    multiplicity_at,
    poly_roots,
    target_extreme_kind,
    track_extremes,
    track_partial_sum_zeros,
)

from conftest import E, L

ONE = LcNumber.one(LC)
ZERO = LcNumber.zero(LC)


def num(q):
    return LcNumber.from_scalar(LC, q)


def binomial_sqrt(u, order):
    acc, pw, coeff = ONE, ONE, F(1)
    for k in range(1, order):
        coeff *= (F(1, 2) - (k - 1)) / k
        pw = pw * u
        acc = acc + pw * coeff
    return acc


def double_zero_series():
    num_ = [num(2), -(eps() * 2) - eps(2)]
    den = [ONE, -eps()]
    return PolyMulSeries([1, -2, 1], RatFunSeries(LC, num_, den))


# ------------------------------------------------------------- monic poly roots


def test_perturbed_square_root():
    p = [-(ONE + eps()), ZERO, ONE]
    reports = monic_real_roots(p, ZERO, num(2), E(8))
    assert len(reports) == 1
    r = reports[0]
    assert r.multiplicity == 1
    want = binomial_sqrt(eps(), 10)  # sqrt(1+eps) = 1 + eps/2 - eps^2/8 + ...
    assert (r.root - want).is_zero_below(E(8))


def test_exact_double_root():
    p = [ONE, -2 * ONE, ONE]
    reports = monic_real_roots(p, ZERO, num(2), E(8))
    assert [(str(r.root), r.multiplicity, r.exact) for r in reports] == [("1", 2, True)]


def test_ramified_root():
    p = [-eps(), ZERO, ONE]
    reports = monic_real_roots(p, ZERO, ONE, E(8))
    assert len(reports) == 1
    assert str(reports[0].root) == "eps^(1/2)"
    assert reports[0].multiplicity == 1


def test_complex_pair_is_dropped():
    assert poly_roots([eps(), ZERO, ONE], E(8)) == []


def test_polygon_completeness_planted():
    rng = random.Random(3)
    cut = E(10)
    for _ in range(20):
        roots = []
        seen = set()
        for _ in range(rng.randint(2, 4)):
            q = F(rng.randint(-6, 6), rng.choice((1, 2)))
            e = rng.randint(0, 3)
            r = rng.randint(-2, 2)
            key = (q, e, r)
            if key in seen:
                continue
            seen.add(key)
            roots.append(num(q) + LcNumber.monomial(E(e), r) if e else num(q + r))
        # drop exact duplicates
        uniq = []
        for c in roots:
            if not any((c - d).is_exact_zero for d in uniq):
                uniq.append(c)
        poly = [ONE]
        for c in uniq:
            poly = poly_mul(poly, [-c, ONE])
        hits = poly_roots(poly, cut)
        assert sum(h.multiplicity for h in hits) == len(uniq)
        for c in uniq:
            assert any((h.root - c).is_zero_below(cut) for h in hits)


def test_deep_pair_merges_unresolved():
    c = ONE + eps()
    deep = c + LcNumber.monomial(E(30), 1)
    poly = poly_mul([-c, ONE], [-deep, ONE])
    hits = poly_roots(poly, E(10))
    assert len(hits) == 1
    assert hits[0].multiplicity == 2
    assert hits[0].unresolved


def test_branch_cap_names_itself(monkeypatch):
    # (X - 1)^2 - eps^2 has a double residue root, so its roots 1 +- eps
    # sit one level below the first
    p = [ONE - eps(2), -2 * ONE, ONE]
    assert sorted(str(h.root) for h in poly_roots(p, E(6))) == ["1 + eps", "1 - eps"]
    monkeypatch.setattr(rootfind, "_BRANCH_CAP", 1)
    with pytest.raises(ResourceCapError, match=r"_BRANCH_CAP = 1 levels at cutoff 6"):
        poly_roots(p, E(6))


def test_window_ending_at_zero_prunes_to_one_sign(monkeypatch):
    # [-2, 0] fixes the sign and sets no upper valuation bound: of the roots
    # of X^2 - 1 only -1 is searched for
    prunes, prune = [], rootfind._window_prune
    monkeypatch.setattr(rootfind, "_window_prune",
                        lambda lo, hi: prunes.append(prune(lo, hi)) or prunes[-1])
    hits = poly_roots([-ONE, ZERO, ONE], E(6), window=(num(-2), ZERO))
    assert prunes == [(E(0), None, -1)]
    assert [(str(h.root), h.multiplicity) for h in hits] == [("-1", 1)]


def test_a_window_end_without_a_standard_part_leaves_the_box_open():
    # -1/eps has no standard part and 1/2 + O(1) an undecidable one: each
    # leaves its end of the residue box open, and the other end still prunes
    p = [-ONE, ZERO, ONE]
    hits = poly_roots(p, E(6), window=(-eps(-1), num(F(1, 2))))
    assert [(str(h.root), h.multiplicity) for h in hits] == [("-1", 1)]
    hits = poly_roots(p, E(6), window=(num(F(1, 2)), num(F(1, 2)).truncate(E(0))))
    assert [(str(h.root), h.multiplicity) for h in hits] == [("1", 1)]


@st.composite
def planted_in_a_window(draw):
    """(mode, monic P, lo, hi): P has rational roots inside [lo, hi], outside
    it and at its ends, roots sqrt(m)/b, and one eps or eps[1] term; a
    perturbed root at 0 has a positive valuation.  Sometimes P also has a
    residue root of multiplicity 2 or 3, at an end of the window, inside it
    or outside it, split by an eps or eps[1] term of its own, so that the
    root expansion recurses below the top level."""
    mode = draw(st.sampled_from((LC, HAHN)))
    lo = F(draw(st.integers(-2, 1)), 2)
    hi = lo + F(draw(st.integers(1, 4)), 2)
    near = st.builds(F, st.integers(-8, 8), st.sampled_from((1, 2, 3)))
    rats = draw(st.sets(st.one_of(st.sampled_from((lo, hi, F(0))), near), max_size=3))
    squares = draw(st.sets(st.builds(lambda m, b: F(m, b * b), st.integers(1, 15),
                                     st.sampled_from((2, 3))).filter(
        lambda q: F(isqrt(q.numerator), isqrt(q.denominator)) ** 2 != q), max_size=2))
    poly = reduce(pmul, [[-q, 1] for q in rats] + [[-q, 0, 1] for q in squares], [F(1)])
    coeffs = [LcNumber.from_scalar(mode, c) for c in poly]

    def tiny():
        power = draw(st.sampled_from((1, 2)))
        return (eps(power) if mode == LC else eps_n(1, power)) * draw(
            st.sampled_from((-1, 1, -8, 8)))

    if len(coeffs) > 1:
        coeffs[draw(st.integers(0, len(coeffs) - 2))] += tiny()
    if draw(st.booleans()):
        q = draw(st.one_of(st.sampled_from((lo, hi)), near))
        cluster = [LcNumber.from_scalar(mode, c)
                   for c in reduce(pmul, [[-q, 1]] * draw(st.integers(2, 3)))]
        cluster[draw(st.integers(0, len(cluster) - 2))] += tiny()
        coeffs = poly_mul(coeffs, cluster)
    return mode, coeffs, LcNumber.from_scalar(mode, lo), LcNumber.from_scalar(mode, hi)


@given(planted_in_a_window())
@settings(max_examples=60, deadline=None)
def test_window_search_matches_the_unpruned_reference(case):
    # the residue box and the window prune may only skip roots the
    # membership filter would drop
    mode, coeffs, lo, hi = case
    cut = E(6) if mode == LC else Exponent.hahn({1: 6})

    def seen(hits):
        return [(str(h.root), h.multiplicity, str(h.residual_valuation)) for h in hits]

    want = [h for h in poly_roots(coeffs, cut) if _in_range(h.root, lo, hi)]
    assert seen(monic_real_roots(coeffs, lo, hi, cut)) == seen(want)


def test_uncertified_point_on_an_edge_leaves_the_edge_uncertified(monkeypatch):
    # eps^2 + (0 + O(eps))*X + X^2: the middle point may lie on the edge
    # from (0, 2) to (2, 0), so the pair of roots stays one unresolved report
    edges, find = [], rootfind._edges
    monkeypatch.setattr(rootfind, "_edges", lambda points: edges.append(find(points)) or edges[-1])
    hits = poly_roots([eps(2), ZERO.truncate(E(1)), ONE], E(4))
    assert edges == [[(E(1), 0, E(2), 2, False)]]
    assert [(str(h.root), h.multiplicity, h.unresolved) for h in hits] == [("0 + O(eps)", 2, True)]


def test_certified_sign_deepens_until_decided(monkeypatch):
    depths, evaluate_ = [], rootfind.evaluate
    monkeypatch.setattr(rootfind, "evaluate",
                        lambda s, x, cutoff: depths.append(cutoff) or evaluate_(s, x, cutoff))
    # eps^2 + eps^3 has no term below eps, one below eps^4
    assert rootfind.certified_sign(PolySeries(LC, [eps(2), 1]), eps(3)) == 1
    assert depths == [E(1), E(4)]
    del depths[:]
    with pytest.raises(TruncationError, match="_SIGN_DEPTH_CAP = 64"):
        rootfind.certified_sign(PolySeries(LC, [eps(100)]), eps(3))
    assert depths == [E(1), E(4), E(16), E(64)]


def test_newton_root_precision_follows_truncated_coefficients():
    # c0 = 1 + eps + eps^6 agrees with the truncated c0 below eps^6, and that
    # polynomial's root near 1 + eps is 1 + eps - eps^5 + ...: with a
    # derivative of valuation 1 the root is certified below eps^5 only
    cut = E(6)
    c1 = (-(2 * ONE + eps())).truncate(cut)
    hits = poly_roots([(ONE + eps()).truncate(cut), c1, ONE], cut)
    resolved = [h for h in hits if not h.unresolved]
    assert [str(h.root) for h in resolved] == ["1 + eps + O(eps^5)"]
    exact = poly_roots([ONE + eps() + eps(6), -(2 * ONE + eps()), ONE], E(8))
    deep = [h.root for h in exact if not (h.root - ONE).is_zero_below(E(2))]
    assert len(deep) == 1
    assert (deep[0] - resolved[0].root).is_zero_below(E(5))
    assert not (deep[0] - (ONE + eps())).is_zero_below(E(6))


# -------------------------------------------------------------------- ivt_root


def fixed_point_oracle(depth):
    """c with c = 1 - eps*c^2, iterated with plain arithmetic only."""
    c = ONE
    for _ in range(depth):
        c = (ONE - eps() * c * c).truncate(E(depth))
    return c


def test_ivt_on_quadratic_series():
    s = PolySeries(LC, [-ONE, ONE, eps()])
    rep = ivt_root(s, ZERO, num(F(3, 2)), E(8))
    want = fixed_point_oracle(12)
    assert (rep.root - want).is_zero_below(E(8))
    assert rep.multiplicity == 1
    assert rep.residual_valuation == E(8)
    assert rep.certificate["endpoint_signs"] == (-1, 1)


def test_ivt_on_square_root_series():
    s = PolySeries(LC, [-(ONE + eps()), ZERO, ONE])
    rep = ivt_root(s, ZERO, num(2), E(8))
    assert (rep.root - binomial_sqrt(eps(), 10)).is_zero_below(E(8))


def test_ivt_rejects_no_sign_change():
    s = PolySeries(LC, [ONE, ZERO, ONE])
    with pytest.raises(ValueError, match="sign change"):
        ivt_root(s, ZERO, ONE, E(6))


def test_ivt_alternating_square_series():
    s = TermRuleSeries(LC, -1, [1], ("poly", [0, 0, 1]))
    cut = E(12)
    rep = ivt_root(s, eps(-4), eps(-6), cut)
    assert evaluate(s, rep.root, cut).is_zero_below(cut)
    assert rep.root.compare(eps(-4)) > 0
    assert rep.root.compare(eps(-6)) < 0
    assert rep.root.valuation() == E(-5)


def test_ivt_retries_at_a_deeper_working_cutoff(monkeypatch):
    # a TruncationError at extra = 0 is retried at extra = 8, which certifies
    s = PolySeries(LC, [-ONE, ONE, eps()])
    rule, extras = rootfind._series_roots_on_interval, []

    def shallow_fails(*args):
        extras.append(args[-1])
        if args[-1] == 0:
            raise TruncationError("working cutoff too shallow")
        return rule(*args)

    monkeypatch.setattr(rootfind, "_series_roots_on_interval", shallow_fails)
    rep = ivt_root(s, ZERO, num(F(3, 2)), E(8))
    assert extras == [0, 8]
    assert rep.residual_valuation == E(8) and rep.multiplicity == 1
    assert evaluate(s, rep.root, E(8)).is_zero_below(E(8))
    assert (rep.root - fixed_point_oracle(12)).is_zero_below(E(8))


def test_ivt_failing_at_every_working_cutoff_raises_the_last_error(monkeypatch, capsys):
    extras = []

    def always_fails(*args):
        extras.append(args[-1])
        raise TruncationError("no root at extra = %d" % args[-1])

    monkeypatch.setattr(rootfind, "_series_roots_on_interval", always_fails)
    s = PolySeries(LC, [-ONE, ONE, eps()])
    with pytest.raises(TruncationError, match="extra = 24"):
        ivt_root(s, ZERO, num(F(3, 2)), E(8))
    assert extras == [0, 8, 24]
    # through the command line: exit code 4 and one failure record
    code = cli.main(["ivt", "--inline", "poly: -1, 1, eps", "--interval", "0,3/2",
                     "--cutoff", "8"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 4 and payload["ok"] is False and payload["results"] is None
    assert payload["failures"] == [{"error": "TruncationError",
                                    "message": "no root at extra = 24"}]


# ------------------------------------------------------------------ count_zeros


def test_count_zeros_examples():
    s = PolySeries(LC, [-ONE, ONE, eps()])
    assert count_zeros(s, ZERO, num(2), E(8))[0] == 1
    assert count_zeros(s, num(F(3, 2)), num(2), E(8))[0] == 0
    planted = PolyMulSeries([ONE, -2 * ONE - eps(), ONE], PolySeries(LC, [ONE]))
    n, reports = count_zeros(planted, ZERO, num(2), E(8))
    assert n == 2
    assert all(r.multiplicity == 1 for r in reports)


def test_count_zeros_lifts_only_the_roots_in_the_interval(monkeypatch):
    # (3x - 1)(4x^2 - 3)(x - 2) + eps has 2 of its 4 roots in [0, 1]; the
    # two near -sqrt(3)/2 and 2 are neither isolated nor lifted
    calls, newton = [], rootfind.newton_root
    monkeypatch.setattr(rootfind, "newton_root", lambda *a: calls.append(a) or newton(*a))
    s = PolySeries(LC, [num(-6) + eps(), num(21), num(-1), num(-28), num(12)])
    n, _ = count_zeros(s, ZERO, ONE, E(10))
    assert n == 2 and len(calls) == 2


def test_gappy_ivt_lifts_one_root(monkeypatch):
    # P's residue root 1 of multiplicity 3 lies at the end of the [1, 2]
    # box; below the top level the shifted window leaves one of its three
    # branches to Newton, the one root in [eps^-4, eps^-6]
    calls, newton = [], rootfind.newton_root
    monkeypatch.setattr(rootfind, "newton_root", lambda *a: calls.append(a) or newton(*a))
    code = cli.main(["ivt", "--inline", "term: sign=(-1)^n scale=1 expo=n^2",
                     "--interval=eps^(-4),eps^(-6)", "--cutoff", "10"])
    assert code == 0 and len(calls) == 1


def test_count_zeros_matches_sign_alternations():
    # simple-root series: the count equals the sign alternations of S over a
    # refinement adapted to the isolated roots
    u = PolySeries(LC, [ONE, eps(), eps(2)])
    planted = PolyMulSeries(
        poly_mul([-num(F(1, 3)), ONE],
                 poly_mul([-ONE - eps(), ONE], [-num(F(7, 4)), ONE])), u)
    a, b = ZERO, num(2)
    n, reports = count_zeros(planted, a, b, E(10))
    assert n == 3
    cuts = [a]
    ordered = sorted(reports, key=lambda r: r.root.standard_part().as_fraction())
    for first, second in zip(ordered, ordered[1:]):
        mid = (first.root + second.root) * F(1, 2)
        cuts.append(mid)
    cuts.append(b)
    signs = [evaluate(planted, x, E(6)).sign() for x in cuts]
    alternations = sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])
    assert alternations == n


# -------------------------------------------------------------- multiplicity_at


def test_multiplicity_of_double_zero():
    t = double_zero_series()
    assert multiplicity_at(t, ONE, E(10)) == 2


def test_multiplicity_simple_and_triple():
    s = PolySeries(LC, [-ONE, ONE, eps()])
    root = ivt_root(s, ZERO, num(F(3, 2)), E(10))
    assert multiplicity_at(s, root.root, E(10)) == 1
    c0 = num(F(1, 2))
    lin = [-c0, ONE]
    cube = poly_mul(poly_mul(lin, lin), lin)
    s3 = PolySeries(LC, poly_mul(cube, [ONE, eps()]))
    assert multiplicity_at(s3, c0, E(10)) == 3


@pytest.mark.parametrize("mode", [LC, HAHN])
def test_mult_and_extreme_kind_expand_the_ratfun_once(mode, monkeypatch):
    # every derivative reads the parsed series' own coefficients: the
    # ratfun recurrence is built once, by the parser, for the whole request
    built = []
    init = RatFunSeries.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(RatFunSeries, "__init__", counted)
    e1, e2, cut = ("eps", "eps^2", E(8)) if mode == LC else \
        ("eps[1]", "eps[2]", Exponent.hahn({1: 8}))
    s = parse_series("ratfun: (2 - 2*%s*X - %s*X) / (1 - %s*X)\npolymul: 1, -2, 1"
                     % (e1, e2, e1), mode)
    one = LcNumber.one(mode)
    mult = multiplicity_at(s, one, cut)
    target = RootReport(root=one, multiplicity=mult, residual_valuation=cut, interval=(one, one))
    assert (mult, target_extreme_kind(s, target)) == (2, "min")
    assert len(built) == 1


def test_multiplicity_rejects_non_root():
    s = PolySeries(LC, [-ONE, ONE, eps()])
    with pytest.raises(ValueError, match="not a certified root"):
        multiplicity_at(s, num(7), E(8))


def test_odd_order_iff_sign_change():
    for mult, changes in ((1, True), (2, False), (3, True)):
        c0 = ONE
        poly = [ONE]
        for _ in range(mult):
            poly = poly_mul(poly, [-c0, ONE])
        s = PolySeries(LC, poly_mul(poly, [ONE, eps()]))
        assert multiplicity_at(s, c0, E(10)) == mult
        delta = num(F(1, 4))
        sa = evaluate(s, c0 - delta, E(6)).sign()
        sb = evaluate(s, c0 + delta, E(6)).sign()
        assert (sa * sb == -1) == changes


# --------------------------------------------------------------------- tracking


def test_track_zeros_quadratic_series():
    s = PolySeries(LC, [-ONE, ONE, eps()])
    target = ivt_root(s, ZERO, num(F(3, 2)), E(10))
    records = track_partial_sum_zeros(s, target, [1, 2], (ZERO, num(F(3, 2))))
    by_n = {r.n: r for r in records}
    (kind, loc, dist), = by_n[1].items
    assert kind == "zero" and str(loc) == "1"
    assert dist == E(1)
    (kind, loc, dist), = by_n[2].items
    assert dist is None  # coincides with the target below the cutoff


def test_track_zeros_planted_strictly_increasing():
    target_root = ONE + eps()
    u = TermRuleSeries(LC, 1, [1], ("poly", [0, 2]))  # sum eps^(2n) X^n
    s = PolyMulSeries([-target_root, ONE], u)
    target = ivt_root(s, num(F(1, 2)), num(F(3, 2)), E(12))
    records = track_partial_sum_zeros(s, target, [2, 4, 6],
                                      (num(F(1, 2)), num(F(3, 2))))
    dists = []
    for rec in records:
        vals = [dv for _, _, dv in rec.items if dv is not None]
        assert vals
        dists.append(min(vals))
        # oracle: plain iteration solves S_n directly, no polygon machinery
        coeffs = partial_sum(s, rec.n)
        x = ONE
        for _ in range(14):
            fx = horner([coeffs], x)[0]
            dx = horner([[coeffs[i] * i for i in range(1, len(coeffs))]], x)[0]
            x = (x - fx.div(dx, E(14))).truncate(E(14))
        oracle_dist = (x - target.root).valuation()
        assert min(vals) == oracle_dist
    assert dists == sorted(dists)
    assert len(set(dists)) == len(dists)


def test_track_zeros_polynomial_terminates_exactly():
    s = PolySeries(LC, [-ONE, ONE, eps()])
    target = ivt_root(s, ZERO, num(F(3, 2)), E(10))
    records = track_partial_sum_zeros(s, target, [2], (ZERO, num(F(3, 2))))
    (kind, loc, dist), = records[0].items
    assert dist is None


def test_track_zeros_requires_odd_target():
    t = double_zero_series()
    fake = RootReport(root=ONE, multiplicity=2, residual_valuation=None,
                      interval=(ZERO, num(2)))
    with pytest.raises(ValueError, match="odd"):
        track_partial_sum_zeros(t, fake, [3], (ZERO, num(2)))


def test_track_extremes_double_zero():
    t = double_zero_series()
    target = RootReport(root=ONE, multiplicity=2, residual_valuation=None,
                        interval=(num(F(3, 4)), num(F(5, 4))))
    assert target_extreme_kind(t, target) == "min"
    window = (num(F(3, 4)), num(F(5, 4)))
    records = track_extremes(t, target, [5, 10], window)
    dists = []
    for rec in records:
        mins = [(loc, dv) for kind, loc, dv in rec.items if kind == "min"]
        assert mins
        loc, dv = mins[0]
        assert dv is not None and dv.sign() > 0
        dists.append(dv)
    assert dists[0].compare(dists[1]) <= 0
    # and the partial sums themselves have no root near 1
    for n in (5, 10):
        coeffs = partial_sum(t, n)
        hits = poly_roots(coeffs, E(12), window=window)
        hits = [h for h in hits
                if h.root.compare(window[0]) >= 0 and h.root.compare(window[1]) <= 0]
        assert hits == []


def test_track_extremes_exact_square():
    s = PolySeries(LC, [ONE, -2 * ONE, ONE])
    target = RootReport(root=ONE, multiplicity=2, residual_valuation=None,
                        interval=(ZERO, num(2)))
    records = track_extremes(s, target, [2, 3], (ZERO, num(2)))
    for rec in records:
        (kind, loc, dist), = rec.items
        assert kind == "min"
        assert str(loc) == "1"
        assert dist is None


def derivative_ladder_kind(sn_coeffs, x, cutoff):
    """min/max/None read off the derivatives of S_n evaluated at x, one
    after another: the loop that ``_classify_extreme`` replaced by one
    Taylor shift."""
    d = poly_deriv(sn_coeffs)
    order = 1
    while True:
        d = poly_deriv(d)
        order += 1
        if not d:
            return None
        v = horner([d], x)[0].truncate(cutoff)
        if v.terms:
            if order % 2 == 1:
                return None  # inflection, not an extreme
            return "min" if v.sign() > 0 else "max"


@pytest.mark.parametrize("coeffs, x, kind", [
    # (X - 1)^3 at 1 and X^3 at 0: the first nonvanishing derivative is odd
    ([-ONE, 3 * ONE, -3 * ONE, ONE], ONE, None),
    # (X - 1)^2 + eps^5 X^3 at 1: S'' = 2 + 6 eps^5
    ([ONE, -2 * ONE, ONE, eps(5)], ONE, "min"),
    # -(X - 1)^2 at 1 + O(eps^3): S'' = -2 survives the truncated point
    ([-ONE, 2 * ONE, -ONE], ONE.truncate(E(3)), "max"),
    ([-ONE, 2 * ONE, -ONE + eps(), eps(6)], ONE + eps(2), "max"),
    ([ZERO, ZERO, ZERO, ONE], ZERO, None),
    # nothing above the first derivative survives below the cutoff
    ([ONE, ONE, eps(4), eps(5)], ONE, None),
    # a line has no higher derivative at all
    ([ONE, ONE], ONE, None),
], ids=["inflection-at-1", "min", "max-truncated-point", "max", "inflection-at-0",
        "vanishing-below-the-cutoff", "line"])
def test_classify_extreme_exits(coeffs, x, kind):
    assert derivative_ladder_kind(coeffs, x, E(4)) == kind
    assert rootfind._classify_extreme(coeffs, x, E(4)) == kind


def test_classify_extreme_matches_the_derivative_ladder():
    rng = random.Random(20261019)
    kinds = []
    for _ in range(200):
        x = sum((LcNumber.monomial(E(F(rng.randint(-2, 4), 2)), rng.randint(-3, 3))
                 for _ in range(rng.randint(0, 2))), ZERO)
        if rng.random() < 0.3:
            x = x.truncate(E(rng.randint(1, 6)))
        coeffs = [sum((LcNumber.monomial(E(rng.randint(0, 5)), rng.randint(-3, 3))
                       for _ in range(rng.randint(0, 2))), ZERO)
                  for _ in range(rng.randint(2, 6))]
        cutoff = E(rng.randint(1, 6))
        kinds.append(derivative_ladder_kind(coeffs, x, cutoff))
        assert rootfind._classify_extreme(coeffs, x, cutoff) == kinds[-1]
    assert {"min", "max", None} <= set(kinds)


def test_track_extremes_requires_even_target():
    s = PolySeries(LC, [-ONE, ONE, eps()])
    rep = ivt_root(s, ZERO, num(F(3, 2)), E(8))
    with pytest.raises(ValueError, match="even"):
        track_extremes(s, rep, [3], (ZERO, num(2)))


# ------------------------------------------------------------ hahn-mode engine


def test_hahn_pipeline_end_to_end():
    from lcivt.hensel import n_poly_root
    from lcivt.lcnum import HAHN, Exponent, eps_n

    one = LcNumber.one(HAHN)
    zero = LcNumber.zero(HAHN)
    cut = Exponent.hahn({1: 6})

    # distinguished root at a mixed-index cutoff
    r = n_poly_root([eps_n(2), one, one], Exponent.hahn({2: 1, 1: 4}))
    assert (r + eps_n(2)).is_zero_below(Exponent.hahn({2: 1, 1: 4}))

    # the fixed-point series root, now over the hahn field
    s = PolySeries(HAHN, [-one, one, eps_n(1)])
    rep = ivt_root(s, zero, LcNumber.from_scalar(HAHN, 2), cut)
    assert rep.multiplicity == 1
    assert evaluate(s, rep.root, cut).is_zero_below(cut)
    lead = rep.root.terms[:3]
    assert [str(LcNumber.monomial(e, c)) for e, c in lead] == \
        ["1", "-eps[1]", "2*eps[1]^2"]

    # ramified branch in the hahn value group
    hits = poly_roots([-eps_n(2), zero, one], Exponent.hahn({2: 3}))
    assert sorted(str(h.root) for h in hits) == ["-eps[2]^(1/2)", "eps[2]^(1/2)"]
