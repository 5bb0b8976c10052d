from fractions import Fraction

import pytest

from lcivt.dsl import parse_literal
from lcivt.hensel import _certify
from lcivt.lcnum import HAHN, LC, Exponent, LcNumber, _Grid, eps
from lcivt.pseries import PolyMulSeries, RatFunSeries, TermRuleSeries


def L(text):
    """lc-mode literal."""
    return parse_literal(text, LC)


def E(q):
    """lc-mode exponent."""
    return Exponent.lc(Fraction(q))


def num(q):
    """lc-mode scalar."""
    return LcNumber.from_scalar(LC, q)


def alternating_square_series():
    """sum (-1)^n eps^(n^2) X^n: converges on the whole field."""
    return TermRuleSeries(LC, -1, [1], ("poly", [0, 0, 1]))


def hahn_alternating_series():
    """sum (-1)^n eps_n X^n in hahn mode."""
    return TermRuleSeries(HAHN, -1, [1], ("seq", 0))


def double_zero_series():
    """(X-1)^2 * F with F = 2 - sum_{n>=1} eps^(n+1) X^n."""
    num_ = [num(2), -(eps() * 2) - eps(2)]
    den = [LcNumber.one(LC), -eps()]
    return PolyMulSeries([1, -2, 1], RatFunSeries(LC, num_, den))


def poly_deriv(coeffs):
    """The derivative of a dense LcNumber list: coeffs[i]*i at X^(i-1)."""
    return [coeffs[i] * i for i in range(1, len(coeffs))]


def residual(fact, series_coeffs):
    """S - P*B (S is 0 beyond the cap) below ``fact.achieved_cutoff``: the
    certificate of both lifts, ``hensel._certify``, on a fresh grid over S,
    P and B."""
    cut = fact.achieved_cutoff
    polys = [series_coeffs, fact.p_coeffs, fact.b_coeffs]
    grid = _Grid(cut.mode, polys, cut)
    s, p, b = [(grid.encode(poly, d), d) for poly, d in zip(polys, grid.cdens)]
    return grid.decode_all(_certify(grid, s, p, b, grid.cut(cut)))


@pytest.fixture
def lc_one():
    return LcNumber.one(LC)
