from fractions import Fraction as F

import pytest

from lcivt.dsl import (
    ParseError,
    parse_exponent,
    parse_literal,
    parse_series,
    render_series,
)
from lcivt.lcnum import HAHN, LC, Exponent, LcNumber, eps, eps_n
from lcivt.pseries import partial_sum

from conftest import E


def test_literal_examples():
    x = parse_literal("3/2*eps^(1/2) + 2 - eps^2", LC)
    want = (LcNumber.from_scalar(LC, 2) + F(3, 2) * eps(F(1, 2)) - eps(2))
    assert (x - want).is_exact_zero
    assert (parse_literal("eps[2]^(1/3)", HAHN) - eps_n(2, F(1, 3))).is_exact_zero
    assert (parse_literal("eps[1]*eps[2]", HAHN) - eps_n(1) * eps_n(2)).is_exact_zero
    assert (parse_literal("eps^(-4)", LC) - eps(-4)).is_exact_zero
    assert parse_literal("0", LC).is_exact_zero


def test_literal_whitespace_insensitive():
    a = parse_literal("1+eps", LC)
    b = parse_literal("  1 + eps ", LC)
    assert (a - b).is_exact_zero


def test_literal_round_trip():
    for text in ("2 + 3/2*eps^(1/2) - eps^2", "eps^(-4)", "-7", "0"):
        x = parse_literal(text, LC)
        assert (parse_literal(x.render(), LC) - x).is_exact_zero
    y = parse_literal("eps[1]^(2)*eps[3] - 5", HAHN)
    assert (parse_literal(y.render(), HAHN) - y).is_exact_zero


def test_mode_mixing_is_a_parse_error():
    with pytest.raises(ParseError, match="hahn"):
        parse_literal("eps[2]", LC)
    with pytest.raises(ParseError, match="lc"):
        parse_literal("eps", HAHN)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_series("poly: 1, eps^", LC)
    assert err.value.line == 1
    assert err.value.column is not None


def test_exponent_literals():
    assert parse_exponent("25", LC) == E(25)
    assert parse_exponent("-3/2", LC) == E(F(-3, 2))
    assert parse_exponent("1:50", HAHN) == Exponent.hahn({1: 50})
    assert parse_exponent("1:2,3:1/2", HAHN) == Exponent.hahn({1: 2, 3: F(1, 2)})


def test_series_examples():
    s = parse_series("term: sign=(-1)^n scale=1 expo=n^2", LC)
    assert str(s.coeff(3)) == "-eps^9"
    p = parse_series("poly: -1, 1, eps", LC)
    assert [str(c) for c in partial_sum(p, 2)] == ["-1", "1", "eps"]
    h = parse_series("term: sign=(-1)^n scale=1 expo=seq(n)", HAHN)
    assert str(h.coeff(2)) == "eps[2]"
    assert str(h.coeff(0)) == "1"


def test_series_stack_combinators():
    src = """
# comment lines are skipped
poly: 0, 1
poly: 1
sum:
scale: eps
subst: h=1 k=-1
"""
    s = parse_series(src, LC)
    # eps * ((Z-1) + 1) = eps*Z: coefficients 0, eps
    assert s.coeff(0, E(9)).is_zero_below(E(9))
    assert (s.coeff(1, E(9)) - eps()).is_zero_below(E(9))


def test_series_stack_errors():
    with pytest.raises(ParseError, match="sum"):
        parse_series("poly: 1\nsum:", LC)
    with pytest.raises(ParseError, match="stack"):
        parse_series("poly: 1\npoly: 2", LC)
    with pytest.raises(ParseError, match="unknown rule"):
        parse_series("frob: 1", LC)


def test_series_round_trips():
    sources = [
        ("poly: -1, 1, eps", LC),
        ("term: sign=(-1)^n scale=1 expo=n^2", LC),
        ("term: sign=(-1)^n scale=1 expo=seq(n)", HAHN),
        ("term: sign=(+1)^n prefactor=n^2-3*n+1/2 expo=1/2*n^2+n offset=2", LC),
        ("term: sign=(-1)^n prefactor=2*n+1 expo=seq(n+1) offset=1", HAHN),
        ("ratfun: (2 - 2*eps*X - eps^2*X) / (1 - eps*X)", LC),
        ("poly: 1, eps\npolymul: 1, -2, 1", LC),
        ("poly: 0, 1\npoly: 1\nsum:\nscale: eps\nsubst: h=1 k=-1", LC),
    ]
    for src, mode in sources:
        s = parse_series(src, mode)
        t = parse_series(render_series(s), mode)
        cut = parse_exponent("20", LC) if mode == LC else parse_exponent("1:20", HAHN)
        for i in range(6):
            assert (s.coeff(i, cut) - t.coeff(i, cut)).is_zero_below(cut)


def test_derivative_round_trip_uses_prefactor():
    s = parse_series("term: sign=(-1)^n scale=1 expo=n^2", LC).derivative()
    text = render_series(s)
    assert "prefactor=" in text
    t = parse_series(text, LC)
    for i in range(5):
        assert (s.coeff(i) - t.coeff(i)).is_exact_zero
