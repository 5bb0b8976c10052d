import re
from fractions import Fraction as F

import pytest

from lcivt.dsl import (
    ParseError,
    parse_exponent,
    parse_literal,
    parse_series,
)
from lcivt.lcnum import HAHN, LC, Exponent, LcNumber, eps, eps_n
from lcivt.pseries import (PolyMulSeries, PolySeries, RatFunSeries, SubstitutedSeries,
                           SumSeries, TermRuleSeries, partial_sum)

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


@pytest.mark.parametrize("field", ["expo=n^", "expo=2*", "expo=n+eps", "prefactor=3n expo=n",
                                   "expo=", "expo=eps[2]"])
def test_malformed_n_polynomial_names_its_line(field):
    with pytest.raises(ParseError, match="^line 2, column ") as err:
        parse_series("# a term rule\nterm: sign=(-1)^n %s" % field, LC)
    assert err.value.line == 2


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


def series_sources():
    """(source, mode, the same series built from constructors), one per
    rule and combinator."""
    one = LcNumber.one(LC)
    return [
        ("poly: -1, 1, eps", LC, PolySeries(LC, [-1, 1, eps()])),
        ("term: sign=(-1)^n scale=1 expo=n^2", LC,
         TermRuleSeries(LC, -1, [1], ("poly", [0, 0, 1]))),
        ("term: sign=(-1)^n scale=1 expo=seq(n)", HAHN,
         TermRuleSeries(HAHN, -1, [1], ("seq", 0))),
        ("term: sign=(+1)^n prefactor=n^2-3*n+1/2 expo=1/2*n^2+n offset=2", LC,
         TermRuleSeries(LC, 1, [F(1, 2), -3, 1], ("poly", [0, 1, F(1, 2)]), offset=2)),
        ("term: sign=(-1)^n prefactor=2*n+1 expo=seq(n+1) offset=1", HAHN,
         TermRuleSeries(HAHN, -1, [1, 2], ("seq", 1), offset=1)),
        ("ratfun: (2 - 2*eps*X - eps^2*X) / (1 - eps*X)", LC,
         RatFunSeries(LC, [2, eps() * -2 - eps(2)], [1, -eps()])),
        ("poly: 1, eps\npolymul: 1, -2, 1", LC,
         PolyMulSeries([1, -2, 1], PolySeries(LC, [1, eps()]))),
        ("poly: 0, 1\npoly: 1\nsum:\nscale: eps\nsubst: h=1 k=-1", LC,
         SubstitutedSeries(PolyMulSeries([eps()], SumSeries(PolySeries(LC, [0, 1]),
                                                            PolySeries(LC, [1]))), one, -one)),
    ]


def test_series_sources_match_constructors():
    for src, mode, want in series_sources():
        s = parse_series(src, mode)
        cut = parse_exponent("20", LC) if mode == LC else parse_exponent("1:20", HAHN)
        for i in range(6):
            assert (s.coeff(i, cut) - want.coeff(i, cut)).is_zero_below(cut)


@pytest.mark.parametrize("src, scalar, mode, cut, xvals", [
    ("ratfun: (1 + X) / (1 - eps*X)", "3*eps^2 - eps^(5/2)", LC, E(12), [E(0), E(F(-1, 2)), E(1)]),
    ("term: sign=(-1)^n scale=1 expo=seq(n)", "eps[1]^2 + 2*eps[2]", HAHN,
     Exponent.hahn({4: 1}), [Exponent.zero(HAHN), Exponent.hahn({1: -1})]),
], ids=[LC, HAHN])
def test_scale_is_a_degree_zero_poly_multiple(src, scalar, mode, cut, xvals):
    s = parse_series(src + "\nscale: " + scalar, mode)
    c, inner = parse_literal(scalar, mode), parse_series(src, mode)
    want = PolyMulSeries([c], inner)
    assert type(s) is PolyMulSeries and repr(s) == repr(want)
    for n in range(8):
        got, ref = s.coeff(n, cut), want.coeff(n, cut)
        assert (got.terms, got.cutoff) == (ref.terms, ref.cutoff)
        assert (got - c * inner.coeff(n, cut)).is_zero_below(cut)
    for xval in xvals:
        for strict in (False, True):
            assert s.tail_index(xval, cut, strict) == want.tail_index(xval, cut, strict)


def test_derivative_matches_its_term_source():
    # d/dX of sum (-1)^n eps^(n^2) X^n: a_n = (-1)^(n+1) (n+1) eps^((n+1)^2)
    s = parse_series("term: sign=(-1)^n scale=1 expo=n^2", LC).derivative()
    t = parse_series("term: sign=(-1)^n prefactor=-n-1 expo=n^2+2*n+1", LC)
    for i in range(8):
        assert (s.coeff(i) - t.coeff(i)).is_exact_zero


FIELDS = {"PolySeries": ["coeffs"], "RatFunSeries": ["num", "den"],
          "TermRuleSeries": ["sign_base", "prefactor", "expo", "offset"],
          "SumSeries": ["a", "b"], "PolyMulSeries": ["poly", "inner"],
          "SubstitutedSeries": ["inner", "h", "k"], "DerivativeSeries": ["inner"]}


def test_series_repr_names_the_class_and_its_rule_fields():
    sources = [(src, mode, 0) for src, mode, _ in series_sources()]
    sources += [("poly: 1\npoly: 0, eps\nsum:", LC, 0), ("poly: 1, 1\nscale: eps[1]", HAHN, 0),
                ("ratfun: (1) / (1 - eps*X)\npolymul: 1, -2, 1", LC, 2)]

    def build(src, mode, order):
        s = parse_series(src, mode)
        for _ in range(order):
            s = s.derivative()
        return s

    seen = set()
    for src, mode, order in sources:
        s = build(src, mode, order)
        text = repr(s)
        name = type(s).__name__
        seen.add(name)
        assert text.startswith(name + "(mode=")
        for f in FIELDS[name]:
            assert ", %s=" % f in text
        assert " at 0x" not in text and not re.search(r"[(, ]_\w*=", text)
        cut = parse_exponent("8", LC) if mode == LC else parse_exponent("1:8", HAHN)
        for i in range(4):
            s.coeff(i, cut)  # fills the memos, which the repr leaves out
        assert repr(s) == text == repr(build(src, mode, order))
    assert seen == set(FIELDS)


# (reader, text, mode, message, line, column): every ParseError path, so a
# reader's checks can be merged or rerouted without changing what it reports.
PARSE_ERRORS = [
    (parse_series, "poly 1, 2", LC, "expected '<rule>: ...'", 1, None),
    (parse_series, "poly: 1\npoly: 2", LC, "2 series left on the stack; missing sum:?", None, None),
    (parse_series, "frob: 1", LC, "unknown rule 'frob'", 1, None),
    (parse_series, "", LC, "empty series source", None, None),
    (parse_series, "# only a comment\n\n", LC, "empty series source", None, None),
    (parse_series, "ratfun: 1 / (1 - eps*X)", LC, "ratfun body looks like (num) / (den)", 1, None),
    (parse_series, "ratfun: (1 + X Y) / (1 - eps*X)", LC,
     "trailing input after polynomial", 1, 4),
    (parse_series, "poly: 1\nsubst: h=1", LC,
     "subst body looks like h=<literal> k=<literal>", 2, None),
    (parse_series, "sum:", LC, "sum: needs two series on the stack", 1, None),
    (parse_series, "poly: 1\nsum:", LC, "sum: needs two series on the stack", 2, None),
    (parse_series, "scale: eps", LC, "scale: needs a series on the stack", 1, None),
    (parse_series, "polymul: 1, -2, 1", LC, "polymul: needs a series on the stack", 1, None),
    (parse_series, "# one\nsubst: h=1 k=0", LC, "subst: needs a series on the stack", 2, None),
    (parse_series, "poly: 1, eps)", LC, "trailing input after literal", 1, 4),
    (parse_series, "poly: 1\nscale: ", LC, "empty literal", 2, 1),
    (parse_series, "term: sign (-1)^n expo=n", LC, "term fields look like key=value", 1, None),
    (parse_series, "term: expo=n bogus=1", LC, "unknown term field 'bogus'", 1, None),
    (parse_series, "term: expo=n expo=n", LC, "term field 'expo' given twice", 1, None),
    (parse_series, "term: prefactor=n scale=1 expo=n", LC,
     "term fields 'prefactor' and 'scale' exclude each other", 1, None),
    (parse_series, "term: sign=(-2)^n expo=n", LC, "sign must be (+1)^n or (-1)^n", 1, None),
    (parse_series, "term: scale=3/2x expo=n", LC, "bad scale", 1, 4),
    (parse_series, "term: sign=(-1)^n scale=1", LC, "term rule needs expo=", 1, None),
    (parse_series, "term: expo=n^2x", LC, "trailing input after polynomial", 1, 4),
    (parse_series, "term: expo=n offset=2x", LC, "offset must be an integer", 1, 2),
    (parse_series, "term: expo=n offset=--2", LC, "expected digits", 1, 2),
    (parse_literal, "  ", LC, "empty literal", None, 1),
    (parse_literal, "1 + eps)", LC, "trailing input after literal", None, 6),
    (parse_literal, "1 + ", LC, "expected a number, eps factor", None, 3),
    (parse_literal, "eps[2", HAHN, "expected ']'", None, 6),
    (parse_literal, "eps^(1/2", LC, "expected ')'", None, 9),
    (parse_literal, "eps[2]", LC, "eps[k] literals need hahn mode", None, 7),
    (parse_literal, "eps", HAHN, "bare eps literals need lc mode", None, 4),
    (parse_exponent, "3/2x", LC, "trailing input after exponent", None, 4),
    (parse_exponent, "x", LC, "expected digits", None, 1),
    (parse_exponent, "1:2x", HAHN, "trailing input in exponent entry", None, 2),
    (parse_exponent, "1:2/", HAHN, "expected digits", None, 3),
    (parse_exponent, "1:2,3", HAHN, "hahn exponent entries look like index:rational", None, None),
]


@pytest.mark.parametrize("reader, text, mode, message, line, column", PARSE_ERRORS,
                         ids=["%s-%d" % (row[0].__name__, i) for i, row in enumerate(PARSE_ERRORS)])
def test_parse_error_table(reader, text, mode, message, line, column):
    with pytest.raises(ParseError) as err:
        reader(text, mode)
    loc = "" if line is None else "line %d: " % line if column is None else (
        "line %d, column %d: " % (line, column))
    assert (str(err.value), err.value.line, err.value.column) == (loc + message, line, column)
