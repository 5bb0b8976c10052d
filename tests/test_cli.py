import hashlib
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from lcivt import cli, lcnum
from lcivt.dsl import parse_literal
from lcivt.lcnum import LC, eps


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_eval_json_schema(capsys):
    code, payload = run_json(
        capsys, "eval", "--inline", "poly: -1, 1, eps", "--at", "1+eps",
        "--cutoff", "5")
    assert code == 0
    assert payload["ok"] is True
    assert payload["results"]["sign"] == 1
    assert payload["results"]["value"] == "2*eps + 2*eps^2 + eps^3 + O(eps^5)"
    assert "timing_seconds" in payload


def test_root_report_schema(capsys):
    code, payload = run_json(
        capsys, "ivt", "--inline", "poly: -1, 1, eps", "--interval", "0,3/2",
        "--cutoff", "8")
    assert code == 0
    root = payload["results"]["root"]
    for key in ("root", "multiplicity", "residual_valuation", "interval",
                "certificate"):
        assert key in root
    assert root["multiplicity"] == 1
    assert root["certificate"]["endpoint_signs"] == [-1, 1]
    assert root["root"].startswith("1 - eps + 2*eps^2")


def test_zeros_counts(capsys):
    code, payload = run_json(
        capsys, "zeros", "--inline", "poly: -1, 1, eps", "--interval", "0,2",
        "--cutoff", "8")
    assert code == 0
    assert payload["results"]["count"] == 1


def test_zeros_empty_is_valid_json(capsys):
    code, payload = run_json(
        capsys, "zeros", "--inline", "poly: -1, 1, eps", "--interval", "3/2,2",
        "--cutoff", "8")
    assert code == 0
    assert payload["results"]["count"] == 0
    assert payload["results"]["roots"] == []


def test_mult_command(capsys):
    src = "ratfun: (2 - 2*eps*X - eps^2*X) / (1 - eps*X)\npolymul: 1, -2, 1"
    code, payload = run_json(
        capsys, "mult", "--inline", src, "--at", "1", "--cutoff", "10")
    assert code == 0
    assert payload["results"]["multiplicity"] == 2


@pytest.mark.parametrize("src, mult", [("poly: -1-eps^5, 1", 1),
                                       ("poly: 1+2*eps^5+eps^10, -2-2*eps^5, 1", 2)])
def test_mult_matches_the_nearest_factor_root(capsys, src, mult):
    # 1 is a zero below eps^3, but the factor's root 1 + eps^5 differs from it
    # there, so the root is matched by the valuation of the difference
    code, payload = run_json(capsys, "mult", "--inline", src, "--at", "1", "--cutoff", "3")
    assert code == 0
    assert payload["ok"] is True
    assert payload["results"]["multiplicity"] == mult


def test_factor_reports_factorization(capsys):
    code, payload = run_json(
        capsys, "factor", "--inline", "poly: -1, 1, eps", "--cutoff", "3")
    assert code == 0
    fact = payload["results"]["factorization"]
    assert fact["p_coeffs"][1] == "1"
    assert fact["p_coeffs"][0].startswith("-1 + eps - 2*eps^2")
    assert fact["achieved_cutoff"] == "3"


def test_track_zeros_csv(capsys):
    code, out = run_cli(
        capsys, "track-zeros", "--inline", "poly: -1, 1, eps",
        "--interval", "0,3/2", "--n-list", "1,2", "--cutoff", "8",
        "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,kind,location,distance_valuation"
    assert lines[1].startswith("1,zero,1,")
    assert lines[1].endswith(",1")
    assert lines[2].split(",")[-1] == "inf"


def test_example_csv_writes_nested_track_records(capsys):
    # double-zero nests one track record per n under "extremes"
    code, out = run_cli(capsys, "example", "double-zero", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,kind,location,distance_valuation"
    assert [(r[0], r[1], r[-1]) for r in (line.split(",") for line in lines[1:])] == [
        ("5", "min", "5"), ("10", "min", "10"), ("20", "min", "20")]
    assert all(line.split(",")[2].startswith("1 - ") for line in lines[1:])


@pytest.mark.parametrize("argv", [
    ["example", "nilpotent-signs"],
    ["eval", "--inline", "poly: 1, 1", "--at", "eps", "--cutoff", "4"],
], ids=["example", "eval"])
def test_csv_without_a_track_record_is_a_usage_error(capsys, argv):
    code = cli.main(argv + ["--output", "csv"])
    captured = capsys.readouterr()
    assert code == 4
    failure = json.loads(captured.out)["failures"][0]  # no lone CSV header
    assert failure["error"] == "UsageError"
    assert "track record" in failure["message"]


def test_track_zeros_on_a_substitution_with_k_zero(capsys):
    # ivt fills the substituted series' coefficients under cutoffs; its exact
    # k = 0 answers must not pass for coefficients without one, or partial
    # sums past the filled indices fail
    code, out = run_cli(
        capsys, "track-zeros", "--inline",
        "term: sign=(-1)^n scale=1 expo=n^2\nsubst: h=eps^-1 k=0",
        "--interval", "0,2", "--n-list", "1,3,30", "--cutoff", "8", "--output", "csv")
    assert code == 0
    root = "1 + eps^2 + 2*eps^4 + 4*eps^6 + 9*eps^8 + 21*eps^10 + O(eps^12)"
    assert out.strip().splitlines()[1:] == [
        "1,zero,1,2", "3,zero,%s,inf" % root, "30,zero,%s,inf" % root]


def test_track_zeros_bracket_at_zero(capsys):
    # a bracket with endpoint 0 still prunes the root branches outside it;
    # unpruned, the hahn request failed with a ResourceCapError
    code, payload = run_json(
        capsys, "track-zeros", "--mode", "hahn", "--inline",
        "ratfun: (2 - 2*eps[1]*X - eps[2]*X) / (1 - eps[1]*X)\npolymul: -2, 5",
        "--interval=-1/10,11/15", "--n-list", "1,3,5", "--cutoff", "1:6")
    assert code == 0
    for record in payload["results"]:
        assert [item["location"] for item in record["items"]] == ["2/5 + O(eps[1]^10)"]
    code, payload = run_json(
        capsys, "track-zeros", "--inline",
        "ratfun: (3 - 3*eps*X - eps^2*X) / (1 - eps*X)\npolymul: -1, 3",
        "--interval=0,7/12", "--n-list", "1,2,3", "--cutoff", "8")
    assert code == 0
    got = [(r["n"], i["location"], i["distance_valuation"])
           for r in payload["results"] for i in r["items"]]
    assert got == [
        (1, "1/3 - 1/27*eps^2 + 1/243*eps^4 - 1/2187*eps^6 + 1/19683*eps^8"
            " - 1/177147*eps^10 + O(eps^12)", "2"),
        (2, "1/3 - 1/81*eps^3 - 1/729*eps^5 + 2/2187*eps^6 - 1/6561*eps^7"
            " + 5/19683*eps^8 - 2/19683*eps^9 + 1/19683*eps^10"
            " - 22/531441*eps^11 + O(eps^12)", "3"),
        (3, "1/3 - 1/243*eps^4 - 1/2187*eps^6 - 1/6561*eps^7 + 2/19683*eps^8"
            " - 2/59049*eps^9 + 5/177147*eps^10 + 5/531441*eps^11 + O(eps^12)", "4"),
    ]


def test_track_extremes_command(capsys):
    src = "ratfun: (2 - 2*eps*X - eps^2*X) / (1 - eps*X)\npolymul: 1, -2, 1"
    code, payload = run_json(
        capsys, "track-extremes", "--inline", src, "--target", "1",
        "--n-list", "5", "--window", "3/4,5/4", "--cutoff", "12")
    assert code == 0
    assert payload["certificates"]["target_kind"] == "min"
    items = payload["results"][0]["items"]
    assert items[0]["kind"] == "min"
    assert items[0]["distance_valuation"] == "5"


def test_determinism_modulo_timing(capsys):
    # the second request's root is sqrt2 - eps/2 + ..., with real algebraic
    # coefficients; the comparisons between the two runs refine the
    # brackets of values in the same fields, which no report may read
    from lcivt.realalg import isolate_real_roots

    for argv in (("ivt", "--inline", "poly: -1, 1, eps", "--interval", "0,3/2",
                  "--cutoff", "6"),
                 ("zeros", "--inline", "poly: -2, eps, 1", "--interval", "0,2",
                  "--cutoff", "4")):
        _, first = run_json(capsys, *argv)
        roots = [r for m in (2, 8, 128) for r, _ in isolate_real_roots([-1, 0, m])]
        for a in roots:
            for b in roots:
                a.compare(b)
                a.compare(a + b)
        _, second = run_json(capsys, *argv)
        first.pop("timing_seconds")
        second.pop("timing_seconds")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert first["results"]["roots"][0]["root"].startswith(
        "root(x^2-2, 11/8, 23/16) - 1/2*eps + root(128*x^2-1, 1/16, 1/8)*eps^2")


def test_zeros_over_two_generators_is_one_report(capsys):
    # roots sqrt 2 -+ sqrt 3*eps + ...: Newton runs on the compositum of
    # sqrt 2 and sqrt 3; a rerun, and one after the generator and
    # compositum caches are emptied, give the same report
    from lcivt import realalg

    argv = ("zeros", "--inline", "poly: 4 - 12*eps^2 + 9*eps^4 + eps^3, 0, -4 - 6*eps^2, 0, 1",
            "--interval", "0,2", "--cutoff", "4")
    texts = []
    for clear in (False, False, True):
        if clear:
            realalg._generators_of.cache_clear()
            realalg._compositum.cache_clear()
        code, payload = run_json(capsys, *argv)
        payload.pop("timing_seconds")
        texts.append(json.dumps(payload, sort_keys=True))
        assert code == 0 and payload["results"]["count"] == 2
    assert texts[1] == texts[0] and texts[2] == texts[0]
    assert [r["root"][:60] for r in payload["results"]["roots"]] == [
        "root(x^2-2, 11/8, 23/16) - root(x^2-3, 27/16, 7/4)*eps + roo",
        "root(x^2-2, 11/8, 23/16) + root(x^2-3, 27/16, 7/4)*eps - roo"]
    assert hashlib.sha256(texts[0].encode()).hexdigest() == (
        "cdb6c9c82a48f818593583f84d3499456bbb81db9414a57512aea94e42934a01")


def test_example_exit_contract(capsys, monkeypatch):
    code, payload = run_json(capsys, "example", "nilpotent-signs", "--l", "1")
    assert code == 0 and payload["ok"]

    # force an assertion failure: flip every computed sign
    real_eval = cli.evaluate
    monkeypatch.setattr(cli, "evaluate", lambda s, x, cut: -real_eval(s, x, cut))
    code, payload = run_json(capsys, "example", "nilpotent-signs", "--l", "1")
    assert code == 1
    assert payload["ok"] is False
    assert payload["failures"]
    assert payload["failures"][0]["expected"] != payload["failures"][0]["got"]


def test_example_param_range_is_enforced(capsys):
    code, payload = run_json(capsys, "example", "nilpotent-signs", "--l", "9")
    assert code == 4
    assert payload["failures"][0]["error"] == "LcivtError"


def test_error_reports_are_machine_readable(capsys):
    code, payload = run_json(
        capsys, "eval", "--inline", "poly: eps[2]", "--at", "1")
    assert code == 4
    assert payload["failures"][0]["error"] == "ParseError"
    assert "hahn" in payload["failures"][0]["message"]


@pytest.mark.parametrize("field, text", [
    ("ofset=3", "unknown term field 'ofset'"),
    ("offset=x", "expected digits"),
    ("offset=2x", "offset must be an integer"),
    ("expo=n", "term field 'expo' given twice"),
    ("prefactor=2", "term fields 'prefactor' and 'scale' exclude each other"),
], ids=["unknown-field", "offset-not-digits", "offset-trailing", "repeated-field",
        "prefactor-and-scale"])
def test_malformed_term_field_is_a_parse_error(capsys, field, text):
    code = cli.main(["eval", "--inline", "term: sign=(-1)^n scale=1 expo=n^2 " + field,
                     "--at", "1"])
    captured = capsys.readouterr()
    assert code == 4
    failure = json.loads(captured.out)["failures"][0]
    assert set(failure) == {"error", "message"}
    assert failure["error"] == "ParseError"
    assert failure["message"].startswith("line 1")
    assert text in failure["message"]
    assert "Traceback" not in captured.err


def test_cli_requests_never_import_sympy():
    # sympy factors only a remainder of degree >= 4 left after the rational
    # roots are divided out; no example report and no cli-lc or cli-hahn
    # request of lcbench (seed 1, inputs read from lcbench/workloads.py) has one
    root = Path(__file__).resolve().parents[1]
    code = textwrap.dedent("""
        import contextlib, io, sys
        sys.path[:0] = [%r, %r]
        import workloads
        from lcivt import cli
        for example in ("nilpotent-signs", "nilpotent-roots", "hahn-signs", "double-zero"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["example", example]) == 0, example
        for name in ("cli-lc", "cli-hahn"):
            load = workloads.WORKLOADS[name]
            for i in range(60):
                load.call(load.prepare(load.spec(1, i)))
        assert "sympy" not in sys.modules
    """ % (str(root / "src"), str(root / "lcbench")))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-3000:]


def test_term_cap_env(capsys, monkeypatch):
    # the term cap is a module constant; a report names it when it fires
    monkeypatch.setattr(lcnum, "_MAX_TERMS", 2)
    code, payload = run_json(
        capsys, "eval", "--inline", "poly: 1+eps+eps^2+eps^3", "--at", "1",
        "--cutoff", "9")
    assert code == 4
    assert payload["failures"][0]["error"] == "ResourceCapError"
    assert "past the cap _MAX_TERMS = 2" in payload["failures"][0]["message"]


def test_missing_series_file_is_an_error(capsys, tmp_path):
    code = cli.main(["eval", "--series", str(tmp_path / "absent.dsl"), "--at", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.out)["failures"][0]["error"] == "FileNotFoundError"
    assert "Traceback" in captured.err


def test_no_series_given_is_an_error(capsys):
    code, payload = run_json(capsys, "eval", "--at", "1")
    assert code == 4
    assert payload["failures"] == [
        {"error": "LcivtError", "message": "no series given: use --series FILE or --inline DSL"}]


def test_double_zero_example(capsys):
    code, payload = run_json(capsys, "example", "double-zero", "--n-list", "5,10")
    assert code == 0
    assert payload["certificates"]["target_kind"] == "min"
    assert [r["n"] for r in payload["results"]] == [5, 10]
    assert [r["matched_kind"] for r in payload["results"]] == ["min", "min"]
    assert [r["extreme_distance_valuation"] for r in payload["results"]] == ["5", "10"]


def test_hahn_example_signs(capsys):
    code, payload = run_json(capsys, "example", "hahn-signs", "--h", "5")
    assert code == 0
    signs = [row["sign"] for row in payload["results"]]
    assert signs == [1, -1, 1, -1]


def test_series_file_input(capsys, tmp_path):
    src = tmp_path / "series.dsl"
    src.write_text("poly: -1, 1, eps\n")
    code, payload = run_json(
        capsys, "zeros", "--series", str(src), "--interval", "0,2",
        "--cutoff", "8")
    assert code == 0
    assert payload["results"]["count"] == 1


def test_text_output(capsys):
    code, out = run_cli(
        capsys, "eval", "--inline", "poly: 1, 1", "--at", "eps", "--cutoff", "4",
        "--output", "text")
    assert code == 0
    assert "value: 1 + eps + O(eps^4)" in out
    assert "ok: True" in out


@pytest.mark.parametrize("argv, text", [
    (["ivt", "--inline", "poly: -1, 1"], "required: --interval"),
    (["nope"], "invalid choice: 'nope'"),
    (["eval", "--mode", "weird", "--inline", "poly: 1", "--at", "1"], "argument --mode"),
], ids=["missing-flag", "unknown-command", "bad-mode"])
def test_usage_error_is_exit_4_with_a_record(capsys, argv, text):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 4
    failure = json.loads(captured.out)["failures"][0]
    assert failure["error"] == "UsageError"
    assert text in failure["message"]
    assert captured.err.startswith("usage: lcivt")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lcivt")


def test_parser_is_reused_without_carrying_state(capsys):
    argv = ("ivt", "--inline", "poly: -1, 1, eps", "--interval", "0,3/2", "--cutoff", "6")
    _, first = run_json(capsys, *argv)
    assert cli.main(["ivt", "--inline", "poly: -1, 1"]) == 4
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    capsys.readouterr()
    code, other = run_json(capsys, "zeros", "--mode", "hahn", "--inline", "poly: -1, 1, eps[1]",
                           "--interval", "0,2", "--cutoff", "1:4")
    assert code == 0 and other["config"]["mode"] == "hahn"
    _, again = run_json(capsys, *argv)
    assert cli.build_parser() is cli.build_parser()
    first.pop("timing_seconds")
    again.pop("timing_seconds")
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_example_nilpotent_roots(capsys):
    code, payload = run_json(capsys, "example", "nilpotent-roots", "--l", "1")
    assert code == 0
    assert payload["ok"] is True
    (row,) = payload["results"]
    assert row["l"] == 1 and row["certified"] is True
    root = parse_literal(row["root"]["root"].split(" + O(")[0], LC)
    assert eps(-4) < root < eps(-6)
