import json

from lcivt import cli


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
    argv = ("ivt", "--inline", "poly: -1, 1, eps", "--interval", "0,3/2",
            "--cutoff", "6")
    _, first = run_json(capsys, *argv)
    _, second = run_json(capsys, *argv)
    first.pop("timing_seconds")
    second.pop("timing_seconds")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


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


def test_term_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("LCIVT_MAX_TERMS", "2")
    code, payload = run_json(
        capsys, "eval", "--inline", "poly: 1+eps+eps^2+eps^3", "--at", "1",
        "--cutoff", "9")
    assert code == 4
    assert payload["failures"][0]["error"] == "ResourceCapError"


def test_malformed_term_cap_env_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("LCIVT_MAX_TERMS", "abc")
    code, payload = run_json(capsys, "eval", "--inline", "poly: 1, 1", "--at", "1")
    assert code == 4
    assert payload["failures"][0]["error"] == "ValueError"
    assert "LCIVT_MAX_TERMS" in payload["failures"][0]["message"]


def test_missing_series_file_is_an_error(capsys, tmp_path):
    code = cli.main(["eval", "--series", str(tmp_path / "absent.dsl"), "--at", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.out)["failures"][0]["error"] == "FileNotFoundError"
    assert "Traceback" in captured.err


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
