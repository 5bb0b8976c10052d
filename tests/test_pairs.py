from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import pairs

    return pairs


def test_pairs_summary_on_fixed_runs(pairs):
    parent = [{"ops_per_s": v, "latency_p50_s": t}
              for v, t in ((100, 0.010), (102, 0.012), (98, 0.011), (101, 0.013))]
    change = [{"ops_per_s": v, "latency_p50_s": t}
              for v, t in ((120, 0.009), (99, 0.013), (125, 0.011), (130, 0.012))]
    got = pairs.summarize(parent, change, {"ops_per_s": "higher", "latency_p50_s": "lower"})
    ops, p50 = got["ops_per_s"], got["latency_p50_s"]
    assert ops["parent"]["median"] == 100.5 and ops["change"]["median"] == 122.5
    assert ops["parent"]["quartiles"] == [99.5, 101.25]
    assert ops["ratio"] == pytest.approx(122.5 / 100.5)
    assert (ops["wins"], ops["pairs"]) == (3, 4)
    # lower is better; the tie at 0.011 is no win
    assert (p50["wins"], p50["pairs"]) == (2, 4)
    assert p50["parent"]["median"] == pytest.approx(0.0115)
    assert len(pairs.render(got)) == 2
