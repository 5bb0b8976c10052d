#!/usr/bin/env python3
"""Run the four named experiments and write reports under out/.

Usage: python3 scripts/run_experiments.py [--out DIR]
lcivt is imported from the checkout's src/, so no install is needed.
Exit code 0 iff every experiment's asserted properties hold.
"""

import argparse
import io
import json
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from lcivt.cli import RunConfig, emit_report, run  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    args = ap.parse_args()
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    runs = [
        ("nilpotent-signs", RunConfig(command="example", example="nilpotent-signs",
                                      l_max=3)),
        ("nilpotent-roots", RunConfig(command="example", example="nilpotent-roots",
                                      l_max=2)),
        ("hahn-signs", RunConfig(command="example", example="hahn-signs", h_max=6)),
        ("double-zero", RunConfig(command="example", example="double-zero",
                                  n_list="5,10,20")),
    ]
    all_ok = True
    for name, cfg in runs:
        report = run(cfg)
        all_ok &= report.ok
        path = outdir / ("%s.json" % name)
        with open(path, "w") as fh:
            emit_report(report, "json", fh)
        if name == "double-zero":
            buf = io.StringIO()
            extremes = [row["extremes"] for row in report.results]
            from lcivt.cli import Report
            emit_report(Report(config=report.config, results=extremes), "csv", buf)
            (outdir / "double-zero-extremes.csv").write_text(buf.getvalue())
        print("%-16s %s  (%.2fs) -> %s" % (
            name, "ok" if report.ok else "FAILED", report.timing_seconds, path))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
