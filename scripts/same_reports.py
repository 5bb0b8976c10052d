#!/usr/bin/env python3
"""One digest over the outputs that must stay byte-identical.

    python3 scripts/same_reports.py [--parts]

The digest covers:

* the report fingerprints of the first 60 ``cli-lc`` and ``cli-hahn``
  operations of seeds 1-3 (``lcbench`` inputs; ``timing_seconds`` removed);
* the four ``lcivt example`` reports, ``timing_seconds`` removed;
* the P and B renders of the first 80 ``lift`` operations of seed 3;
* the ``repr`` of ``count_zeros`` on the first 60 ``residue`` operations of
  seeds 1-3.  Each result is rendered a second time after every pair of its
  roots has been compared, and the stream fails if the two renders differ.

The fingerprints re-dump each report with sorted keys, so they miss key
order, text and CSV output and error reports.  One more stream, ``raw``,
runs the fixed argument lists of ``RAW_ARGV`` through ``cli.main`` and
records, per list, the exit code, whether stderr stayed empty and the
stdout text itself with only the ``timing_seconds`` value masked.  Its
digest is printed on its own line and is not part of the total.

Each stream runs in a fresh interpreter, as in ``lcbench``: generator
brackets, which comparisons refine, and the factor cache live for a process.
A rendering is a function of the value alone, which the second render of
each ``residue`` result checks.  Run it at two commits; equal digests mean
equal outputs.
``--parts`` also prints one digest per stream, to locate a difference.
Inputs come from ``lcbench/workloads.py``; nothing under ``lcbench/`` is
written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ("nilpotent-signs", "nilpotent-roots", "hahn-signs", "double-zero")
STREAMS = ([("cli-lc", seed, 60) for seed in (1, 2, 3)]
           + [("cli-hahn", seed, 60) for seed in (1, 2, 3)]
           + [("example", 0, len(EXAMPLES)), ("lift", 3, 80)]
           + [("residue", seed, 60) for seed in (1, 2, 3)])


def _derivative_argv(mode, cut, poly, term, ratfun):
    """mult and track-extremes, which read derivatives of the series, at the
    double zeros of a poly:, a term: and a ratfun:+polymul: source (at 1, 0
    and 1); the term and ratfun extremes are maxima (scale: -1)."""
    m = ("--mode", mode)
    return (
        ("mult",) + m + ("--inline", poly, "--at", "1"),
        ("track-extremes",) + m + ("--inline", poly, "--target", "1", "--window", "3/4,5/4",
                                   "--n-list", "2,3"),
        ("mult",) + m + ("--inline", term, "--at", "0", "--cutoff", cut % 6),
        ("track-extremes",) + m + ("--inline", term + "\nscale: -1", "--target", "0",
                                   "--window=-1/4,1/4", "--n-list", "3,4", "--cutoff", cut % 6),
        ("mult",) + m + ("--inline", ratfun, "--at", "1", "--cutoff", cut % 9),
        ("track-extremes",) + m + ("--inline", ratfun + "\nscale: -1", "--target", "1",
                                   "--window", "2/3,4/3", "--n-list", "3,5", "--cutoff", cut % 6),
    )


GAPPY = "term: sign=(-1)^n scale=1 expo=n^2"
RATFUN = "ratfun: (2 - 2*eps*X - eps^2*X) / (1 - eps*X)\npolymul: 1, -2, 1"
TRACK = ("track-zeros", "--inline", "poly: -1, 1, eps", "--interval", "0,3/2",
         "--n-list", "1,2,3")
RAW_ARGV = (
    TRACK,
    TRACK + ("--output", "text"),
    TRACK + ("--output", "csv"),
    ("eval", "--inline", "poly: 1", "--at", "1", "--frobnicate"),  # unknown option
    ("eval", "--inline", "poly: 1 +", "--at", "1"),  # ParseError
    ("eval", "--inline", "poly: 1 +", "--at", "1", "--output", "text"),
    ("eval", "--at", "1"),  # no --series or --inline
    ("eval", "--inline", "poly: 1", "--at", "1", "--output", "csv"),  # no track record
    ("eval", "--inline", "term: sign=(+1)^n scale=1 expo=1/1000000*n", "--at", "1",
     "--cutoff", "1"),  # ResourceCapError: _TAIL_CAP
    # the residue box's edges: a root at each end, one just below lo that the
    # box keeps and the membership filter drops, one just above hi
    ("zeros", "--inline", "poly: 0, -1, 1", "--interval", "0,1"),
    ("zeros", "--inline", "poly: -2, 1 + eps, 1", "--interval", "1,3", "--cutoff", "6"),
    ("zeros", "--mode", "hahn", "--inline", "poly: 0, -1 - eps[1], 1", "--interval", "0,1"),
    # below the top level: the gappy ivt, whose P has the residue root 1 of
    # multiplicity 3 at the end of the [1, 2] box; a triple residue root at
    # the end of [1, 2] that splits into 1 + eps^2 and 1 +- eps^(1/2); and the
    # term rule's tail certificate, which sets factor's degree cap
    ("ivt", "--inline", GAPPY, "--interval=eps^(-4),eps^(-6)", "--cutoff", "10"),
    ("zeros", "--inline", "poly: -1 + eps + eps^3, 3 - eps, -3, 1", "--interval", "1,2",
     "--cutoff", "6"),
    ("zeros", "--mode", "hahn", "--inline", "poly: -1 + eps[1] + eps[1]^3, 3 - eps[1], -3, 1",
     "--interval", "1,2", "--cutoff", "1:8"),
    ("factor", "--inline", GAPPY),
    # P keeps the eps[2] terms of its low coefficients, past the cutoff; and
    # a lift whose first residual is empty
    ("factor", "--mode", "hahn", "--inline", "poly: eps[2], -1 + 2*eps[2], 1, eps[1]^(1/2)",
     "--cutoff", "1:3"),
    ("factor", "--inline", "poly: -2, 0, 1"),
    *_derivative_argv("lc", "%d", "poly: 1, -2 + eps, 1 - 2*eps, eps",
                      "term: sign=(+1)^n scale=1 expo=n^2 offset=2", RATFUN),
    *_derivative_argv("hahn", "1:%d", "poly: 1, -2 + eps[1], 1 - 2*eps[1], eps[1]",
                      "term: sign=(-1)^n scale=1 expo=seq(n) offset=2",
                      "ratfun: (2 - 2*eps[1]*X - eps[2]*X) / (1 - eps[1]*X)\npolymul: 1, -2, 1"),
    ("mult", "--inline", RATFUN + "\nsubst: h=1 k=1/2", "--at", "1/2", "--cutoff", "6"),
)
_TIMING = re.compile(r'(timing_seconds"?: )[-+.e0-9]+')


def stream_lines(name, seed, count):
    """One line per operation of one stream, in this interpreter."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "lcbench")]
    import workloads
    from lcivt import cli

    if name == "raw":
        for argv in RAW_ARGV:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
            yield "%r %d stderr=%s %r" % (argv, rc, "empty" if not err.getvalue() else "written",
                                           _TIMING.sub(r"\1<t>", out.getvalue()))
        return
    if name == "example":
        for example in EXAMPLES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["example", example])
            yield "%s %d %s" % (example, rc, workloads.fingerprint(buf.getvalue()))
        return
    load = workloads.WORKLOADS[name]
    for i in range(count):
        out = load.call(load.prepare(load.spec(seed, i)))
        if name == "lift":
            _, fact = out
            yield " | ".join([str(c) for c in fact.p_coeffs] + ["B"]
                             + [str(c) for c in fact.b_coeffs])
        elif name == "residue":
            text = repr(out)
            _compare_pairs([report.root for report in out[1]])
            if repr(out) != text:
                raise SystemExit("residue seed %d operation %d renders differently after "
                                 "comparing its roots" % (seed, i))
            yield text
        else:
            rc, text = out
            yield "%d %s" % (rc, workloads.fingerprint(text))


def _compare_pairs(values):
    """Compare every pair of values, both ways; undecidable pairs are skipped."""
    from lcivt.errors import TruncationError

    for a in values:
        for b in values:
            try:
                a.compare(b)
            except TruncationError:
                pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parts", action="store_true", help="print one digest per stream")
    ap.add_argument("--stream", nargs=3, metavar=("NAME", "SEED", "COUNT"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.stream:
        name, seed, count = args.stream
        for line in stream_lines(name, int(seed), int(count)):
            print(line)
        return
    total = hashlib.sha256()
    for name, seed, count in STREAMS:
        part = _run_stream(name, seed, count)
        total.update(part.encode())
        if args.parts:
            print("%s seed %d: %s" % (name, seed, hashlib.sha256(part.encode()).hexdigest()))
    raw = _run_stream("raw", 0, len(RAW_ARGV))
    print("raw (not in the total): %s" % hashlib.sha256(raw.encode()).hexdigest())
    print(total.hexdigest())


def _run_stream(name, seed, count):
    """One stream's output, headed by its name and seed, from a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--stream", name, str(seed), str(count)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONHASHSEED="0"))
    if proc.returncode != 0:
        raise SystemExit("stream %s seed %d failed:\n%s" % (name, seed, proc.stderr[-3000:]))
    return "%s %d\n%s" % (name, seed, proc.stdout)


if __name__ == "__main__":
    main()
