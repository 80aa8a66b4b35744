#!/usr/bin/env python3
"""Sweep the predictor noise in the two-box problem and watch the
prescription flip.

With noise e the payoff kernel succeeds with probability 1 - e when the
prediction matches the action and e when it does not, so conditioning on
the action is worth less as e grows.  Exact expected utilities are
EU(one-box) = 1000(1 - e) and EU(two-box) = 1 + 1000e, which cross at
e = 999/2000; the sweep demonstrates the flip with exact arithmetic.

Usage:
    python scripts/newcomb_noise_sweep.py                 # 0 .. 1 in 10 steps
    python scripts/newcomb_noise_sweep.py --steps 20
    python scripts/newcomb_noise_sweep.py --noise 999/2000  # one exact point

A --noise value is a rational in pmc's grammar (README "File formats")
and must lie in [0, 1].  On a bad value nothing is written to standard
output; the error goes to standard error as "error: <Code>: <message>",
as pmc's CLI writes it, and the exit status is 1.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from pmc import cli, edt
from pmc.codec import format_fraction, parse_fraction


def sweep_points(steps: int) -> list[Fraction]:
    return [Fraction(k, steps) for k in range(steps + 1)]


def report_line(noise: Fraction) -> str:
    prescription = edt.solve(edt.newcomb(predictor_noise=noise))
    values = {v.action: v.expected_utility for v in prescription.table}
    prescribed = ",".join(prescription.prescribed)
    return "\t".join(
        [
            format_fraction(noise),
            format_fraction(values["one-box"]),
            format_fraction(values["two-box"]),
            prescribed,
        ]
    )


def write_report(noise: list[str] | None, steps: int) -> int:
    """Write the table for the given noise values, or for the grid."""
    if noise is not None:
        points = [parse_fraction(v) for v in noise]
    else:
        points = sweep_points(steps)
    # Every line is computed before any is written: a bad value writes none.
    lines = [report_line(p) for p in points]
    sys.stdout.write("noise\tEU(one-box)\tEU(two-box)\tprescribed\n")
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=10, help="grid steps")
    parser.add_argument(
        "--noise",
        action="append",
        default=None,
        help="evaluate a single exact noise value such as 999/2000 "
        "(repeatable; replaces the grid)",
    )
    args = parser.parse_args(argv)

    if args.noise is None and args.steps < 1:
        parser.error("--steps must be at least 1")
    return write_report(args.noise, args.steps)


def main(argv=None) -> int:
    return cli.guarded(lambda: run(argv))


if __name__ == "__main__":
    raise SystemExit(main())
