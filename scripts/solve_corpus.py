#!/usr/bin/env python3
"""Solve every built-in decision problem and print the prescriptions.

Usage:
    python scripts/solve_corpus.py                 # all problems, TSV tables
    python scripts/solve_corpus.py newcomb         # a subset, by name
    python scripts/solve_corpus.py --format json   # machine-readable output
"""

from __future__ import annotations

import argparse
import sys

from pmc import cli, codec, edt


def write_prescriptions(names: list[str], fmt: str) -> int:
    if fmt == "json":
        payload = [
            codec.prescription_to_json(edt.solve(edt.CORPUS[name]()))
            for name in names
        ]
        codec.write_text(payload, sys.stdout.write)
        return 0

    for name in names:
        prescription = edt.solve(edt.CORPUS[name]())
        sys.stdout.write(f"== {name} ==\n")
        sys.stdout.write(codec.prescription_to_tsv(prescription))
        sys.stdout.write("\n")
    return 0


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "names",
        nargs="*",
        help=f"problems to solve (default: all of {', '.join(edt.CORPUS)})",
    )
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
    args = parser.parse_args(argv)

    names = args.names or list(edt.CORPUS)
    unknown = [n for n in names if n not in edt.CORPUS]
    if unknown:
        parser.error(f"unknown problem(s): {', '.join(unknown)}")
    return write_prescriptions(names, args.format)


def main(argv=None) -> int:
    return cli.guarded(lambda: run(argv))


if __name__ == "__main__":
    raise SystemExit(main())
