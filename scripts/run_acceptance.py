#!/usr/bin/env python3
"""Run the full acceptance suite and print the report.

Usage: python scripts/run_acceptance.py [--seed N] [--json out.json]

The run is ``graphcorr suite all`` at seed 42 unless ``--seed`` says
otherwise, with its report, exit codes and input errors.
"""
import argparse
import sys

from graphcorr.cli import dispatch


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--json", metavar="PATH")
    args = ap.parse_args()
    sys.exit(dispatch((["--json", args.json] if args.json else [])
                      + ["suite", "all", "--seed", str(args.seed)]))


if __name__ == "__main__":
    main()
