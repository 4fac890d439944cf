#!/usr/bin/env python3
"""Sweep the inverse temperature on a fixture graph and tabulate how the
point-mass equilibrium states approach the vacuum vector state.

Usage: python scripts/kms_sweep.py [--fixture fibonacci] [--vertex a]
       [--betas 1:10:1] [--out sweep.csv]

The run is ``graphcorr kms sweep`` on the bundled fixture file, at the
fixture's first vertex unless ``--vertex`` says otherwise, with its CSV,
report, exit codes and input errors.
"""
import argparse
import sys

from graphcorr import fixtures as fx
from graphcorr.cli import dispatch


def main():
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("--fixture", default="fibonacci",
                    choices=sorted(fx.FINITE_FIXTURES))
    ap.add_argument("--vertex")
    args, rest = ap.parse_known_args()
    vertex = (fx.FINITE_FIXTURES[args.fixture]().vertices[0]
              if args.vertex is None else args.vertex)
    sys.exit(dispatch(["kms", "sweep", fx.fixture_path(args.fixture),
                       "--vertex", vertex, *rest]))


if __name__ == "__main__":
    main()
