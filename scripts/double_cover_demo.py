#!/usr/bin/env python3
"""Residual scaling of the double-cover bimodule isomorphism checks.

Runs the verification at a few grid sizes to show that the isometry and
action residuals sit at rounding level independently of the grid, i.e.
the identities are exact up to floating point rather than discretization.
As in the CLI, ``--trials`` below 1 or a negative ``--seed`` prints an
``input error`` line and exits 2, and ``--trials`` above
``graphs.MAX_TRIALS`` prints a ``FAIL  domain`` line and exits 1.
"""
import argparse
import sys

from graphcorr.cli import check_draws
from graphcorr.double_cover import nonisomorphism_witness, run_verification
from graphcorr.errors import DomainError, FormatError, SizeLimitError


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    try:
        check_draws(args.trials, args.seed)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        sys.exit(2)
    try:
        reports = [run_verification(grid=grid, trials=args.trials,
                                    seed=args.seed)
                   for grid in (128, 256, 512, 1024, 2048)]
    except (DomainError, SizeLimitError) as exc:
        print(f"FAIL  domain  ({exc})")
        sys.exit(1)

    print(f"{'grid':>6} {'isometry':>12} {'right act':>12} {'left act':>12} "
          f"{'surject':>12} {'seam':>6}")
    for rep in reports:
        print(f"{rep.grid:6d} {rep.isometry:12.3e} {rep.action_right:12.3e} "
              f"{rep.action_left:12.3e} {rep.surjectivity:12.3e} "
              f"{'ok' if rep.endpoint_exact else 'BAD':>6}")
    two_loops, cover = nonisomorphism_witness()
    print(f"edge-space components: {two_loops} (two loops) vs {cover} "
          "(double cover), so the graphs are not isomorphic")


if __name__ == "__main__":
    main()
