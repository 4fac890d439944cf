#!/usr/bin/env python3
"""Sweep the inverse temperature on a fixture graph and tabulate how the
point-mass equilibrium states approach the vacuum vector state.

Usage: python scripts/kms_sweep.py [--fixture fibonacci] [--vertex a]
       [--betas 1:10:0.5] [--out sweep.csv]

The beta grid is read by the CLI's parser and the word set is the one
``graphcorr kms sweep`` uses.  As in the CLI, a malformed grid, a step <= 0,
too many points or an unknown vertex prints an ``input error`` line and
exits 2, and a grid point at or below ``log rho`` prints a ``FAIL  domain``
line and exits 1.
"""
import argparse
import sys

from graphcorr import fixtures as fx
from graphcorr.cli import _parse_betas
from graphcorr.errors import (DomainError, FormatError, MismatchError,
                              SizeLimitError)
from graphcorr.kms import kms_limit_sweep, limit_sweep_words


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--fixture", default="fibonacci",
                    choices=sorted(fx.FINITE_FIXTURES))
    ap.add_argument("--vertex", default=None)
    ap.add_argument("--betas", default="1:10:0.5")
    ap.add_argument("--out", metavar="PATH")
    args = ap.parse_args()

    g = fx.FINITE_FIXTURES[args.fixture]()
    v = args.vertex if args.vertex is not None else g.vertices[0]
    words = limit_sweep_words(g)
    try:
        betas = _parse_betas(args.betas)
        table = kms_limit_sweep(g, v, words, betas)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        sys.exit(2)
    except (DomainError, SizeLimitError, MismatchError) as exc:
        print(f"FAIL  domain  ({exc})")
        sys.exit(1)
    print(f"fixture {args.fixture}, base vertex {v}")
    print(f"{'beta':>6}  " + "  ".join(f"{w:>12}" for w in words))
    for beta in betas:
        row = {r.word_id: r.residual for r in table.rows if r.beta == beta}
        print(f"{beta:6.2f}  " + "  ".join(f"{row[w]:12.3e}" for w in words))
    print(f"monotone decreasing: {table.monotone_decreasing()}")
    print(f"fitted constant C with residual <= C e^-beta: "
          f"{table.fitted_constant:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table.to_csv())
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
