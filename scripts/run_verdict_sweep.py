#!/usr/bin/env python3
"""Sweep the existence/nonexistence verdict over ellipticity and exponent.

Produces a CSV table of classify() outcomes for Pucci extremal operators
over a grid of (lambda, Lambda, n, p), plus the alpha*/beta* margins, so
the dichotomy boundary can be plotted directly.
"""

import argparse
import sys

import numpy as np

from fnel.cli import run_sweep


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", default="pucci_max",
                    choices=("pucci_max", "pucci_min", "laplacian"))
    ap.add_argument("--lam", type=float, default=1.0)
    ap.add_argument("--Lam-values", type=float, nargs="+",
                    default=[1.0, 1.5, 2.0, 3.0])
    ap.add_argument("--n-values", type=int, nargs="+", default=[2, 3, 4, 5, 6])
    ap.add_argument("--p-min", type=float, default=1.05)
    ap.add_argument("--p-max", type=float, default=6.0)
    ap.add_argument("--p-count", type=int, default=40)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    config = {
        "command": "classify",
        "kind": args.kind,
        "axes": {
            "p": list(np.linspace(args.p_min, args.p_max, args.p_count)),
            "lambda": [args.lam],
            "Lambda": args.Lam_values,
            "n": args.n_values,
        },
    }
    csv_text, failed = run_sweep(config)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(f"wrote {len(csv_text.splitlines()) - 1} rows to {args.out}")
    else:
        sys.stdout.write(csv_text)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
