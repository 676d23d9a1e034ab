#!/usr/bin/env python3
"""Trace nonexistence-certificate growth curves mu(sigma) against lambda1.

For operators in the nonexistence regime, rescaled supersolutions force an
eigenvalue-growth contradiction: mu(sigma) crosses the principal eigenvalue
lambda1 at a finite scale sigma*. This script prints the crossing for the
strict and critical model cases and writes the sampled curves to CSV.
"""

import argparse
import sys

from fnel import laplacian, nonexistence_certificate, pucci_min


CASES = [
    ("laplacian-n3-p2-strict", laplacian(3), 3, 2.0),
    ("laplacian-n4-p2-critical", laplacian(4), 4, 2.0),
    ("pucci_min-n3-p3", pucci_min(1.0, 2.0, 3), 3, 3.0),
]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--c", type=float, default=1.0,
                    help="assumed lower-bound constant for the solution")
    ap.add_argument("--out-prefix", default=None,
                    help="write <prefix>-<case>.csv curve files")
    args = ap.parse_args(argv)

    for name, op, n, p in CASES:
        rep = nonexistence_certificate(op, n, p, 0.0, c=args.c)
        growth = rep.get("growth_exponent")
        growth_txt = f"{growth:.4f}" if growth is not None else "log"
        print(f"{name}: mode={rep['mode']} lambda1={rep['lambda1']:.6f} "
              f"growth_exponent={growth_txt} sigma*={rep['sigma_star']}")
        if args.out_prefix:
            path = f"{args.out_prefix}-{name}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("sigma,mu\n")
                for s, m in rep["curve"]:
                    fh.write(f"{float(s)!r},{float(m)!r}\n")
            print(f"  curve -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
