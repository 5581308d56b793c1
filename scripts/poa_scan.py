#!/usr/bin/env python3
"""Price of anarchy across an alpha grid, by exhaustive enumeration.

Prints one exact rational PoA per (n, alpha) and, for n >= 3, flags the
regimes the theory predicts: PoA = 1 below 1/(n-2), PoA <= 2 below
2/(n-2), and PoA < 3 whenever every equilibrium is a tree. The CSV rows
are those of ``ncg poa``, built by the same code, and the CSV is written
atomically; an empty alpha list writes the header alone. Exits with
``ncg``'s codes: 5 past the enumeration size guard, 3 on an invalid n or
alpha or an --out that cannot be written.

Usage: python scripts/poa_scan.py [--n 5] [--out FILE.csv]
"""

import argparse
import sys
from fractions import Fraction

from ncg.cli import (CSV_SCHEMAS, ExperimentConfig, _csv_text, _exact_rational,
                     _rows_poa, _write_text, exit_status)

DEFAULT_GRID = [Fraction(x) for x in
                ("1/8", "1/6", "1/4", "1/3", "1/2", "1", "2", "3", "5",
                 "10", "20", "25", "100")]


def scan(n, grid, out) -> None:
    rows = []
    print(f"{'alpha':>8} {'worst':>10} {'opt':>10} {'poa':>12} {'~poa':>7}  regime")
    for alpha in grid:
        [row], _ = _rows_poa(ExperimentConfig("poa", n=n, alpha=alpha))
        if n <= 2:
            regime = ""
        elif alpha < Fraction(1, n - 2):
            regime = "expect poa = 1"
        elif alpha < Fraction(2, n - 2):
            regime = "expect poa <= 2"
        else:
            regime = "tree regime: expect poa < 3" if alpha > 19 else ""
        poa = row["poa"]
        approx = "" if poa == "undefined" else f"{float(Fraction(poa)):.3f}"
        print(f"{row['alpha']:>8} {row['worst_eq_cost']:>10} {row['opt_cost']:>10} "
              f"{poa:>12} {approx:>7}  {regime}")
        rows.append(row)
    if out:
        _write_text(out, _csv_text(CSV_SCHEMAS["poa"], rows))
        print(f"wrote {len(rows)} rows to {out}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--alpha", type=_exact_rational, nargs="*", default=DEFAULT_GRID)
    parser.add_argument("--out", default=None, metavar="FILE.csv")
    args = parser.parse_args(argv)
    return exit_status(lambda: scan(args.n, args.alpha, args.out))


if __name__ == "__main__":
    sys.exit(main())
