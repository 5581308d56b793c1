#!/usr/bin/env python3
"""Price of anarchy across an alpha grid, by exhaustive enumeration.

Prints one exact rational PoA per (n, alpha) and, for n >= 3, flags the
regimes the theory predicts: PoA = 1 below 1/(n-2), PoA <= 2 below
2/(n-2), and PoA < 3 whenever every equilibrium is a tree. The CSV has
the columns of ``ncg poa`` and is written atomically; an empty alpha list
writes the header alone. Exits like ``ncg``: 5 past the enumeration size
guard, 3 on an invalid n or alpha or an --out that cannot be written.

Usage: python scripts/poa_scan.py [--n 5] [--out FILE.csv]
"""

import argparse
import sys
from fractions import Fraction

from ncg.cli import CSV_SCHEMAS, _csv_text, _exact_rational, _write_text
from ncg.errors import SizeGuard
from ncg.game import GameConfig
from ncg.optimum import price_of_anarchy

DEFAULT_GRID = [Fraction(x) for x in
                ("1/8", "1/6", "1/4", "1/3", "1/2", "1", "2", "3", "5",
                 "10", "20", "25", "100")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--alpha", type=_exact_rational, nargs="*", default=DEFAULT_GRID)
    parser.add_argument("--out", default=None, metavar="FILE.csv")
    args = parser.parse_args(argv)

    n = args.n
    rows = []
    print(f"{'alpha':>8} {'worst':>10} {'opt':>10} {'poa':>12} {'~poa':>7}  regime")
    for alpha in args.alpha:
        try:
            report = price_of_anarchy(GameConfig(n, alpha))
        except SizeGuard as exc:
            print(f"size guard: {exc}", file=sys.stderr)
            return 5
        except ValueError as exc:
            print(f"invalid configuration: {exc}", file=sys.stderr)
            return 3
        if n <= 2:
            regime = ""
        elif alpha < Fraction(1, n - 2):
            regime = "expect poa = 1"
        elif alpha < Fraction(2, n - 2):
            regime = "expect poa <= 2"
        else:
            regime = "tree regime: expect poa < 3" if alpha > 19 else ""
        poa = report.poa
        print(f"{str(alpha):>8} {str(report.worst_equilibrium_cost):>10} "
              f"{str(report.optimum_cost):>10} "
              f"{('undefined' if poa is None else str(poa)):>12} "
              f"{('' if poa is None else f'{float(poa):.3f}'):>7}  {regime}")
        rows.append({
            "alpha": str(alpha), "n": n,
            "worst_eq_cost": str(report.worst_equilibrium_cost),
            "opt_cost": str(report.optimum_cost),
            "poa": "undefined" if poa is None else str(poa),
            "exhaustive": "true" if report.exhaustive else "false",
        })

    if args.out:
        try:
            _write_text(args.out, _csv_text(CSV_SCHEMAS["poa"], rows))
        except ValueError as exc:
            print(f"invalid configuration: {exc}", file=sys.stderr)
            return 3
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
