#!/usr/bin/env python3
"""Scan the edge-cost axis and count tree vs non-tree equilibria.

Exhaustively enumerates all equilibria for each (n, alpha) on a rational
alpha grid and reports where non-tree equilibria stop appearing. At desk
scale the last non-tree equilibrium already vanishes a little above
alpha = 2, far below the proven general threshold. The CSV is written
atomically; an empty n range or alpha list writes the header alone. Exits
like ``ncg``: 5 past the enumeration size guard, 3 on an invalid n or
alpha or an --out that cannot be written.

Usage: python scripts/tree_threshold_scan.py [--n-max 5] [--out FILE.csv]
"""

import argparse
import sys
import time
from fractions import Fraction

from ncg.cli import _csv_text, _exact_rational, _write_text
from ncg.equilibrium import enumerate_equilibria
from ncg.errors import SizeGuard
from ncg.game import GameConfig

DEFAULT_GRID = [Fraction(x) for x in
                ("1/4", "1/2", "3/4", "1", "3/2", "2", "9/4", "5/2", "3",
                 "4", "6", "10", "19", "20", "25")]
FIELDS = ("n", "alpha", "equilibria", "tree_count", "nontree_count",
          "worst_cost", "best_cost")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-min", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=5)
    parser.add_argument("--alpha", type=_exact_rational, nargs="*", default=DEFAULT_GRID)
    parser.add_argument("--out", default=None, metavar="FILE.csv")
    args = parser.parse_args(argv)

    rows = []
    print(f"{'n':>3} {'alpha':>8} {'equilibria':>11} {'trees':>7} "
          f"{'non-trees':>10} {'worst':>10} {'best':>10} {'secs':>6}")
    for n in range(args.n_min, args.n_max + 1):
        last_nontree = None
        for alpha in args.alpha:
            t0 = time.perf_counter()
            try:
                result = enumerate_equilibria(GameConfig(n, alpha))
            except SizeGuard as exc:
                print(f"size guard: {exc}", file=sys.stderr)
                return 5
            except ValueError as exc:
                print(f"invalid configuration: {exc}", file=sys.stderr)
                return 3
            dt = time.perf_counter() - t0
            print(f"{n:>3} {str(alpha):>8} {len(result.codes):>11} "
                  f"{result.tree_count:>7} {result.nontree_count:>10} "
                  f"{str(result.worst_cost):>10} {str(result.best_cost):>10} {dt:>6.2f}")
            rows.append({
                "n": n, "alpha": str(alpha),
                "equilibria": len(result.codes),
                "tree_count": result.tree_count,
                "nontree_count": result.nontree_count,
                "worst_cost": str(result.worst_cost),
                "best_cost": str(result.best_cost),
            })
            if result.nontree_count:
                last_nontree = alpha
        if last_nontree is None:
            print(f"  n={n}: no non-tree equilibrium anywhere on the grid")
        else:
            print(f"  n={n}: last non-tree equilibrium on the grid at "
                  f"alpha = {last_nontree}")

    if args.out:
        try:
            _write_text(args.out, _csv_text(FIELDS, rows))
        except ValueError as exc:
            print(f"invalid configuration: {exc}", file=sys.stderr)
            return 3
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
