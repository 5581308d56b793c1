#!/usr/bin/env python3
"""Scan the edge-cost axis and count tree vs non-tree equilibria.

Exhaustively enumerates all equilibria for each (n, alpha) on a rational
alpha grid and reports where non-tree equilibria stop appearing. At desk
scale the last non-tree equilibrium already vanishes a little above
alpha = 2, far below the proven general threshold. The counts are the
ones ``ncg enumerate`` records in its manifest. The CSV is written
atomically; an empty n range or alpha list writes the header alone. Exits
with ``ncg``'s codes: 5 past the enumeration size guard, 3 on an invalid n
or alpha or an --out that cannot be written.

Usage: python scripts/tree_threshold_scan.py [--n-max 5] [--out FILE.csv]
"""

import argparse
import sys
import time
from fractions import Fraction

from ncg.cli import (_csv_text, _enumeration_summary, _exact_rational,
                     _write_text, exit_status)
from ncg.equilibrium import enumerate_equilibria
from ncg.game import GameConfig

DEFAULT_GRID = [Fraction(x) for x in
                ("1/4", "1/2", "3/4", "1", "3/2", "2", "9/4", "5/2", "3",
                 "4", "6", "10", "19", "20", "25")]
COUNTS = ("equilibria", "tree_count", "nontree_count", "worst_cost", "best_cost")


def scan(n_range, grid, out) -> None:
    rows = []
    print(f"{'n':>3} {'alpha':>8} {'equilibria':>11} {'trees':>7} "
          f"{'non-trees':>10} {'worst':>10} {'best':>10} {'secs':>6}")
    for n in n_range:
        last_nontree = None
        for alpha in grid:
            t0 = time.perf_counter()
            summary = _enumeration_summary(enumerate_equilibria(GameConfig(n, alpha)))
            dt = time.perf_counter() - t0
            row = {"n": n, "alpha": str(alpha), **{k: summary[k] for k in COUNTS}}
            print(f"{n:>3} {row['alpha']:>8} {row['equilibria']:>11} "
                  f"{row['tree_count']:>7} {row['nontree_count']:>10} "
                  f"{row['worst_cost']:>10} {row['best_cost']:>10} {dt:>6.2f}")
            rows.append(row)
            if row["nontree_count"]:
                last_nontree = alpha
        if last_nontree is None:
            print(f"  n={n}: no non-tree equilibrium anywhere on the grid")
        else:
            print(f"  n={n}: last non-tree equilibrium on the grid at "
                  f"alpha = {last_nontree}")
    if out:
        _write_text(out, _csv_text(("n", "alpha") + COUNTS, rows))
        print(f"wrote {len(rows)} rows to {out}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-min", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=5)
    parser.add_argument("--alpha", type=_exact_rational, nargs="*", default=DEFAULT_GRID)
    parser.add_argument("--out", default=None, metavar="FILE.csv")
    args = parser.parse_args(argv)
    return exit_status(lambda: scan(range(args.n_min, args.n_max + 1), args.alpha, args.out))


if __name__ == "__main__":
    sys.exit(main())
