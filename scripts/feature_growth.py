"""Surviving-feature growth across graph sizes and densities.

For each (n, mean degree) cell, learns features on a seeded random graph and
prints the per-iteration surviving feature counts, the final count, and the
wall time. Optionally writes the table as CSV.
"""

import argparse
import csv
import time
from pathlib import Path

from rolemine import FeatureLearnConfig, erdos_renyi, learn_features


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[50, 100, 200])
    ap.add_argument("--degrees", type=float, nargs="+", default=[2, 4, 8, 16])
    ap.add_argument("--maxiter", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--csv", type=Path, default=None, help="write rows here as well")
    args = ap.parse_args(argv)

    rows = []
    print(f"{'n':>5} {'deg':>5} {'final':>6} {'time':>7}  growth")
    for n in args.sizes:
        for d in args.degrees:
            p = min(d / (n - 1), 1.0)
            g = erdos_renyi(n, p, seed=args.seed)
            t0 = time.perf_counter()
            x = learn_features(g, FeatureLearnConfig(maxiter=args.maxiter))
            dt = time.perf_counter() - t0
            sizes = list(x.iteration_sizes)
            print(f"{n:>5} {d:>5g} {x.f:>6} {dt:>6.2f}s  {sizes}")
            rows.append({"n": n, "mean_degree": d, "final_features": x.f,
                         "seconds": round(dt, 3), "growth": " ".join(map(str, sizes))})

    if args.csv is not None:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"\nwrote {len(rows)} rows to {args.csv}")


if __name__ == "__main__":
    main()
