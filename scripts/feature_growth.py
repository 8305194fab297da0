"""Surviving-feature growth across graph sizes and densities.

For each (n, mean degree) cell, learns features on a seeded random graph and
prints the per-iteration surviving feature counts, the final count, why
growth stopped (fixed-point, rank or maxiter), the numerical rank of the
column-max-normalized result (the rule learn_features stops on), the wall
time, the time features_to_csv takes to write the matrix (to os.devnull),
and the peak memory learn_features allocates (traced by tracemalloc in a
second, untimed run, since tracing slows it down). Optionally writes the
table as CSV. --no-rank skips the rank, an SVD of the whole matrix that
costs minutes and several copies of it at n = 10^4.

    python scripts/feature_growth.py --sizes 10000 --degrees 8 --maxiter 10 --no-rank
"""

import argparse
import csv
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np

from rolemine import FeatureLearnConfig, erdos_renyi, features_to_csv, learn_features


def normalized_rank(values):
    """np.linalg.matrix_rank of the columns scaled to maximum 1."""
    top = values.max(axis=0, initial=0.0)
    return int(np.linalg.matrix_rank(values / np.where(top > 0, top, 1.0)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[50, 100, 200])
    ap.add_argument("--degrees", type=float, nargs="+", default=[2, 4, 8, 16])
    ap.add_argument("--maxiter", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--csv", type=Path, default=None, help="write rows here as well")
    ap.add_argument("--no-rank", action="store_true", help="skip the rank of the result")
    args = ap.parse_args(argv)

    rows = []
    print(f"{'n':>5} {'deg':>5} {'final':>6} {'stopped':>11} {'rank':>5} {'time':>7} {'csv':>7} "
          f"{'peak_mb':>8}  growth")
    for n in args.sizes:
        for d in args.degrees:
            p = min(d / (n - 1), 1.0)
            g = erdos_renyi(n, p, seed=args.seed)
            config = FeatureLearnConfig(maxiter=args.maxiter)
            t0 = time.perf_counter()
            x = learn_features(g, config)
            dt = time.perf_counter() - t0
            with open(os.devnull, "w") as devnull:
                t0 = time.perf_counter()
                features_to_csv(x, devnull)
                csv_s = time.perf_counter() - t0
            stopped = x.stopped
            rank = "-" if args.no_rank else normalized_rank(x.values)
            del x
            tracemalloc.start()
            x = learn_features(g, config)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            sizes = list(x.iteration_sizes)
            print(f"{n:>5} {d:>5g} {x.f:>6} {stopped:>11} {rank:>5} {dt:>6.2f}s {csv_s:>6.2f}s "
                  f"{peak_mb:>8.1f}  {sizes}")
            rows.append({"n": n, "mean_degree": d, "final_features": x.f,
                         "stopped": stopped, "rank": rank,
                         "seconds": round(dt, 3), "csv_s": round(csv_s, 3),
                         "peak_mb": round(peak_mb, 1),
                         "growth": " ".join(map(str, sizes))})

    if args.csv is not None:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"\nwrote {len(rows)} rows to {args.csv}")


if __name__ == "__main__":
    main()
