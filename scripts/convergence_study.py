"""Convergence of finite-n spectral-radius laws toward their limits.

For each size n in a ladder this compares, on one row:

* exact_gap: the sup distance over the limit law's mass-span grid between
  the exactly evaluated, affinely normalized finite-n cdf and the limit
  cdf, with no sampling noise (the truncated family runs at p = n/2, the
  product family at k = 1);
* mc_ks: the KS distance of a normalized Monte Carlo batch to the same
  limit, whose null noise floor is about 0.87/sqrt(reps).

Typical use:

    python scripts/convergence_study.py --family truncated \
        --n-list 200,2000,20000 --reps 20000 --seed 1 > truncated.csv

The truncated and product k=1 families approach their limit only at a
1/log(n) rate, so their exact_gap columns are still growing over any
ladder that fits in double precision; the spherical family converges at
a visibly faster rate.
"""

from __future__ import annotations

import argparse
import sys

from specrad import limit_laws, stats
from specrad.norming import GinibreProduct, Spherical, TruncatedUnitary


FAMILIES = {
    "spherical": (limit_laws.SPHERICAL_H, Spherical, "20,200,2000"),
    "truncated": (limit_laws.GUMBEL, lambda n: TruncatedUnitary(n, n // 2), "200,2000,20000"),
    "product-k1": (limit_laws.GUMBEL, lambda n: GinibreProduct(n, 1), "100,1000,10000"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", default="truncated", choices=sorted(FAMILIES))
    parser.add_argument("--n-list", default=None,
                        help="comma-separated sizes (default: family ladder)")
    parser.add_argument("--reps", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--grid-points", type=int, default=200)
    parser.add_argument("--output", default=None, help="path (default: stdout)")
    args = parser.parse_args(argv)

    law, make_spec, default_ladder = FAMILIES[args.family]
    sizes = [int(s) for s in (args.n_list or default_ladder).split(",") if s]
    grid = stats.mass_span_grid(law, points=args.grid_points)
    reference = stats.law_cdf_fn(law)

    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        out.write("family,n,exact_gap,mc_ks,critical_005\n")
        for n in sizes:
            spec = make_spec(n)
            gap = stats._exact_limit_gap(spec, law, grid)
            batch = stats.normalized_batch(spec, args.reps, args.seed, law)
            report = stats.ks_statistic(batch, reference)
            out.write(f"{args.family},{n},{gap:.6f},{report.statistic:.6f},"
                      f"{report.critical_005:.6f}\n")
    finally:
        if args.output:
            out.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
