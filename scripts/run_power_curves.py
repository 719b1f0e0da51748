#!/usr/bin/env python3
"""Empirical power of the Rao, LR, and Wald tests along an n grid.

Alternatives sit at distance ``--dists`` from the null along the evenly
spread direction (1, ..., 1)/sqrt(d).  Critical values are recalibrated
per n by oracle Monte Carlo under the null, so size is held at
``--alpha`` by construction.
"""

import argparse
import sys
import time

import numpy as np


def _ints(text):
    return tuple(int(v) for v in text.split(","))


def _floats(text):
    return tuple(float(v) for v in text.split(","))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--process", default="logistic_wellspec")
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--dists", type=_floats, default=(0.25, 0.5, 1.0))
    p.add_argument("--n-grid", type=_ints, default=(500, 1000, 2000))
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--calib-reps", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="power_curves.csv")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    from scmest import gof
    from scmest.simdata import Process, theta0_equispaced, write_table

    theta0 = theta0_equispaced(args.d)
    direction = np.full(args.d, 1.0 / np.sqrt(args.d))
    config = gof.PowerCurveConfig(
        process=Process(kind=args.process, theta0=theta0),
        alternatives=tuple(theta0 + dist * direction for dist in args.dists),
        n_grid=args.n_grid,
        alpha=args.alpha,
        reps=args.reps,
        calib_reps=args.calib_reps,
        seed=args.seed,
    )
    t0 = time.time()
    table = gof.power_curve(config)
    write_table(table.rows, args.out)
    print(f"wrote {len(table.rows)} rows to {args.out} in {time.time() - t0:.0f}s")
    for row in table.rows:
        print(
            f"  {row.kind:4s} n={row.n:<6d} dist={row.dist:.3f} "
            f"power={row.power:.3f} (stderr {row.stderr:.3f})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
