#!/usr/bin/env python3
"""Run the effective-dimension error study over an (model, d, n) grid.

Emits mean |d_n/d - 1| with standard errors for well-specified least
squares and logistic regression.  The default grid (d in {5,10,15,20},
n from 2000 to 10000, 100 replications) takes tens of minutes; trim
``--reps`` or the grids for a quick pass.
"""

import argparse
import sys
import time


def _ints(text):
    return tuple(int(v) for v in text.split(","))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--models", default="squared,logistic", help="comma-separated")
    p.add_argument("--d-grid", type=_ints, default=(5, 10, 15, 20))
    p.add_argument("--n-grid", type=_ints, default=(2000, 4000, 6000, 8000, 10000))
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="effdim_error.csv")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    from scmest import experiments, write_table

    config = experiments.EffDimErrorExperiment(
        models=tuple(args.models.split(",")),
        d_grid=args.d_grid,
        n_grid=args.n_grid,
        reps=args.reps,
        seed=args.seed,
    )
    t0 = time.time()
    rows = experiments.run_effdim_error(config)
    write_table(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out} in {time.time() - t0:.0f}s")
    for row in rows:
        print(
            f"  {row.model:10s} d={row.d:<3d} n={row.n:<6d} "
            f"mean|d_n/d - 1|={row.mean_abs_err:.4f} (stderr {row.stderr:.4f})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
