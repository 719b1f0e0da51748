#!/usr/bin/env python3
"""Emit Wald confidence-set boundary points under three design covariances.

A 2-d logistic model is fit once per design covariance (diagonal,
positively correlated, negatively correlated); the bootstrap-calibrated
Wald ellipse boundary is sampled at evenly spaced angles.  The CSV is
plot-ready: one row per boundary point with the design label attached.
"""

import argparse
import sys


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--B", type=int, default=2000)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--boundary-points", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="confset_shape.csv")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    from scmest import experiments, write_table

    config = experiments.ConfsetShapeExperiment(
        n=args.n,
        B=args.B,
        delta=args.delta,
        boundary_points=args.boundary_points,
        seed=args.seed,
    )
    rows = experiments.run_confset_shape(config)
    write_table(rows, args.out)
    labels = sorted({row.sigma for row in rows})
    print(f"wrote {len(rows)} boundary points to {args.out}")
    for label in labels:
        print(f"  design {label}: {sum(r.sigma == label for r in rows)} points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
