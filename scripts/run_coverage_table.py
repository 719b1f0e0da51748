#!/usr/bin/env python3
"""Run the full coverage study and optionally check its pinned cells.

At the default settings (1000 replications, B = 2000, n = 100, d = 5)
this reproduces the coverage table for the three data-generating
processes, all methods, and five confidence levels.  Expect roughly 15
to 30 minutes on one core; ``--reps 200`` gives a quick pass.

With ``--check`` the four pinned cells are compared against their
target coverages within ``--tol`` and the script exits nonzero on any
miss.  The targets carry the reference study's own Monte-Carlo noise,
hence the default tolerance 0.03 at 1000 replications.
"""

import argparse
import sys
import time

# pinned (process, method, level) cells and their target coverages
CHECKS = (
    ("linear_wellspec", "oracle", 0.95, 0.957),
    ("logistic_wellspec", "bootwald", 0.95, 0.938),
    ("logistic_wellspec", "bootlr", 0.95, 0.976),
    ("linear_misspec_t", "bootwald", 0.75, 0.727),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--B", type=int, default=2000)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="coverage_table.csv")
    p.add_argument("--check", action="store_true", help="verify pinned cells")
    p.add_argument("--tol", type=float, default=0.03)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    from scmest import experiments, write_table

    config = experiments.CoverageTableExperiment(
        n=args.n, d=args.d, reps=args.reps, B=args.B, seed=args.seed
    )
    t0 = time.time()
    table = experiments.run_coverage_table(config)
    elapsed = time.time() - t0
    meta = {"n": args.n, "d": args.d, "reps": args.reps, "B": args.B, "seed": args.seed}
    write_table(table.rows, args.out, metadata=meta)
    print(f"wrote {len(table.rows)} rows to {args.out} in {elapsed:.0f}s")
    for row in table.rows:
        print(
            f"  {row.model:18s} {row.method:8s} delta={row.delta:.2f} "
            f"coverage={row.coverage:.3f} (stderr {row.stderr:.3f}, "
            f"failures {row.failures})"
        )
    if not args.check:
        return 0
    failed = 0
    for model, method, delta, target in CHECKS:
        row = table.lookup(method, delta, model=model)
        ok = abs(row.coverage - target) <= args.tol
        failed += not ok
        print(
            f"[{'PASS' if ok else 'FAIL'}] {model}/{method}@{delta}: "
            f"{row.coverage:.3f} vs target {target} (tol {args.tol})"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
