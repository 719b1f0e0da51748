"""Steadiness report: how much each end-to-end metric spreads between runs.

    python3 perfbench/steadiness.py --runs 10 --first-seed 0 [--workload fit_large ...]

Runs the benchmark command of BENCHMARK.json once per seed and workload, for
``run_seconds`` each, one run at a time.  For every workload and end-to-end
metric it prints the median and quartiles over the runs and the spread
(Q3 - Q1) / median, and flags a spread above the metric's bound.  The
summary is also written to ``perfbench/out/steadiness.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    """The result line of one untraced run, and the run's wall seconds."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    t0 = time.perf_counter()
    done = subprocess.run(
        argv + ["--trace", "0"], cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1]), elapsed


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    summary = {}
    flagged = 0
    for workload in args.workload or names:
        results, elapsed = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, seconds = run_once(spec["command"], workload, seed, spec["run_seconds"])
            results.append(result)
            elapsed.append(seconds)
            line = f"{workload} seed {seed} ({seconds:.1f} s): {json.dumps(result)}"
            print(line, file=sys.stderr)
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            over = spread > metric["bound"]
            flagged += over
            rows[metric["name"]] = {
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": metric["bound"],
                "unit": metric["unit"],
                "values": values,
            }
            print(
                f"{workload:<16} {metric['name']:<12} median {statistics.median(values):<12.6g}"
                f" q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:7.4f}"
                f" bound {metric['bound']:.2f}{'  OVER BOUND' if over else ''}"
            )
        summary[workload] = {
            "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "run_wall_s": elapsed,
            "metrics": rows,
        }
        print(
            f"{workload:<16} wall seconds per run: max {max(elapsed):.1f},"
            f" mean {statistics.mean(elapsed):.1f}"
        )
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
