"""Write reference.json: this commit's bootstrap and study outputs per seed.

    python3 perfbench/make_reference.py --first-seed 0 --seeds 32

The benchmark compares the outputs of later commits with these, within the
tolerances set in cases.py.  Fit cases need no stored values: their theta is
checked against minimizers computed independently in cases.py.
"""

import argparse
import json
import sys

import run  # pins the BLAS pool to one thread before numpy loads

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.ROOT / "src"))
    import cases as bench

    bench.quiet_warnings()
    stored = json.loads(bench.REFERENCE_FILE.read_text()) if bench.REFERENCE_FILE.is_file() else {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        entry = {}
        for case_list in bench.workloads().values():
            case_list = [case for case in case_list if case.stored]
            inputs = [case.build(seed) for case in case_list]
            refs = [dict(case.reference(inp), stored=None) for case, inp in zip(case_list, inputs)]
            _, outcomes, _ = run.run_pass(case_list, inputs, refs, run.untraced_call)
            for case, outcome in zip(case_list, outcomes):
                entry[case.name] = outcome.digest
        stored[str(seed)] = entry
        print(f"seed {seed}: {len(entry)} cases", file=sys.stderr)
        bench.REFERENCE_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
