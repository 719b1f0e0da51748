"""The scmest benchmark: one closed-loop caller runs one workload's cases.

    python3 perfbench/run.py --workload fit_large --seed 0 --seconds 55 --trace 0

Run it from the root of a source checkout; it imports ``scmest`` from
``src/`` and exits 2 when that is missing.  BLAS is pinned to one thread
before numpy loads.  Set-up (``setup_s``) is the median import time, over
this process and fresh interpreters started one at a time, plus the median
of several builds of the workload's inputs from ``--seed``.  Then passes
through its fixed case list repeat while the next one is expected to end
within ``--seconds``.  Every case output is checked; a case that raises,
does not converge or fails a check is counted as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, times every library call of the traced passes
as a span, runs the per-case probes outside the case spans, and reports the
per-layer metrics and ``trace.overhead_share``.  The last line of stdout is
the JSON result; a table goes to stderr, and the full record (environment,
per-case problems, pass times, spans) to ``perfbench/out/``.
"""

import os
import sys
import time

START = time.perf_counter()

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fit_large", "bootstrap_b2000")
SETUP_REPEATS = 3
# one process imports once, so the import part of setup_s also times fresh
# interpreters: this process and IMPORT_REPEATS - 1 children, one at a time
IMPORT_REPEATS = 5

# span name of a library call -> per-layer metric prefix
SPAN_METRICS = {
    "estimate.fit_erm": "estimate.fit_s",
    "inference.effective_dim_empirical": "inference.effdim_s",
    "gof.run_test": "gof.rao_s",
    "cli.main": "cli.fit_s",
    "bootstrap.bootstrap_quantile": "bootstrap.quantile_s",
    "experiments.run_coverage_table": "experiments.coverage_table_s",
    "gof.power_curve": "gof.power_curve_s",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "fits_per_s": "1/s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


def untraced_call(_span, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    """Spans (name, case, start, end, parent) kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.case = None

    @contextmanager
    def span(self, name):
        record = {
            "name": name,
            "case": self.case,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


class Probe:
    """Times extra calls on a case's inputs, each as its own span."""

    # repeat a probe until both minimums are met, or either maximum is hit
    MIN_CALLS, MIN_S = 5, 0.05
    MAX_CALLS, MAX_S = 200, 0.5

    def __init__(self, tracer):
        self.tracer = tracer
        self.values = {}

    def __call__(self, metric, fn, *args):
        """Median time of repeated calls; returns the last call's result."""
        times = []
        while True:
            with self.tracer.span(metric) as record:
                result = fn(*args)
            times.append(record["end"] - record["start"])
            calls, spent = len(times), sum(times)
            if calls >= self.MAX_CALLS or spent >= self.MAX_S:
                break
            if calls >= self.MIN_CALLS and spent >= self.MIN_S:
                break
        self.values[metric] = statistics.median(times)
        return result

    def once(self, metric, fn, *args):
        """One timed call; its time is recorded even when it raises."""
        with self.tracer.span(metric) as record:
            try:
                return fn(*args)
            finally:
                self.values[metric] = time.perf_counter() - record["start"]

    def value(self, metric, value):
        self.values[metric] = value


def run_pass(cases, inputs, refs, call, tracer=None):
    """One pass through the case list; returns (seconds, outcomes, outputs).

    ``seconds`` covers the library calls of the cases only, not the checks.
    """
    from cases import raised

    seconds = 0.0
    outcomes, outputs = [], []
    for case, inp, ref in zip(cases, inputs, refs):
        if tracer is not None:
            tracer.case = case.name
        t0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with tracer.span("case") if tracer is not None else nullcontext():
                out = case.run(inp, call)
        except Exception as exc:  # a raising case is a counted failure
            out, outcome = None, raised(exc)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        seconds += wall
        if out is not None:
            try:
                outcome = case.outcome(inp, out, ref)
            except Exception as exc:
                outcome = raised(exc)
                outcome.status = "wrong"
        outcome.seconds, outcome.cpu_seconds = wall, cpu
        outcomes.append(outcome)
        outputs.append(out)
    return seconds, outcomes, outputs


def compare_with_first(first, outcomes):
    """Later passes must reproduce the first pass's digests exactly."""
    for a, b in zip(first, outcomes):
        if json.dumps(a.digest, sort_keys=True) != json.dumps(b.digest, sort_keys=True):
            b.status = "wrong"
            b.problems.append("output differs from the first pass of this run")


def layer_metrics(cases, outputs, tracer, first_span):
    """Per-case metrics of one traced pass from its spans and outputs."""
    values = {}
    per_case = {}
    for record in tracer.spans[first_span:]:
        parent = record["parent"]
        if parent is None or tracer.spans[parent]["name"] != "case":
            continue
        seconds = record["end"] - record["start"]
        per_case.setdefault(record["case"], {})[record["name"]] = seconds
        prefix = SPAN_METRICS.get(record["name"])
        if prefix is not None:
            values[f"{prefix}.{record['case']}"] = seconds
    for case, out in zip(cases, outputs):
        if out is not None:
            values.update(case.layer_values(out, per_case.get(case.name, {})))
    return values


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "scmest").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="tiny sizes, for the benchmark's own tests only"
    )
    parser.add_argument(
        "--import-only", action="store_true", help="print the import time and stop (set-up)"
    )
    return parser.parse_args(argv)


def child_import_seconds(argv):
    """Import time of this script in a fresh interpreter, which is waited for."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv, "--import-only"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Run:
    """One workload's inputs and the outcomes of every pass made over them."""

    def __init__(self, bench, case_list, seed, repeats, stored):
        self.bench, self.cases = bench, case_list
        self.build_s = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.inputs = [case.build(seed) for case in case_list]
            self.build_s.append(time.perf_counter() - t0)
        self.refs = []
        for case, inp in zip(case_list, self.inputs):
            ref = case.reference(inp)
            ref["stored"] = None if stored is None else stored.get(case.name)
            self.refs.append(ref)
        self.pass_s, self.traced_pass_s, self.outcomes, self.layer_runs = [], [], [], []
        self.probe_problems = []

    def untraced_pass(self):
        seconds, outcomes, _ = run_pass(self.cases, self.inputs, self.refs, untraced_call)
        self.pass_s.append(seconds)
        self.outcomes.append(outcomes)
        return seconds

    def traced_pass(self, tracer, probe):
        """A traced pass, then the probes if given; returns the seconds of both."""
        first_span = len(tracer.spans)
        seconds, outcomes, outputs = run_pass(
            self.cases, self.inputs, self.refs, tracer.call, tracer
        )
        self.traced_pass_s.append(seconds)
        self.outcomes.append(outcomes)
        self.layer_runs.append(layer_metrics(self.cases, outputs, tracer, first_span))
        t0 = time.perf_counter()
        if probe is not None:
            for case, inp, out in zip(self.cases, self.inputs, outputs):
                tracer.case = case.name
                if out is None:
                    continue
                try:
                    with tracer.span("probe"):
                        case.probes(inp, out, probe)
                except Exception as exc:  # a probe's metrics then stay unmeasured
                    self.probe_problems.append(f"{case.name}: {type(exc).__name__}: {exc}")
        return seconds + (time.perf_counter() - t0)

    def measure(self, seconds, tracer):
        """Passes until the next one would end after ``seconds``; at least one.

        With a tracer, each round is an untraced and a traced pass, and the
        first traced pass is followed by the probes, whose time counts too.
        """
        spent = 0.0
        probe = Probe(tracer) if tracer is not None else None
        while True:
            spent += self.untraced_pass()
            step = statistics.median(self.pass_s)
            if tracer is not None:
                spent += self.traced_pass(tracer, probe if len(self.traced_pass_s) == 0 else None)
                step += statistics.median(self.traced_pass_s)
            if spent + step > seconds:
                return probe

    def tally(self):
        """(attempted, failed, correct) over every pass, traced or not."""
        for outcomes in self.outcomes[1:]:
            compare_with_first(self.outcomes[0], outcomes)
        flat = [o for outcomes in self.outcomes for o in outcomes]
        failed = sum(o.status != "ok" for o in flat)
        return len(flat), failed, not any(o.status == "wrong" for o in flat)

    def end_to_end(self, setup_s, attempted, failed):
        # every pass repeats the first one's work (compare_with_first checks it)
        fits = sum(o.fits for o in self.outcomes[0])
        pass_s = statistics.median(self.pass_s)
        values = {
            "setup_s": setup_s,
            "pass_s": pass_s,
            "fits_per_s": fits / pass_s,
            "ok_share": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
        }

    def per_layer(self, probe):
        catalogue = self.bench.layer_catalogue()
        # a traced run prints every per-layer metric of BENCHMARK.json; those of
        # cases outside this workload are not measured and read 0
        values = {name: 0 for name, _, _ in catalogue}
        for name in self.layer_runs[0]:
            values[name] = statistics.median(run[name] for run in self.layer_runs if name in run)
        values.update(probe.values)
        values["trace.overhead_share"] = (
            statistics.median(self.traced_pass_s) / statistics.median(self.pass_s) - 1.0
        )
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in catalogue}

    def case_records(self):
        return [
            {
                "case": case.name,
                "status": [outcomes[i].status for outcomes in self.outcomes],
                "seconds": [outcomes[i].seconds for outcomes in self.outcomes],
                "cpu_seconds": [outcomes[i].cpu_seconds for outcomes in self.outcomes],
                "problems": sorted({p for outcomes in self.outcomes for p in outcomes[i].problems}),
                "notes": sorted({n for outcomes in self.outcomes for n in outcomes[i].notes}),
            }
            for i, case in enumerate(self.cases)
        ]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "scmest" / "__init__.py").is_file():
        print(f"perfbench: no scmest sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import cases as bench

    import_s = [time.perf_counter() - START]
    if args.import_only:
        print(import_s[0])
        return 0
    if not args.quick:
        import_s += [child_import_seconds(argv) for _ in range(IMPORT_REPEATS - 1)]
    bench.quiet_warnings()
    stored = None if args.quick else bench.load_reference(args.seed)
    run = Run(
        bench,
        bench.workloads(args.quick)[args.workload],
        args.seed,
        1 if args.quick else SETUP_REPEATS,
        stored,
    )
    setup_s = statistics.median(import_s) + statistics.median(run.build_s)

    tracer = Tracer() if args.trace else None
    probe = run.measure(args.seconds, tracer)
    attempted, failed, correct = run.tally()
    if tracer is None:
        metrics = run.end_to_end(setup_s, attempted, failed)
    else:
        metrics = run.per_layer(probe)

    record = {
        "workload": args.workload,
        "quick": args.quick,
        "environment": environment(args.seed),
        "reference_stored": stored is not None,
        "import_s": import_s,
        "build_s": run.build_s,
        "pass_s": run.pass_s,
        "traced_pass_s": run.traced_pass_s,
        "cases": run.case_records(),
        "probe_problems": run.probe_problems,
        "metrics": metrics,
    }
    bench.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (bench.OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (bench.OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(tracer.spans))
    report(record)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def report(record):
    """The human-readable table, on stderr."""
    err = sys.stderr
    env = record["environment"]
    print(
        f"perfbench {record['workload']} seed={env['seed']} blas={env['blas']} "
        f"threads={env['threads']['OPENBLAS_NUM_THREADS']} nproc={env['nproc']} "
        f"passes={len(record['pass_s'])}+{len(record['traced_pass_s'])} traced "
        f"reference={'stored' if record['reference_stored'] else 'none'}",
        file=err,
    )
    for entry in record["cases"]:
        worst = "ok" if all(s == "ok" for s in entry["status"]) else ",".join(entry["status"])
        print(f"  {entry['case']:<22} {worst}", file=err)
        for line in entry["problems"] + entry["notes"]:
            print(f"      {line}", file=err)
    for problem in record["probe_problems"]:
        print(f"  probe failed: {problem}", file=err)
    for name, metric in record["metrics"].items():
        if metric["value"] != 0:
            print(f"  {name:<58} {metric['value']:>14.6g} {metric['unit']}", file=err)


if __name__ == "__main__":
    sys.exit(main())
