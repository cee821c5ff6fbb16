#!/usr/bin/env python3
"""The repo benchmark: host cost and simulated results of the session load and
the model checker, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S]   # every metric, every workload

Builds perfbench_workload from source (CMake, into $CARGO_TARGET_DIR or
.bench_build under the checkout), then runs one process per iteration of the
workload until --seconds is spent, so peak RSS and page faults belong to one
iteration. Every iteration passes a correctness gate; a failing one counts in
`failed`. With --trace 0 the result holds every end-to-end metric of
BENCHMARK.json (medians over the iterations); with --trace 1 the run
alternates untraced and traced iterations and the result holds every
per-layer metric (medians over the traced iterations). The last stdout line is
the JSON result. See perfbench/README.md for the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Seed 7 is the held-out seed: never used while tuning (see README.md).
DEFAULT_SEED = 1

# Work per iteration, in the unit units_per_s counts. None: fixed by the
# workload itself (the exhaustive checker's transition count).
WORKLOAD_UNITS = {
    "sessions_10k": 10000,
    "sessions_paging": 2000,
    "mc_exhaustive": None,
    "mc_fuzz": 1000000,
}

# McConfig::Fast() at its fixed point.
EXPECTED_EXHAUSTIVE = {"modelcheck.states": 1080, "modelcheck.transitions": 17280,
                       "max_depth": 8}

# Outputs that must repeat exactly across iterations at one seed, traced or
# not: the simulation is deterministic and tracing must not perturb it.
DETERMINISTIC_FIELDS = (
    "trace_hash",
    "dispatches",
    "session.sim_makespan_mcycles",
    "session.sim_interactive_p50_mcycles",
    "session.sim_interactive_p99_mcycles",
)

# A run must end within 180 s: no iteration may outlast this many seconds
# after the run's measuring started.
RUN_DEADLINE_S = 150


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures and builds the workload program; returns its path."""
    target_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_root.is_absolute():
        target_root = ROOT / target_root
    build_dir = target_root / "perfbench"
    for step in (["cmake", "-S", str(HERE), "-B", str(build_dir)],
                 ["cmake", "--build", str(build_dir), "-j", "4"]):
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            raise SystemExit(f"perfbench: build step failed: {' '.join(step)}")
    return build_dir / "perfbench_workload"


def run_iteration(binary, workload, seed, traced, units=None, timeout=RUN_DEADLINE_S):
    """Runs one iteration in its own process; returns its record or None."""
    units = WORKLOAD_UNITS[workload] if units is None else units
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if units is not None:
        cmd += ["--units", str(units)]
    if traced:
        cmd.append("--trace")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {workload} iteration timed out\n")
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.stderr.write(f"perfbench: {workload} iteration exited {done.returncode}\n")
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(f"perfbench: {workload} iteration printed no result\n")
        return None


def expected_counts(workload):
    """The counts a correct iteration of `workload` reports."""
    if workload.startswith("sessions_"):
        return {"completed": WORKLOAD_UNITS[workload]}
    if workload == "mc_exhaustive":
        return dict(EXPECTED_EXHAUSTIVE)
    return {"fuzz_ops": WORKLOAD_UNITS[workload]}


def gate(workload, record, expected=None):
    """The correctness gate of one iteration: a list of problems, empty if it
    passed. `expected` maps output fields to the counts they must equal
    (default: expected_counts(workload))."""
    if record is None:
        return ["no result"]
    if expected is None:
        expected = expected_counts(workload)
    problems = [f"{key} {record[key]}, expected {want}"
                for key, want in expected.items() if record[key] != want]
    if workload.startswith("sessions_"):
        if record["run_status"] != "OK":
            problems.append(f"SessionEngine::Run returned {record['run_status']}")
        if record["failed_sessions"] or record["failed_logins"]:
            problems.append(f"{record['failed_sessions']} sessions failed, "
                            f"{record['failed_logins']} logins refused")
    else:
        if workload == "mc_exhaustive" and not record["fixed_point"]:
            problems.append("no fixed point")
        if record["violations"]:
            problems.append(f"{record['violations']} violations")
    return problems


def determinism_problems(reference, record):
    return [f"{key} {record[key]} differs from {reference[key]}"
            for key in DETERMINISTIC_FIELDS
            if key in reference and record.get(key) != reference[key]]


def failed_units(workload, record, problems, whole_iteration):
    """Failed operations of one iteration, in the unit `attempted` counts.
    Sessions count each session that did not complete; anything else that
    fails (a crash, a diverged trace, a wrong count) fails the iteration."""
    if not problems:
        return 0
    if workload.startswith("sessions_") and not whole_iteration:
        return max(1, record["units"] - record["completed"])
    return attempted_units(workload)


def attempted_units(workload):
    return WORKLOAD_UNITS[workload] if workload.startswith("sessions_") else 1


def measure(binary, workload, seed, seconds, trace):
    """Runs iterations until `seconds` is spent. With `trace` it alternates
    untraced and traced iterations. Returns (iterations, attempted, failed),
    where iterations is a list of (traced, record) that passed the gate."""
    modes = (False, True) if trace else (False,)
    passed = []
    attempted = failed = 0
    reference = None
    longest = 0.0
    started = time.monotonic()
    count = 0
    while True:
        elapsed = time.monotonic() - started
        if count >= len(modes) and elapsed + longest > seconds:
            break
        traced = modes[count % len(modes)]
        count += 1
        t0 = time.monotonic()
        record = run_iteration(binary, workload, seed, traced,
                               timeout=max(1.0, RUN_DEADLINE_S - elapsed))
        longest = max(longest, time.monotonic() - t0)
        problems = gate(workload, record)
        whole_iteration = record is None or record.get("run_status", "OK") != "OK"
        if record is not None:
            if reference is None:
                reference = record
            diverged = determinism_problems(reference, record)
            whole_iteration = whole_iteration or bool(diverged)
            problems += diverged
        for problem in problems:
            sys.stderr.write(f"perfbench: {workload} seed {seed}: {problem}\n")
        attempted += attempted_units(workload)
        failed += failed_units(workload, record, problems, whole_iteration)
        if not problems:
            passed.append((traced, record))
    return passed, attempted, failed


def median_of(records, fn):
    return statistics.median(fn(r) for r in records)


def end_to_end(records):
    return {
        "units_per_s": median_of(records, lambda r: r["units"] / r["wall_s"]),
        "cpu_user_s": median_of(records, lambda r: r["user_s"]),
        "peak_rss_mb": median_of(records, lambda r: r["peak_rss_kb"] / 1024.0),
        "minor_faults": median_of(records, lambda r: r["minflt"]),
        "setup_s": median_of(records, lambda r: r["setup_s"]),
    }


def per_layer(spec, untraced, traced):
    """Medians over the traced iterations. A layer the workload does not
    drive, or whose counters its public API does not expose, reads 0."""
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        values[name] = median_of(traced, lambda r: r.get(name, 0.0))
    per_unit = lambda r: r["wall_s"] / r["units"]
    values["trace.overhead_ratio"] = median_of(traced, per_unit) / median_of(untraced, per_unit)
    return values


def run_workload(spec, binary, workload, seed, seconds, trace):
    """One benchmark run. Returns the result object, or None if no iteration
    produced a result to report."""
    passed, attempted, failed = measure(binary, workload, seed, seconds, trace)
    untraced = [r for traced, r in passed if not traced]
    traced = [r for traced_, r in passed if traced_]
    if not untraced or (trace and not traced):
        return None
    if trace:
        values = per_layer(spec, untraced, traced)
        declared = spec["per_layer"]
    else:
        values = end_to_end(untraced)
        declared = spec["end_to_end"]
    reference = untraced[0]
    if "trace_hash" in reference:
        print(f"{workload} seed {seed}: dispatch trace FNV-1a {reference['trace_hash']}, "
              f"{reference['dispatches']} dispatches")
    print(f"{workload} seed {seed}: {len(passed)} iteration(s) passed; failed_ratio "
          f"{failed / attempted:.6g} ({failed} of {attempted})")
    metrics = {}
    for metric in declared:
        value = float(values[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<40} {value:>16.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_UNITS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    binary = build()
    if args.workload == "all":
        ok = True
        for workload in WORKLOAD_UNITS:
            for trace in (0, 1):
                result = run_workload(spec, binary, workload, args.seed, seconds, trace)
                ok = ok and result is not None and result["correct"]
        return 0 if ok else 1
    result = run_workload(spec, binary, args.workload, args.seed, seconds, args.trace)
    if result is None:
        sys.stderr.write("perfbench: no iteration produced a result\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
