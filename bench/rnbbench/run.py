#!/usr/bin/env python3
"""Build and run rnbbench, the RnB serving-path benchmark.

One workload, as BENCHMARK.json's command runs it; the last line of stdout
is the result object:

    python3 bench/rnbbench/run.py --workload point_tcp --seed 7 --seconds 12 --trace 0

Every workload, each in its own process, printing one
`workload metric value unit` line per metric and writing the runs as JSON
(compare.py reads these files):

    python3 bench/rnbbench/run.py --build=build-dir --seed=42 [--runs=10] [--trace]

Toy sizes, traced, checking that every catalogued metric appears with its
unit and that no item was missing or wrong:

    python3 bench/rnbbench/run.py --smoke

The driver is built from this directory's CMake project into
<build>/rnbbench, where <build> is .bench_build unless --build names another
directory; --binary runs an already-built driver instead.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CATALOG = ROOT / "BENCHMARK.json"
DEFAULT_BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_catalog():
    try:
        return json.loads(CATALOG.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {CATALOG}: {err}")


def build(args):
    """Configure (once) and build the driver; returns the binary's path."""
    if args.binary:
        return args.binary
    build_dir = args.build / "rnbbench"
    if not (ROOT / "src").is_dir():
        fail(f"no src/ under {ROOT}: nothing to build the driver from")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "--target", "rnbbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}")
            if proc.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)} (log: {log_path})")
    return build_dir / "rnbbench"


def run_driver(binary, workload, seed, seconds, trace, smoke=False,
               trace_file=None):
    """Runs one workload in its own process; returns its result object."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={1 if trace else 0}"]
    if smoke:
        cmd.append("--smoke")
    if trace_file:
        cmd.append(f"--trace-file={trace_file}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} seed {seed}: driver exited {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} seed {seed}: last output line is not JSON")


def check_metrics(result, catalog, section):
    """Problems with `section` of a result against the catalog."""
    problems = []
    got = result.get(section, {})
    for entry in catalog[section]:
        name = entry["name"]
        metric = got.get(name)
        if metric is None:
            problems.append(f"{section} metric {name} missing")
        elif metric.get("unit") != entry["unit"]:
            problems.append(f"{name}: unit {metric.get('unit')!r}, "
                            f"catalogue says {entry['unit']!r}")
        elif not isinstance(metric.get("value"), (int, float)) or \
                not math.isfinite(metric["value"]):
            problems.append(f"{name}: value {metric.get('value')!r}")
    return problems


def section_of(trace):
    return "per_layer" if trace else "end_to_end"


def print_lines(result, catalog, sections):
    for section in sections:
        for entry in catalog[section]:
            metric = result[section][entry["name"]]
            print(f"{result['workload']} {entry['name']} "
                  f"{metric['value']:.6g} {metric['unit']}")


def single_run(args, catalog):
    names = [w["name"] for w in catalog["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(names)}")
    binary = build(args)
    trace_file = None
    if args.trace:
        (args.out_dir / "traces").mkdir(parents=True, exist_ok=True)
        trace_file = args.out_dir / "traces" / f"{args.workload}.json"
    result = run_driver(binary, args.workload, args.seed, args.seconds,
                        args.trace, trace_file=trace_file)
    section = section_of(args.trace)
    problems = check_metrics(result, catalog, section)
    if problems:
        fail("; ".join(problems))
    print_lines(result, catalog, [section])
    metrics = {e["name"]: {"value": result[section][e["name"]]["value"],
                           "unit": e["unit"]} for e in catalog[section]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


def full_run(args, catalog):
    binary = build(args)
    workloads = [w["name"] for w in catalog["workloads"]]
    sections = ["end_to_end"] + (["per_layer"] if args.trace else [])
    runs = []
    all_correct = True
    for i in range(args.runs):
        seed = args.seed + i
        for workload in workloads:
            result = run_driver(binary, workload, seed, args.seconds,
                                args.trace)
            problems = [p for s in sections
                        for p in check_metrics(result, catalog, s)]
            if problems:
                fail(f"{workload} seed {seed}: " + "; ".join(problems))
            all_correct = all_correct and bool(result["correct"])
            print_lines(result, catalog, sections)
            sys.stdout.flush()
            runs.append(result)
    out = args.out_dir / "results" / (
        f"seed{args.seed}-x{args.runs}{'-trace' if args.trace else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace,
                               "runs": runs}, indent=1) + "\n")
    print(f"wrote {len(runs)} runs to {out}", file=sys.stderr)
    if not all_correct:
        fail("some run reported incorrect output")


def smoke_run(args, catalog):
    binary = build(args)
    (args.out_dir / "traces").mkdir(parents=True, exist_ok=True)
    problems = []
    for workload in [w["name"] for w in catalog["workloads"]]:
        result = run_driver(binary, workload, args.seed, args.seconds, True,
                            smoke=True,
                            trace_file=args.out_dir / "traces" /
                            f"smoke-{workload}.json")
        found = check_metrics(result, catalog, "end_to_end") + \
            check_metrics(result, catalog, "per_layer")
        if not result["correct"]:
            found.append("result not correct")
        error_frac = result["per_layer"].get("error_frac", {}).get("value")
        if error_frac != 0:
            found.append(f"error_frac {error_frac}")
        spans = result.get("span_check", {})
        if spans.get("operations", 0) == 0 or \
                spans.get("passed") != spans.get("operations"):
            found.append(f"span accounting {spans}")
        print(f"{workload}: {'ok' if not found else '; '.join(found)}")
        problems += [f"{workload}: {p}" for p in found]
    if problems:
        fail(f"{len(problems)} smoke problems")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload; the last output line is its result")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="traced run: per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="full mode: seeds seed .. seed+runs-1")
    parser.add_argument("--build", type=Path, default=DEFAULT_BUILD,
                        help="the driver builds into BUILD/rnbbench")
    parser.add_argument("--binary", type=Path,
                        help="an already-built driver; skips the build")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, traced, catalogue check")
    args = parser.parse_args()
    catalog = load_catalog()
    if args.seconds is None:
        args.seconds = catalog["run_seconds"]
    if args.seconds <= 0 or args.runs < 1:
        fail("--seconds and --runs must be positive")
    args.build = args.build.resolve()
    args.out_dir = args.build / "rnbbench"
    if args.smoke:
        smoke_run(args, catalog)
    elif args.workload:
        single_run(args, catalog)
    else:
        full_run(args, catalog)


if __name__ == "__main__":
    main()
