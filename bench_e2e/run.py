#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (the command in BENCHMARK.json).

Run from the root of a checkout:

  python3 bench_e2e/run.py --workload W --seed N --seconds S --trace 0|1
  python3 bench_e2e/run.py --workload all --seed N [--seconds S] [--trace T]
  python3 bench_e2e/run.py --smoke
  python3 bench_e2e/run.py --compare A.json ... -- B.json ...

Every mode except --compare first configures the root CMake project with
bench_e2e/bench_e2e.cmake attached and builds its bench_e2e target into
$CARGO_TARGET_DIR/bench_e2e (default .bench_build/bench_e2e); build
output goes to stderr. A run writes its full report (every metric,
workload metrics, fingerprints, samples) to
<build>/runs/<workload>-seed<N>-trace<T>/report.json, and a traced run
also writes trace.json (Chrome trace events) there. The last line of
stdout is the binary's result object.

--compare reads two sets of report.json files, A (the base) and B, and
gives one verdict per workload and metric: improved, regressed,
unchanged or unresolved, by the bounds in BENCHMARK.json and the
9-of-10-pairs rule (see README.md). Runs of equal seeds must also agree
exactly on fingerprints and quality values. It exits 1 on a regression
or a mismatch.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pipeline", "search", "screen", "serve"]
# Results that equal seeds must reproduce exactly.
QUALITY = {"rank_tau", "pipeline_hv", "front_hv"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "bench_e2e")


def build():
    """Configure the root project with bench_e2e attached and build the
    bench_e2e target; returns the binary path. Configuring every time
    keeps the git sha in report.json meta current."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", ROOT, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
         "-DCMAKE_PROJECT_hwprnas_INCLUDE=" +
         os.path.join(HERE, "bench_e2e.cmake")],
        ["cmake", "--build", out, "--target", "bench_e2e", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(out, "bench_e2e")


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def run(binary, workload, seed, seconds, trace):
    out = os.path.join(build_dir(), "runs",
                       "%s-seed%d-trace%d" % (workload, seed, trace))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out, "--json", os.path.join(out, "report.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


# ---------------------------------------------------------------------
# --compare


def load_reports(paths):
    reports = []
    for p in paths:
        with open(p) as f:
            reports.append(json.load(f))
    return reports


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better_direction(name, unit, bounds):
    if name in bounds:
        return bounds[name]["better"]
    return "higher" if unit in ("1/s", "ratio", "tau") else "lower"


def verdict(a, b, bound, better):
    """One metric's verdict for base runs a and candidate runs b."""
    sign = 1.0 if better == "lower" else -1.0
    q1a, med_a, q3a = quartiles(a)
    med_b = statistics.median(b)
    if bound is None or not med_a:
        return "info"
    worse = sign * (med_b - med_a) / abs(med_a)
    spread = (q3a - q1a) / abs(med_a)
    pairs = min(len(a), len(b))
    b_wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if (pairs >= 10 and b_wins >= 0.9 * pairs
            and -worse * abs(med_a) > q3a - q1a):
        return "improved"
    return "unchanged"


def values(reports, name):
    out, unit = [], ""
    for r in reports:
        m = r["metrics"].get(name) or r["workload_metrics"].get(name)
        if m is not None:
            out.append(m["value"])
            unit = m["unit"]
    return out, unit


def compare(base_paths, cand_paths):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, cand = load_reports(base_paths), load_reports(cand_paths)
    status = 0
    print("%-9s %-28s %12s %12s %7s  %s" % (
        "workload", "metric", "A median", "B median", "B/A", "verdict"))
    for workload in WORKLOADS:
        ra = [r for r in base if r["workload"] == workload]
        rb = [r for r in cand if r["workload"] == workload]
        if not ra or not rb:
            continue
        names = []
        for r in ra:
            for group in ("metrics", "workload_metrics"):
                for name in r.get(group, {}):
                    if name not in names:
                        names.append(name)
        for name in names:
            a, unit = values(ra, name)
            b, _ = values(rb, name)
            if not a or not b:
                continue
            bound = bounds[name]["bound"] if name in bounds else None
            v = verdict(a, b, bound, better_direction(name, unit, bounds))
            if v == "regressed":
                status = 1
            ma, mb = statistics.median(a), statistics.median(b)
            q1a, _, q3a = quartiles(a)
            q1b, _, q3b = quartiles(b)
            print("%-9s %-28s %12.5g %12.5g %7.3f  %s  "
                  "(A q1-q3 %.5g-%.5g, B q1-q3 %.5g-%.5g, %s)" % (
                      workload, name, ma, mb, mb / ma if ma else 0.0, v,
                      q1a, q3a, q1b, q3b, unit))
        # Equal seeds must reproduce fingerprints and quality values
        # exactly, within and across the two sets.
        by_seed = {}
        for r in ra + rb:
            quality = {n: m["value"] for n, m in
                       r["workload_metrics"].items() if n in QUALITY}
            by_seed.setdefault(r["seed"], []).append(
                (r["fingerprints"], quality))
        for seed, results in sorted(by_seed.items()):
            same = all(x == results[0] for x in results)
            print("%-9s seed %d: fingerprints and quality %s over %d runs"
                  % (workload, seed, "identical" if same else "DIFFER",
                     len(results)))
            if not same:
                status = 1
    return status


def main():
    argv = sys.argv[1:]
    if "--compare" in argv:
        rest = argv[argv.index("--compare") + 1:]
        if "--" not in rest:
            sys.exit("usage: run.py --compare A.json ... -- B.json ...")
        cut = rest.index("--")
        if cut == 0 or cut == len(rest) - 1:
            sys.exit("run.py: --compare needs reports on both sides")
        sys.exit(compare(rest[:cut], rest[cut + 1:]))

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not args.smoke and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("run.py: %s has no src/ to build from" % ROOT)
    binary = build()
    if args.smoke:
        sys.stdout.flush()
        sys.exit(subprocess.run(
            [binary, "--smoke", "--out",
             os.path.join(build_dir(), "smoke")]).returncode)
    seconds = args.seconds if args.seconds else run_seconds()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for w in workloads:
        status |= run(binary, w, args.seed, seconds, args.trace)
    sys.exit(1 if status else 0)


if __name__ == "__main__":
    main()
