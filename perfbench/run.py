#!/usr/bin/env python3
"""The repository benchmark: builds the guarded CLI and the generator from
source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The generator (perfbench/pb.ml) makes the
workload's inputs from the seed, runs the CLI binary behind a pipe with
tracing off (--trace 0: end-to-end metrics), or the same inputs through the
library in-process with spans around each layer (--trace 1: per-layer
metrics). The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

Two more modes:

    python3 perfbench/run.py --repeat N [--workload NAME ...] [--seconds S]
        runs each workload N times with seeds 1..N and prints, for every
        metric, the median, the quartiles and the spread (IQR / median)
        beside the bound in BENCHMARK.json, then every run's value.
    python3 perfbench/run.py --selftest
        short runs (too short for valid latencies) that corrupt one reply
        (scan-repeat, point-distinct) or the final store (serve-churn) inside
        the checks; fails unless each check passes the clean run and reports
        fail_ratio > 0 for the corrupted one.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

CLI = "_build/default/bin/guarded_cli.exe"
PB = "_build/default/perfbench/pb.exe"
WORK = "perfbench/.work"
# a metric line of the table pb.exe prints before its result line
TABLE_LINE = re.compile(r"^  ([a-z][a-z0-9_.]*) +(\S+) (\S+)$", re.M)


def build():
    """Build the CLI and the generator; exit 2 (printing no result) on failure."""
    if not (os.path.isfile("dune-project") and os.path.isdir("bin")):
        sys.exit("perfbench: run from the repository root (no dune-project/bin here)")
    # no shared dune cache: the build reads and writes only this checkout
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/guarded_cli.exe", "./perfbench/pb.exe"],
        stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if r.returncode != 0:
        sys.exit(2)


def commit():
    """The git commit, or "unknown" outside a git checkout."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def pb_args(workload, seed, seconds, trace, sha, corrupt=None):
    args = [
        PB, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--cli", CLI, "--work", os.path.join(WORK, workload),
        "--commit", sha,
    ]
    if corrupt:
        args += ["--corrupt", corrupt]
    return args


def run_pb(args):
    """Run the generator; its final JSON line and its record line."""
    r = subprocess.run(args, capture_output=True, text=True, timeout=900)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError("pb.exe failed (exit %d): %s" % (r.returncode, r.stderr.strip()[-400:]))
    result = json.loads(lines[-1])
    rec = {}
    for l in lines:
        if l.startswith('{"record"'):
            rec = json.loads(l)["record"]
    return result, rec, r.stdout


def repeat(n, workloads, seconds, trace, sha):
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    for w in workloads:
        values = {}
        units = {}
        bad = 0
        for seed in range(1, n + 1):
            result, _, out = run_pb(pb_args(w, seed, seconds, trace, sha))
            if not result["correct"]:
                bad += 1
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
            # the ungated figures of the run's table, beside the gated ones
            for m in TABLE_LINE.finditer(out):
                try:
                    v = float(m.group(2))
                except ValueError:
                    continue
                if m.group(1) not in result["metrics"]:
                    values.setdefault(m.group(1), []).append(v)
                    units[m.group(1)] = m.group(3)
            print("  %s seed %d done (correct %s)" % (w, seed, result["correct"]), file=sys.stderr)
        print("%s: %d runs, seeds 1..%d, %g s each, trace %d, %d incorrect" % (w, n, n, seconds, trace, bad))
        print("  %-28s %-6s %12s %12s %12s %8s %6s  %s" % ("metric", "unit", "median", "q1", "q3", "spread", "bound", "status"))
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            b = bounds.get(k)
            status = "" if b is None else ("ok" if spread < b / 3 else ("within bound" if spread <= b else "TOO WIDE"))
            print("  %-28s %-6s %12.6g %12.6g %12.6g %8.4f %6s  %s" % (k, units[k], med, q1, q3, spread, "-" if b is None else b, status))
            print("      runs: " + " ".join("%.5g" % v for v in vs))
        sys.stdout.flush()


def selftest(sha):
    """Each check must pass a clean run and catch a corrupted one."""
    ok = True
    for w, corrupt in (("scan-repeat", "reply"), ("point-distinct", "reply"), ("serve-churn", "store")):
        clean, crec, _ = run_pb(pb_args(w, 1, 3, 0, sha))
        bad, rec, _ = run_pb(pb_args(w, 1, 3, 0, sha, corrupt))
        caught = clean["failed"] == 0 and bad["failed"] > 0 and rec.get("fail_ratio", 0) > 0
        print("selftest %-15s clean fail_ratio %s; corrupted %-5s fail_ratio %s: %s" % (
            w, crec.get("fail_ratio"), corrupt, rec.get("fail_ratio"), "caught" if caught else "MISSED"))
        ok = ok and caught
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    build()
    sha = commit()
    os.makedirs(WORK, exist_ok=True)
    seconds = a.seconds if a.seconds is not None else json.load(open("BENCHMARK.json"))["run_seconds"]
    if a.selftest:
        selftest(sha)
    elif a.repeat:
        names = a.workload or [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]
        repeat(a.repeat, names, seconds, a.trace, sha)
    else:
        if not a.workload or len(a.workload) != 1:
            sys.exit("perfbench: give one --workload")
        sys.stdout.flush()
        os.execv(PB, pb_args(a.workload[0], a.seed, seconds, a.trace, sha))


if __name__ == "__main__":
    main()
