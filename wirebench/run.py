#!/usr/bin/env python3
"""Wire-level serving benchmark for prefserve / prefroute.

One run (the form BENCHMARK.json's command takes):

    python3 wirebench/run.py --workload serve_cold --seed 1 --seconds 10 --trace 0

builds the benchmark with dune, runs it, and prints as its last line one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics listed in BENCHMARK.json with --trace 0, the per-layer
ones with --trace 1. The run's full result (every metric it measured,
its tally and provenance) is written to wirebench/out/.

Every workload, untraced and traced, with the tracing overhead:

    python3 wirebench/run.py --all --seed 1 --seconds 10

Run-to-run spread over several seeds:

    python3 wirebench/run.py --steadiness 5 --seed 100 --seconds 10 [--only session_mix]

Exits non-zero when the build fails, a run fails, or any answer differs
from the oracle.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REL = os.path.relpath(HERE, ROOT)
EXE = os.path.join(ROOT, "_build", "default", REL, "bin", "main.exe")
OUT = os.path.join(HERE, "out")
WORKLOADS = ["serve_cold", "session_mix", "routed_rw"]
RUN_TIMEOUT_S = 170
STEADY_LIMIT = 0.1


def fail(msg):
    print("wirebench: " + msg, file=sys.stderr)
    sys.exit(2)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune, None
    # an opam switch not on PATH: its bin directory holds dune and the
    # compiler it drives
    prefixes = [os.environ.get("OPAM_SWITCH_PREFIX", "")]
    prefixes += sorted(glob.glob(os.path.expanduser("~/.opam/*")))
    for prefix in prefixes:
        cand = os.path.join(prefix, "bin", "dune")
        if prefix and os.access(cand, os.X_OK):
            return cand, os.path.dirname(cand)
    fail("dune not found on PATH or in an opam switch")


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("not inside the repository checkout (no dune-project at %s)" % ROOT)
    dune, bindir = find_dune()
    env = dict(os.environ)
    if bindir:
        env["PATH"] = bindir + os.pathsep + env.get("PATH", "")
    proc = subprocess.run(
        [dune, "build", "--root", ".", os.path.join(REL, "bin", "main.exe")],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_once(workload, seed, seconds, trace, echo=True):
    """Run the benchmark binary once; returns (exit code, full result)."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", commit(), "--out", OUT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %d trace %d did not finish within %d s" % (workload, seed, trace, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if echo:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("%s seed %d trace %d printed no result (exit %d)" % (workload, seed, trace, proc.returncode))
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    return proc.returncode, result


def values(result):
    return {k: float(m["value"]) for k, m in result["metrics"].items()}


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def listed_metrics_line(result, trace):
    """The run's result restricted to the metrics BENCHMARK.json lists."""
    spec = declared()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("run did not measure %s" % m["name"])
        metrics[m["name"]] = {"value": float(got["value"]), "unit": m["unit"]}
    return {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main_single(a):
    code, result = run_once(a.workload, a.seed, a.seconds, a.trace)
    print(json.dumps(listed_metrics_line(result, a.trace)))
    sys.exit(0 if code == 0 and result["correct"] else 1)


HELD_OUT = 1000


def main_all(a):
    bad = False
    summary = []
    for w in WORKLOADS:
        code0, e2e = run_once(w, a.seed, a.seconds, 0)
        code1, tr = run_once(w, a.seed, a.seconds, 1)
        # the same workload on a seed not used while tuning it
        code2, held = run_once(w, a.seed + HELD_OUT, a.seconds, 0)
        bad |= code0 != 0 or code1 != 0 or code2 != 0
        bad |= not (e2e["correct"] and tr["correct"] and held["correct"])
        summary.append((w, e2e, values(e2e), values(tr), values(held)))
    print("\n== end-to-end metrics (tracing off), held-out seed %d, tracing overhead ==" % (a.seed + HELD_OUT))
    for w, e2e, v0, v1, vh in summary:
        print("%s  (seed %d, attempted %d, failed %d, correct %s)"
              % (w, a.seed, e2e["attempted"], e2e["failed"], e2e["correct"]))
        for name, m in e2e["metrics"].items():
            print("  %-24s %14.4f %-6s held-out %14.4f" % (name, float(m["value"]), m["unit"],
                                                          vh.get(name, float("nan"))))
        over = v1.get("trace.query_p50_ms", float("nan")) - v0.get("query_p50_ms", float("nan"))
        print("  %-24s %14.4f ms   (traced minus untraced query_p50_ms)" % ("tracing_overhead_ms", over))
        print("  %-24s %14.4f ratio" % ("server.unattributed_frac",
                                         v1.get("server.unattributed_frac", float("nan"))))
    sys.exit(1 if bad else 0)


def main_steadiness(a):
    spec = declared()
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    report = {}
    bad = False
    for w in a.only or WORKLOADS:
        runs = []
        for i in range(a.steadiness):
            code, result = run_once(w, a.seed + i, a.seconds, a.trace, echo=False)
            bad |= code != 0 or not result["correct"]
            runs.append(values(result))
            print("%s seed %d: %s" % (w, a.seed + i, json.dumps(runs[-1])), flush=True)
        names = sorted(set().union(*runs))
        print("\n%s over %d seeds from %d (trace %d)" % (w, len(runs), a.seed, a.trace))
        print("  %-32s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3", "spread"))
        report[w] = {}
        for name in names:
            vals = [r[name] for r in runs if name in r]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            flag = "  <-- spread above %.2f" % STEADY_LIMIT if name in e2e_names and spread > STEADY_LIMIT else ""
            print("  %-32s %12.4f %12.4f %12.4f %8.3f%s" % (name, med, q1, q3, spread, flag))
            report[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
    with open(os.path.join(OUT, "steadiness-trace%d.json" % a.trace), "w") as f:
        json.dump(report, f, indent=1)
    sys.exit(1 if bad else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    p.add_argument("--steadiness", type=int, metavar="N", help="N seeds per workload")
    p.add_argument("--only", action="append", choices=WORKLOADS, help="restrict --steadiness")
    a = p.parse_args()
    build()
    if a.steadiness:
        main_steadiness(a)
    elif a.all:
        main_all(a)
    elif a.workload:
        main_single(a)
    else:
        p.error("give --workload, --all or --steadiness")


if __name__ == "__main__":
    main()
