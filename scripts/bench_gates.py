#!/usr/bin/env python3
"""No-regression gates over a BENCH_JSON line.

Fails (exit 1) if any gated cell regresses:

- b9_speedups: every cell >= 1.0x. Speedups are measured against the
  cost-based planner's chosen plan (1.0x by identity when it keeps the
  sequential baseline), so a cell can only lose if the model picked a
  plan slower than sequential BNL. Parallel-chosen cells are skipped
  when the host reports fewer than 4 cores (meta.recommended_domains):
  measured fan-out cannot win there, matching the bench's own in-process
  [SKIP] rule.
- b10_cache: every cell >= 1.0x (a cache-served query must not be slower
  than cold evaluation).
- b12_router: aggregate QPS at 4 shards >= 2.0x 1 shard, skipped below
  4 cores for the same reason.
- b13_refine: every cell the result cache's prior-prefix tier served
  (plan cache:semantic:prior-prefix) must be >= 2.0x its cold
  evaluation, and the prior_suffix cell must be served that way; other
  cells are reported but not gated.

Every failure prints the gate formula it tripped AND the failing cell's
full BENCH_JSON record, so a red CI run is diagnosable from the log
alone. --report FILE additionally writes the verdict lines to FILE (CI
uploads it as an artifact on failure).

Usage: bench_gates.py [BENCH_JSON_FILE] [--report FILE]
"""
import json
import sys


def cell_record(section, label, cell):
    return f"  record: {json.dumps({section: {label: cell}})}"


def main():
    args = [a for a in sys.argv[1:]]
    report_path = None
    if "--report" in args:
        i = args.index("--report")
        try:
            report_path = args[i + 1]
        except IndexError:
            print("bench-gates: --report needs a FILE argument")
            return 2
        del args[i : i + 2]
    path = args[0] if args else "bench-smoke.json"

    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    if not lines:
        print(f"bench-gates: {path} is empty")
        return 1
    # the file may accumulate several BENCH_JSON lines; gate the last run
    data = json.loads(lines[-1])
    cores = data.get("meta", {}).get("recommended_domains", 1)
    failures, skipped = [], []

    for label, cell in data.get("b9_speedups", {}).items():
        plan = cell.get("plan", "")
        s = cell.get("speedup", 0.0)
        if plan.startswith("par_") and cores < 4:
            skipped.append(
                f"b9 {label}: {s:.2f}x ({plan}; host has {cores} core(s))"
            )
        elif s < 1.0:
            failures.append(
                f"b9 {label}: gate is speedup >= 1.0, got {s:.2f}x "
                f"(chosen plan {plan or 'unknown'}; "
                f"speedup = seq_bnl_ms / chosen_ms)\n"
                + cell_record("b9_speedups", label, cell)
            )
    for label, cell in data.get("b10_cache", {}).items():
        s = cell.get("speedup", 0.0)
        if s < 1.0:
            failures.append(
                f"b10 {label}: gate is speedup >= 1.0, got {s:.2f}x "
                f"(speedup = cold_ms / served_ms)\n"
                + cell_record("b10_cache", label, cell)
            )

    b12 = data.get("b12_router", {})
    by_shards = {cell.get("shards"): cell for cell in b12.values()}
    if 1 in by_shards and 4 in by_shards:
        q1 = by_shards[1].get("qps", 0.0)
        q4 = by_shards[4].get("qps", 0.0)
        ratio = q4 / q1 if q1 > 0 else 0.0
        if cores < 4:
            skipped.append(
                f"b12 router scaling: {ratio:.2f}x (host has {cores} "
                f"core(s), gate needs >= 4)"
            )
        elif ratio < 2.0:
            failures.append(
                f"b12 router scaling: gate is qps(4 shards) >= 2.0 * "
                f"qps(1 shard), got {q4:.1f} vs {q1:.1f} ({ratio:.2f}x)\n"
                + cell_record("b12_router", "shards_01_vs_04", b12)
            )

    for label, cell in data.get("b13_refine", {}).items():
        plan = cell.get("plan")
        if plan != "cache:semantic:prior-prefix":
            # the prior-suffix revision must reach the gated tier: a
            # renamed or lost serve would otherwise skip the gate
            if label == "prior_suffix":
                failures.append(
                    f"b13 {label}: gate expects plan "
                    f"cache:semantic:prior-prefix, got {plan}\n"
                    + cell_record("b13_refine", label, cell)
                )
            continue
        s = cell.get("speedup", 0.0)
        if s < 2.0:
            failures.append(
                f"b13 {label}: gate is speedup >= 2.0 for "
                f"cache:semantic:prior-prefix, "
                f"got {s:.2f}x (speedup = cold_ms / refine_ms)\n"
                + cell_record("b13_refine", label, cell)
            )

    out = []
    for msg in skipped:
        out.append(f"bench-gates: SKIP {msg}")
    for msg in failures:
        out.append(f"bench-gates: FAIL {msg}")
    if not failures:
        out.append(
            "bench-gates: OK (every gated b9/b10/b12/b13 cell within bounds)"
        )
    text = "\n".join(out)
    print(text)
    if report_path:
        with open(report_path, "w") as f:
            f.write(text + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
