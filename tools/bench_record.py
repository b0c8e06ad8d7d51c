"""Record the benchmark and the Tier-1 suite in one BENCH_<PR>.json file.

    python3 tools/bench_record.py PR

Runs ``python3 perfbench/run.py --workload W --trace T`` for every workload
in BENCHMARK.json with T = 0 (end-to-end metrics) and T = 1 (per-layer
metrics) at perfbench's default seed, reads each run's full record from the
path it prints, then times the Tier-1 command of ROADMAP.md once.  It writes
``BENCH_<PR>.json`` at the root of the checkout it lives in, and exits 1 if
any run was not correct, any test failed or errored, or pytest did not
report a passing run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def bench(workload: str, trace: int) -> dict:
    """One perfbench invocation; its full record, or the error it printed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    found = re.search(r"^  full record: (.+)$", proc.stdout, re.MULTILINE)
    if found is None:
        return {"correct": False, "check_failures": [proc.stderr[-2000:]]}
    with open(os.path.join(ROOT, found.group(1))) as fh:
        return json.load(fh)


def values(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items()}


def tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    record = {"command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
              "wall_s": wall, "returncode": proc.returncode,
              "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
              "errors": counts.get("error", 0) + counts.get("errors", 0),
              "summary": summary}
    # a crash, a kill or "no tests ran" leaves no counts; say why in the record
    record["ok"] = (proc.returncode == 0 and record["passed"] > 0
                    and record["failed"] == record["errors"] == 0)
    if not record["ok"]:
        record["stderr"] = proc.stderr[-2000:]
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("pr", help="the number in the output name BENCH_<PR>.json")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    workloads, provenance, seed = {}, None, None
    for w in spec["workloads"]:
        name = w["name"]
        e2e, layers = bench(name, 0), bench(name, 1)
        provenance = provenance or e2e.get("provenance")
        seed = e2e.get("seed", seed)
        workloads[name] = {
            "correct": e2e["correct"] and layers["correct"],
            "end_to_end": values(e2e.get("metrics", {})),
            "also_reported": values(e2e.get("also_reported", {})),
            "per_layer": values(layers.get("metrics", {})),
            "census_layers": layers.get("census_layers", []),
            "errors": [msg for r in (e2e, layers) for msg in r["check_failures"]],
        }
        print(f"{name}: correct {workloads[name]['correct']}", flush=True)
    tests = tier1()
    print(f"tier-1: {tests['summary']} ({tests['wall_s']:.0f} s)")

    record = {"pr": args.pr, "seed": seed, "seconds": spec["run_seconds"],
              "provenance": provenance, "workloads": workloads, "tier1": tests}
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(out, ROOT)}")
    ok = all(w["correct"] for w in workloads.values())
    return 0 if ok and tests["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
