"""remlab benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload mc_catalog [--seed 20260825]
        [--seconds 10] [--trace 0|1]

Workloads and metrics are defined in BENCHMARK.json and described in
perfbench/README.md.  ``--trace 0`` measures the end-to-end metrics with
tracing off: set-up is timed as the median of several fresh interpreters,
then one more interpreter runs the closed loop.  ``--trace 1`` runs the loop
once untraced and once traced, each in its own interpreter, and reports the
per-layer metrics and the tracing overhead.  Every run verifies the
program's outputs; the process exits 1 if a check fails and 2 if the
package is missing.  The last line of standard output is the result as JSON;
the full record, with provenance and raw samples, is written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from calibrate import REFERENCES, scale

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_PY = os.path.join(ROOT, "perfbench", "workload.py")
DEFAULT_SEED = 20260825  # the acceptance suite's master seed
SETUP_PROBES = 7
DEADLINE_S = 170.0  # the whole invocation, including every child process


def tail_percentile(samples):
    """Highest nearest-rank percentile with at least ten samples above it."""
    vals = sorted(samples)
    if len(vals) < 11:
        return None
    i = len(vals) - 11
    return {"value": vals[i], "percentile": 100.0 * (i + 1) / len(vals), "n": len(vals)}


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark deadline passed")
        return left


def run_child(args, deadline):
    """Run a workload interpreter in its own process group and wait for it.

    On timeout the whole group is killed, pool workers included.
    """
    proc = subprocess.Popen([sys.executable, WORKLOAD_PY, *args], cwd=ROOT,
                            start_new_session=True, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=deadline.left())
    except (subprocess.TimeoutExpired, TimeoutError):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise TimeoutError(f"workload process timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}): "
                           f"{' '.join(args)}\n{err.decode()[-2000:]}")


def measure(workload, seed, seconds, trace, work, deadline):
    os.makedirs(work)
    out = os.path.join(work, "result.json")
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--mode", "run", "--work", work, "--out", out]
    run_child(args + (["--trace"] if trace else []), deadline)
    with open(out) as fh:
        return json.load(fh)


def setup_samples(workload, seed, tmp, deadline):
    """(rescaled, raw) wall time of fresh interpreters that only set up.

    Set-up is mostly interpreter start-up and imports, so each probe is
    timed between two passes of the process reference (see calibrate.py).
    """
    reference, nominal = REFERENCES["process"]
    samples = []
    ref = reference()
    for i in range(SETUP_PROBES):
        work = os.path.join(tmp, f"probe{i}")
        os.makedirs(work)
        t0 = time.perf_counter()
        run_child(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                   "--mode", "probe", "--work", work], deadline)
        wall = time.perf_counter() - t0
        ref_after = reference()
        samples.append((scale(wall, ref, ref_after, nominal), wall))
        ref = ref_after
    return samples


def provenance():
    head = os.path.join(ROOT, ".git", "HEAD")
    commit = None
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "remlab", "*.py")):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "src_lines": src_lines}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "remlab", "__init__.py")):
        print("error: src/remlab not found; run from a remlab checkout", file=sys.stderr)
        return 2

    deadline = Deadline(DEADLINE_S)
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        untraced = measure(args.workload, args.seed, args.seconds, False,
                           os.path.join(tmp, "untraced"), deadline)
        runs = [untraced]
        if args.trace:
            traced = measure(args.workload, args.seed, args.seconds, True,
                             os.path.join(tmp, "traced"), deadline)
            runs.append(traced)
            setup = []
        else:
            setup = setup_samples(args.workload, args.seed, tmp, deadline)
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        values = dict(traced["per_layer"])
        values["trace.overhead"] = 1.0 - traced["ops_per_s"] / untraced["ops_per_s"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(s for s, _ in setup),
            "ops_per_s": untraced["ops_per_s"],
            "op_ms_p50": statistics.median(untraced["op_ms"]),
            "peak_rss_mb": untraced["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    check_failures = [msg for r in runs for msg in r["checks_failed"]]
    n_failed_checks = sum(r["n_checks_failed"] for r in runs)
    correct = n_failed_checks == 0 and failed == 0
    digests = {r["digest"] for r in runs}
    if len(digests) != 1:
        correct = False
        check_failures.append("traced and untraced runs produced different records")

    run0 = runs[-1]
    info = {
        "raw_ops_per_s": {"value": untraced["raw_ops_per_s"], "unit": "op/s"},
        "error_rate": {"value": failed / attempted, "unit": "fraction"},
        "suboptimal_fits": {"value": run0["suboptimal_fits"], "unit": "count"},
        "max_suboptimal_gap": {"value": run0["max_suboptimal_gap"], "unit": "log-units"},
    }
    if setup:
        info["raw_setup_s"] = {"value": statistics.median(w for _, w in setup), "unit": "s"}
    tail = tail_percentile(untraced["op_ms"])
    if tail is not None:
        info["op_ms_tail"] = {"value": tail["value"], "unit": "ms",
                              "percentile": tail["percentile"], "n": tail["n"]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "also_reported": info, "digest": run0["digest"],
        "counts": run0["counts"], "census_layers": run0.get("census_layers", []),
        "checks_run": sum(r["checks_run"] for r in runs),
        "check_failures": check_failures[:20],
        "provenance": {**provenance(), "numpy": run0["numpy"]},
        "raw": {"setup_s": setup,
                "runs": [{k: r[k] for k in ("requests", "op_ms", "elapsed_s", "ops_per_s",
                                            "errors")} for r in runs]},
    }
    path = os.path.join(base, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"correct {correct}  attempted {attempted}  failed {failed}")
    for name, m in {**metrics, **info}.items():
        extra = (f"  (p{m['percentile']:.1f} of {m['n']} samples)"
                 if "percentile" in m else "")
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}{extra}")
    print(f"  digest {run0['digest']}")
    for msg in check_failures[:20]:
        print(f"  CHECK FAILED: {msg}")
    print(f"  full record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
