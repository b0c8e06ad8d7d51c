"""Compare a revision and the working tree on one workload in alternating pairs.

    python3 tools/bench_pairs.py REV --workload W [--pairs N]

Exports the committed files of REV with ``git archive`` into a temporary
directory (under $TMPDIR), then runs ``python3 perfbench/run.py --workload W``
N times on each side, alternately: REV first in even-numbered pairs (0, 2,
...), the working tree first in odd-numbered ones.  For each end-to-end
metric of BENCHMARK.json it prints each side's q1, median and q3, the pairs
the change wins (ties count for neither side), the median gap against REV's
interquartile range, and the change of the median against the metric's
regression bound.  A gain is shown when the change wins at least nine tenths
of the pairs and its median beats REV's by more than REV's interquartile
range.  Exits 1 if any run was not correct or failed an operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(q1, median, q3), linearly interpolated between order statistics."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(parent, change, better, bound):
    """Paired comparison of one metric; parent[i] and change[i] are pair i.

    better is "higher" or "lower".  The gap is the change's median minus
    the parent's, signed so that a positive gap is an improvement; bound is
    the relative worsening of the median that the benchmark tolerates.
    """
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    diffs = [sign * (b - a) for a, b in zip(parent, change)]
    wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
    gap, iqr = sign * (c[1] - p[1]), p[2] - p[0]
    worse = -gap / abs(p[1]) if p[1] else 0.0
    return {
        "parent": p, "change": c, "pairs": len(diffs), "wins": wins, "losses": losses,
        "gap": gap, "parent_iqr": iqr,
        "gain_shown": 10 * wins >= 9 * len(diffs) and gap > iqr,
        "worse": worse, "within_bound": worse <= bound,
    }


def run(root, workload):
    """One perfbench run in checkout root; its final JSON line, or None."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", help="the revision to compare against, e.g. HEAD or a commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    results = {"parent": [], "change": []}
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as parent_root:
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", parent_root], input=archive, check=True)
        roots = {"parent": parent_root, "change": ROOT}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                out = run(roots[side], args.workload)
                if out is None:
                    return 1
                ok = ok and out["correct"] and out["failed"] == 0
                results[side].append({m: v["value"] for m, v in out["metrics"].items()})
            print(f"pair {k}: " + "  ".join(
                f"{side} {results[side][-1]['ops_per_s']:.4g} op/s"
                for side in order if "ops_per_s" in results[side][-1]), flush=True)

    print(f"\n{args.workload}: {args.rev} against the working tree, {args.pairs} pairs")
    for m in metrics:
        name = m["name"]
        s = summarize([r[name] for r in results["parent"]],
                      [r[name] for r in results["change"]], m["better"], m["bound"])
        print(f"{name} ({m['unit']}, {m['better']} is better)")
        for side in ("parent", "change"):
            q1, med, q3 = s[side]
            print(f"  {side:6s} q1 {q1:.6g}  median {med:.6g}  q3 {q3:.6g}")
        print(f"  change wins {s['wins']}/{s['pairs']} (loses {s['losses']}), "
              f"median gap {s['gap']:+.6g} against parent IQR {s['parent_iqr']:.6g}: "
              f"gain {'shown' if s['gain_shown'] else 'not shown'}; "
              f"median {'worse' if s['worse'] > 0 else 'better'} by {abs(100 * s['worse']):.1f}% "
              f"({'within' if s['within_bound'] else 'beyond'} the "
              f"{100 * m['bound']:.0f}% bound)")
    if not ok:
        print("some runs were not correct or failed operations", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
