"""Host-speed references for the benchmark's timings.

The benchmark runs on shared machines whose effective speed drifts by tens
of percent over seconds to minutes; process CPU time drifts with it, so
neither wall nor CPU time repeats across runs.  Around every timed piece of
work the benchmark therefore times a fixed, benchmark-owned reference of the
same kind and rescales the work's wall time by
nominal / (mean of the reference times just before and after it).  Reported
times are seconds at the speed where the reference takes its nominal time;
raw wall times are kept in the full record.  Two references:

* ``interpreter``: a small Nelder-Mead search in pure Python.  It resembles
  the package's hot loop but shares no code with it, so a change to the
  package cannot change the reference.
* ``process``: a fresh interpreter that imports numpy, for work dominated by
  interpreter start-up and imports (the CLI, set-up), which the interpreter
  reference does not track.  It imports nothing from the package.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time


def _objective(x):
    a, b, c = x
    return (a - 0.3) ** 2 + 2.0 * (b + 0.1) ** 2 + math.log(1.0 + c * c) + 0.1 * a * b


def reference_work(restarts: int = 260, steps: int = 30) -> float:
    """Short Nelder-Mead runs on a fixed smooth 3-d function.

    Tuples, sorts, comprehensions and math calls: the same kind of
    interpreter work as the package's optimiser, which tracks the host's
    speed for that work more closely than a generic loop does.
    """
    simplex = [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.5)]
    total = 0.0
    for rep in range(restarts):
        verts = [tuple(v[k] + 0.001 * rep for k in range(3)) for v in simplex]
        vals = [_objective(v) for v in verts]
        for _ in range(steps):
            order = sorted(range(4), key=lambda i: vals[i])
            verts = [verts[i] for i in order]
            vals = [vals[i] for i in order]
            cen = tuple(sum(verts[i][k] for i in range(3)) / 3.0 for k in range(3))
            refl = tuple(cen[k] + (cen[k] - verts[-1][k]) for k in range(3))
            f_refl = _objective(refl)
            if f_refl < vals[-1]:
                verts[-1], vals[-1] = refl, f_refl
            else:
                cont = tuple(cen[k] + 0.5 * (verts[-1][k] - cen[k]) for k in range(3))
                verts[-1], vals[-1] = cont, _objective(cont)
        total += vals[0]
    return total


def interpreter_reference() -> float:
    """Wall time of one pass of the reference work, now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def process_reference() -> float:
    """Wall time of a fresh interpreter that imports numpy, now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - t0


# reference -> (timing function, nominal seconds: about its time on an idle
# 2-core Xeon VM with Python 3.11)
REFERENCES = {
    "interpreter": (interpreter_reference, 0.045),
    "process": (process_reference, 0.15),
}


def scale(wall: float, ref_before: float, ref_after: float, nominal: float) -> float:
    """A wall time expressed at the reference's nominal speed."""
    return wall * nominal / (0.5 * (ref_before + ref_after))
