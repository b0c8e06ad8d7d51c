"""In-memory span recorder that times the package's layers from outside.

``Tracer.wrap`` swaps a module (or class) attribute for a timing wrapper, so
every call that the package makes through that name records a span:
(name, start, end, parent span, request id, info).  Nothing under ``src/``
changes; ``Tracer.remove`` puts the original attributes back.

Pool workers forked while the wrappers are installed record their own spans.
Each forked worker starts an empty span list and writes it to
``<spans_dir>/spans-<pid>.json`` when it exits, through multiprocessing's
after-fork and exit-finaliser hooks; ``Tracer.collect`` merges those files
with the spans of this process.  ``perf_counter`` is the system-wide
monotonic clock on Linux, so span times of different processes compare.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import time
from dataclasses import dataclass
from multiprocessing import util as mp_util


@dataclass(frozen=True)
class Span:
    pid: int
    idx: int
    name: str
    t0: float
    t1: float
    parent: int  # index of the enclosing span in the same process, or -1
    request: int | None
    info: object
    self_time: float

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Records spans of wrapped calls in this process and its forked workers."""

    def __init__(self, spans_dir: str):
        self.spans_dir = spans_dir
        self.request: int | None = None
        self._spans: list = []
        self._stack: list[int] = []
        self._undo: list = []
        mp_util.register_after_fork(self, Tracer._start_worker)

    def _start_worker(self) -> None:
        # A forked worker keeps the wrappers but starts its own span list.
        self._spans, self._stack = [], []
        path = os.path.join(self.spans_dir, f"spans-{os.getpid()}.json")
        mp_util.Finalize(None, self._dump, args=(path,), exitpriority=10)

    def _dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self._spans, fh)

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Time every call made through ``owner.attr`` as a span ``name``.

        ``info(result)``, if given, stores a small JSON value on the span.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def timed(*args, **kwargs):
            # looked up per call: a forked worker swaps in fresh lists
            spans, stack = self._spans, self._stack
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = [name, t0, t1, parent, self.request, None]
            if info is not None:
                spans[idx][5] = info(result)
            return result

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, orig))

    def remove(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def collect(self) -> list[Span]:
        """Spans of this process and of every worker that has exited."""
        per_pid = {os.getpid(): self._spans}
        for path in sorted(glob.glob(os.path.join(self.spans_dir, "spans-*.json"))):
            pid = int(os.path.basename(path)[len("spans-"):-len(".json")])
            with open(path) as fh:
                per_pid[pid] = json.load(fh)
        out = []
        for pid, raw in per_pid.items():
            child_time = [0.0] * len(raw)
            for rec in raw:
                if rec is not None and rec[3] >= 0:
                    child_time[rec[3]] += rec[2] - rec[1]
            for idx, rec in enumerate(raw):
                if rec is None:  # still open: the call never returned
                    continue
                name, t0, t1, parent, request, info = rec
                out.append(Span(pid, idx, name, t0, t1, parent, request, info,
                                t1 - t0 - child_time[idx]))
        return out


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total
